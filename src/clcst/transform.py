"""The Clifford-valued linear canonical Stockwell transform (CLCST); the
Stockwell transform (CST) is the CLCST at M = (0, 1, -1, 0).

Three production evaluation paths are provided and must agree:

* ``direct``     -- the defining quadrature, reorganized per (u, theta) into
                    one FFT correlation over the b-grid;
* ``three_step`` -- chirp, Stockwell transform, chirp in b;
* ``spectral``   -- multiply spectra in the w-domain and invert.

All kernel phases multiply the signal on the right, which keeps every
identity exact for general multivector signals in the non-commutative n = 2
algebra.  The admissibility profile, both reconstructions and the oracles
of :mod:`clcst.verify` (the naive O(N^(2n)) sum, the orthogonality
relation, the reproducing kernel, the isometry ratio and the covariance
identities) share the volume's quadrature weights, so the discrete
identities close exactly up to window truncation.  Each pass starts from
one :class:`~clcst.stockwell.Plan`, which refuses bad lists and windows.
"""

import warnings

import numpy as np

# cft_forward and cst_slice stay importable here for call tracing
from .cft import centered_cft, cft_forward, cft_inverse
from .grid import (
    FREQUENCY,
    SPACE,
    GridSignal,
    chirp_multiply,
    lattice_steps,
    live_pairs,
    pack,
    phase_multiply,
)
from .lct import LCTParams
from .stockwell import (
    BIN_TOLERANCE,
    NonUnitWindowWarning,
    Plan,
    StockwellError,
    axis_phase_multiply,
    check_analysis_inputs,
    correlate_spectrum,
    cst_slice,
    fill_volume,
    row_slices,
    spectrum_slices,
    transformed_window_values,
)
from .volume import CLCSTVolume, block_rows


class TransformError(Exception):
    pass


class MissingCoverageError(TransformError):
    pass


PATHS = ("direct", "three_step", "spectral")


def _require_b_nonzero(params, spec):
    """Refuse B = 0, a half-width L at which the lattice's largest |x|^2 =
    n L L is not finite (the chirp phase is formed as A/B x |x|^2 even at A
    = 0), and a B at which the chirp phase A|x|^2/2B is not finite."""
    if params.B == 0.0:
        raise TransformError("the transform needs B != 0")
    radius2 = spec.n * (spec.half_width * spec.half_width)  # overflows to inf, never raises
    if not np.isfinite(radius2):
        raise TransformError("the lattice's largest |x|^2 = n L^2 is not finite at L = %r"
                             % spec.half_width)
    if not np.isfinite(params.chirp_rate * radius2):
        raise TransformError("the chirp phase A|x|^2/2B is not finite on the lattice at B = %r, "
                             "L = %r" % (params.B, spec.half_width))


def clcst_kernel(psi, params, spec, ctx, b, scaling, rotation):
    """Analysis kernel |det A_u| e^{i_n(x.u + A|b|^2/2B - A|x|^2/2B)} psi(R A (x-b))."""
    _require_b_nonzero(params, spec)
    b = np.asarray(b, dtype=np.float64).ravel()
    wvals = transformed_window_values(psi, spec, b, scaling, rotation)
    sig = GridSignal.from_scalar(spec, ctx, wvals * scaling.det_abs, SPACE)
    rate = params.chirp_rate
    phase = (
        spec.dot(scaling.u) + rate * float(np.dot(b, b)) - rate * spec.squared_radius(SPACE)
    )
    return phase_multiply(sig, phase)


def modulated_window_spectrum(psi, spec, scaling, rotation):
    """Q = cft[e^{i_n u.y} psi(R_{-theta} A_u y)] as one complex array."""
    base = transformed_window_values(psi, spec, np.zeros(spec.n), scaling, rotation)
    return centered_cft(base * np.exp(1j * spec.dot(scaling.u)), spec)


def clcst(f, psi, params, u_list=None, theta_list=None, path="three_step", sink=None):
    """CLCST volume of f on the requested path: f is checked first, then its
    Plan checks the lists and psi, and a window that does not integrate to
    one, as the reconstruction identities assume, is a
    :class:`~clcst.stockwell.NonUnitWindowWarning`.

    Every path runs in the slice engine (:func:`~clcst.stockwell.fill_volume`),
    which builds each (u, theta) window spectrum once (a radial window's once
    per u, from per-axis tables when it is separable), writes the slices in
    u-blocks, and leaves the admissibility profile of the same windows in
    ``vol.admissibility``.
    The paths differ in the signal side:
    ``three_step`` chirps f, by 1-D factors, one per axis, and takes each
    block of u rows on its route (:meth:`~clcst.stockwell.Plan.routes`);
    ``direct`` modulates f by the chirp and the plane wave in one
    phase and correlates it with each window separately; ``spectral``
    multiplies cft(h), h = chirped f e^{-i_n u.x}, by the conjugate centered
    window spectra, which is exact for arbitrary u because h carries the
    modulation pointwise.

    ``sink``, if given, is called once with the new volume, which then holds
    no payload, and returns the consumer of its finished u-blocks
    (:func:`~clcst.stockwell.fill_volume`), e.g. a volume file's
    :meth:`~clcst.io.VolumeWriter.begin`.

    Once its live pairs are packed, f is dropped here, and the pairs are
    chirped in place: a caller that hands f over, keeping no reference of
    its own (as ``clcst transform`` does), frees its 2^n real blades for the
    whole pass, and the engine holds one copy of the input.
    """
    if path not in PATHS:
        raise TransformError("unknown path %r (choose from %r)" % (path, PATHS))
    spec, ctx = f.spec, f.ctx
    _require_b_nonzero(params, spec)
    check_analysis_inputs(f)
    plan = Plan(psi, spec, u_list, theta_list)
    if not psi.is_unit_integral():  # an error under an "error" filter
        warnings.warn("window integral is %g, not 1; reconstruction identities assume 1"
                      % psi.integral(), NonUnitWindowWarning, stacklevel=2)
    live = live_pairs(f.data)
    z = pack(ctx, f.data, pairs=live)
    del f
    vol = CLCSTVolume(spec, ctx, plan.u_list, plan.theta_list, params=params, window=psi,
                      path=path, u_weights=plan.u_weights, pairs=live)
    rate = params.chirp_rate
    if path == "three_step":  # the chirp as 1-D factors, one per axis
        axis_phase_multiply(z, spec, np.zeros((1, spec.n)), rate, 1.0, out=z)
        fill_block = spectrum_slices(z, plan, rate)
    else:
        antichirp = np.exp(-1j * rate * spec.squared_radius(SPACE))
        if path == "direct":
            fill_block = row_slices(_direct_slices(z, plan, rate, antichirp), plan)
        else:
            z *= antichirp.conj()
            fill_block = row_slices(_spectral_slices(z, plan, antichirp), plan)
    fill_volume(vol, plan, fill_block, None if sink is None else sink(vol))
    return vol


def cst(f, psi, u_list=None, theta_list=None):
    """The Stockwell transform: the CLCST at M = (0, 1, -1, 0), whose chirps are 1."""
    return clcst(f, psi, LCTParams.cft_point(), u_list, theta_list)


def _direct_slices(z, plan, rate, antichirp):
    """Per slice: z modulated by e^{j(A|x|^2/2B - x.u)}, correlated with one window."""
    spec = plan.spec
    chirp_phase = rate * spec.squared_radius(SPACE)

    def slices(ui, spectra, out):
        modulated = z * np.exp(1j * (chirp_phase - spec.dot(plan.u_list[ui])))
        for ti, spectrum in enumerate(spectra):
            out[ti] = correlate_spectrum(modulated, spec, spectrum)
        out *= antichirp * (plan.det[ui] * (2.0 * np.pi) ** (-spec.n / 2.0))

    return slices


def _spectral_slices(h, plan, antichirp):
    """Per u: cft(h e^{-j x.u}) times the conjugate centered window spectra, inverted."""
    spec = plan.spec
    axes = tuple(range(-spec.n, 0))

    def slices(ui, spectra, out):
        H = centered_cft(h * np.exp(-1j * spec.dot(plan.u_list[ui])), spec)
        W = np.fft.fftshift(spectra, axes=axes) * (2.0 * np.pi) ** (-spec.n / 2.0)
        s = centered_cft(H * W.conj()[:, None], spec, inverse=True)
        np.multiply(s, antichirp * plan.det[ui], out=out)

    return slices


def admissibility_profile(psi, params, spec, u_list=None, theta_list=None):
    """C_psi(w) = sum over (u, theta) of weights |det A_u|^2 |Q_{u,theta}(w)|^2.

    Returns the profile on the centered frequency lattice, one real array of
    spec.shape (:meth:`~clcst.stockwell.Plan.profile`), plus min/max/mean
    and their relative variation; the resolution-of-identity error is
    governed by how far this profile is from a constant.  The plan checks
    the lists and psi first; the profile is scalar, so it needs no algebra.
    The analysis pass (:func:`~clcst.stockwell.fill_volume`) accumulates the
    same profile in its own pass, from the per-axis tables on the factored
    runs of a separable window; a radial window's one term per u counts T
    times.  Only one block of window spectra is held at a time, and the
    profile is built in place of the pass's sum.
    """
    _require_b_nonzero(params, spec)
    plan = Plan(psi, spec, u_list, theta_list)
    for block in plan.blocks(block_rows(plan.row_bytes)):
        del block  # before the next block's spectra are built
    return plan.profile()


def reconstruct_resolution(vol, psi, params):
    """Resolution-of-identity synthesis from a volume and the admissibility
    profile of the same windows: (synthesis, (profile, stats)), the profile
    the real array of :meth:`~clcst.stockwell.Plan.profile`.

    f_hat(x) = (2 pi)^(-n/2) / C_psi * sum over (b, u, theta) with the
    volume's weights of S(b, u, theta) psi^theta_{M,b,u}(x).

    That sum is the adjoint of the three_step analysis, which each block of
    u rows takes on its route (:meth:`~clcst.stockwell.Plan.routes`), the
    route's sums closed once the pass is done.  The volume stores one
    column per angle of the window that analysed it, and a window of
    another angle count is refused before the first block; a radial
    window's one column counts T times.  Only the stored pairs
    (``vol.pairs``) are summed: every other pair is zero and adds zero.

    The same pass accumulates the admissibility profile, weighted with
    ``vol.u_weights`` as the analysis pass weights it, and builds it in
    place of the pass's sum once the pass is done; C_psi is that profile's
    mean, and a mean that is not positive is refused.

    The u and theta lists come from the volume file and its sidecar, and
    its :class:`~clcst.stockwell.Plan` checks them and psi as an analysis's.

    Each block of u rows is read, or for a payload in memory copied, into
    one buffer of the pass (:meth:`~clcst.volume.CLCSTVolume.rows` with
    ``out``), which its route weights and transforms in place; the
    volume's own payload is never written.  A block is cut at about
    BLOCK_BYTES of its window spectra and 48 bytes per point, stored
    column and pair of the algebra: its rows, a masked copy of its lattice
    rows and one term's product before it is summed.
    """
    spec, ctx = vol.spec, vol.ctx
    _require_b_nonzero(params, spec)
    rate = params.chirp_rate
    plan = Plan(psi, spec, vol.u_list, vol.theta_list, vol.u_weights)
    columns = vol.stored_theta_columns
    if len(plan.angles) != columns:
        raise TransformError("the window has %d angles, the volume %d stored theta columns"
                             % (len(plan.angles), columns))
    # each stored column, against its window, stands for plan.copies thetas
    weights = plan.weights * plan.copies
    # per u row and pair of the algebra, whatever the stored pairs, beside
    # the window block, 16 bytes each: the rows, weighted and transformed in
    # place, a masked copy of the lattice rows and one term's product
    # (AxisRoute._add)
    row_bytes = 48 * columns * (ctx.blade_count // 2) * spec.point_count
    rows = block_rows(row_bytes + plan.row_bytes)
    routes = plan.routes(rate)
    # the pass's own rows, which the routes overwrite: each block is read
    # or copied into them, never a view of the volume's payload; allocated
    # at the first block, once the profile of the factored rows is summed
    largest = max(stop - start for start, stop in plan.bounds(rows))
    buffer = None
    for start, stop, M, B in plan.blocks(rows):
        if buffer is None:
            buffer = np.empty((largest,) + vol.stored_shape[1:], dtype="<c16")
        s = vol.rows(start, stop, out=buffer[:stop - start])
        routes[plan.factored[start]].add(start, stop, M, B, s, weights[start:stop])
        del M, B, s  # before the next block's spectra are built
    del buffer  # before the sums are closed and the profile is built
    total, *rest = [route.total() for route in routes.values() if route is not None]
    for part in rest:
        total += part
    admissibility = plan.profile()
    c_psi = admissibility[1]["mean"]
    if not c_psi > 0:
        raise TransformError("admissibility profile mean %r is not positive" % c_psi)
    # the closing chirp e^{-i_n A|x|^2/2B} is common to every term
    scale = (2.0 * np.pi) ** (-spec.n / 2.0) / c_psi
    axis_phase_multiply(total, spec, np.zeros((1, spec.n)), -rate, scale, out=total)
    return vol.signal(total), admissibility


_FILL_OFFSETS = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
_FILL_WEIGHTS = np.array([-1, 8, -28, 56, 56, -28, 8, -1], dtype=np.float64) / 70.0


def _fill_axis_planes(data, n):
    """Interpolate the missing k = 0 hyperplanes of a spectrum in place.

    Degree-7 Lagrange interpolation through the eight nearest bins along the
    gapped axis; axes are filled sequentially so later fills may use earlier
    ones.
    """
    N = data.shape[1]
    half = N // 2
    for axis in range(1, n + 1):
        acc = np.zeros_like(np.take(data, half, axis=axis))
        for off, wgt in zip(_FILL_OFFSETS, _FILL_WEIGHTS):
            acc = acc + wgt * np.take(data, half + off, axis=axis)
        sl = [slice(None)] * data.ndim
        sl[axis] = half
        data[tuple(sl)] = acc


def marginal_spectrum(vol, params, theta):
    """G(u) = b-sum of the chirp-weighted volume: equals cft[f . chirp](u).

    The u list must cover the frequency lattice away from the coordinate
    planes (scaling needs every component nonzero); the missing planes are
    filled by interpolation and reported.  The one stored column it needs
    is read in slabs of at most BLOCK_BYTES / 8 of stored rows, and at least
    one row, the bound of a factored block of the analysis
    (:func:`~clcst.stockwell.fill_volume`): each row read feeds one dot
    product per pair, so a larger slab buys no speed and sets the command's
    peak.
    """
    spec, N = vol.spec, vol.spec.samples_per_axis
    _require_b_nonzero(params, spec)
    reach = int(_FILL_OFFSETS[-1])  # the k = 0 fill reads the bins at N/2 +- reach
    if N // 2 + reach > N - 1:
        raise TransformError("the marginal fills its k = 0 planes from the bins at N/2 +- %d, "
                             "so it needs N >= %d samples per axis, got N = %d"
                             % (reach, 2 * reach + 2, N))
    thetas = vol.theta_list
    ti = int(np.argmin(np.abs(thetas - theta)))
    if not abs(thetas[ti] - theta) <= 1e-12:  # a NaN theta is not present either
        raise TransformError("theta %g not present in the volume" % theta)
    # each lattice u feeds the bin u / dw; off-lattice u cannot feed the inverse CFT
    steps, on_lattice = lattice_steps(vol.u_list, spec.dw, BIN_TOLERANCE)
    bin_index = steps + N // 2
    rows = np.flatnonzero(np.all(on_lattice & (bin_index >= 0) & (bin_index < N), axis=1))
    bins = tuple(bin_index[rows].T)
    missing = np.ones(spec.shape, dtype=bool)
    for axis in range(spec.n):
        missing[(slice(None),) * axis + (N // 2,)] = False  # k = 0 planes: filled below
    filled = int(np.count_nonzero(~missing))
    missing[bins] = False
    if missing.any():
        first = tuple(int(i) for i in np.argwhere(missing)[0])
        raise MissingCoverageError("volume u-list does not cover frequency bin %r" % (first,))
    # one b-contraction per u and stored pair: sum_b z(b, u) e^{j A|b|^2/2B} dx^n,
    # taken slab by slab on the stored column, which alone is read
    kernel = np.exp(1j * params.chirp_rate * spec.squared_radius(SPACE).ravel()) * vol.b_weight
    G = np.empty((len(vol.pairs), vol.u_count), dtype=np.complex128)
    slab = block_rows(8 * 16 * len(vol.pairs) * spec.point_count)
    for start, stop, block in vol.blocks(vol.column(ti), rows=slab):
        G[:, start:stop] = (block.reshape(stop - start, len(vol.pairs), -1) @ kernel).T
    spectrum = np.zeros((len(vol.pairs),) + spec.shape, dtype=np.complex128)
    spectrum[(slice(None),) + bins] = G[:, rows]
    _fill_axis_planes(spectrum, spec.n)
    return vol.signal(spectrum, FREQUENCY), {"filled_bins": filled}


def reconstruct_marginal(vol, params, theta):
    """Invert the transform through the b-marginal identity.

    G(u) from :func:`marginal_spectrum` equals cft[f e^{i_n A|x|^2/2B}](u), so
    one inverse CFT and an anti-chirp recover f; a window the volume names
    that does not integrate to one is refused.
    """
    if vol.window is not None and not vol.window.is_unit_integral():
        raise StockwellError("marginal reconstruction requires a unit-integral window")
    G, info = marginal_spectrum(vol, params, theta)
    g = cft_inverse(G)
    out = chirp_multiply(g, params.chirp_rate, -1)
    return out, info
