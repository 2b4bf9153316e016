"""The Clifford-valued linear canonical Stockwell transform (CLCST).

Three production evaluation paths are provided and must agree:

* ``direct``     -- the defining quadrature, reorganized per (u, theta) into
                    one FFT correlation over the b-grid;
* ``three_step`` -- chirp, Stockwell transform, chirp in b;
* ``spectral``   -- multiply spectra in the w-domain and invert.

A naive O(N^(2n)) summation oracle is kept for tests and benchmarks.  All
kernel phases multiply the signal on the right, which keeps every identity
exact for general multivector signals in the non-commutative n = 2 algebra.

The admissibility profile, orthogonality relation, both reconstruction
formulas, the reproducing kernel, and the covariance identities all share
the volume's quadrature weights, so the discrete identities close exactly
up to window truncation.
"""

import warnings

import numpy as np

from .algebra import Multivector, left_multiplication_matrix
from .cft import _require_transformable, centered_cft, cft_forward, cft_inverse
from .grid import (
    FREQUENCY,
    SPACE,
    GridSignal,
    chirp_multiply,
    inner_product,
    lattice_steps,
    live_pairs,
    norm_l2,
    pack,
    phase_multiply,
    right_multiply,
    unpack,
)
from .stockwell import (
    BIN_TOLERANCE,
    AxisSynthesis,
    NonUnitWindowWarning,
    Plan,
    Rotation,
    ScalingMatrix,
    StockwellError,
    axis_phase_multiply,
    block_rows,
    check_analysis_inputs,
    checked_lists,
    correlate_spectrum,
    cst_slice,
    fill_volume,
    minimal_image,
    row_slices,
    spectrum_slices,
    transformed_window_values,
)
from .volume import CLCSTVolume, u_weights_from_list


class TransformError(Exception):
    pass


class MissingCoverageError(TransformError):
    pass


PATHS = ("direct", "three_step", "spectral")


def _require_b_nonzero(params, spec):
    """Refuse B = 0, and a B so small that the chirp phase A|x|^2/2B is not
    finite on the lattice (largest |x|^2 = n L^2)."""
    if params.B == 0.0:
        raise TransformError("the transform needs B != 0")
    if not np.isfinite(params.chirp_rate * spec.n * spec.half_width**2):
        raise TransformError(
            "the chirp phase A|x|^2/2B is not finite on the lattice at B = %r" % params.B
        )


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
    """CLCST volume of f via the requested evaluation path.

    Every path runs in the slice engine (:func:`~clcst.stockwell.fill_volume`),
    which builds each (u, theta) window spectrum once (a radial window's once
    per u, from per-axis tables when it is separable), writes the slices in
    u-blocks, and leaves the admissibility profile of the same windows in
    ``vol.admissibility``.
    The paths differ in the signal side:
    ``three_step`` chirps f, by 1-D factors, one per axis; on a run of rows
    that share their leading u values, with a separable window, it goes one
    axis at a time and shares each axis's partial transform across the run
    (:class:`~clcst.stockwell.AxisSlices`), an off-lattice value by one
    dense 1-D operator on a small lattice; otherwise it transforms the
    chirped f once, each lattice u multiplies that spectrum by the
    conjugate of its modulated window spectrum, and one inverse FFT per
    block of u rows gives the slices;
    ``direct`` modulates f by the chirp and the plane wave in one
    phase and correlates it with each window separately; ``spectral``
    multiplies cft(h), h = chirped f e^{-i_n u.x}, by the conjugate centered
    window spectra, which is exact for arbitrary u because h carries the
    modulation pointwise.

    ``sink``, if given, is called once with the new volume, which then holds
    no payload, and returns the consumer of its finished u-blocks
    (:func:`~clcst.stockwell.fill_volume`), e.g. a volume file's
    :meth:`~clcst.io.VolumeWriter.begin`.
    """
    if path not in PATHS:
        raise TransformError("unknown path %r (choose from %r)" % (path, PATHS))
    _require_b_nonzero(params, f.spec)
    check_analysis_inputs(f, psi)
    u_list, theta_list = checked_lists(f.spec, u_list, theta_list)
    live = live_pairs(f.data)
    z = pack(f.ctx, f.data, pairs=live)
    vol = CLCSTVolume(
        f.spec, f.ctx, u_list, theta_list, params=params, window=psi, path=path, pairs=live
    )
    plan = Plan(psi, f.spec, u_list, theta_list, vol.u_weights)
    rate = params.chirp_rate
    if path == "three_step":  # the chirp as 1-D factors, one per axis
        chirped = axis_phase_multiply(z, f.spec, np.zeros((1, f.spec.n)), rate, 1.0)
        fill_block = spectrum_slices(chirped, plan, rate)
    else:
        antichirp = np.exp(-1j * rate * f.spec.squared_radius(SPACE))
        if path == "direct":
            fill_block = row_slices(_direct_slices(z, plan, rate, antichirp), plan)
        else:
            fill_block = row_slices(_spectral_slices(z * antichirp.conj(), plan, antichirp), plan)
    fill_volume(vol, plan, fill_block, None if sink is None else sink(vol))
    return vol


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


def clcst_direct_sum_slice(f, psi, params, scaling, rotation):
    """Naive quadrature over the whole b-grid, 512 b points at a time; the
    slow benchmark oracle."""
    _require_transformable(f)
    _require_b_nonzero(params, f.spec)
    n = f.spec.n
    rate = params.chirp_rate
    mesh = f.spec.mesh(SPACE)
    x = mesh.reshape(n, -1)
    P = x.shape[1]
    x_sq = np.sum(x**2, axis=0)
    z = np.exp(1j * (rate * x_sq - x.T @ scaling.u))  # e^{-i(x.u - A|x|^2/2B)}
    fz = pack(f.ctx, f.data).reshape(-1, P) * z
    rot_scale = rotation.matrix(n) @ np.diag(scaling.u)
    acc = np.empty(fz.shape, dtype=np.complex128)
    for start in range(0, P, 512):
        rows = slice(start, start + 512)
        diff = minimal_image(x[:, None, :] - x[:, rows, None], f.spec.half_width)
        args = np.einsum("ij,jbp->ibp", rot_scale, diff)
        wmat = psi.evaluate(args)  # (rows, P)
        acc[:, rows] = fz @ wmat.T
    acc *= np.exp(-1j * rate * x_sq)  # b runs over the same lattice as x
    scale = scaling.det_abs * (2.0 * np.pi) ** (-n / 2.0) * f.spec.cell_weight(SPACE)
    out = unpack(f.ctx, acc.reshape((-1,) + f.spec.shape) * scale)
    return GridSignal(f.spec, f.ctx, out, SPACE)


def admissibility_profile(psi, params, spec, ctx, u_list=None, theta_list=None):
    """C_psi(w) = sum over (u, theta) of weights |det A_u|^2 |Q_{u,theta}(w)|^2.

    Returns the scalar profile on the frequency lattice plus min/max/mean and
    their relative variation; the resolution-of-identity error is governed by
    how far this profile is from a constant.  The analysis pass
    (:func:`~clcst.stockwell.fill_volume`) accumulates the same profile in
    the same :class:`~clcst.stockwell.Plan` pass, from the per-axis tables
    on the factored runs of a separable window; a radial window's one term
    per u counts T times.
    """
    _require_b_nonzero(params, spec)
    u_list, theta_list = checked_lists(spec, u_list, theta_list)
    if len(u_list) == 0 or len(theta_list) == 0:
        raise TransformError("admissibility needs a non-empty (u, theta) set")
    plan = Plan(psi, spec, u_list, theta_list, u_weights_from_list(u_list))
    for block in plan.blocks(block_rows(plan.row_bytes)):
        del block  # before the next block's spectra are built
    return plan.profile(ctx)


def orthogonality_check(f, g, psi, params, scaling, rotation):
    """Both sides of the per-(u, theta) orthogonality identity.

    lhs: the b-grid inner product of the two transforms, each the Stockwell
    slice of the chirped signal; the transform's closing chirp in b has unit
    modulus and cancels in the inner product.
    rhs: |det A_u|^2 <P_f conj(Q) Q, P_g> over the frequency lattice, with
    P = cft[. chirp] and Q the modulated window spectrum, operands ordered as
    in the underlying Plancherel argument.
    """
    chirped_f = chirp_multiply(f, params.chirp_rate, +1)
    chirped_g = chirp_multiply(g, params.chirp_rate, +1)
    lhs = inner_product(
        cst_slice(chirped_f, psi, scaling, rotation), cst_slice(chirped_g, psi, scaling, rotation)
    )
    Q = modulated_window_spectrum(psi, f.spec, scaling, rotation)
    x = right_multiply(cft_forward(chirped_f), Q.conj() * Q)
    rhs = inner_product(x, cft_forward(chirped_g)) * scaling.det_abs**2
    return lhs, rhs


def volume_energy(vol):
    """sum over (b, u, theta) of |S|^2 with the volume's quadrature weights;
    a shared theta column counts once per theta it stands for."""
    per_column = np.empty((vol.u_count, vol.stored_theta_columns))
    for start, stop, rows in vol.blocks():  # a volume file is read block by block
        # |z_B|^2 = f_B^2 + f_{B^F}^2: the real and imaginary parts of the pairs
        flat = rows.view(np.float64).reshape(stop - start, vol.stored_theta_columns, -1)
        per_column[start:stop] = np.einsum("utk,utk->ut", flat, flat)
    per_column *= vol.b_weight
    weight = vol.theta_step * (vol.theta_count // vol.stored_theta_columns)
    return float(np.sum(per_column * vol.u_weights[:, None]) * weight)


def isometry_ratio(vol, f, params):
    """volume energy / ||f . chirp||^2; approximately the mean admissibility."""
    chirped = chirp_multiply(f, params.chirp_rate, +1)
    denom = norm_l2(chirped) ** 2
    if denom == 0.0:
        raise TransformError("zero signal has no isometry ratio")
    return volume_energy(vol) / denom


def reconstruct_resolution(vol, psi, params):
    """Resolution-of-identity synthesis from a volume and the admissibility
    profile of the same windows: (synthesis, (profile, stats)).

    f_hat(x) = (2 pi)^(-n/2) / C_psi * sum over (b, u, theta) with the
    volume's weights of S(b, u, theta) psi^theta_{M,b,u}(x).

    Per (u, theta) the b-sum is the periodic convolution of the chirped slice
    with the modulated window.  On the factored runs of a separable window
    it is the adjoint of the axis-by-axis analysis
    (:class:`~clcst.stockwell.AxisSynthesis`): each row's 1-D transforms
    along the last axis, or its dense adjoint operator off the lattice,
    are summed over its run, and each run's sum goes through the earlier
    axes once.  On the n-D route, for a lattice u it
    is fftn(s e^{j u.b}) M in the spectrum, M the modulated window spectrum
    of :meth:`~clcst.stockwell.Plan.blocks`: each block's weighted columns
    are transformed by one fftn, their products with M summed without a
    roll, and the sum inverted once.  An off-lattice u is convolved with its
    plain spectrum B, inverted and modulated by e^{j x.u} on its own.  A
    radial window has one M for every theta of a u: a volume that stores
    one column for it counts that column's term T times, and a volume that
    stores all T columns sums them before their one FFT.  Only the stored
    pairs (``vol.pairs``) are transformed and summed: every other pair is
    zero and adds exactly zero.

    The same pass accumulates the admissibility profile, weighted with
    ``vol.u_weights`` as the analysis pass weights it; C_psi is that
    profile's mean, and a mean that is not positive is refused.

    The u and theta lists come from the volume's sidecar and are checked as
    :func:`~clcst.stockwell.checked_lists` checks an analysis's lists.
    """
    spec, ctx = vol.spec, vol.ctx
    _require_b_nonzero(params, spec)
    checked_lists(spec, vol.u_list, vol.theta_list)
    if len(vol.u_list) == 0 or len(vol.theta_list) == 0:
        raise TransformError("resolution synthesis needs a non-empty (u, theta) set")
    axes = tuple(range(-spec.n, 0))
    rate = params.chirp_rate
    plan = Plan(psi, spec, vol.u_list, vol.theta_list, vol.u_weights)
    columns = max(vol.stored_theta_columns, len(plan.angles))
    # a product of one stored column and one window stands for T / columns thetas
    weights = plan.weights * (vol.theta_count // columns)
    summed = np.zeros((len(vol.pairs),) + spec.shape, dtype=np.complex128)
    modulated = np.zeros_like(summed)
    # per u row and pair of the algebra, whatever the stored pairs: the
    # rows read from a volume file and their weighted copy, transformed and
    # multiplied in place, 16 bytes each, beside the window block
    row_bytes = 48 * columns * (ctx.blade_count // 2) * spec.point_count
    rows = block_rows(row_bytes + plan.row_bytes)
    factored = AxisSynthesis(plan, rate) if plan.factored.any() else None
    for start, stop, M, B in plan.blocks(rows, plain=True):
        u_rows, lattice = vol.u_list[start:stop], plan.on_lattice[start:stop]
        s = vol.rows(start, stop)
        angles = 1 if plan.factored[start] else M.shape[1]
        if s.shape[1] > angles:  # T stored columns, one window for every theta
            s = np.sum(s, axis=1, keepdims=True)
        elif s.shape[1] < angles:  # one stored column, a window per theta
            M = np.sum(M, axis=1, keepdims=True)
            B = {i: np.sum(b, axis=0, keepdims=True) for i, b in B.items()}
        if plan.factored[start]:  # M holds the block's tables
            factored(start, stop, M, s[:, 0], weights[start:stop])
            continue
        # weight x chirp x e^{j u.b} on the lattice, before one fftn, into a
        # new array: the rows may be the volume's own
        s = axis_phase_multiply(s, spec, plan.lattice_u[start:stop], rate, weights[start:stop])
        np.fft.fftn(s, axes=axes, out=s)
        for i in np.flatnonzero(~lattice):
            term = np.sum(s[i] * B[i][:, None], axis=0)
            np.fft.ifftn(term, axes=axes, out=term)
            modulated += axis_phase_multiply(term, spec, u_rows[[i]], 0.0, 1.0, out=term)
        s *= M[:, :, None]
        summed += np.sum(s, axis=(0, 1), where=lattice.reshape((-1,) + (1,) * (s.ndim - 1)))
        del M, B, s  # before the next block's spectra are built
    total = np.fft.ifftn(summed, axes=axes, out=summed) + modulated
    if factored is not None:
        total += factored.total()
    admissibility = plan.profile(ctx)
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
    filled by interpolation and reported.
    """
    spec = vol.spec
    _require_b_nonzero(params, spec)
    thetas = vol.theta_list
    ti = int(np.argmin(np.abs(thetas - theta)))
    if not abs(thetas[ti] - theta) <= 1e-12:  # a NaN theta is not present either
        raise TransformError("theta %g not present in the volume" % theta)
    # each lattice u feeds the bin u / dw; off-lattice u cannot feed the inverse CFT
    N = spec.samples_per_axis
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
    # taken block by block on the stored column, which alone is read
    kernel = np.exp(1j * params.chirp_rate * spec.squared_radius(SPACE).ravel()) * vol.b_weight
    G = np.empty((len(vol.pairs), vol.u_count), dtype=np.complex128)
    for start, stop, block in vol.blocks(vol.column(ti)):
        G[:, start:stop] = (block.reshape(stop - start, len(vol.pairs), -1) @ kernel).T
    spectrum = np.zeros((len(vol.pairs),) + spec.shape, dtype=np.complex128)
    spectrum[(slice(None),) + bins] = G[:, rows]
    _fill_axis_planes(spectrum, spec.n)
    return vol.signal(spectrum, FREQUENCY), {"filled_bins": filled}


def reconstruct_marginal(vol, params, theta, strict=True):
    """Invert the transform through the b-marginal identity.

    G(u) from :func:`marginal_spectrum` equals cft[f e^{i_n A|x|^2/2B}](u), so
    one inverse CFT and an anti-chirp recover f.
    """
    if vol.window is not None and not vol.window.is_unit_integral():
        if strict:
            raise StockwellError(
                "marginal reconstruction requires a unit-integral window"
            )
        warnings.warn(
            "window integral differs from 1; marginal identity will be biased",
            NonUnitWindowWarning,
            stacklevel=2,
        )
    G, info = marginal_spectrum(vol, params, theta)
    g = cft_inverse(G)
    out = chirp_multiply(g, params.chirp_rate, -1)
    return out, info


def reproducing_kernel(psi, params, spec, ctx, c_psi, p1, p2):
    """K = <psi^theta_{M,b,u} / C_psi, psi^theta'_{M,b',u'}> and its printed bound.

    Each point is (b, u, theta).  Returns (K, bound) where the bound is
    (|det A_u|^(1-n) |det A_u'|^(1-n) / C_psi)^(1/2) ||psi||_L1 with the L1
    norm taken by lattice quadrature.
    """
    if c_psi <= 0:
        raise TransformError("admissibility constant must be positive")
    b1, u1, t1 = p1
    b2, u2, t2 = p2
    s1, r1 = ScalingMatrix(u1), Rotation(t1)
    s2, r2 = ScalingMatrix(u2), Rotation(t2)
    k1 = clcst_kernel(psi, params, spec, ctx, b1, s1, r1)
    k2 = clcst_kernel(psi, params, spec, ctx, b2, s2, r2)
    kernel = inner_product(k1, k2) * (1.0 / c_psi)
    base = transformed_window_values(psi, spec, np.zeros(spec.n), ScalingMatrix(np.ones(spec.n)), Rotation(0.0))
    l1 = float(np.sum(np.abs(base))) * spec.cell_weight(SPACE)
    n = spec.n
    bound = np.sqrt(abs(s1.det_abs ** (1 - n) * s2.det_abs ** (1 - n) / c_psi)) * l1
    return kernel, bound


def _index_shift(spec, vector):
    steps, on_lattice = lattice_steps(vector, spec.dx)
    if not on_lattice.all():
        raise TransformError("shift %r is not a lattice vector" % (vector,))
    return steps


def _roll_signal(f, index_shift):
    data = np.roll(f.data, index_shift, axis=tuple(range(1, f.spec.n + 1)))
    return GridSignal(f.spec, f.ctx, data, f.domain)


def _resample_indices(spec, factor):
    N = spec.samples_per_axis
    half = N // 2
    steps, on_lattice = lattice_steps(factor * (np.arange(N) - half))
    if not on_lattice.all():
        raise TransformError("scale factor %g is not lattice compatible" % factor)
    return (steps + half) % N


def _resample_signal(f, factor):
    idx = _resample_indices(f.spec, factor)
    data = f.data
    for axis in range(1, f.spec.n + 1):
        data = np.take(data, idx, axis=axis)
    return GridSignal(f.spec, f.ctx, data, f.domain)


def covariance_suite(f, psi, params, u_list, theta_list, shift=None, dilation=2.0,
                     dilation_b_radius=None, seed=0):
    """Max relative deviations of the five covariance identities.

    The shift must be a lattice vector and the dilation lattice compatible;
    both sides of every identity are computed independently on shared grids.
    """
    spec, ctx = f.spec, f.ctx
    rng = np.random.default_rng(seed)
    if shift is None:
        shift = np.zeros(spec.n)
        shift[0] = spec.dx
    shift = np.asarray(shift, dtype=np.float64)
    u_list = np.asarray(u_list, dtype=np.float64).reshape(-1, spec.n)
    theta_list = np.asarray(theta_list, dtype=np.float64).ravel()
    def analyze(sig):
        return clcst(sig, psi, params, u_list, theta_list, path="direct")
    base = analyze(f)
    report = {}

    # (1) linearity in the signal with left multivector coefficients
    g = GridSignal(spec, ctx, rng.standard_normal(f.data.shape), SPACE)
    alpha = Multivector(ctx, rng.standard_normal(ctx.blade_count))
    beta = Multivector(ctx, rng.standard_normal(ctx.blade_count))

    def left_multiply(mv, data):  # mv x at every point of blade-major data
        return np.tensordot(left_multiplication_matrix(mv), data, axes=1)

    mixed = GridSignal(spec, ctx, left_multiply(alpha, f.data) + left_multiply(beta, g.data), SPACE)
    rhs_vals = left_multiply(alpha, base.values) + left_multiply(beta, analyze(g).values)
    report["linearity"] = _rel_max(analyze(mixed).values, rhs_vals)

    # (2) anti-linearity in the window with real coefficients
    from .windows import CompositeWindow, GaussianWindow

    psi2 = GaussianWindow(spec.n, sigma=0.7)
    a_c, b_c = 0.8, -1.3
    combo = CompositeWindow([(a_c, psi), (b_c, psi2)])
    lhs = clcst(f, combo, params, u_list, theta_list, path="direct").values
    rhs_vals = (
        clcst(f, psi, params, u_list, theta_list, path="direct").values * a_c
        + clcst(f, psi2, params, u_list, theta_list, path="direct").values * b_c
    )
    report["anti_linearity"] = _rel_max(lhs, rhs_vals)

    # (3) translation covariance; the b-cells that wrap around the period
    # seam compare S at b-k against S at b-k+2L, so they are masked out
    k_idx = _index_shift(spec, shift)
    rolled = analyze(_roll_signal(f, k_idx))
    lhs = rolled.values
    rate2 = params.A / params.B
    kdotx = spec.dot(shift)
    vol_mod = analyze(phase_multiply(f, rate2 * kdotx))
    k_sq = float(np.dot(shift, shift))
    b_axes = tuple(range(1, spec.n + 1))
    # e^{i_n(-u.k + A/B (|k|^2 - k.b))} on the right of every (b, u) of the rolled volume
    phase = rate2 * (k_sq - kdotx)[..., None] - rolled.u_list @ shift
    shifted = pack(ctx, np.roll(vol_mod.values, k_idx, axis=b_axes))
    rhs_vals = unpack(ctx, shifted * np.exp(1j * phase)[..., None])
    seam = np.ones(spec.shape, dtype=bool)
    N = spec.samples_per_axis
    for axis, steps in enumerate(k_idx):
        keep_axis = np.ones(N, dtype=bool)
        if steps > 0:
            keep_axis[:steps] = False
        elif steps < 0:
            keep_axis[steps:] = False
        shape = [1] * spec.n
        shape[axis] = N
        seam &= keep_axis.reshape(shape)
    smask = seam[None, ..., None, None]
    report["translation"] = float(
        np.max(np.abs(lhs - rhs_vals) * smask) / max(np.max(np.abs(lhs * smask)), 1e-300)
    )

    # (4) dilation covariance: b -> lam b, u -> u/lam under M' = (A, lam^2 B, ., .).
    # Tracking |det A_u| = lam^n |det A_{u/lam}| through the substitution
    # cancels the lam^-n one might expect, so the sides match with factor 1.
    # Only A/B enters the transform, so C is rescaled to keep AD - BC = 1.
    # Compared where lam*b keeps the scaled window clear of the period seam.
    from .lct import LCTParams

    lam = float(dilation)
    lhs = analyze(_resample_signal(f, lam)).values
    params_p = LCTParams(params.A, lam**2 * params.B, params.C / lam**2, params.D)
    vol_p = clcst(f, psi, params_p, u_list / lam, theta_list, path="direct")
    idx = _resample_indices(spec, lam)
    resampled = vol_p.values
    for axis in b_axes:
        resampled = np.take(resampled, idx, axis=axis)
    if dilation_b_radius is None:
        dilation_b_radius = spec.half_width / (2.0 * abs(lam))
    coords = spec.mesh(SPACE)
    valid = np.all(np.abs(lam * coords) <= dilation_b_radius * abs(lam) + 1e-12, axis=0)
    valid &= np.all(np.abs(coords) <= dilation_b_radius, axis=0)
    mask = valid[None, ..., None, None]
    diff = np.abs(lhs - resampled) * mask
    scale = max(np.max(np.abs(lhs * mask)), 1e-300)
    report["dilation"] = float(np.max(diff) / scale)

    # (5) parity: f(-x) against (-1)^n S(-b, -u, theta)
    lhs = analyze(_resample_signal(f, -1.0)).values
    vol_neg = clcst(f, psi, params, -u_list, theta_list, path="direct")
    idx = _resample_indices(spec, -1.0)
    reflected = vol_neg.values
    for axis in b_axes:
        reflected = np.take(reflected, idx, axis=axis)
    report["parity"] = _rel_max(lhs, reflected * (-1.0) ** spec.n)
    return report


def _rel_max(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
