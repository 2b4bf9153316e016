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

from .algebra import Multivector
from .cft import _require_transformable, centered_cft, cft_forward, cft_inverse
from .grid import (
    FREQUENCY,
    SPACE,
    GridSignal,
    chirp_multiply,
    inner_product,
    lattice_steps,
    norm_l2,
    pack,
    phase_multiply,
    right_multiply,
    unpack,
)
from .stockwell import (
    NonUnitWindowWarning,
    Rotation,
    ScalingMatrix,
    StockwellError,
    add_admissibility,
    admissibility_weights,
    block_rows,
    check_analysis_inputs,
    checked_lists,
    correlate_spectrum,
    cst_slice,
    fill_volume,
    profile_result,
    roll_sign,
    roll_steps,
    rolled_slices,
    transformed_window_values,
    window_angles,
    window_blocks,
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


def clcst(f, psi, params, u_list=None, theta_list=None, path="three_step", strict=False):
    """CLCST volume of f via the requested evaluation path.

    Every path runs in the slice engine (:func:`~clcst.stockwell.fill_volume`),
    which evaluates and transforms each (u, theta) window once (a radial
    window once per u), writes the slices in u-blocks, and leaves the
    admissibility profile of the same windows in ``vol.admissibility``.
    The paths differ in the signal side:
    ``three_step`` chirps f, transforms it once and rolls that spectrum per
    lattice u; ``direct`` modulates f by the chirp and the plane wave in one
    phase and correlates it with each window separately; ``spectral``
    multiplies cft(h), h = chirped f e^{-i_n u.x}, by the conjugate centered
    window spectra, which is exact for arbitrary u because h carries the
    modulation pointwise.
    """
    if path not in PATHS:
        raise TransformError("unknown path %r (choose from %r)" % (path, PATHS))
    _require_b_nonzero(params, f.spec)
    check_analysis_inputs(f, psi, strict)
    u_list, theta_list = checked_lists(f.spec, u_list, theta_list)
    vol = CLCSTVolume(
        f.spec, f.ctx, u_list, theta_list, params=params, window=psi, path=path
    )
    antichirp = np.exp(-1j * params.chirp_rate * f.spec.squared_radius(SPACE))
    z = pack(f.ctx, f.data)
    if path == "three_step":
        slices = rolled_slices(z * antichirp.conj(), vol, closing=antichirp)
    elif path == "direct":
        slices = _direct_slices(z, vol, params.chirp_rate, antichirp)
    else:
        slices = _spectral_slices(z * antichirp.conj(), vol, antichirp)
    fill_volume(vol, psi, slices)
    return vol


def _direct_slices(z, vol, rate, antichirp):
    """Per slice: z modulated by e^{j(A|x|^2/2B - x.u)}, correlated with one window."""
    spec = vol.spec
    chirp_phase = rate * spec.squared_radius(SPACE)

    def slices(ui, spectra, out):
        scaling = ScalingMatrix(vol.u_list[ui])
        modulated = z * np.exp(1j * (chirp_phase - spec.dot(scaling.u)))
        for ti, spectrum in enumerate(spectra):
            out[ti] = correlate_spectrum(modulated, spec, spectrum)
        out *= antichirp * (scaling.det_abs * (2.0 * np.pi) ** (-spec.n / 2.0))

    return slices


def _spectral_slices(h, vol, antichirp):
    """Per u: cft(h e^{-j x.u}) times the conjugate centered window spectra, inverted."""
    spec = vol.spec
    axes = tuple(range(-spec.n, 0))

    def slices(ui, spectra, out):
        scaling = ScalingMatrix(vol.u_list[ui])
        H = centered_cft(h * np.exp(-1j * spec.dot(scaling.u)), spec)
        W = np.fft.fftshift(spectra, axes=axes) * (2.0 * np.pi) ** (-spec.n / 2.0)
        s = centered_cft(H * W.conj()[:, None], spec, inverse=True)
        np.multiply(s, antichirp * scaling.det_abs, out=out)

    return slices


def clcst_direct_sum_slice(f, psi, params, scaling, rotation, block_rows=512):
    """Naive quadrature over the whole b-grid; the slow benchmark oracle."""
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
    from .stockwell import minimal_image

    rot_scale = rotation.matrix(n) @ np.diag(scaling.u)
    acc = np.empty(fz.shape, dtype=np.complex128)
    for start in range(0, P, block_rows):
        stop = min(start + block_rows, P)
        diff = minimal_image(x[:, None, :] - x[:, start:stop, None], f.spec.half_width)
        args = np.einsum("ij,jbp->ibp", rot_scale, diff)
        wmat = psi.evaluate(args)  # (rows, P)
        acc[:, start:stop] = fz @ wmat.T
    acc *= np.exp(-1j * rate * x_sq)  # b runs over the same lattice as x
    scale = scaling.det_abs * (2.0 * np.pi) ** (-n / 2.0) * f.spec.cell_weight(SPACE)
    out = unpack(f.ctx, acc.reshape((-1,) + f.spec.shape) * scale)
    return GridSignal(f.spec, f.ctx, out, SPACE)


def admissibility_profile(psi, params, spec, ctx, u_list=None, theta_list=None):
    """C_psi(w) = sum over (u, theta) of weights |det A_u|^2 |Q_{u,theta}(w)|^2.

    Returns the scalar profile on the frequency lattice plus min/max/mean and
    their relative variation; the resolution-of-identity error is governed by
    how far this profile is from a constant.  The analysis pass
    (:func:`~clcst.stockwell.fill_volume`) accumulates the same profile with
    the same helper; a radial window's one term per u counts T times.
    """
    _require_b_nonzero(params, spec)
    u_list, theta_list = checked_lists(spec, u_list, theta_list)
    if len(u_list) == 0 or len(theta_list) == 0:
        raise TransformError("admissibility needs a non-empty (u, theta) set")
    weights = admissibility_weights(psi, u_list, u_weights_from_list(u_list), theta_list)
    profile = np.zeros(spec.shape)
    rows = block_rows(24 * len(window_angles(psi, theta_list)) * spec.point_count)
    for start, stop, values, spectra in window_blocks(psi, spec, u_list, theta_list, rows):
        add_admissibility(profile, spec, u_list[start:stop], weights[start:stop], values, spectra)
    return profile_result(profile, spec, ctx)


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
    flat = vol.stored.reshape(vol.u_count, vol.stored_theta_columns, -1)
    per_column = np.einsum("utk,utk->ut", flat, flat) * vol.b_weight
    weight = vol.theta_step * (vol.theta_count // vol.stored_theta_columns)
    return float(np.sum(per_column * vol.u_weights[:, None]) * weight)


def isometry_ratio(vol, f, params):
    """volume energy / ||f . chirp||^2; approximately the mean admissibility."""
    chirped = chirp_multiply(f, params.chirp_rate, +1)
    denom = norm_l2(chirped) ** 2
    if denom == 0.0:
        raise TransformError("zero signal has no isometry ratio")
    return volume_energy(vol) / denom


def reconstruct_resolution(vol, psi, params, c_psi):
    """Resolution-of-identity synthesis from a volume.

    f_hat(x) = (2 pi)^(-n/2) / C_psi * sum over (b, u, theta) with the
    volume's weights of S(b, u, theta) psi^theta_{M,b,u}(x).

    Per (u, theta) the b-sum is the periodic convolution of the chirped slice
    with the window, fftn(s) B in the spectrum, and the plane wave e^{j x.u}
    of a lattice u rolls that spectrum by +k.  Lattice terms are summed as
    spectra and inverted once; an off-lattice u is inverted and modulated on
    its own.  A radial window has one B for every theta of a u: a volume
    that stores one column for it counts that column's term T times, and a
    volume that stores all T columns sums them before their one FFT.
    """
    if c_psi <= 0:
        raise TransformError("admissibility constant must be positive")
    spec, ctx = vol.spec, vol.ctx
    _require_b_nonzero(params, spec)
    axes = tuple(range(-spec.n, 0))
    chirp = np.exp(1j * params.chirp_rate * spec.squared_radius(SPACE))
    steps, on_lattice = roll_steps(spec, vol.u_list)
    columns = max(vol.stored_theta_columns, len(window_angles(psi, vol.theta_list)))
    # a product of one stored column and one window stands for T / columns thetas
    copies = vol.theta_count // columns
    weights = vol.u_weights * vol.theta_step * copies * np.prod(np.abs(vol.u_list), axis=1)
    rolled = np.zeros((ctx.blade_count // 2,) + spec.shape, dtype=np.complex128)
    modulated = np.zeros_like(rolled)
    rows = block_rows(40 * columns * ctx.blade_count * spec.point_count)
    blocks = window_blocks(psi, spec, vol.u_list, vol.theta_list, rows)
    for start, stop, _, spectra in blocks:
        s = np.moveaxis(pack(ctx, np.moveaxis(vol.stored[start:stop], 2, 0)), 0, 2)
        if s.shape[1] > spectra.shape[1]:  # T stored columns, one window for every theta
            s = np.sum(s, axis=1, keepdims=True)
        terms = np.sum(np.fft.fftn(s * chirp, axes=axes) * spectra[:, :, None], axis=1)
        for i, ui in enumerate(range(start, stop)):
            if on_lattice[ui]:
                weight = weights[ui] * roll_sign(steps[ui])
                rolled += np.roll(terms[i], tuple(steps[ui]), axis=axes) * weight
            else:
                wave = np.exp(1j * spec.dot(vol.u_list[ui])) * weights[ui]
                modulated += np.fft.ifftn(terms[i], axes=axes) * wave
    total = np.fft.ifftn(rolled, axes=axes) + modulated
    # the closing chirp e^{-i_n A|x|^2/2B} is common to every term
    scale = (2.0 * np.pi) ** (-spec.n / 2.0) / c_psi
    return GridSignal(spec, ctx, unpack(ctx, total * chirp.conj() * scale), SPACE)


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
    spec, ctx = vol.spec, vol.ctx
    _require_b_nonzero(params, spec)
    thetas = vol.theta_list
    ti = int(np.argmin(np.abs(thetas - theta)))
    if abs(thetas[ti] - theta) > 1e-12:
        raise TransformError("theta %g not present in the volume" % theta)
    # each lattice u feeds the bin u / dw; off-lattice u cannot feed the inverse CFT
    N = spec.samples_per_axis
    steps, on_lattice = lattice_steps(vol.u_list, spec.dw)
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
    # one b-contraction over every u: sum_b S(b, u) e^{i_n A|b|^2/2B} dx^n,
    # taken on the real stored column so no packed copy of it is made
    phase = params.chirp_rate * spec.squared_radius(SPACE).ravel()
    kernel = np.stack([np.cos(phase), np.sin(phase)], axis=1) * vol.b_weight
    values = vol.stored[:, vol.column(ti)].reshape(vol.u_count, ctx.blade_count, -1)
    summed = (values @ kernel).T  # (cos | sin, blades, U)
    G = pack(ctx, summed[0]) + 1j * pack(ctx, summed[1])
    data = np.zeros((ctx.blade_count,) + spec.shape)
    data[(slice(None),) + bins] = unpack(ctx, G[:, rows])
    _fill_axis_planes(data, spec.n)
    return GridSignal(spec, ctx, data, FREQUENCY), {"filled_bins": filled}


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


def _left_multiply_volume(vol, mv):
    """mv S at every (b, u, theta), as an array in the order of ``vol.values``."""
    ctx = vol.ctx
    m = ctx.blade_count
    matrix = np.zeros((m, m))
    for b in range(m):
        for a in range(m):
            matrix[a ^ b, b] += ctx.sign_table[a, b] * mv.coeffs[a]
    return np.einsum("cb,b...->c...", matrix, vol.values)


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
    mixed_data = np.zeros_like(f.data)
    for target in range(ctx.blade_count):
        for a in range(ctx.blade_count):
            b = a ^ target
            mixed_data[target] += ctx.sign_table[a, b] * (
                alpha.coeffs[a] * f.data[b] + beta.coeffs[a] * g.data[b]
            )
    mixed = GridSignal(spec, ctx, mixed_data, SPACE)
    lhs = analyze(mixed)
    rhs_vals = _left_multiply_volume(base, alpha) + _left_multiply_volume(analyze(g), beta)
    report["linearity"] = _rel_max(lhs.values, rhs_vals)

    # (2) anti-linearity in the window with real coefficients
    from .windows import CompositeWindow, GaussianWindow

    psi2 = GaussianWindow(spec.n, sigma=0.7)
    a_c, b_c = 0.8, -1.3
    combo = CompositeWindow([(a_c, psi), (b_c, psi2)])
    lhs = clcst(f, combo, params, u_list, theta_list, path="direct")
    rhs_vals = (
        clcst(f, psi, params, u_list, theta_list, path="direct").values * a_c
        + clcst(f, psi2, params, u_list, theta_list, path="direct").values * b_c
    )
    report["anti_linearity"] = _rel_max(lhs.values, rhs_vals)

    # (3) translation covariance; the b-cells that wrap around the period
    # seam compare S at b-k against S at b-k+2L, so they are masked out
    k_idx = _index_shift(spec, shift)
    lhs = analyze(_roll_signal(f, k_idx))
    rate2 = params.A / params.B
    kdotx = spec.dot(shift)
    modulated = phase_multiply(f, rate2 * kdotx)
    vol_mod = analyze(modulated)
    k_sq = float(np.dot(shift, shift))
    kdotb = kdotx
    rhs_vals = np.empty_like(lhs.values)
    b_axes = tuple(range(1, spec.n + 1))
    for ui in range(lhs.u_count):
        u = lhs.u_list[ui]
        for ti in range(lhs.theta_count):
            shifted = np.roll(vol_mod.values[..., ui, ti], k_idx, axis=b_axes)
            sig = GridSignal(spec, ctx, shifted, SPACE)
            phase = -float(np.dot(u, shift)) + rate2 * (k_sq - kdotb)
            rhs_vals[..., ui, ti] = phase_multiply(sig, phase).data
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
        np.max(np.abs(lhs.values - rhs_vals) * smask)
        / max(np.max(np.abs(lhs.values * smask)), 1e-300)
    )

    # (4) dilation covariance: b -> lam b, u -> u/lam under M' = (A, lam^2 B, ., .).
    # Tracking |det A_u| = lam^n |det A_{u/lam}| through the substitution
    # cancels the lam^-n one might expect, so the sides match with factor 1.
    # Only A/B enters the transform, so C is rescaled to keep AD - BC = 1.
    # Compared where lam*b keeps the scaled window clear of the period seam.
    from .lct import LCTParams

    lam = float(dilation)
    lhs = analyze(_resample_signal(f, lam))
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
    diff = np.abs(lhs.values - resampled) * mask
    scale = max(np.max(np.abs(lhs.values * mask)), 1e-300)
    report["dilation"] = float(np.max(diff) / scale)

    # (5) parity: f(-x) against (-1)^n S(-b, -u, theta)
    lhs = analyze(_resample_signal(f, -1.0))
    vol_neg = clcst(f, psi, params, -u_list, theta_list, path="direct")
    idx = _resample_indices(spec, -1.0)
    reflected = vol_neg.values
    for axis in b_axes:
        reflected = np.take(reflected, idx, axis=axis)
    report["parity"] = _rel_max(lhs.values, reflected * (-1.0) ** spec.n)
    return report


def _rel_max(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
