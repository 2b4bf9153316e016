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
from .cft import _require_transformable, cft_forward, cft_inverse
from .grid import (
    FREQUENCY,
    SPACE,
    GridError,
    GridSignal,
    chirp_multiply,
    inner_product,
    norm_l2,
    phase_multiply,
    plane_wave_multiply,
    right_multiply_plane_field,
)
from .stockwell import (
    NonUnitWindowWarning,
    Rotation,
    ScalingMatrix,
    StockwellError,
    _convolve_with_scalar,
    checked_lists,
    cst_slice,
    transformed_window_values,
)
from .volume import CLCSTVolume, DEFAULT_THETAS, default_u_list
from .windows import WindowSpec


class TransformError(Exception):
    pass


class MissingCoverageError(TransformError):
    pass


PATHS = ("direct", "three_step", "spectral")


def _check_window(psi, strict=False):
    if not isinstance(psi, WindowSpec):
        raise StockwellError("clcst needs an analytic window")
    if not psi.is_unit_integral():
        if strict:
            raise StockwellError("window does not integrate to one (strict mode)")
        warnings.warn(
            "window integral is %g, not 1; marginal reconstruction assumes 1"
            % psi.integral(),
            NonUnitWindowWarning,
            stacklevel=3,
        )


def _require_b_nonzero(params):
    if params.B == 0.0:
        raise TransformError("the transform needs B != 0")


def clcst_kernel(psi, params, spec, ctx, b, scaling, rotation):
    """Analysis kernel |det A_u| e^{i_n(x.u + A|b|^2/2B - A|x|^2/2B)} psi(R A (x-b))."""
    _require_b_nonzero(params)
    b = np.asarray(b, dtype=np.float64).ravel()
    wvals = transformed_window_values(psi, spec, b, scaling, rotation)
    sig = GridSignal.from_scalar(spec, ctx, wvals * scaling.det_abs, SPACE)
    rate = params.chirp_rate
    mesh = spec.mesh(SPACE)
    phase = (
        np.tensordot(scaling.u, mesh, axes=(0, 0))
        + rate * float(np.dot(b, b))
        - rate * spec.squared_radius(SPACE)
    )
    return phase_multiply(sig, phase)


def _slice_direct(f, psi, params, scaling, rotation):
    """One (u, theta) slice of the defining sum, evaluated as a correlation."""
    rate = params.chirp_rate
    mesh = f.spec.mesh(SPACE)
    phase = rate * f.spec.squared_radius(SPACE) - np.tensordot(scaling.u, mesh, axes=(0, 0))
    modulated = phase_multiply(f, phase)
    reflected = transformed_window_values(psi, f.spec, None, scaling, rotation, negate=True)
    conv = _convolve_with_scalar(modulated, reflected)
    out = phase_multiply(conv, -rate * f.spec.squared_radius(SPACE))
    return out.scale(scaling.det_abs * (2.0 * np.pi) ** (-f.spec.n / 2.0))


def _slice_three_step(chirped, psi, params, scaling, rotation):
    slice_ = cst_slice(chirped, psi, scaling, rotation)
    return phase_multiply(slice_, -params.chirp_rate * chirped.spec.squared_radius(SPACE))


def modulated_window_spectrum(psi, spec, ctx, scaling, rotation):
    """Q = cft[e^{i_n u.y} psi(R_{-theta} A_u y)], a span{1, i_n} spectrum."""
    base = transformed_window_values(psi, spec, np.zeros(spec.n), scaling, rotation)
    sig = GridSignal.from_scalar(spec, ctx, base, SPACE)
    return cft_forward(plane_wave_multiply(sig, scaling.u, +1))


def _conj_plane_components(Q):
    """Split a span{1, i_n} spectrum into (a, -b) with conj(a + i b) = a - i b."""
    full = Q.ctx.full_mask
    return Q.data[0], -Q.data[full]


def window_spectrum(psi, spec, ctx, scaling, rotation):
    """cft of the scaled, rotated window itself, a span{1, i_n} spectrum."""
    base = transformed_window_values(psi, spec, np.zeros(spec.n), scaling, rotation)
    return cft_forward(GridSignal.from_scalar(spec, ctx, base, SPACE))


def _slice_spectral(chirped, psi, params, scaling, rotation, spec, ctx):
    """w-domain evaluation: S = |det| cft^-1[cft(h) conj(W^)] e^{-i_n A|b|^2/2B}.

    Here h carries both the chirp and the u-modulation pointwise, so the
    identity is exact for arbitrary u (the modulated-window variant of the
    same formula is exact only for u on the frequency lattice).
    """
    h = plane_wave_multiply(chirped, scaling.u, -1)
    H = cft_forward(h)
    W = window_spectrum(psi, spec, ctx, scaling, rotation)
    a, neg_b = _conj_plane_components(W)
    X = right_multiply_plane_field(H, a, neg_b)  # cft(h)(w) conj(W^)(w)
    back = cft_inverse(X).scale(scaling.det_abs)
    return phase_multiply(back, -params.chirp_rate * spec.squared_radius(SPACE))


def clcst(f, psi, params, u_list=None, theta_list=None, path="three_step", strict=False):
    """CLCST volume of f via the requested evaluation path."""
    if path not in PATHS:
        raise TransformError("unknown path %r (choose from %r)" % (path, PATHS))
    _require_transformable(f)
    _require_b_nonzero(params)
    _check_window(psi, strict)
    if f.domain != SPACE:
        raise GridError("clcst expects a space-domain signal")
    u_list, theta_list = checked_lists(f.spec, u_list, theta_list)
    vol = CLCSTVolume(
        f.spec, f.ctx, u_list, theta_list, params=params, window=psi, path=path
    )
    if path in ("three_step", "spectral"):
        chirped = chirp_multiply(f, params.chirp_rate, +1)
    for ui in range(vol.u_count):
        scaling = ScalingMatrix(vol.u_list[ui])
        for ti in range(vol.theta_count):
            rotation = Rotation(vol.theta_list[ti])
            if path == "direct":
                s = _slice_direct(f, psi, params, scaling, rotation)
            elif path == "three_step":
                s = _slice_three_step(chirped, psi, params, scaling, rotation)
            else:
                s = _slice_spectral(chirped, psi, params, scaling, rotation, f.spec, f.ctx)
            vol.set_slice(ui, ti, s)
    return vol


def clcst_direct_sum_slice(f, psi, params, scaling, rotation, block_rows=512):
    """Naive quadrature over the whole b-grid; the slow benchmark oracle."""
    _require_transformable(f)
    _require_b_nonzero(params)
    n = f.spec.n
    rate = params.chirp_rate
    mesh = f.spec.mesh(SPACE)
    x = mesh.reshape(n, -1)
    P = x.shape[1]
    fa = f.data.reshape(f.ctx.blade_count, P)
    x_sq = np.sum(x**2, axis=0)
    z = np.exp(1j * (rate * x_sq - x.T @ scaling.u))  # e^{-i(x.u - A|x|^2/2B)}
    fz = fa.astype(np.complex128) * z[None, :]
    from .stockwell import minimal_image

    rot_scale = rotation.matrix(n) @ np.diag(scaling.u)
    acc = np.empty((f.ctx.blade_count, P), dtype=np.complex128)
    for start in range(0, P, block_rows):
        stop = min(start + block_rows, P)
        diff = minimal_image(x[:, None, :] - x[:, start:stop, None], f.spec.half_width)
        args = np.einsum("ij,jbp->ibp", rot_scale, diff)
        wmat = psi.evaluate(args)  # (rows, P)
        acc[:, start:stop] = fz @ wmat.T
    b_sq = x_sq
    acc *= np.exp(-1j * rate * b_sq)[None, :]
    ctx = f.ctx
    coeffs = acc.real.copy()
    coeffs[ctx.pseudo_perm] += ctx.pseudo_sign[:, None] * acc.imag
    scale = scaling.det_abs * (2.0 * np.pi) ** (-n / 2.0) * f.spec.cell_weight(SPACE)
    return GridSignal(f.spec, ctx, (coeffs * scale).reshape(f.data.shape), SPACE)


def admissibility_profile(psi, params, spec, ctx, u_list=None, theta_list=None):
    """C_psi(w) = sum over (u, theta) of weights |det A_u|^2 |Q_{u,theta}(w)|^2.

    Returns the scalar profile on the frequency lattice plus min/max/mean and
    their relative variation; the resolution-of-identity error is governed by
    how far this profile is from a constant.
    """
    _require_b_nonzero(params)
    if u_list is None:
        u_list = default_u_list(spec)
    if theta_list is None:
        theta_list = DEFAULT_THETAS
    u_list = np.asarray(u_list, dtype=np.float64).reshape(-1, spec.n)
    if len(u_list) == 0 or len(theta_list) == 0:
        raise TransformError("admissibility needs a non-empty (u, theta) set")
    from .volume import theta_weight, u_weights_from_list

    u_w = u_weights_from_list(u_list)
    t_w = theta_weight(theta_list)
    profile = np.zeros(spec.shape)
    for ui, u in enumerate(u_list):
        scaling = ScalingMatrix(u)
        for theta in np.asarray(theta_list, dtype=np.float64).ravel():
            Q = modulated_window_spectrum(psi, spec, ctx, scaling, Rotation(theta))
            sq_mod = Q.data[0] ** 2 + Q.data[ctx.full_mask] ** 2
            profile += u_w[ui] * t_w * scaling.det_abs**2 * sq_mod
    sig = GridSignal.from_scalar(spec, ctx, profile, FREQUENCY)
    stats = {
        "min": float(profile.min()),
        "max": float(profile.max()),
        "mean": float(profile.mean()),
    }
    stats["relative_variation"] = (
        (stats["max"] - stats["min"]) / stats["mean"] if stats["mean"] > 0 else np.inf
    )
    return sig, stats


def orthogonality_check(f, g, psi, params, scaling, rotation):
    """Both sides of the per-(u, theta) orthogonality identity.

    lhs: the b-grid inner product of the two transforms.
    rhs: |det A_u|^2 <P_f conj(Q) Q, P_g> over the frequency lattice, with
    P = cft[. chirp] and Q the modulated window spectrum, operands ordered as
    in the underlying Plancherel argument.
    """
    s_f = _slice_direct(f, psi, params, scaling, rotation)
    s_g = _slice_direct(g, psi, params, scaling, rotation)
    lhs = inner_product(s_f, s_g)

    p_f = cft_forward(chirp_multiply(f, params.chirp_rate, +1))
    p_g = cft_forward(chirp_multiply(g, params.chirp_rate, +1))
    Q = modulated_window_spectrum(psi, f.spec, f.ctx, scaling, rotation)
    a, neg_b = _conj_plane_components(Q)
    x = right_multiply_plane_field(p_f, a, neg_b)  # P_f conj(Q)
    x = right_multiply_plane_field(x, Q.data[0], Q.data[f.ctx.full_mask])  # ... Q
    rhs = inner_product(x, p_g) * scaling.det_abs**2
    return lhs, rhs


def volume_energy(vol):
    """sum over (b, u, theta) of |S|^2 with the volume's quadrature weights."""
    sq = np.sum(vol.values**2, axis=0)  # (b..., U, T)
    per_ut = sq.reshape(-1, vol.u_count, vol.theta_count).sum(axis=0) * vol.b_weight
    return float(np.sum(per_ut * vol.u_weights[:, None] * vol.theta_step))


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
    """
    if c_psi <= 0:
        raise TransformError("admissibility constant must be positive")
    _require_b_nonzero(params)
    spec, ctx = vol.spec, vol.ctx
    rate = params.chirp_rate
    mesh = spec.mesh(SPACE)
    b_sq = spec.squared_radius(SPACE)
    total = GridSignal.zero(spec, ctx, SPACE)
    for ui in range(vol.u_count):
        scaling = ScalingMatrix(vol.u_list[ui])
        u_phase = np.tensordot(scaling.u, mesh, axes=(0, 0))
        for ti in range(vol.theta_count):
            rotation = Rotation(vol.theta_list[ti])
            s = vol.slice(ui, ti)
            chirped = phase_multiply(s, rate * b_sq)
            wvals = transformed_window_values(psi, spec, np.zeros(spec.n), scaling, rotation)
            synth = _convolve_with_scalar(chirped, wvals)
            contrib = phase_multiply(synth, u_phase - rate * b_sq)
            weight = scaling.det_abs * vol.u_weights[ui] * vol.theta_step
            total = total + contrib.scale(weight)
    scale = (2.0 * np.pi) ** (-spec.n / 2.0) / c_psi
    return total.scale(scale)


def _lattice_index_map(vol):
    """Map each u in the volume onto its frequency-lattice bin indices."""
    spec = vol.spec
    dw = spec.dw
    half = spec.samples_per_axis // 2
    indices = {}
    for ui, u in enumerate(vol.u_list):
        steps = u / dw
        rounded = np.rint(steps)
        if np.max(np.abs(steps - rounded)) > 1e-9:
            continue  # off-lattice u cannot feed the inverse CFT
        idx = rounded.astype(int) + half
        if np.any(idx < 0) or np.any(idx >= spec.samples_per_axis):
            continue
        indices[tuple(idx)] = ui
    return indices


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
    _require_b_nonzero(params)
    spec, ctx = vol.spec, vol.ctx
    thetas = vol.theta_list
    ti = int(np.argmin(np.abs(thetas - theta)))
    if abs(thetas[ti] - theta) > 1e-12:
        raise TransformError("theta %g not present in the volume" % theta)
    index_map = _lattice_index_map(vol)
    N = spec.samples_per_axis
    half = N // 2
    needed = 0
    rate = params.chirp_rate
    b_sq = spec.squared_radius(SPACE)
    data = np.zeros((ctx.blade_count,) + spec.shape)
    present = np.zeros(spec.shape, dtype=bool)
    for idx in np.ndindex(*spec.shape):
        if any(i == half for i in idx):
            continue
        needed += 1
        ui = index_map.get(idx)
        if ui is None:
            raise MissingCoverageError(
                "volume u-list does not cover frequency bin %r" % (idx,)
            )
        chirped = phase_multiply(vol.slice(ui, ti), rate * b_sq)
        summed = chirped.data.reshape(ctx.blade_count, -1).sum(axis=1) * vol.b_weight
        data[(slice(None),) + idx] = summed
        present[idx] = True
    _fill_axis_planes(data, spec.n)
    filled = int(np.prod(spec.shape)) - needed
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
    steps = np.asarray(vector, dtype=np.float64) / spec.dx
    rounded = np.rint(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise TransformError("shift %r is not a lattice vector" % (vector,))
    return rounded.astype(int)


def _roll_signal(f, index_shift):
    data = np.roll(f.data, index_shift, axis=tuple(range(1, f.spec.n + 1)))
    return GridSignal(f.spec, f.ctx, data, f.domain)


def _resample_indices(spec, factor):
    N = spec.samples_per_axis
    half = N // 2
    scaled = factor * (np.arange(N) - half)
    rounded = np.rint(scaled)
    if np.max(np.abs(scaled - rounded)) > 1e-9:
        raise TransformError("scale factor %g is not lattice compatible" % factor)
    return (rounded.astype(int) + half) % N


def _resample_signal(f, factor):
    idx = _resample_indices(f.spec, factor)
    data = f.data
    for axis in range(1, f.spec.n + 1):
        data = np.take(data, idx, axis=axis)
    return GridSignal(f.spec, f.ctx, data, f.domain)


def _left_multiply_volume(vol, mv):
    ctx = vol.ctx
    m = ctx.blade_count
    matrix = np.zeros((m, m))
    for b in range(m):
        for a in range(m):
            matrix[a ^ b, b] += ctx.sign_table[a, b] * mv.coeffs[a]
    values = np.einsum("cb,b...->c...", matrix, vol.values)
    return CLCSTVolume(
        vol.spec, ctx, vol.u_list, vol.theta_list, values=values, params=vol.params,
        window=vol.window, path=vol.path, u_weights=vol.u_weights,
    )


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
    rhs_vals = (
        _left_multiply_volume(base, alpha).values
        + _left_multiply_volume(analyze(g), beta).values
    )
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
    mesh = spec.mesh(SPACE)
    kdotx = np.tensordot(shift, mesh, axes=(0, 0))
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
