"""The check registry: every identity the toolbox claims, as named checks.

Each measuring function computes one or more deviations from shared inputs.
``@_measures`` tags it with the acceptance criterion it serves (1-11, or
None for a check only `clcst verify` reports) and with the (name, tolerance)
of each value it returns, so names and tolerances are known without running
anything.  ``SUITES`` groups the functions by subject.  `clcst verify` and
the acceptance gate in tests/test_acceptance.py both run them from here, so
each input, reduction and tolerance is written once.  The oracles they check
against (direct sums, isometry ratio, kernel, covariance suite) live here too.
"""

import warnings

import numpy as np

from .algebra import (
    Multivector,
    algebra,
    clifford_conjugate,
    left_multiplication_matrix,
    scalar_part,
    transform_algebra,
)
from .cft import (
    _require_transformable,
    cft_forward,
    cft_forward_direct,
    cft_inverse,
    convolution_theorem_rhs,
    convolve,
)
from .grid import (
    FREQUENCY,
    SPACE,
    GridSignal,
    GridSpec,
    chirp_multiply,
    inner_product,
    lattice_steps,
    norm_l2,
    pack,
    phase_multiply,
    rel_l2_error,
    right_multiply,
    sample,
    unpack,
)
from .lct import (
    LCTParams,
    clct_forward,
    clct_forward_direct,
    lct_convolution_theorem_rhs,
    lct_convolve,
)
from .stockwell import (
    NonUnitWindowWarning,
    Plan,
    Rotation,
    ScalingMatrix,
    cst_slice,
    minimal_image,
    transformed_window_values,
    window_family,
    window_spectra,
)
from .transform import (
    TransformError,
    _require_b_nonzero,
    admissibility_profile,
    clcst,
    clcst_kernel,
    marginal_spectrum,
    modulated_window_spectrum,
    reconstruct_marginal,
    reconstruct_resolution,
)
from .volume import default_u_list, tensor_u_list
from .windows import RAW, CompositeWindow, DOGWindow, GaussianWindow, WindowSpec

# Desk scales shared by the checks: n = 2 on L = 6 at N = 64 or 32, and the
# parameter matrix of the worked example.
CTX2 = transform_algebra(2)
SPEC64 = GridSpec(2, 6.0, 64)
SPEC32 = GridSpec(2, 6.0, 32)
M_EXAMPLE = LCTParams(1, 2, 1, 3)


def cst_direct_point(f, psi, b, scaling, rotation):
    """Naive quadrature of one transform value; the slow oracle.

    Windows are evaluated at the minimal-image difference so the oracle sums
    exactly the periodic-lattice object the FFT path computes.
    """
    _require_transformable(f)
    wvals = transformed_window_values(psi, f.spec, b, scaling, rotation, wrap=True)
    kernel = wvals * f.spec.cell_weight(SPACE) * np.exp(-1j * f.spec.dot(scaling.u))
    axes = tuple(range(1, f.spec.n + 1))
    summed = np.tensordot(pack(f.ctx, f.data), kernel, axes=(axes, tuple(range(f.spec.n))))
    scale = scaling.det_abs * (2.0 * np.pi) ** (-f.spec.n / 2.0)
    return Multivector(f.ctx, unpack(f.ctx, summed) * scale)


def cst_deviation(vol, f, psi, slices):
    """Largest relative deviation of the (u, theta) slices ``slices`` of a
    CFT-point volume from the Stockwell slices of f, each computed on its
    own by :func:`~clcst.stockwell.cst_slice` and not by the volume's plan."""
    worst = 0.0
    for ui, ti in slices:
        scaling, rotation = ScalingMatrix(vol.u_list[ui]), Rotation(vol.theta_list[ti])
        expect = cst_slice(f, psi, scaling, rotation).data
        worst = max(worst, np.max(np.abs(vol.slice(ui, ti).data - expect)) / np.max(np.abs(expect)))
    return worst


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


def _check(name, measured, tolerance, criterion=None):
    measured = float(measured)
    return {
        "name": name,
        "measured": measured,
        "tolerance": float(tolerance),
        "passed": bool(measured <= tolerance),
        "criterion": criterion,
    }


def _measures(criterion, *checks):
    """Tag a measuring function with its criterion and its (name, tolerance) list."""

    def tag(fn):
        fn.criterion, fn.checks = criterion, checks
        return fn

    return tag


def run_checks(fn):
    """Run one measuring function and judge each value it returns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitWindowWarning)
        measured = fn()
    return [
        _check(name, value, tolerance, fn.criterion)
        for (name, tolerance), value in zip(fn.checks, measured, strict=True)
    ]


def _random_mv(ctx, rng):
    return Multivector(ctx, rng.standard_normal(ctx.blade_count))


def _random_signal(spec, ctx, rng):
    return GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))


def _gaussian(spec, ctx, rate=1.0, center=0.0):
    return sample(lambda x: np.exp(-rate * np.sum((x - center) ** 2, axis=0)), spec, ctx)


def _random_params(rng):
    A, B, D = rng.uniform(0.5, 2.0, size=3)
    return LCTParams(A, B, (A * D - 1.0) / B, D)


@_measures(1, ("algebra axioms, exhaustive blades, n in {2,3}", 1e-14))
def algebra_axioms():
    """Anticommutation and blade associativity exactly; conjugation as an
    anti-automorphism and the positive scalar product on 10 random pairs,
    counted at a tenth."""
    worst = 0.0
    rng = np.random.default_rng(0)
    for n in (2, 3):
        ctx = algebra(n, -1)
        for i in range(n):
            ei = Multivector.basis_vector(ctx, i)
            worst = max(worst, abs(scalar_part(ei * ei) + 1.0))
            for j in range(n):
                if i != j:
                    ej = Multivector.basis_vector(ctx, j)
                    worst = max(worst, np.max(np.abs((ei * ej + ej * ei).coeffs)))
        blades = [Multivector.blade(ctx, k) for k in range(ctx.blade_count)]
        for a in blades:
            for b in blades:
                ab = a * b
                for c in blades:
                    worst = max(worst, np.max(np.abs((ab * c - a * (b * c)).coeffs)))
        for _ in range(10):
            a, b = _random_mv(ctx, rng), _random_mv(ctx, rng)
            lhs = clifford_conjugate(a * b)
            rhs = clifford_conjugate(b) * clifford_conjugate(a)
            worst = max(worst, np.max(np.abs((lhs - rhs).coeffs)) / 10.0)
            quad = scalar_part(a * clifford_conjugate(a))
            worst = max(worst, abs(quad - np.sum(a.coeffs**2)) / 10.0 if quad >= 0.0 else np.inf)
    return (worst,)


@_measures(
    None,
    ("pseudoscalar squares to -1 (n=2)", 1e-15),
    ("pseudoscalar commutation pattern (n=2)", 1e-15),
    ("pseudoscalar squares to -1 (n=3)", 1e-15),
    ("pseudoscalar commutation pattern (n=3)", 1e-15),
)
def pseudoscalar_identities():
    out = []
    for n in (2, 3):
        ctx = transform_algebra(n)
        i_n = Multivector.pseudoscalar(ctx)
        dev = 0.0
        for k in range(ctx.blade_count):
            blade = Multivector.blade(ctx, k)
            comm = (i_n * blade - blade * i_n).coeffs
            anti = (i_n * blade + blade * i_n).coeffs
            expected_comm = n == 3 or ctx.grades[k] % 2 == 0
            dev = max(dev, np.max(np.abs(comm if expected_comm else anti)))
        out += [abs(scalar_part(i_n * i_n) + 1), dev]
    return out


@_measures(
    2,
    ("cft round trip (20 random signals)", 1e-12),
    ("cft Plancherel scalar identity", 1e-10),
    ("unit Gaussian is a cft fixed point", 1e-8),
)
def cft_unitarity():
    worst_rt = worst_pl = 0.0
    for seed in range(20):
        f = _random_signal(SPEC64, CTX2, np.random.default_rng(100 + seed))
        worst_rt = max(worst_rt, rel_l2_error(cft_inverse(cft_forward(f)), f))
        g = _random_signal(SPEC64, CTX2, np.random.default_rng(200 + seed))
        lhs = scalar_part(inner_product(f, g))
        rhs = scalar_part(inner_product(cft_forward(f), cft_forward(g)))
        worst_pl = max(worst_pl, abs(lhs - rhs) / max(abs(lhs), 1.0))
    g = _gaussian(SPEC64, CTX2, rate=0.5)
    expected = sample(lambda w: np.exp(-np.sum(w**2, axis=0) / 2), SPEC64, CTX2, domain=FREQUENCY)
    return worst_rt, worst_pl, rel_l2_error(cft_forward(g), expected)


def _bump_mixture(seed):
    """Three Gaussian bumps with seeded amplitudes and centres in [-1, 1]^2."""
    mesh = SPEC64.mesh()
    vals = 0
    for i in range(3):
        amplitude = np.random.default_rng(seed * 7 + i).standard_normal()
        center = np.random.default_rng(seed * 9 + i).uniform(-1, 1, 2).reshape(2, 1, 1)
        vals = vals + amplitude * np.exp(-np.sum((mesh - center) ** 2, axis=0))
    return GridSignal.from_scalar(SPEC64, CTX2, vals)


@_measures(3, ("classical convolution theorem (Fourier side)", 1e-10))
def classical_convolution():
    worst = 0.0
    for seed in range(3):
        f, g = _bump_mixture(seed), _bump_mixture(seed + 50)
        worst = max(worst, rel_l2_error(cft_forward(convolve(f, g)), convolution_theorem_rhs(f, g)))
    return (worst,)


@_measures(
    None,
    ("FFT path vs direct sum", 1e-12),
    ("Plancherel full multivector (n=3)", 1e-10),
    ("even real signal has cosine spectrum", 1e-13),
)
def cft_oracles():
    rng = np.random.default_rng(1)
    fs = _random_signal(GridSpec(2, 4.0, 16), CTX2, rng)
    spec3, ctx3 = GridSpec(3, 4.0, 16), transform_algebra(3)
    a3, b3 = _random_signal(spec3, ctx3, rng), _random_signal(spec3, ctx3, rng)
    lhs = inner_product(a3, b3)
    rhs = inner_product(cft_forward(a3), cft_forward(b3))
    scale = max(np.max(np.abs(lhs.coeffs)), 1.0)
    F = cft_forward(_gaussian(SPEC64, CTX2))
    return (
        rel_l2_error(cft_forward(fs), cft_forward_direct(fs)),
        np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale,
        np.max(np.abs(F.data[CTX2.full_mask])) / np.max(np.abs(F.data[0])),
    )


@_measures(
    4,
    ("clct chirp-FFT-chirp vs direct quadrature (5 draws)", 1e-10),
    ("clct reduces to cft at M=(0,1,-1,0)", 1e-12),
)
def clct_consistency():
    worst = 0.0
    for seed in range(5):
        f = _random_signal(SPEC64, CTX2, np.random.default_rng(500 + seed))
        m = _random_params(np.random.default_rng(400 + seed))
        worst = max(worst, rel_l2_error(clct_forward(f, m), clct_forward_direct(f, m)))
    f = _random_signal(SPEC64, CTX2, np.random.default_rng(510))
    return worst, rel_l2_error(clct_forward(f, LCTParams.cft_point()), cft_forward(f))


@_measures(3, ("canonical convolution theorem (3 random M)", 1e-10))
def canonical_convolution():
    f = _gaussian(SPEC64, CTX2, rate=0.8, center=0.4)
    g = _gaussian(SPEC64, CTX2, rate=1.2)
    worst = 0.0
    for seed in range(3):
        m = _random_params(np.random.default_rng(300 + seed))
        lhs = clct_forward(lct_convolve(f, g, m), m)
        worst = max(worst, rel_l2_error(lhs, lct_convolution_theorem_rhs(f, g, m)))
    return (worst,)


@_measures(
    None,
    ("FFT slice vs direct quadrature", 1e-10),
    ("radial window rotation invariance", 1e-10),
    ("window family norm scales as sqrt|det A_u|", 1e-6),
)
def cst_identities():
    rng = np.random.default_rng(3)
    f = _gaussian(SPEC64, CTX2, center=0.4)
    psi = GaussianWindow(2, sigma=1.0)
    dev = 0.0
    for _ in range(3):
        u = rng.uniform(1.0, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        theta = rng.uniform(0, np.pi / 2)
        scaling, rotation = ScalingMatrix(u), Rotation(theta)
        slice_ = cst_slice(f, psi, scaling, rotation)
        idx = tuple(rng.integers(8, 56, size=2))
        b = np.array([SPEC64.axis()[idx[0]], SPEC64.axis()[idx[1]]])
        direct = cst_direct_point(f, psi, b, scaling, rotation)
        dev = max(
            dev,
            np.max(np.abs(direct.coeffs - slice_.value_at(idx).coeffs))
            / max(np.max(np.abs(slice_.data)), 1e-30),
        )
    scaling = ScalingMatrix([1.5, -2.0])
    s0 = cst_slice(f, psi, scaling, Rotation(0.0))
    s2 = cst_slice(f, psi, scaling, Rotation(np.pi / 2))
    wf = window_family(psi, np.zeros(2), ScalingMatrix([2.0, 3.0]), Rotation(0.0), SPEC64, CTX2)
    base = sample(lambda x: psi.evaluate(x), SPEC64, CTX2)
    ratio = norm_l2(wf) / (np.sqrt(6.0) * norm_l2(base))
    return dev, rel_l2_error(s2, s0), abs(ratio - 1.0)


class _DenseWindow(WindowSpec):
    """The values of a window without its separable terms, so that the engine
    evaluates it on the lattice and transforms it with n-D FFTs."""

    def __init__(self, psi, amplitude=1.0, normalization=RAW):
        super().__init__(psi.n, amplitude, normalization)
        self.psi, self.radial = psi, psi.radial

    def _evaluate(self, points):
        return self.psi.evaluate(points)

    def raw_integral(self):
        return self.psi.integral()

    def _with_amplitude(self, amplitude, normalization):
        return _DenseWindow(self.psi, amplitude, normalization)


@_measures(
    None,
    ("window block M, lattice rows vs roll(B, k) (8 windows, n=2,3)", 1e-13),
    ("window block M, off-lattice rows vs modulated_window_spectrum (8 windows, n=2,3)", 1e-13),
    ("window block B, off-lattice rows vs dense evaluation (8 windows, n=2,3)", 1e-13),
)
def separable_window_spectra():
    """The engine's window blocks of a raw and a unit Gaussian, a DOG and a
    composite, outer products of each block's per-axis tables of 1-D FFTs
    (each row of this list is its own run, so none is factored) and,
    without their separable terms, on the lattice, against each window
    evaluated on the lattice.  M of a
    lattice row k is roll(B, k), B by window_spectra; M of an off-lattice
    row, centered, is (2 pi)^(n/2) times modulated_window_spectrum, and its
    B is window_spectra.  Three lattice and two off-lattice u; a missing
    off-lattice B counts as infinite."""
    worst_lattice = worst_m = worst_b = 0.0
    compared = 0
    for spec in (SPEC32, GridSpec(3, 4.0, 16)):
        n = spec.n
        axes = tuple(range(-n, 0))
        separable = (
            GaussianWindow(n, sigma=1.0),
            GaussianWindow(n, sigma=0.75).normalize_unit_integral(),
            DOGWindow(n, lam=0.5),
            CompositeWindow([(0.8, GaussianWindow(n, sigma=0.7)), (-0.3, DOGWindow(n, lam=0.6))]),
        )
        windows = separable + tuple(_DenseWindow(psi) for psi in separable)
        steps = np.array([[2, 3, -1], [-5, 1, 4], [7, -8, 2], [0.37, -1.3, 2.6], [-2.5, 0.8, 1.1]])
        u_list = steps[:, :n] * spec.dw
        for psi in windows:
            plan = Plan(psi, spec, u_list, [0.0], np.ones(len(u_list)))
            for start, stop, M, B in plan.blocks(2):
                for i, u in enumerate(u_list[start:stop]):
                    scaling, rotation = ScalingMatrix(u), Rotation(0.0)
                    values = transformed_window_values(psi, spec, np.zeros(n), scaling, rotation)
                    plain = window_spectra(values, spec)
                    if i not in B:
                        expect = np.roll(plain, tuple(steps[start + i, :n].astype(int)), axis=axes)
                        dev = np.max(np.abs(M[i, 0] - expect)) / np.max(np.abs(expect))
                        worst_lattice = max(worst_lattice, dev)
                        continue
                    expect = modulated_window_spectrum(psi, spec, scaling, rotation)
                    got = np.fft.fftshift(M[i, 0]) * (2.0 * np.pi) ** (-n / 2.0)
                    worst_m = max(worst_m, np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
                    dev = np.max(np.abs(B[i][0] - plain)) / np.max(np.abs(plain))
                    worst_b, compared = max(worst_b, dev), compared + 1
    return worst_lattice, worst_m, worst_b if compared == 2 * 2 * len(windows) else np.inf


@_measures(
    5,
    ("clcst direct vs three-step (3 windows x 3 M)", 1e-12),
    ("clcst direct vs spectral", 1e-8),
    ("clcst equals cst at M=(0,1,-1,0)", 1e-12),
)
def path_equivalence():
    f = _gaussian(SPEC32, CTX2, rate=1.0, center=0.3)
    worst_dt = worst_ds = worst_cst = 0.0
    for psi in (GaussianWindow(2, sigma=1.0), GaussianWindow(2, sigma=0.6), DOGWindow(2, lam=0.5)):
        for m in (LCTParams.cft_point(), M_EXAMPLE, LCTParams(1, 1, 0, 1)):
            vd, vt = clcst(f, psi, m, path="direct"), clcst(f, psi, m, path="three_step")
            worst_dt = max(worst_dt, vd.rel_max_difference(vt))
            worst_ds = max(worst_ds, vd.rel_max_difference(clcst(f, psi, m, path="spectral")))
            if m.is_cft_point():  # the first, a middle and the last u of the default list
                picks = [(0, 0), (vd.u_count // 2, 0), (vd.u_count - 1, 0)]
                worst_cst = max(worst_cst, cst_deviation(vd, f, psi, picks),
                                cst_deviation(vt, f, psi, picks))
    return worst_dt, worst_ds, worst_cst


_COVARIANCE_LAWS = ("linearity", "anti_linearity", "translation", "dilation", "parity")


@_measures(6, *(("covariance identity: %s" % law, 1e-10) for law in _COVARIANCE_LAWS))
def covariance_identities():
    spec = GridSpec(2, 6.0, 128)
    rng = np.random.default_rng(6)
    mesh = spec.mesh()
    vals = np.zeros(spec.shape)
    for _ in range(2):
        c = rng.uniform(-0.4, 0.4, size=2).reshape(2, 1, 1)
        vals += rng.uniform(0.5, 1.5) * np.exp(-rng.uniform(2.0, 2.5) * np.sum((mesh - c) ** 2, axis=0))
    dw = spec.dw
    rep = covariance_suite(
        GridSignal.from_scalar(spec, CTX2, vals),
        GaussianWindow(2, sigma=0.6),
        M_EXAMPLE,
        np.array([[4 * dw, 6 * dw], [8 * dw, -4 * dw], [-6 * dw, 4 * dw]]),
        [0.0, np.pi / 4, np.pi / 2],
        shift=[spec.dx, 0.0],
        dilation=2.0,
        dilation_b_radius=1.1,
        seed=6,
    )
    return [rep[law] for law in _COVARIANCE_LAWS]


@_measures(
    7,
    ("orthogonality scalar identity, n=2 (10 draws)", 1e-8),
    ("orthogonality scalar identity, n=3 (10 draws)", 1e-8),
)
def orthogonality_draws():
    worst = []
    for spec in (SPEC32, GridSpec(3, 4.0, 32)):
        n, ctx = spec.n, transform_algebra(spec.n)
        rng = np.random.default_rng(70 + n)
        psi = GaussianWindow(n, sigma=1.0)
        dev = 0.0
        for _ in range(10):
            f = _random_signal(spec, ctx, np.random.default_rng(rng.integers(1 << 31)))
            g = _random_signal(spec, ctx, np.random.default_rng(rng.integers(1 << 31)))
            mults = rng.integers(1, spec.samples_per_axis // 4, size=n) * rng.choice([-1, 1], size=n)
            theta = rng.uniform(0.0, np.pi / 2)
            lhs, rhs = orthogonality_check(f, g, psi, M_EXAMPLE, ScalingMatrix(mults * spec.dw), Rotation(theta))
            dev = max(dev, abs(scalar_part(lhs) - scalar_part(rhs)) / max(abs(scalar_part(lhs)), 1.0))
        worst.append(dev)
    return worst


@_measures(
    None,
    ("degeneration to CST at M=(0,1,-1,0)", 1e-12),
    ("FFT path vs naive summation oracle", 1e-10),
    ("orthogonality scalar identity", 1e-8),
    ("chirp preserves the L2 norm", 1e-12),
    ("isometry ratio within admissibility spread", 1.0),
)
def clcst_oracles():
    """A scalar two-bump signal on three lattice u and three angles.

    The isometry value is 0 when the ratio lies inside the admissibility
    profile's [min, max]; otherwise its distance from the mean, in units of
    the profile's relative variation.
    """
    mesh = SPEC32.mesh()
    f = GridSignal.from_scalar(
        SPEC32,
        CTX2,
        np.exp(-np.sum((mesh - 0.4) ** 2, axis=0)) + 0.5 * np.exp(-np.sum((mesh + 0.6) ** 2, axis=0) / 1.2),
    )
    g = GridSignal.from_scalar(SPEC32, CTX2, np.exp(-np.sum((mesh + 0.2) ** 2, axis=0) * 0.9))
    psi = GaussianWindow(2, sigma=1.0)
    dw = SPEC32.dw
    u_list = np.array([[2 * dw, 3 * dw], [4 * dw, -2 * dw], [-3 * dw, 2 * dw]])
    thetas = [0.0, np.pi / 4, np.pi / 2]
    vd = clcst(f, psi, M_EXAMPLE, u_list, thetas, path="direct")
    v0 = clcst(f, psi, LCTParams.cft_point(), u_list, thetas, path="three_step")
    oracle = clcst_direct_sum_slice(f, psi, M_EXAMPLE, ScalingMatrix(u_list[0]), Rotation(thetas[1]))
    lhs, rhs = orthogonality_check(f, g, psi, M_EXAMPLE, ScalingMatrix([2 * dw, -3 * dw]), Rotation(0.6))
    stats = vd.admissibility[1]
    offset = isometry_ratio(vd, f, M_EXAMPLE) / stats["mean"] - 1.0
    inside = stats["min"] / stats["mean"] - 1.0 <= offset <= stats["max"] / stats["mean"] - 1.0
    return (
        cst_deviation(v0, f, psi, np.ndindex(len(u_list), len(thetas))),
        rel_l2_error(vd.slice(0, 1), oracle),
        abs(scalar_part(lhs) - scalar_part(rhs)) / max(abs(scalar_part(lhs)), 1e-30),
        abs(norm_l2(chirp_multiply(f, M_EXAMPLE.chirp_rate, +1)) - norm_l2(f)) / norm_l2(f),
        0.0 if inside else abs(offset) / (stats["relative_variation"] + 1e-12),
    )


@_measures(
    8,
    ("marginal intermediate: b-sum equals cft(f chirp)", 1e-6),
    ("marginal reconstruction relative L2 error", 1e-3),
)
def marginal_reconstruction():
    half = SPEC32.samples_per_axis // 2
    k = np.arange(-half, half)
    knz = k[k != 0]
    f = _gaussian(SPEC32, CTX2, rate=1.0)
    psi = GaussianWindow(2, sigma=0.75).normalize_unit_integral()
    vol = clcst(f, psi, M_EXAMPLE, tensor_u_list([knz * SPEC32.dw, knz * SPEC32.dw]), [0.0], path="three_step")
    spectrum, _ = marginal_spectrum(vol, M_EXAMPLE, 0.0)
    P = cft_forward(chirp_multiply(f, M_EXAMPLE.chirp_rate, +1))
    at = (slice(None), half + 2, half + 3)
    fhat, _ = reconstruct_marginal(vol, M_EXAMPLE, 0.0)
    return np.max(np.abs(spectrum.data[at] - P.data[at])) / np.max(np.abs(P.data)), rel_l2_error(fhat, f)


@_measures(
    9,
    ("resolution-of-identity relative L2 error", 0.05),
    ("admissibility profile relative variation", 0.25),
)
def resolution_reconstruction():
    f = _gaussian(SPEC32, CTX2, rate=0.5)
    psi = GaussianWindow(2, sigma=1.0)
    step = 2 * SPEC32.dw
    vals = np.arange(step, 28 * SPEC32.dw + 1e-9, step)
    axis = np.concatenate([-vals[::-1], vals])
    u_list = tensor_u_list([axis, axis])
    vol = clcst(f, psi, M_EXAMPLE, u_list, [0.0], path="three_step")
    rec, (_, stats) = reconstruct_resolution(vol, psi, M_EXAMPLE)
    return rel_l2_error(rec, f), stats["relative_variation"]


@_measures(
    10,
    ("reproducing kernel bound on 100 random pairs", 1.0),
    ("far-separated pair decay (vs 1e-8 x bound)", 1e-8),
)
def reproducing_kernel_bound():
    psi = GaussianWindow(2, sigma=1.0)
    u_def = default_u_list(SPEC32)
    thetas = [0.0, np.pi / 4, np.pi / 2]
    _, stats = admissibility_profile(psi, M_EXAMPLE, SPEC32, u_def, thetas)
    c = stats["mean"]
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        b1, b2 = rng.uniform(-4, 4, size=(2, 2))
        u1, u2 = u_def[rng.integers(len(u_def), size=2)]
        t1, t2 = rng.choice(thetas, size=2)
        K, bound = reproducing_kernel(psi, M_EXAMPLE, SPEC32, CTX2, c, (b1, u1, t1), (b2, u2, t2))
        worst = max(worst, K.norm() / bound)
    u = np.array([2 * SPEC32.dw, 2 * SPEC32.dw])
    far, bound = reproducing_kernel(
        psi, M_EXAMPLE, SPEC32, CTX2, c, (np.full(2, -3.0), u, 0.0), (np.full(2, 3.0), u, 0.0)
    )
    return worst, far.norm() / bound


def example1_closed_form(u1, u2, params):
    """Closed-form transform value at b = 0, theta = pi/2 for the worked case.

    Assembled from int exp(-a x^2 - i beta x) dx = sqrt(pi/a) exp(-beta^2/(4a)),
    Re a > 0, with the two DOG lobes contributing
    a = 1 + 2 u_k^2 - i A/(2B) and a = 1 + u_k^2/2 - i A/(2B).
    """
    import cmath

    chi = params.A / (2.0 * params.B)

    def gauss_int(a, beta):
        return cmath.sqrt(cmath.pi / a) * cmath.exp(-(beta**2) / (4.0 * a))

    first = (
        (2.0 * abs(u1 * u2) / np.pi)
        * gauss_int(1.0 + 2.0 * u1**2 - 1j * chi, u1)
        * gauss_int(1.0 + 2.0 * u2**2 - 1j * chi, u2)
    )
    second = (
        (abs(u1 * u2) / (2.0 * np.pi))
        * gauss_int(1.0 + u1**2 / 2.0 - 1j * chi, u1)
        * gauss_int(1.0 + u2**2 / 2.0 - 1j * chi, u2)
    )
    return first - second


@_measures(11, ("worked-example closed form on 5x5 u grid", 1e-6))
def example1_oracle():
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC64, CTX2)
    psi = DOGWindow(2, lam=0.5)
    dw = SPEC64.dw
    uvals = np.array([-2 * dw, -dw, dw, 2 * dw, 3 * dw])
    u_list = np.array([[a, b] for a in uvals for b in uvals])
    values = clcst(f, psi, M_EXAMPLE, u_list, [np.pi / 2], path="three_step").values
    half = SPEC64.samples_per_axis // 2
    worst = 0.0
    for i, (u1, u2) in enumerate(u_list):
        numeric = values[:, half, half, i, 0]
        z = example1_closed_form(u1, u2, M_EXAMPLE)
        exact = np.zeros(CTX2.blade_count)
        exact[0] = z.real
        exact[CTX2.full_mask] = z.imag
        worst = max(worst, np.max(np.abs(numeric - exact)) / abs(z))
    return (worst,)


SUITES = {
    "algebra": (algebra_axioms, pseudoscalar_identities),
    "cft": (cft_unitarity, classical_convolution, cft_oracles),
    "clct": (clct_consistency, canonical_convolution),
    "cst": (cst_identities, separable_window_spectra),
    "clcst": (path_equivalence, covariance_identities, orthogonality_draws, clcst_oracles),
    "reconstruction": (marginal_reconstruction, resolution_reconstruction, reproducing_kernel_bound),
    "example1": (example1_oracle,),
}


class UnknownSuite(KeyError):
    """A suite name that ``SUITES`` does not hold; its str is the message."""

    def __str__(self):
        return self.args[0]


def run_suites(names):
    """The checks of the named suites, or of all of them for "all"; an
    unknown name raises :class:`UnknownSuite` before any suite runs."""
    unknown = [name for name in names if name != "all" and name not in SUITES]
    if unknown:
        raise UnknownSuite("unknown suite %r (choose from %s)"
                           % (unknown[0], ", ".join(["all", *SUITES])))
    if "all" in names:
        names = list(SUITES)
    results = {}
    for name in names:
        results[name] = [c for fn in SUITES[name] for c in run_checks(fn)]
    all_passed = all(c["passed"] for checks in results.values() for c in checks)
    return results, all_passed
