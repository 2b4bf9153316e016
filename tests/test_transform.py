from types import SimpleNamespace

import numpy as np
import pytest

from clcst.algebra import scalar_part, transform_algebra
from clcst.cft import cft_forward
from clcst.grid import (
    GridSignal,
    GridSpec,
    chirp_multiply,
    norm_l2,
    phase_multiply,
    rel_l2_error,
    sample,
)
from clcst.lct import LCTParams
from clcst.stockwell import Plan, Rotation, ScalingMatrix, StockwellError, checked_lists
from clcst.transform import (
    MissingCoverageError,
    TransformError,
    admissibility_profile,
    clcst,
    clcst_kernel,
    cst,
    marginal_spectrum,
    reconstruct_marginal,
    reconstruct_resolution,
)
from clcst.verify import (
    clcst_direct_sum_slice,
    covariance_suite,
    cst_deviation,
    isometry_ratio,
    orthogonality_check,
    reproducing_kernel,
    volume_energy,
)
from clcst.volume import default_u_list, tensor_u_list
from clcst.windows import GaussianWindow

CTX = transform_algebra(2)
SPEC = GridSpec(2, 6.0, 32)
M = LCTParams(1, 2, 1, 3)
PSI = GaussianWindow(2, sigma=1.0)
DW = SPEC.dw
U_LIST = np.array([[2 * DW, 3 * DW], [4 * DW, -2 * DW], [-3 * DW, 2 * DW]])
THETAS = [0.0, np.pi / 4, np.pi / 2]

pytestmark = pytest.mark.filterwarnings("ignore::clcst.stockwell.NonUnitWindowWarning")


def scalar_mixture(seed=0, spec=SPEC, ctx=CTX):
    rng = np.random.default_rng(seed)
    mesh = spec.mesh()
    vals = np.zeros(spec.shape)
    for _ in range(3):
        c = rng.uniform(-1.0, 1.0, size=spec.n).reshape((-1,) + (1,) * spec.n)
        vals += rng.standard_normal() * np.exp(-np.sum((mesh - c) ** 2, axis=0) / rng.uniform(0.6, 1.4))
    return GridSignal.from_scalar(spec, ctx, vals)


def multivector_noise(seed=0, spec=SPEC, ctx=CTX):
    rng = np.random.default_rng(seed)
    return GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))


def test_kernel_reduces_to_window_family_at_cft_point():
    from clcst.stockwell import window_family

    scaling, rotation = ScalingMatrix([1.5, -2.0]), Rotation(0.6)
    b = np.array([0.75, -1.5])
    k = clcst_kernel(PSI, LCTParams.cft_point(), SPEC, CTX, b, scaling, rotation)
    w = window_family(PSI, b, scaling, rotation, SPEC, CTX)
    assert rel_l2_error(k, w) < 1e-14


def test_kernel_phase_collapses_at_x_equals_b():
    from clcst.algebra import pseudoscalar_exp

    scaling, rotation = ScalingMatrix([2 * DW, 3 * DW]), Rotation(0.0)
    idx = (20, 26)
    b = np.array([SPEC.axis()[idx[0]], SPEC.axis()[idx[1]]])
    k = clcst_kernel(PSI, M, SPEC, CTX, b, scaling, rotation)
    val = k.value_at(idx)
    expect = pseudoscalar_exp(CTX, float(np.dot(b, scaling.u))) * (
        scaling.det_abs * PSI.evaluate(np.zeros((2, 1)))[0]
    )
    assert np.allclose(val.coeffs, expect.coeffs, atol=1e-14)


def test_kernel_has_unit_modulus_phase():
    scaling, rotation = ScalingMatrix([1.0, 2.0]), Rotation(0.3)
    b = np.array([0.5, 0.5])
    k = clcst_kernel(PSI, M, SPEC, CTX, b, scaling, rotation)
    mags = np.sqrt(np.sum(k.data**2, axis=0))
    from clcst.stockwell import transformed_window_values

    expected = scaling.det_abs * np.abs(
        transformed_window_values(PSI, SPEC, b, scaling, rotation)
    )
    assert np.allclose(mags, expected, atol=1e-13)


def test_kernel_requires_nonzero_b_parameter():
    with pytest.raises(TransformError):
        clcst_kernel(PSI, LCTParams(1, 0, 1, 1), SPEC, CTX, np.zeros(2), ScalingMatrix([1, 1]), Rotation(0))


@pytest.mark.parametrize("signal_maker", [scalar_mixture, multivector_noise], ids=["scalar", "mv"])
@pytest.mark.parametrize("on_lattice", [True, False], ids=["on", "off"])
def test_path_equivalence(signal_maker, on_lattice):
    f = signal_maker(seed=1)
    u = U_LIST if on_lattice else np.array([[1.0, 1.5], [2.0, -1.0]])
    vd = clcst(f, PSI, M, u, THETAS, path="direct")
    vt = clcst(f, PSI, M, u, THETAS, path="three_step")
    vs = clcst(f, PSI, M, u, THETAS, path="spectral")
    assert vd.rel_max_difference(vt) < 1e-12
    assert vd.rel_max_difference(vs) < 1e-8


def test_zero_signal_gives_zero_volume():
    vol = clcst(GridSignal.zero(SPEC, CTX), PSI, M, U_LIST, THETAS)
    assert np.all(vol.values == 0.0)


def test_degenerates_to_cst():
    """At M = (0, 1, -1, 0) every path, and cst, gives the Stockwell slices
    that cst_slice computes one by one, apart from the volume's plan."""
    f = scalar_mixture(seed=2)
    slices = list(np.ndindex(len(U_LIST), len(THETAS)))
    for path in ("direct", "three_step", "spectral"):
        v = clcst(f, PSI, LCTParams.cft_point(), U_LIST, THETAS, path=path)
        assert cst_deviation(v, f, PSI, slices) < 1e-12
    assert cst_deviation(cst(f, PSI, U_LIST, THETAS), f, PSI, slices) < 1e-12


def test_direct_sum_oracle_agreement():
    f = scalar_mixture(seed=3)
    vol = clcst(f, PSI, M, U_LIST, THETAS, path="direct")
    oracle = clcst_direct_sum_slice(f, PSI, M, ScalingMatrix(U_LIST[1]), Rotation(THETAS[2]))
    assert rel_l2_error(vol.slice(1, 2), oracle) < 1e-10


def test_linearity_over_reals():
    f, g = scalar_mixture(4), scalar_mixture(5)
    combo = clcst(f.scale(0.6) + g.scale(-1.1), PSI, M, U_LIST, THETAS)
    split_vals = (
        clcst(f, PSI, M, U_LIST, THETAS).values * 0.6
        + clcst(g, PSI, M, U_LIST, THETAS).values * -1.1
    )
    assert np.max(np.abs(combo.values - split_vals)) / np.max(np.abs(combo.values)) < 1e-13


def test_unknown_path_and_b_zero_errors():
    f = scalar_mixture(6)
    with pytest.raises(TransformError):
        clcst(f, PSI, M, U_LIST, THETAS, path="magic")
    with pytest.raises(TransformError):
        clcst(f, PSI, LCTParams(1, 0, 0.5, 1), U_LIST, THETAS)


def test_window_spectrum_lives_in_plane():
    from clcst.stockwell import transformed_window_values

    scaling, rotation = ScalingMatrix([1.0, 2.0]), Rotation(0.4)
    base = transformed_window_values(PSI, SPEC, np.zeros(2), scaling, rotation)
    Q = cft_forward(GridSignal.from_scalar(SPEC, CTX, base)).data
    others = [k for k in range(CTX.blade_count) if k not in (0, CTX.full_mask)]
    assert np.max(np.abs(Q[others])) < 1e-14 * np.max(np.abs(Q))
    # the complex array a + j b stands for the span{1, i_n} field a + i_n b;
    # the engine's uncentered spectrum B is that field shifted and scaled
    from clcst.stockwell import window_spectra

    W = np.fft.fftshift(window_spectra(base, SPEC)) / (2.0 * np.pi)
    assert np.max(np.abs(W - (Q[0] + 1j * Q[CTX.full_mask]))) < 1e-15 * np.max(np.abs(Q))


@pytest.mark.parametrize("n", [2, 3])
def test_orthogonality_identity(n):
    ctx = transform_algebra(n)
    spec = GridSpec(n, 6.0, 32) if n == 2 else GridSpec(3, 4.0, 16)
    rng = np.random.default_rng(7 + n)
    dw = spec.dw
    psi = GaussianWindow(n, sigma=1.0)
    for draw in range(3):
        f = GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))
        g = GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))
        mults = rng.integers(1, spec.samples_per_axis // 4, size=n) * rng.choice([-1, 1], size=n)
        u = mults * dw
        theta = rng.uniform(0, np.pi / 2)
        lhs, rhs = orthogonality_check(f, g, psi, M, ScalingMatrix(u), Rotation(theta))
        assert abs(scalar_part(lhs) - scalar_part(rhs)) <= 1e-8 * max(abs(scalar_part(lhs)), 1.0)


def test_orthogonality_self_is_nonnegative():
    f = scalar_mixture(9)
    lhs, _ = orthogonality_check(f, f, PSI, M, ScalingMatrix([2 * DW, 3 * DW]), Rotation(0.2))
    assert scalar_part(lhs) >= 0.0


def test_orthogonality_zero_second_argument():
    f = scalar_mixture(10)
    z = GridSignal.zero(SPEC, CTX)
    lhs, rhs = orthogonality_check(f, z, PSI, M, ScalingMatrix([2 * DW, -DW]), Rotation(0.0))
    assert np.all(lhs.coeffs == 0.0)
    assert np.max(np.abs(rhs.coeffs)) < 1e-14


def test_admissibility_profile_properties():
    prof, stats = admissibility_profile(PSI, M, SPEC, U_LIST, THETAS)
    assert np.all(prof >= 0.0)
    assert stats["min"] >= 0.0
    # single-term set equals the direct formula
    scaling, rotation = ScalingMatrix(U_LIST[0]), Rotation(0.4)
    single, _ = admissibility_profile(PSI, M, SPEC, U_LIST[:1], [0.4])
    from clcst.transform import modulated_window_spectrum

    Qm = modulated_window_spectrum(PSI, SPEC, scaling, rotation)
    sq = np.abs(Qm) ** 2
    from clcst.volume import theta_weight, u_weights_from_list

    expect = u_weights_from_list(U_LIST[:1])[0] * theta_weight([0.4]) * scaling.det_abs**2 * sq
    assert np.allclose(single, expect, rtol=1e-12)
    # zero window gives the zero profile
    zero_win = GaussianWindow(2, sigma=1.0, amplitude=0.0)
    zp, zstats = admissibility_profile(zero_win, M, SPEC, U_LIST, THETAS)
    assert np.all(zp == 0.0)
    with pytest.raises(StockwellError):
        admissibility_profile(PSI, M, SPEC, np.zeros((0, 2)), THETAS)
    with pytest.raises(StockwellError):
        admissibility_profile(PSI, M, SPEC, U_LIST, [0.3, 0.3])  # repeated angle


def test_isometry_matches_weighted_admissibility():
    f = scalar_mixture(11)
    u = default_u_list(SPEC)
    vol = clcst(f, PSI, M, u, THETAS, path="three_step")
    prof, stats = admissibility_profile(PSI, M, SPEC, u, THETAS)
    ratio = isometry_ratio(vol, f, M)
    P = cft_forward(chirp_multiply(f, M.chirp_rate, +1))
    weight = np.sum(P.data**2, axis=0)
    expected = float(np.sum(weight * prof) / np.sum(weight))
    assert ratio == pytest.approx(expected, rel=1e-10)
    assert stats["min"] <= ratio <= stats["max"]
    # chirp modulation preserves the norm exactly
    assert norm_l2(chirp_multiply(f, M.chirp_rate, +1)) == pytest.approx(norm_l2(f), rel=1e-12)


def test_volume_energy_weights():
    f = scalar_mixture(12)
    vol = clcst(f, PSI, M, U_LIST, THETAS)
    manual = 0.0
    for ui, ti in np.ndindex(vol.u_count, vol.theta_count):
        s = vol.slice(ui, ti)
        manual += (norm_l2(s) ** 2) * vol.u_weights[ui] * vol.theta_step
    assert volume_energy(vol) == pytest.approx(manual, rel=1e-12)


def test_marginal_spectrum_and_reconstruction():
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC, CTX)
    psi = GaussianWindow(2, sigma=0.75).normalize_unit_integral()
    half = SPEC.samples_per_axis // 2
    k = np.arange(-half, half)
    knz = k[k != 0]
    u = tensor_u_list([knz * DW, knz * DW])
    vol = clcst(f, psi, M, u, [0.0], path="three_step")
    G, info = marginal_spectrum(vol, M, 0.0)
    P = cft_forward(chirp_multiply(f, M.chirp_rate, +1))
    idx = (half + 2, half + 3)
    dev = np.max(np.abs(G.data[(slice(None),) + idx] - P.data[(slice(None),) + idx]))
    assert dev <= 1e-6 * np.max(np.abs(P.data))
    assert info["filled_bins"] == 2 * SPEC.samples_per_axis - 1
    # the one b-contraction over every u against the per-bin chirped b-sum
    scale = np.max(np.abs(G.data))
    for ui in (0, 400, len(u) - 1):
        chirped = phase_multiply(vol.slice(ui, 0), M.chirp_rate * SPEC.squared_radius())
        expect = chirped.data.reshape(CTX.blade_count, -1).sum(axis=1) * vol.b_weight
        bin_ = tuple(np.rint(u[ui] / DW).astype(int) + half)
        assert np.max(np.abs(G.data[(slice(None),) + bin_] - expect)) <= 1e-13 * scale
    fhat, _ = reconstruct_marginal(vol, M, 0.0)
    assert rel_l2_error(fhat, f) < 1e-3


def test_marginal_reduces_to_cst_case():
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC, CTX)
    psi = GaussianWindow(2, sigma=0.75).normalize_unit_integral()
    half = SPEC.samples_per_axis // 2
    k = np.arange(-half, half)
    knz = k[k != 0]
    u = tensor_u_list([knz * DW, knz * DW])
    m0 = LCTParams.cft_point()
    vol = clcst(f, psi, m0, u, [0.0], path="three_step")
    fhat, _ = reconstruct_marginal(vol, m0, 0.0)
    assert rel_l2_error(fhat, f) < 1e-3


@pytest.mark.parametrize("analyze", [
    lambda f, u, t: clcst(f, PSI, M, u, t),
    lambda f, u, t: cst(f, PSI, u, t),
], ids=["clcst", "cst"])
@pytest.mark.parametrize("u_list, theta_list, message", [
    ([[DW, DW], [2 * DW, 0.0]], [0.0], "zero component"),  # in a later row
    ([[1.0, 1.0]], [0.0, 0.0], "repeats an angle"),
    ([[1.0, 1.0]], [0.3, 0.1, 0.3], "repeats an angle"),  # not neighbours until sorted
    ([[1.0, 1.0]], [-0.0, 0.0], "repeats an angle"),
    ([[1.0, 1.0]], [0.0, np.nan], "theta list is not finite"),
    ([[1.0, 1.0]], [np.nan, np.nan], "theta list is not finite"),
    ([[1.0, 1.0]], [0.0, np.inf], "theta list is not finite"),
    ([[1.0, 1.0]], [-np.inf, -np.inf], "theta list is not finite"),
    ([[1.0, 1.0], [DW, np.nan]], [0.0], "u row 1 is not finite"),
    ([[np.inf, 1.0]], [0.0], "u row 0 is not finite"),
    ([[1.0, -np.inf], [1.0, -np.inf]], [0.0], "u row 0 is not finite"),
    ([[1e200, 1e200]], [0.0], r"u row 0 has \|det A_u\| = inf"),
    ([[DW, DW], [1e-200, -1e-200]], [0.0], r"u row 1 has \|det A_u\| = 0.0"),
    # every |det A_u| is 1, but the u weight, a product of per-axis spacings
    # of 1e200, is not finite
    ([[1e200, 1e-200], [-1e200, 1e-200], [1e-200, 1e200], [1e-200, -1e200]], [0.0],
     "u row 0 has weight inf"),
    # |det A_u| is a normal or a subnormal number, but the profile weighs
    # |det A_u|^2, which underflows to a subnormal number or to zero
    ([[1e-160, 1.0]], [0.0], r"u row 0 has \|det A_u\|\^2 x weight = 1e-320"),
    ([[1e-320, 1.0]], [0.0], r"u row 0 has \|det A_u\|\^2 x weight = 0.0"),
], ids=["zero-u", "repeated-theta", "unsorted-repeat", "signed-zeros", "theta-nan",
        "theta-nan-twice", "theta-inf", "theta-inf-twice", "u-nan", "u-inf", "u-inf-twice",
        "det-overflows", "det-underflows", "weight-overflows", "det-squared-subnormal",
        "det-subnormal"])
def test_bad_lists_refused_before_allocation(monkeypatch, analyze, u_list, theta_list, message):
    """A zero u component, a repeated angle (wherever it sits, whatever the
    sign of a zero), a NaN or infinite angle or u component, a u row whose
    |det A_u| overflows or underflows, a u weight that is not finite and a
    row whose profile weight |det A_u|^2 x u weight is not a normal number
    are refused before a volume is allocated."""
    def no_volume(*args, **kwargs):
        raise AssertionError("a volume was allocated before the lists were checked")

    monkeypatch.setattr("clcst.transform.CLCSTVolume", no_volume)
    with pytest.raises(StockwellError, match=message):
        analyze(scalar_mixture(3), np.array(u_list), theta_list)


@pytest.mark.parametrize("analyze, error", [
    (lambda f, u, t: clcst(f, PSI, M, u, t), StockwellError),
    (lambda f, u, t: cst(f, PSI, u, t), StockwellError),
], ids=["clcst", "cst"])
@pytest.mark.parametrize("u_list, theta_list", [
    (np.zeros((0, 2)), THETAS),
    (U_LIST, []),
], ids=["u", "theta"])
def test_empty_lists_refused_before_allocation(monkeypatch, analyze, error, u_list, theta_list):
    """An empty u or theta list is refused before a volume is allocated,
    by the plan, as admissibility_profile and reconstruct_resolution refuse
    it, not analyzed into an empty volume."""
    def no_volume(*args, **kwargs):
        raise AssertionError("a volume was allocated before the lists were checked")

    monkeypatch.setattr("clcst.transform.CLCSTVolume", no_volume)
    with pytest.raises(error, match="non-empty"):
        analyze(scalar_mixture(3), u_list, theta_list)


def stored_lists(u_list, theta_list):
    """A volume as reconstruct_resolution reads it, holding the given lists
    and no rows: a CLCSTVolume refuses an empty theta list itself."""
    return SimpleNamespace(spec=SPEC, ctx=CTX, u_list=u_list, theta_list=theta_list,
                           u_weights=None)


@pytest.mark.parametrize("entry", [
    lambda psi, u, t: Plan(psi, SPEC, u, t),
    lambda psi, u, t: clcst(scalar_mixture(3), psi, M, u, t),
    lambda psi, u, t: cst(scalar_mixture(3), psi, u, t),
    lambda psi, u, t: admissibility_profile(psi, M, SPEC, u, t),
    lambda psi, u, t: reconstruct_resolution(stored_lists(u, t), psi, M),
], ids=["Plan", "clcst", "cst", "admissibility_profile", "reconstruct_resolution"])
@pytest.mark.parametrize("psi, u_list, theta_list, message", [
    (PSI, np.array([[DW, DW], [2 * DW, 0.0]]), [0.0], "u row 1 has a zero component"),
    (PSI, np.zeros((0, 2)), THETAS, "u list is empty"),
    (PSI, U_LIST, [], "theta list is empty"),
    (None, U_LIST, THETAS, "NoneType is not an analytic window"),
], ids=["zero-u", "empty-u", "empty-theta", "no-window"])
def test_every_pass_is_refused_at_its_plan(monkeypatch, entry, psi, u_list, theta_list,
                                           message):
    """The plan is the one front door of every pass: a zero u component, an
    empty u or theta list and a window that is not analytic are refused by
    the same error, naming the fault, before any volume, per-axis table,
    window spectrum or profile array is allocated."""
    def refused(*args, **kwargs):
        raise AssertionError("work was allocated before the plan refused its input")

    monkeypatch.setattr("clcst.transform.CLCSTVolume", refused)
    monkeypatch.setattr("clcst.stockwell.AxisTables", refused)
    monkeypatch.setattr(Plan, "blocks", refused)  # the profile sum and the window spectra
    with pytest.raises(StockwellError, match=message):
        entry(psi, u_list, theta_list)


def test_u_weights_of_another_length_are_refused():
    """One u weight per u row: a list of another length is refused by the
    plan, naming both lengths, not broadcast, as [5.0] would weigh every row
    of a synthesis by 5."""
    message = r"^u weights of shape \(1,\), not one for each of 3 u rows$"
    with pytest.raises(StockwellError, match=message):
        checked_lists(SPEC, U_LIST, [0.0], [5.0])
    vol = clcst(scalar_mixture(3), PSI, M, U_LIST, [0.0])
    vol.u_weights = np.array([5.0])
    with pytest.raises(StockwellError, match=message):
        reconstruct_resolution(vol, PSI, M)


def test_empty_default_u_list_is_refused_by_its_grid():
    """Below N = 4 samples per axis, at N = 2, the default u list has no
    value: the plan refuses it, naming N and the cure, not as an empty list
    given."""
    with pytest.raises(StockwellError, match=r"^the default u list is empty at N = 2 samples "
                       r"per axis: it needs N >= 4, or an explicit u list$"):
        Plan(PSI, GridSpec(2, 6.0, 2))


@pytest.mark.parametrize("analyze", [
    lambda f: clcst(f, PSI, M, U_LIST, THETAS),
    lambda f: cst(f, PSI, U_LIST, THETAS),
], ids=["clcst", "cst"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_signal_refused_before_allocation(monkeypatch, analyze, bad):
    """The signal is checked before its plan, so before any volume or
    per-axis table is built."""
    def no_volume(*args, **kwargs):
        raise AssertionError("a volume, plan or table was built before the signal was checked")

    monkeypatch.setattr("clcst.transform.CLCSTVolume", no_volume)
    monkeypatch.setattr("clcst.transform.Plan", no_volume)
    monkeypatch.setattr("clcst.stockwell.AxisTables", no_volume)
    f = multivector_noise(14)
    f.data[2, 5, 7] = bad
    with pytest.raises(StockwellError, match="1 non-finite"):
        analyze(f)


@pytest.mark.parametrize("B", [1e-310, 1e-308], ids=["infinite-rate", "infinite-phase"])
def test_tiny_b_refused_before_allocation(monkeypatch, B):
    def no_volume(*args, **kwargs):
        raise AssertionError("a volume was allocated before B was checked")

    monkeypatch.setattr("clcst.transform.CLCSTVolume", no_volume)
    params = LCTParams(1, B, 0, 1)
    with pytest.raises(TransformError, match="not finite"):
        clcst(scalar_mixture(3), PSI, params, U_LIST, THETAS)
    with pytest.raises(TransformError, match="not finite"):
        admissibility_profile(PSI, params, SPEC, U_LIST, THETAS)


def test_overflowing_lattice_is_refused_by_its_half_width(monkeypatch):
    """At the CFT point (A = 0) the chirp is 1, but the pass still forms
    A/B |x|^2 on the lattice, 0 x inf at L = 1e200: the refusal names the
    half-width and not B, before any volume is allocated."""
    def no_volume(*args, **kwargs):
        raise AssertionError("a volume was allocated before the lattice was checked")

    monkeypatch.setattr("clcst.transform.CLCSTVolume", no_volume)
    f = GridSignal.zero(GridSpec(2, 1e200, 8), CTX)
    with pytest.raises(TransformError) as err:
        cst(f, PSI, np.array([[1.0, 1.0]]), [0.0])
    assert str(err.value) == "the lattice's largest |x|^2 = n L^2 is not finite at L = 1e+200"


def test_marginal_errors():
    f = scalar_mixture(13)
    psi_raw = GaussianWindow(2, sigma=0.75)
    vol = clcst(f, psi_raw, M, U_LIST, [0.0])
    from clcst.stockwell import StockwellError

    with pytest.raises(StockwellError):
        reconstruct_marginal(vol, M, 0.0)  # window not unit-integral
    psi = GaussianWindow(2, sigma=0.75).normalize_unit_integral()
    vol = clcst(f, psi, M, U_LIST, [0.0])
    with pytest.raises(MissingCoverageError):
        reconstruct_marginal(vol, M, 0.0)  # u coverage is only 3 points
    with pytest.raises(TransformError):
        marginal_spectrum(vol, M, 0.123)  # theta not in the volume


def test_resolution_reconstruction():
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / 2), SPEC, CTX)
    step = 2 * DW
    vals = np.arange(step, 28 * DW + 1e-9, step)
    axis = np.concatenate([-vals[::-1], vals])
    u = tensor_u_list([axis, axis])
    vol = clcst(f, PSI, M, u, [0.0], path="three_step")
    rec, (_, stats) = reconstruct_resolution(vol, PSI, M)
    err = rel_l2_error(rec, f)
    assert err < 0.05
    assert err < stats["relative_variation"] + 0.01
    # a zero-amplitude window has a zero profile, whose mean is refused
    silent = GaussianWindow(2, sigma=1.0, amplitude=0.0)
    vol = clcst(f, silent, M, u, [0.0], path="three_step")
    with pytest.raises(TransformError, match="admissibility profile mean 0.0 is not positive"):
        reconstruct_resolution(vol, silent, M)


def test_reanalysis_of_resolution_synthesis():
    # synthesize from the volume, analyze again: volumes agree to recon error
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / 2), SPEC, CTX)
    step = 2 * DW
    vals = np.arange(step, 28 * DW + 1e-9, step)
    axis = np.concatenate([-vals[::-1], vals])
    u = tensor_u_list([axis, axis])
    vol = clcst(f, PSI, M, u, [0.0], path="three_step")
    rec, (_, stats) = reconstruct_resolution(vol, PSI, M)
    vol2 = clcst(rec, PSI, M, u, [0.0], path="three_step")
    assert vol.rel_max_difference(vol2) < 2 * stats["relative_variation"]


def test_reproducing_kernel_bound_and_decay():
    u_def = default_u_list(SPEC)
    _, stats = admissibility_profile(PSI, M, SPEC, u_def, THETAS)
    c = stats["mean"]
    rng = np.random.default_rng(21)
    for _ in range(25):
        b1, b2 = rng.uniform(-4, 4, size=(2, 2))
        u1, u2 = u_def[rng.integers(len(u_def), size=2)]
        t1, t2 = rng.choice(THETAS, size=2)
        K, bound = reproducing_kernel(PSI, M, SPEC, CTX, c, (b1, u1, t1), (b2, u2, t2))
        assert K.norm() <= bound
    # self kernel has a positive scalar part
    p = (np.array([0.5, -0.25]), np.array([2 * DW, 2 * DW]), THETAS[1])
    K, _ = reproducing_kernel(PSI, M, SPEC, CTX, c, p, p)
    assert scalar_part(K) > 0.0
    # far separated centers decay to numerical zero
    u = np.array([2 * DW, 2 * DW])
    Kfar, bound = reproducing_kernel(
        PSI, M, SPEC, CTX, c, (np.array([-3.0, -3.0]), u, 0.0), (np.array([3.0, 3.0]), u, 0.0)
    )
    assert Kfar.norm() < 1e-8 * bound
    with pytest.raises(TransformError):
        reproducing_kernel(PSI, M, SPEC, CTX, -1.0, p, p)


def test_covariance_suite_tolerances():
    spec = GridSpec(2, 6.0, 128)
    ctx = transform_algebra(2)
    rng = np.random.default_rng(31)
    mesh = spec.mesh()
    vals = np.zeros(spec.shape)
    for _ in range(2):
        c = rng.uniform(-0.4, 0.4, size=2).reshape(2, 1, 1)
        vals += rng.uniform(0.5, 1.5) * np.exp(-rng.uniform(2.0, 2.5) * np.sum((mesh - c) ** 2, axis=0))
    f = GridSignal.from_scalar(spec, ctx, vals)
    dw = spec.dw
    u = np.array([[4 * dw, 6 * dw], [8 * dw, -4 * dw], [-6 * dw, 4 * dw]])
    # a positive and two negative lattice shifts: the seam mask of each sign
    for shift in ([spec.dx, 0.0], [-spec.dx, 0.0], [0.0, -3 * spec.dx]):
        report = covariance_suite(
            f,
            GaussianWindow(2, sigma=0.6),
            M,
            u,
            THETAS,
            shift=shift,
            dilation=2.0,
            dilation_b_radius=1.1,
            seed=8,
        )
        for name, dev in report.items():
            assert dev <= 1e-10, (shift, name, dev)


def test_covariance_rejects_off_lattice_moves():
    f = scalar_mixture(14)
    with pytest.raises(TransformError):
        covariance_suite(f, PSI, M, U_LIST, THETAS, shift=[0.1 * SPEC.dx, 0.0])
    with pytest.raises(TransformError):
        covariance_suite(f, PSI, M, U_LIST, THETAS, dilation=0.37)
