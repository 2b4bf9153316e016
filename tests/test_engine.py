"""The slice engine: one signal spectrum, one modulated window spectrum per
(u, theta) shared by the slices and the admissibility profile, one inverse
FFT per block of u rows, and for a radial window one window, spectrum and
slice per u for every theta."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcst.algebra import Multivector, left_multiplication_matrix, transform_algebra
from clcst.cli import main
from clcst.grid import SPACE, GridError, GridSignal, GridSpec, live_pairs, pack
from clcst.io import export_spectrogram_csv, read_volume, write_grid, write_volume
from clcst.lct import LCTParams
from clcst.axis import AxisTables
from clcst.stockwell import (
    Plan,
    Rotation,
    ScalingMatrix,
    cst_slice,
    transformed_window_values,
)
from clcst.transform import (
    PATHS,
    TransformError,
    admissibility_profile,
    clcst,
    cst,
    marginal_spectrum,
    modulated_window_spectrum,
    reconstruct_marginal,
    reconstruct_resolution,
)
from clcst.verify import clcst_direct_sum_slice, cst_deviation, cst_direct_point, volume_energy
from clcst.volume import (
    CLCSTVolume,
    default_u_list,
    tensor_u_list,
    theta_weight,
    u_weights_from_list,
)
from clcst.windows import CompositeWindow, DOGWindow, GaussianWindow, WindowSpec

M = LCTParams(1, 2, 1, 3)
THETAS = [0.0, 0.4, np.pi / 2]

pytestmark = pytest.mark.filterwarnings("ignore::clcst.stockwell.NonUnitWindowWarning")


class SkewedGaussian(WindowSpec):
    """exp(-|p - c|^2 / 2) with c = (1.5, 0, ...): a window that is not even."""

    def _evaluate(self, points):
        centre = np.zeros((self.n,) + (1,) * (points.ndim - 1))
        centre[0] = 1.5
        return np.exp(-np.sum((points - centre) ** 2, axis=0) / 2)

    def raw_integral(self):
        return (2.0 * np.pi) ** (self.n / 2.0)


class NotRadial(WindowSpec):
    """The values of a window under a class that does not declare it radial,
    so the engine evaluates it at every theta."""

    def __init__(self, psi):
        super().__init__(psi.n)
        self.psi = psi

    def _evaluate(self, points):
        return self.psi.evaluate(points)

    def raw_integral(self):
        return self.psi.integral()


class Dense(NotRadial):
    """A window with its own angles but no separable terms, so the engine
    evaluates it on the lattice and transforms it with an n-D FFT."""

    def __init__(self, psi):
        super().__init__(psi)
        self.radial = psi.radial


def radial_window(n, kind):
    if kind == "gaussian":
        return GaussianWindow(n, sigma=0.9)
    if kind == "unit":
        return GaussianWindow(n, sigma=0.75).normalize_unit_integral()
    if kind == "dog":
        return DOGWindow(n, lam=0.5)
    return CompositeWindow([(0.8, GaussianWindow(n, sigma=0.7)), (-0.3, DOGWindow(n, lam=0.6))])


def setting(n):
    spec = GridSpec(2, 6.0, 32) if n == 2 else GridSpec(3, 4.0, 16)
    return spec, transform_algebra(n)


def noise(spec, ctx, seed):
    """A multivector signal with no symmetry, so a wrong roll or sign shows."""
    rng = np.random.default_rng(seed)
    envelope = np.exp(-np.sum((spec.mesh() - 0.3) ** 2, axis=0) / 4)
    return GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape) * envelope)


def mixed_u_list(spec):
    """Lattice u with odd, negative and -N/2 steps, beside off-lattice u."""
    half = spec.samples_per_axis // 2
    steps = np.array([[1, 2], [-3, 5], [-half, 1], [7, -half], [-1, -1]])
    steps = np.concatenate([steps, steps[:, :1] + 2], axis=1)[:, : spec.n]
    off = np.full((2, spec.n), 0.37 * spec.dw)
    off[1] *= -2.5
    return np.concatenate([steps * spec.dw, off])


def tensor_list(spec):
    """-N/2, -3, 0.37 and 2 steps of dw on the leading axes, and -1, 1 and
    6.5 more on the last: lattice, -N/2 and off-lattice values in a tensor
    list, whose runs of 7 rows share their leading values, long enough to
    be factored for windows of up to 3 terms."""
    steps = np.array([-(spec.samples_per_axis // 2), -3, 0.37, 2])
    last = np.concatenate([steps, [-1, 1, 6.5]])
    return tensor_u_list([steps * spec.dw] * (spec.n - 1) + [last * spec.dw])


U_LISTS = {
    "mixed": mixed_u_list,
    "tensor": tensor_list,
    "shuffled": lambda spec: np.random.default_rng(17).permutation(tensor_list(spec)),
}


def assert_close(got, expect, tol=1e-13):
    assert np.max(np.abs(got - expect)) <= tol * np.max(np.abs(expect))


def assert_slices_close(a, b, tol):
    values_a, values_b = a.values, b.values  # each unpacks the whole volume
    for ui, ti in np.ndindex(a.u_count, a.theta_count):
        sa, sb = values_a[..., ui, ti], values_b[..., ui, ti]
        assert np.max(np.abs(sa - sb)) <= tol * np.max(np.abs(sb)), (ui, ti)


def test_fft_slice_of_skewed_window_matches_point_oracle():
    """The FFT correlation wraps t - b on the lattice exactly as the oracle does."""
    spec, ctx = GridSpec(2, 6.0, 32), transform_algebra(2)
    f = noise(spec, ctx, seed=0)
    psi = SkewedGaussian(2)
    scaling, rotation = ScalingMatrix([0.5, 0.7]), Rotation(0.3)
    slice_ = cst_slice(f, psi, scaling, rotation)
    for idx in [(0, 0), (0, 17), (9, 0), (31, 31), (16, 5), (22, 13)]:
        b = np.array([spec.axis()[idx[0]], spec.axis()[idx[1]]])
        expected = cst_direct_point(f, psi, b, scaling, rotation)
        assert np.allclose(slice_.value_at(idx).coeffs, expected.coeffs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("psi_kind", ["gaussian", "skewed"])
def test_three_step_matches_direct_per_slice(n, psi_kind):
    spec, ctx = setting(n)
    psi = GaussianWindow(n, sigma=0.9) if psi_kind == "gaussian" else SkewedGaussian(n)
    f = noise(spec, ctx, seed=n)
    u = mixed_u_list(spec)
    rolled = clcst(f, psi, M, u, THETAS, path="three_step")
    direct = clcst(f, psi, M, u, THETAS, path="direct")
    assert_slices_close(rolled, direct, 1e-12)
    # at the CFT point the transform is the Stockwell transform, also rolled,
    # slice by slice as cst_slice computes it apart from the plan
    at_cft_point = clcst(f, psi, LCTParams.cft_point(), u, THETAS, path="direct")
    assert_slices_close(cst(f, psi, u, THETAS), at_cft_point, 1e-12)
    slices = list(np.ndindex(len(u), len(THETAS)))
    assert cst_deviation(at_cft_point, f, psi, slices) < 1e-12
    assert cst_deviation(cst(f, psi, u, THETAS), f, psi, slices) < 1e-12


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    steps=st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16)), min_size=1, max_size=3),
    theta=st.floats(0.0, np.pi),
)
def test_rolled_lattice_slices_match_direct(steps, theta):
    spec, ctx = setting(2)
    steps = np.array(steps)
    steps[steps == 0] = 3
    u = np.unique(steps, axis=0) * spec.dw
    f = noise(spec, ctx, seed=5)
    psi = SkewedGaussian(2)
    rolled = clcst(f, psi, M, u, [theta], path="three_step")
    assert_slices_close(rolled, clcst(f, psi, M, u, [theta], path="direct"), 1e-12)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    a=st.floats(-2.0, 2.0),
    d=st.floats(-2.0, 2.0),
    b=st.floats(0.3, 3.0),
    b_sign=st.sampled_from([-1.0, 1.0]),
    n=st.sampled_from([2, 3]),
    steps=st.lists(st.tuples(*[st.integers(-8, 7)] * 3), min_size=1, max_size=3),
)
def test_random_matrix_paths_agree_and_are_left_linear(a, d, b, b_sign, n, steps):
    """For a drawn M = (A, B, (AD - 1) / B, D), on a u list of lattice rows
    and the same rows shifted off the lattice by 0.37 dw: three_step slices
    match direct, and the transform is linear in the signal with multivector
    coefficients on the left."""
    b *= b_sign
    params = LCTParams(a, b, (a * d - 1.0) / b, d)
    spec, ctx = GridSpec(n, 4.0, 16), transform_algebra(n)
    steps = np.array(steps)[:, :n]
    steps[steps == 0] = 3
    u = np.concatenate([steps, steps + 0.37]) * spec.dw
    psi = GaussianWindow(n, sigma=0.9)
    f, g = noise(spec, ctx, seed=1), noise(spec, ctx, seed=2)
    rolled = clcst(f, psi, params, u, THETAS, path="three_step")
    assert_slices_close(rolled, clcst(f, psi, params, u, THETAS, path="direct"), 1e-12)
    rng = np.random.default_rng(3)
    alpha, beta = (left_multiplication_matrix(Multivector(ctx, rng.standard_normal(ctx.blade_count)))
                   for _ in range(2))
    mixed = GridSignal(spec, ctx, np.tensordot(alpha, f.data, axes=1)
                       + np.tensordot(beta, g.data, axes=1))
    expect = (np.tensordot(alpha, rolled.values, axes=1)
              + np.tensordot(beta, clcst(g, psi, params, u, THETAS).values, axes=1))
    assert_close(clcst(mixed, psi, params, u, THETAS).values, expect, 1e-12)


def test_near_lattice_u_is_off_the_roll_and_on_the_marginal_bins():
    """u = k dw (1 + 1e-11) lies up to 8e-11 steps from its bin: off the
    lattice for the roll, whose tolerance is 1e-13 steps, so its slices go
    the off-lattice route and match direct; on its bin for the marginal,
    whose tolerance is 1e-9 steps, so its marginal reconstruction is that of
    the exact lattice list."""
    spec, ctx = GridSpec(2, 6.0, 16), transform_algebra(2)
    half = spec.samples_per_axis // 2
    k = np.arange(-half, half)
    exact = tensor_u_list([k[k != 0] * spec.dw] * 2)
    near = exact * (1 + 1e-11)
    psi = GaussianWindow(2, sigma=0.75).normalize_unit_integral()
    assert not Plan(psi, spec, near, [0.0], np.ones(len(near))).on_lattice.any()
    f = noise(spec, ctx, seed=4)
    vol = clcst(f, psi, M, near, [0.0], path="three_step")
    assert_slices_close(vol, clcst(f, psi, M, near, [0.0], path="direct"), 1e-12)
    got = reconstruct_marginal(vol, M, 0.0)[0].data
    expect = reconstruct_marginal(clcst(f, psi, M, exact, [0.0]), M, 0.0)[0].data
    assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)


@pytest.mark.parametrize("n", [2, 3])
def test_pass_profile_equals_admissibility_profile(n):
    spec, ctx = setting(n)
    psi = SkewedGaussian(n)
    u = mixed_u_list(spec)
    standalone, stats = admissibility_profile(psi, M, spec, u, THETAS)
    f = noise(spec, ctx, 1)
    volumes = [clcst(f, psi, M, u, THETAS, path=p) for p in ("three_step", "direct", "spectral")]
    for vol in volumes + [cst(f, psi, u, THETAS)]:
        sig, pass_stats = vol.admissibility
        assert np.max(np.abs(sig - standalone)) <= 1e-13 * np.max(standalone)
        assert pass_stats == pytest.approx(stats, rel=1e-13)
    # the rolled terms against |Q|^2 of each explicitly modulated window
    expect = np.zeros(spec.shape)
    u_w, t_w = u_weights_from_list(u), theta_weight(THETAS)
    for ui, row in enumerate(u):
        scaling = ScalingMatrix(row)
        for theta in THETAS:
            Q = modulated_window_spectrum(psi, spec, scaling, Rotation(theta))
            expect += u_w[ui] * t_w * scaling.det_abs**2 * np.abs(Q) ** 2
    assert np.max(np.abs(standalone - expect)) <= 1e-13 * np.max(expect)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["factored", "n-D"])
def test_profile_is_the_pass_sum_rolled_and_scaled_in_place(n, kind):
    """Plan.profile rolls the pass's sum by N/2 on each axis and scales it
    by (2 pi)^(-n) where it lies: the bits of np.roll and a product, in the
    same array, which the plan then no longer holds."""
    spec, _ = setting(n)
    psi, u = ((radial_window(n, "dog"), tensor_list(spec)) if kind == "factored"
              else (SkewedGaussian(n), mixed_u_list(spec)))
    plan = Plan(psi, spec, u, np.array(THETAS), u_weights_from_list(u))
    for block in plan.blocks(3):
        del block
    power = plan.power
    half = spec.samples_per_axis // 2
    expect = np.roll(power, (half,) * n, axis=tuple(range(n))) * (2.0 * np.pi) ** (-n)
    profile, stats = plan.profile()
    assert profile is power and plan.power is None
    assert np.array_equal(profile, expect)
    assert stats["mean"] == float(expect.mean()) and stats["min"] == float(expect.min())


@pytest.mark.parametrize("n", [2, 3])
def test_factored_synthesis_inverts_no_zeros(monkeypatch, n):
    """A volume whose rows are all factored is synthesized by the axis
    route alone: the n-D route's two sums are never built, and no n-D
    inverse FFT runs over them."""
    spec, ctx = setting(n)
    psi, u = radial_window(n, "gaussian"), tensor_list(spec)
    vol = clcst(noise(spec, ctx, seed=4), psi, M, u, THETAS)
    assert Plan(psi, spec, u, np.array(THETAS), vol.u_weights).factored.all()
    shapes, ifftn = [], np.fft.ifftn
    with monkeypatch.context() as counted:
        counted.setattr(np.fft, "ifftn", lambda a, *args, **kwargs:
                        shapes.append(a.shape) or ifftn(a, *args, **kwargs))
        synthesis = reconstruct_resolution(vol, psi, M)[0].data
    assert shapes == []
    assert_close(synthesis, reconstruct_resolution(vol, Dense(psi), M)[0].data)


def test_resolution_synthesis_matches_per_slice_sum():
    spec, ctx = setting(2)
    psi = SkewedGaussian(2)
    u = mixed_u_list(spec)
    vol = clcst(noise(spec, ctx, 2), psi, M, u, THETAS)
    out, (_, stats) = reconstruct_resolution(vol, psi, M)
    c_psi = admissibility_profile(psi, M, spec, u, THETAS)[1]["mean"]
    assert stats["mean"] == pytest.approx(c_psi, rel=1e-13)
    # each slice convolved with its window, modulated and summed in space
    axes = (-2, -1)
    chirp = np.exp(1j * M.chirp_rate * spec.squared_radius(SPACE))
    total = np.zeros((2,) + spec.shape, dtype=complex)
    for ui, ti in np.ndindex(vol.u_count, vol.theta_count):
        scaling, rotation = ScalingMatrix(u[ui]), Rotation(THETAS[ti])
        w = transformed_window_values(psi, spec, np.zeros(2), scaling, rotation)
        kernel = np.fft.fftn(np.fft.ifftshift(w)) * spec.cell_weight()
        s = pack(ctx, vol.values[..., ui, ti]) * chirp
        conv = np.fft.ifftn(np.fft.fftn(s, axes=axes) * kernel, axes=axes)
        weight = scaling.det_abs * vol.u_weights[ui] * vol.theta_step
        total += conv * np.exp(1j * spec.dot(scaling.u)) * weight
    expect = total * chirp.conj() * (2.0 * np.pi) ** -1.0 / stats["mean"]
    got = pack(ctx, out.data)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "dog", "composite"])
def test_radial_window_shares_one_slice_per_u(n, kind):
    """A radial window gives the volume, profiles and synthesis of the same
    window evaluated at every theta, on every path and in cst."""
    spec, ctx = setting(n)
    psi = radial_window(n, kind)
    each = NotRadial(psi)
    assert psi.radial and not each.radial
    f = noise(spec, ctx, seed=3)
    u = mixed_u_list(spec)

    for path in PATHS + ("cst",):
        shared, separate = (
            cst(f, w, u, THETAS) if path == "cst" else clcst(f, w, M, u, THETAS, path=path)
            for w in (psi, each)
        )
        assert np.array_equal(shared.values[..., 0], shared.values[..., 2])  # one slice per u
        assert_slices_close(shared, separate, 1e-13)
        assert_close(shared.admissibility[0], separate.admissibility[0])
    assert_close(
        admissibility_profile(psi, M, spec, u, THETAS)[0],
        admissibility_profile(each, M, spec, u, THETAS)[0],
    )
    shared, separate = (clcst(f, w, M, u, THETAS) for w in (psi, each))
    assert_close(
        reconstruct_resolution(shared, psi, M)[0].data,
        reconstruct_resolution(separate, each, M)[0].data,
    )


# DENSE_AXIS_SAMPLES that forces each branch of an off-lattice axis value
BRANCHES = {"dense": 10**9, "fft": 0}


@pytest.fixture
def operators(monkeypatch):
    """(axis, value index) of every dense off-lattice operator built from
    here to the end of the test."""
    built = []
    build = AxisTables.operators

    def counted(self, axis, j, *args, **kwargs):
        built.append((axis, j))
        return build(self, axis, j, *args, **kwargs)

    monkeypatch.setattr(AxisTables, "operators", counted)
    return built


# the cases of each u list, named kind-n, and the mixed list's as before the
# others, on the dense off-lattice branch; then the tensor list's on the FFT
# branch, named kind-n-tensor-fft
SEPARABLE_CASES = [
    pytest.param(n, kind, u_kind, "dense",
                 id="-".join([kind, str(n)] + [u_kind] * (u_kind != "mixed")))
    for u_kind in U_LISTS for n in (2, 3) for kind in ("gaussian", "unit", "dog", "composite")
] + [
    pytest.param(n, kind, "tensor", "fft", id="-".join([kind, str(n), "tensor", "fft"]))
    for n in (2, 3) for kind in ("gaussian", "dog", "composite")
]


@pytest.mark.parametrize("n, kind, u_kind, branch", SEPARABLE_CASES)
def test_separable_route_matches_dense_route(n, kind, u_kind, branch, operators, monkeypatch):
    """Window spectra built from the plan's per-axis tables, and slices
    computed one axis at a time on the runs of a tensor list, give the
    block spectra, slices, profiles and synthesis of the same window
    evaluated on the lattice, on every path and in cst, and the three_step
    slices and their synthesis match those of the direct path to 1e-12: on
    rows that are each their own run, on a tensor list, whose runs are
    factored and whose last axis mixes lattice and off-lattice values in
    each run, and on that list shuffled, where most runs break.  The
    off-lattice values of the factored runs take the branch ``branch``,
    dense operators or FFTs, whatever N."""
    from clcst import axis

    monkeypatch.setattr(axis, "DENSE_AXIS_SAMPLES", BRANCHES[branch])
    spec, ctx = setting(n)
    psi = radial_window(n, kind)
    dense = Dense(psi)
    assert psi.separable_terms() is not None and dense.separable_terms() is None
    assert dense.radial
    u = U_LISTS[u_kind](spec)
    fast, slow = (Plan(w, spec, u, THETAS, np.ones(len(u))) for w in (psi, dense))
    # a run of rows that share u_0 .. u_{n-2} is factored when it has more
    # than 2 T rows: every run of the tensor list, none of the mixed list,
    # and in the shuffled list the one run of 3 rows that a Gaussian has at n = 2
    terms = len(psi.separable_terms())
    starts = np.concatenate([[True], np.any(u[1:, :-1] != u[:-1, :-1], axis=1)])
    run = np.cumsum(starts) - 1
    assert np.array_equal(fast.factored, np.bincount(run)[run] > 2 * terms)
    assert fast.factored.all() == (u_kind == "tensor")
    assert fast.factored.any() == (u_kind == "tensor" or (u_kind, n, terms) == ("shuffled", 2, 1))
    # the n-D route's rows: the spectra of the tables against the evaluated window
    bounds = [(start, stop) for start, stop, _, _ in slow.blocks(3)]
    expect = {start + i: (M[i], q.get(i)) for start, _, M, q in slow.blocks(3)
              for i in range(len(M))}
    rows = 0
    for start, stop, spectra, q in fast.blocks(3):
        assert fast.factored[start:stop].all() == (spectra is None)
        if u_kind == "mixed":  # nothing factored: the same blocks in the same order
            assert (start, stop) == bounds[0]
            bounds.pop(0)
        for i in range(0 if fast.factored[start] else stop - start):
            dense_spectra, dense_q = expect[start + i]
            assert_close(spectra[i], dense_spectra)
            assert (i in q) == (dense_q is not None) == (not fast.on_lattice[start + i])
            if i in q:
                assert_close(q[i], dense_q)
            rows += 1
    assert rows == np.count_nonzero(~fast.factored)
    assert u_kind != "mixed" or not bounds

    f = noise(spec, ctx, seed=9)
    volumes = {}
    for path in PATHS + ("cst",):
        fast, slow = (
            cst(f, w, u, THETAS) if path == "cst" else clcst(f, w, M, u, THETAS, path=path)
            for w in (psi, dense)
        )
        assert_slices_close(fast, slow, 1e-13)
        assert_close(fast.admissibility[0], slow.admissibility[0])
        volumes[path] = fast
    assert_slices_close(volumes["three_step"], volumes["direct"], 1e-12)
    assert_close(
        admissibility_profile(psi, M, spec, u, THETAS)[0],
        admissibility_profile(dense, M, spec, u, THETAS)[0],
    )
    built = {"analysis": {axis for axis, _ in operators}}
    del operators[:]
    vol = volumes["three_step"]
    synthesis = reconstruct_resolution(vol, psi, M)[0].data
    assert_close(synthesis, reconstruct_resolution(vol, dense, M)[0].data)
    assert_close(synthesis, reconstruct_resolution(volumes["direct"], dense, M)[0].data, 1e-12)
    built["synthesis"] = {axis for axis, _ in operators}
    # dense operators on the dense branch alone, for factored rows alone: on
    # every axis of the tensor list, whose runs hold off-lattice values on each
    for axes in built.values():
        if branch == "fft" or u_kind == "mixed":
            assert not axes
        elif u_kind == "tensor":
            assert axes == set(range(n))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rows", [1, 3])
def test_factored_runs_cut_by_blocks_keep_their_partials(n, rows, monkeypatch):
    """Blocks of one or three u rows cut the factored runs of a tensor list,
    whose last axis mixes lattice and off-lattice values: on either branch
    of the off-lattice values, dense operators or FFTs, the partial
    transforms kept from one block for the next, and the run sums carried
    into the next block's synthesis, give the slices and the resolution
    synthesis of one whole block, the slices of the direct path to 1e-12,
    and the profile and synthesis of the window evaluated on the lattice."""
    from clcst import axis, stockwell, transform

    spec, ctx = setting(n)
    psi, u, f = radial_window(n, "dog"), tensor_list(spec), noise(spec, ctx, seed=5)
    direct = clcst(f, psi, M, u, THETAS, path="direct")
    dense = reconstruct_resolution(direct, Dense(psi), M)
    for branch, limit in BRANCHES.items():
        monkeypatch.setattr(axis, "DENSE_AXIS_SAMPLES", limit)
        whole = clcst(f, psi, M, u, THETAS)
        expect = reconstruct_resolution(whole, psi, M)[0].data
        with monkeypatch.context() as cut_blocks:
            for module in (axis, stockwell, transform):
                cut_blocks.setattr(module, "block_rows", lambda bytes_per_u: rows)
            cut = clcst(f, psi, M, u, THETAS)
            synthesis, (profile, _) = reconstruct_resolution(cut, psi, M)
        assert_close(cut.stored, whole.stored)
        assert_close(synthesis.data, expect)
        assert_slices_close(cut, direct, 1e-12)
        assert_close(profile, dense[1][0])
        assert_close(synthesis.data, dense[0].data, 1e-12)


@pytest.mark.parametrize("kind", ["factored", "wide-rows", "n-D"])
def test_fill_volume_sizes_its_blocks_by_kind(kind):
    """A factored block holds no window spectra, so fill_volume cuts it at
    BLOCK_BYTES / 8 of stored rows, and at one row where a stored row is
    larger than that; an n-D block builds its spectra and keeps its rows
    counted by every pair of the algebra, about BLOCK_BYTES of them."""
    from clcst.volume import BLOCK_BYTES

    if kind == "wide-rows":
        spec, ctx = GridSpec(3, 4.0, 24), transform_algebra(3)
        psi, dw = GaussianWindow(3, sigma=0.9), spec.dw
        u = tensor_u_list([[dw], [2 * dw], [-dw, 0.37 * dw, 3 * dw]])
    else:
        spec, ctx = setting(2)
        psi, u = radial_window(2, "dog"), default_u_list(spec)
        if kind == "n-D":
            u = np.random.default_rng(17).permutation(u)
    factored = Plan(psi, spec, u, THETAS).factored
    assert factored.all() if kind != "n-D" else not factored.any()
    blocks = []  # (start, stop) of each block handed to the sink
    vol = clcst(noise(spec, ctx, seed=3), psi, M, u, THETAS,
                sink=lambda vol: lambda start, stop, block: blocks.append((start, stop)))
    row_bytes = 16 * int(np.prod(vol.stored_shape[1:]))
    if kind == "n-D":  # one stored column, and 2^(n-1) pairs of the algebra
        rows = BLOCK_BYTES // (16 * ctx.blade_count // 2 * spec.point_count)
    else:
        rows = max(1, BLOCK_BYTES // 8 // row_bytes)
    if kind == "wide-rows":
        assert row_bytes > BLOCK_BYTES // 8 and rows == 1
    assert blocks == [(start, min(start + rows, len(u))) for start in range(0, len(u), rows)]


def off_lattice_list(spec):
    """0.37, -1.3 and 2.6 steps of dw on every axis: a tensor list without
    a lattice value, whose factored runs, on the dense branch, sum every
    depth of the synthesis in space alone."""
    return tensor_u_list([np.array([0.37, -1.3, 2.6]) * spec.dw] * spec.n)


DOT_LISTS = dict(U_LISTS, **{"off-lattice": off_lattice_list})

# (n, window, u list, DENSE_AXIS_SAMPLES, block rows or None): every window
# and list of U_LISTS at both n on the dense branch; the separable windows'
# factored lists on the FFT branch; blocks of one and three rows cutting the
# runs on both branches; and the list without a lattice value at n = 3 on
# the dense branch.  Each id ends in the stored layout, "window": one column
# per angle of the window.
DOT_CASES = (
    [(n, kind, u_kind, 48, None)
     for n in (2, 3) for kind in ("gaussian", "dog", "composite", "skewed") for u_kind in U_LISTS]
    + [(n, kind, u_kind, 0, None)
       for n in (2, 3) for kind in ("gaussian", "dog", "composite") for u_kind in ("tensor", "shuffled")]
    + [(n, "dog", "tensor", limit, rows) for n in (2, 3) for limit in (48, 0) for rows in (1, 3)]
    + [(3, "gaussian", "off-lattice", 48, None)]
)


@pytest.mark.parametrize("n, kind, u_kind, limit, rows", DOT_CASES,
                         ids=["-".join(map(str, case + ("window",))) for case in DOT_CASES])
def test_resolution_synthesis_is_the_adjoint_of_the_analysis(n, kind, u_kind, limit, rows,
                                                              monkeypatch):
    """The dot-product test (Claerbout, Earth Soundings Analysis, 1992): for
    a random signal f and a random volume V on the same pairs,

        <S f, V>_W = C_psi <f, R V>,

    S the three_step analysis, R V = reconstruct_resolution(V, psi, M)[0]
    and C_psi the profile mean it returns.  <a, b> = dx^n sum conj(a) b
    over the complex pairs, and W weighs stored u row r and column c by

        W_r = u weight x theta weight x T / T_s,

    T the thetas and T_s the stored columns, one per window angle: a
    radial window's shared column stands for T thetas.  |det A_u| and (2
    pi)^(-n/2) sit in both S and R, so they are not in W; R divides by
    C_psi, which the constant puts back.  It holds to 1e-12 relative on
    every route: n-D rows on and off the lattice, and factored runs on the
    dense and FFT branches of their off-lattice values, whole and cut by
    blocks."""
    from clcst import axis, stockwell, transform

    monkeypatch.setattr(axis, "DENSE_AXIS_SAMPLES", limit)
    if rows is not None:
        for module in (axis, stockwell, transform):
            monkeypatch.setattr(module, "block_rows", lambda bytes_per_u: rows)
    spec, ctx = setting(n)
    psi = SkewedGaussian(n) if kind == "skewed" else radial_window(n, kind)
    u = DOT_LISTS[u_kind](spec)
    f = noise(spec, ctx, seed=21)
    analysis = clcst(f, psi, M, u, THETAS)
    rng = np.random.default_rng(22)
    shape = analysis.stored_shape
    V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    volume = CLCSTVolume(spec, ctx, u, THETAS, stored=V, params=M, window=psi)
    synthesis, (_, stats) = reconstruct_resolution(volume, psi, M)
    dx_n = spec.cell_weight(SPACE)
    S = analysis.stored
    W = volume.u_weights * volume.theta_step * len(THETAS) / shape[1]
    lhs = dx_n * np.dot(W, np.sum((S.conj() * V).reshape(len(u), -1), axis=1))
    rhs = stats["mean"] * dx_n * np.vdot(pack(ctx, f.data), pack(ctx, synthesis.data))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# (n, window, u list, DENSE_AXIS_SAMPLES): factored rows on the FFT and
# dense branches, n-D rows, and a window per angle; each id ends in the
# stored layout, as the dot test's do
IN_PLACE_CASES = [(2, "gaussian", "tensor", 0), (2, "gaussian", "tensor", 48),
                  (2, "gaussian", "mixed", 48), (2, "skewed", "mixed", 48),
                  (3, "composite", "tensor", 48), (3, "dog", "shuffled", 0)]


@pytest.mark.parametrize("n, kind, u_kind, limit", IN_PLACE_CASES,
                         ids=["-".join(map(str, case + ("window",))) for case in IN_PLACE_CASES])
def test_resolution_synthesis_leaves_an_in_memory_payload_alone(n, kind, u_kind, limit,
                                                                tmp_path, monkeypatch):
    """The routes weight and transform the rows they are handed in place,
    so the synthesis hands them rows of its own: an in-memory volume's
    ``stored`` is bit for bit what it was, and its synthesis is bit for bit
    that of the same payload read back from a volume file."""
    from clcst import axis

    monkeypatch.setattr(axis, "DENSE_AXIS_SAMPLES", limit)
    spec, ctx = setting(n)
    psi = SkewedGaussian(n) if kind == "skewed" else radial_window(n, kind)
    u = U_LISTS[u_kind](spec)
    stored_columns = len(THETAS) if kind == "skewed" else 1
    rng = np.random.default_rng(23)
    shape = (len(u), stored_columns, 1) + spec.shape
    stored = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    volume = CLCSTVolume(spec, ctx, u, THETAS, stored=stored.copy(), params=M, window=psi,
                         pairs=[1])
    synthesis, (profile, _) = reconstruct_resolution(volume, psi, M)
    assert volume.stored.tobytes() == stored.tobytes()
    # a carrier of the same payload that a sidecar can describe: a radial
    # catalogue window for one stored column, no window for T
    carrier = CLCSTVolume(spec, ctx, u, THETAS, stored=stored, params=M, pairs=[1],
                          window=GaussianWindow(n, sigma=1.0) if stored_columns == 1 else None)
    write_volume(tmp_path / "v.clcg", carrier)
    back, (back_profile, _) = reconstruct_resolution(read_volume(tmp_path / "v.clcg"), psi, M)
    assert back.data.tobytes() == synthesis.data.tobytes()
    assert back_profile.tobytes() == profile.tobytes()


@pytest.mark.parametrize("kind", ["gaussian", "dog", "composite", "skewed"])
def test_stored_layout_holds_one_column_per_window_angle(kind):
    """Slice-major (U, T_s, P) + b complex pairs: one theta column for a
    radial window, T for any other; ``values`` unpacks them into a new
    read-only array in (blade, b, U, T) order."""
    spec, ctx = setting(2)
    psi = SkewedGaussian(2) if kind == "skewed" else radial_window(2, kind)
    u = mixed_u_list(spec)
    vol = clcst(noise(spec, ctx, seed=7), psi, M, u, THETAS)
    columns = len(THETAS) if kind == "skewed" else 1
    pairs = ctx.blade_count // 2  # every pair of the noise is live
    assert vol.stored.shape == (len(u), columns, pairs) + spec.shape
    assert vol.stored.dtype == np.complex128 and vol.pairs.tolist() == list(range(pairs))
    assert vol.stored.flags.c_contiguous and vol.stored_theta_columns == columns
    values = vol.values
    assert values.shape == (ctx.blade_count,) + spec.shape + (len(u), len(THETAS))
    assert not values.flags.writeable and not np.shares_memory(values, vol.stored)
    with pytest.raises(ValueError):
        values[..., 0, 0] = 0.0
    for ui, ti in np.ndindex(vol.u_count, vol.theta_count):
        assert np.array_equal(vol.slice(ui, ti).data, values[..., ui, ti])
        assert np.array_equal(pack(ctx, values[..., ui, ti]), vol.stored[ui, vol.column(ti)])


def test_volume_stores_one_column_per_window_angle_and_no_other_count():
    """A volume in memory holds the columns of its window's angles: T for a
    volume whose window is not known, and for a radial window one, not T."""
    spec, ctx = setting(2)
    u = mixed_u_list(spec)
    stored = np.zeros((len(u), len(THETAS), 1) + spec.shape, dtype=complex)
    assert CLCSTVolume(spec, ctx, u, THETAS, stored=stored, pairs=[0]).stored_theta_columns == 3
    with pytest.raises(GridError, match=r"^stored volume shape \(%d, 3, 1, 32, 32\), expected "
                       r"\(%d, 1, 1, 32, 32\): the window's 1 theta columns and 1 pairs$"
                       % (len(u), len(u))):
        CLCSTVolume(spec, ctx, u, THETAS, stored=stored, window=radial_window(2, "gaussian"),
                    pairs=[0])


@pytest.mark.parametrize("radial", [True, False], ids=["one-column", "T-columns"])
def test_synthesis_refuses_a_window_of_another_angle_count(radial, monkeypatch):
    """The synthesis takes a volume with the window that analysed it, one
    stored column per angle: a window with another angle count, a radial
    window for T columns or one of T angles for a shared column, is refused
    in one line naming both counts, before the first block is read."""
    spec, ctx = setting(2)
    psi = radial_window(2, "gaussian")
    analysis, synthesis = (psi, NotRadial(psi)) if radial else (NotRadial(psi), psi)
    vol = clcst(noise(spec, ctx, seed=4), analysis, M, mixed_u_list(spec), THETAS)
    monkeypatch.setattr(vol, "rows", lambda *args, **kwargs: pytest.fail("a block was read"))
    counts = (3, 1) if radial else (1, 3)
    with pytest.raises(TransformError, match=r"^the window has %d angles, the volume %d stored "
                       r"theta columns$" % counts):
        reconstruct_resolution(vol, synthesis, M)


@pytest.mark.parametrize("kind", ["gaussian", "dog", "composite"])
def test_radial_volume_readers_count_the_shared_column_for_every_theta(kind, tmp_path):
    """Energy, marginal, resolution synthesis and spectrogram of a one-column
    volume equal those of the same window stored at every theta, each
    volume synthesized with the window that analysed it."""
    spec, ctx = GridSpec(2, 6.0, 16), transform_algebra(2)
    psi = radial_window(2, kind)
    half = spec.samples_per_axis // 2
    k = np.array([m for m in range(-half, half) if m != 0])
    u = tensor_u_list([k * spec.dw, k * spec.dw])
    f = noise(spec, ctx, seed=8)
    shared, separate = (clcst(f, w, M, u, THETAS) for w in (psi, NotRadial(psi)))
    assert (shared.stored_theta_columns, separate.stored_theta_columns) == (1, len(THETAS))

    assert volume_energy(shared) == pytest.approx(volume_energy(separate), rel=1e-13)
    assert_close(marginal_spectrum(shared, M, THETAS[1])[0].data,
                 marginal_spectrum(separate, M, THETAS[1])[0].data)
    assert_close(reconstruct_resolution(shared, psi, M)[0].data,
                 reconstruct_resolution(separate, NotRadial(psi), M)[0].data)
    for ti in range(len(THETAS)):
        rows = []
        for name, vol in (("shared", shared), ("separate", separate)):
            export_spectrogram_csv(tmp_path / (name + ".csv"), vol, 5, ti)
            rows.append(np.loadtxt(tmp_path / (name + ".csv"), delimiter=","))
        assert_close(*rows)


def test_in_memory_volume_above_the_bound_is_refused_before_it_is_allocated():
    """A transform with no sink refuses a payload above MEMORY_BYTES before
    allocating it, naming its bytes and the sink: 141 x 141 u rows of one
    pair at N = 64 are 1.3 GB."""
    import tracemalloc

    from clcst.volume import MEMORY_BYTES

    spec, ctx = GridSpec(2, 6.0, 64), transform_algebra(2)
    k = np.arange(1, 142) * spec.dw / 3
    u = tensor_u_list([k, k])
    f = GridSignal.from_scalar(spec, ctx, np.exp(-spec.squared_radius() / 2))
    size = 16 * len(u) * spec.point_count
    assert len(u) == 19881 and size > MEMORY_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match=r"volume of %d bytes .*\(sink=\)" % size):
            clcst(f, GaussianWindow(2, sigma=0.9), M, u, [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_composite_with_a_skewed_term_is_not_radial():
    spec, ctx = setting(2)
    psi = CompositeWindow([(1.0, GaussianWindow(2, sigma=0.9)), (0.5, SkewedGaussian(2))])
    assert not psi.radial
    vol = clcst(noise(spec, ctx, seed=4), psi, M, mixed_u_list(spec), THETAS)
    for ui in range(vol.u_count):
        first, last = vol.values[..., ui, 0], vol.values[..., ui, -1]
        assert np.max(np.abs(first - last)) > 1e-2 * np.max(np.abs(first)), ui


@pytest.fixture
def counts(monkeypatch):
    """The shapes passed to numpy.fft.fftn and ifftn, and the number of
    window points evaluated, from here to the end of the test."""
    log = {"forward": [], "inverse": [], "window_points": []}

    def counted(fn, calls):
        def wrapper(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fftn", counted(np.fft.fftn, log["forward"]))
    monkeypatch.setattr(np.fft, "ifftn", counted(np.fft.ifftn, log["inverse"]))
    evaluate = WindowSpec.evaluate

    def counted_evaluate(self, points):
        out = evaluate(self, points)
        log["window_points"].append(out.size)
        return out

    monkeypatch.setattr(WindowSpec, "evaluate", counted_evaluate)
    return log


def assert_counts(counts, spec, ctx, windows):
    """One FFT of the signal's pairs, and ``windows`` windows evaluated and
    transformed once each, with the inverse FFT points of one slice each."""
    pairs, points = ctx.blade_count // 2, spec.point_count
    signal_ffts = [s for s in counts["forward"] if s == (pairs,) + spec.shape]
    assert len(signal_ffts) == 1
    window_ffts = sum(int(np.prod(s)) for s in counts["forward"]) - pairs * points
    assert window_ffts == windows * points
    assert sum(counts["window_points"]) == windows * points
    assert sum(int(np.prod(s)) for s in counts["inverse"]) == windows * pairs * points


COUNT_SPEC = GridSpec(2, 6.0, 16)
COUNT_U_STEPS = [[1, 2], [-3, 1], [2, -8]]
COUNT_THETAS = [0.0, 0.7]


def test_one_signal_spectrum_and_one_window_per_slice(tmp_path, counts):
    """A lattice-u transform and its report through the CLI, whose Gaussian
    window is radial and separable: one FFT of the signal's live pairs, no
    window evaluated on the lattice or transformed by an n-D FFT, and the
    slices of every u inverted by one inverse FFT of the block.  The
    synthesized Gaussian is scalar, so one pair is live; a multivector
    signal with every blade nonzero transforms all pairs."""
    spec, ctx = COUNT_SPEC, transform_algebra(2)
    scalar, full = tmp_path / "f.clcg", tmp_path / "g.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(scalar)])
    write_grid(full, noise(spec, ctx, seed=8))
    u_spec = json.dumps([[a * spec.dw, b * spec.dw] for a, b in COUNT_U_STEPS])
    angles = 1  # radial: one window for both thetas
    for src, pairs in ((scalar, 1), (full, ctx.blade_count // 2)):
        for log in counts.values():
            del log[:]
        out = tmp_path / ("vol-" + src.name)
        assert main([
            "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
            "--u-list", u_spec, "--theta", "0,0.7", "--out", str(out),
        ]) == 0
        report = json.loads(out.with_name(out.name + ".report.json").read_text())
        assert report["admissibility"]["mean"] > 0.0
        assert counts["forward"] == [(pairs,) + spec.shape]
        assert sum(counts["window_points"]) == 0
        # the whole u list fits one block: one call, U A pairs N^n points
        assert counts["inverse"] == [(len(COUNT_U_STEPS), angles, pairs) + spec.shape]


@pytest.fixture
def fft_work(monkeypatch):
    """The points of every numpy.fft.fft, ifft, fftn and ifftn call from here
    to the end of the test, each times the number of axes it transforms."""
    work = []

    def counted(fn, one_axis):
        def wrapper(a, *args, **kwargs):
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            work.append(np.size(a) * (1 if one_axis else np.ndim(a) if axes is None else len(axes)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), name in ("fft", "ifft")))
    return work


def test_off_lattice_tensor_list_shares_each_axis_partial_transform(fft_work, monkeypatch):
    """A three_step transform of a 3 x 3 x 3 off-lattice tensor list (n = 3,
    N = 16, a Gaussian window and a scalar signal) takes one axis operator
    per node of its tree of values, 3 + 9 + 27 of them.  At this N, not
    above DENSE_AXIS_SAMPLES, each is a product with a dense N x N
    operator, one matmul call per node and one per run for its 3 rows (or
    per part of a run that a block cuts), and no FFT passes over the b-grid: the only FFTs are those of the 1-D
    tables, less than one N^3 pass.  On the FFT branch each node takes one
    forward and one inverse axis pass, at most 90 N^3 points of FFT work,
    against 165.6 N^3 when each row took its own n-D FFTs and the signal's
    unused fftn was taken too.  Both match the direct path."""
    from clcst import axis

    spec, ctx = GridSpec(3, 4.0, 16), transform_algebra(3)
    per_axis = [np.array([-2.3, 0.6, 1.45]) * spec.dw, np.array([-1.2, 0.9, 2.7]) * spec.dw,
                np.array([-0.8, 1.3, 3.4]) * spec.dw]
    u = tensor_u_list(per_axis)
    f = GridSignal.from_scalar(spec, ctx, np.exp(-spec.squared_radius() / (2 * 0.8**2)))
    psi = GaussianWindow(3, sigma=1.0)
    assert Plan(psi, spec, u, THETAS, np.ones(len(u))).factored.all()
    assert spec.samples_per_axis <= axis.DENSE_AXIS_SAMPLES
    direct = clcst(f, psi, M, u, THETAS, path="direct")
    matmuls = []
    matmul = np.matmul

    def counted(*args, **kwargs):  # a row's matmul writes into its block
        out = matmul(*args, **kwargs)
        matmuls.append(("row" if "out" in kwargs else "node", out.size))
        return out

    monkeypatch.setattr(np, "matmul", counted)
    del fft_work[:]
    vol = clcst(f, psi, M, u, THETAS, path="three_step")
    assert sum(fft_work) < spec.point_count
    assert [size for kind, size in matmuls if kind == "node"] == [spec.point_count] * (3 + 9)
    assert sum(size for kind, size in matmuls if kind == "row") == 27 * spec.point_count
    assert_slices_close(vol, direct, 1e-12)
    monkeypatch.setattr(axis, "DENSE_AXIS_SAMPLES", 0)
    del fft_work[:], matmuls[:]
    vol = clcst(f, psi, M, u, THETAS, path="three_step")
    assert sum(fft_work) <= 90 * spec.point_count and not matmuls
    assert_slices_close(vol, direct, 1e-12)


@pytest.fixture
def rolls(monkeypatch):
    """The shapes passed to numpy.roll from here to the end of the test."""
    calls = []
    roll = np.roll

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return roll(*args, **kwargs)

    monkeypatch.setattr(np, "roll", counted)
    return calls


@pytest.mark.parametrize("kind", ["gaussian", "skewed"])
def test_lattice_passes_roll_at_most_once(kind, rolls):
    """The three-step transform, the admissibility profile and resolution
    synthesis shift the windows, not the spectra: on a lattice u list each
    calls numpy.roll at most once, for the profile's centering."""
    spec, ctx = setting(2)
    psi = GaussianWindow(2, sigma=0.9) if kind == "gaussian" else SkewedGaussian(2)
    u = mixed_u_list(spec)[:5]  # the lattice rows
    vol = clcst(noise(spec, ctx, seed=2), psi, M, u, THETAS, path="three_step")
    assert len(rolls) <= 1
    del rolls[:]
    admissibility_profile(psi, M, spec, u, THETAS)
    assert len(rolls) <= 1
    del rolls[:]
    reconstruct_resolution(vol, psi, M)
    assert len(rolls) <= 1


def test_composite_with_a_skewed_term_takes_the_dense_route(counts):
    """No separable terms: each (u, theta) window is evaluated on the lattice
    and transformed by one n-D FFT."""
    spec, ctx = COUNT_SPEC, transform_algebra(2)
    psi = CompositeWindow([(1.0, GaussianWindow(2, sigma=0.9)), (0.5, SkewedGaussian(2))])
    assert psi.separable_terms() is None
    clcst(noise(spec, ctx, seed=6), psi, M, np.array(COUNT_U_STEPS) * spec.dw, COUNT_THETAS)
    windows, pairs = len(COUNT_U_STEPS) * len(COUNT_THETAS), ctx.blade_count // 2
    assert counts["forward"][1:] == [(len(COUNT_U_STEPS), len(COUNT_THETAS)) + spec.shape]
    assert sum(int(np.prod(s)) for s in counts["forward"]) == (pairs + windows) * spec.point_count
    assert sum(counts["window_points"]) > 0


def test_one_window_per_slice_for_a_window_that_is_not_radial(counts):
    spec, ctx = COUNT_SPEC, transform_algebra(2)
    f = noise(spec, ctx, seed=6)
    u = np.array(COUNT_U_STEPS) * spec.dw
    clcst(f, SkewedGaussian(2), M, u, COUNT_THETAS)
    assert_counts(counts, spec, ctx, windows=len(COUNT_U_STEPS) * len(COUNT_THETAS))


@pytest.fixture
def phases(monkeypatch):
    """(u rows, array shape) of every axis_phase_multiply call made by the
    engine and resolution synthesis from here to the end of the test."""
    from clcst import stockwell, transform

    calls = []
    apply = stockwell.axis_phase_multiply

    def counted(block, spec, u_rows, *args, **kwargs):
        calls.append((np.array(u_rows), np.shape(block)))
        return apply(block, spec, u_rows, *args, **kwargs)

    for module in (stockwell, transform):
        monkeypatch.setattr(module, "axis_phase_multiply", counted)
    return calls


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("path", ["three_step", "cst", "resolution"])
def test_only_off_lattice_rows_are_modulated_one_by_one(n, path, phases):
    """The lattice rows of a block take their e^{-j u.b} (e^{+j u.b} in
    resolution synthesis), chirp and scale in one call for the whole block;
    only an off-lattice row modulates an array of pairs on its own, beside
    the one chirp of the signal (three_step, and cst, whose chirp is by 1)
    or of the synthesis (resolution).  The blocks mix both kinds of row."""
    spec, ctx = setting(n)
    psi = GaussianWindow(n, sigma=0.9)
    u = mixed_u_list(spec)
    f = noise(spec, ctx, seed=13)
    vol = clcst(f, psi, M, u, THETAS) if path == "resolution" else None
    del phases[:]
    if path == "cst":
        cst(f, psi, u, THETAS)
    elif path == "three_step":
        clcst(f, psi, M, u, THETAS, path=path)
    else:
        reconstruct_resolution(vol, psi, M)
    sign = 1 if path == "resolution" else -1
    on_lattice = np.all(np.abs(u / spec.dw - np.rint(u / spec.dw)) < 1e-9, axis=1)
    pairs = ctx.blade_count // 2
    if path == "resolution":  # then the closing chirp, common to every term
        rows, shape = phases.pop()
        assert not rows.any() and shape == (pairs,) + spec.shape
    else:  # first the signal's chirp, common to every row (by 1 in cst)
        rows, shape = phases.pop(0)
        assert not rows.any() and shape == (pairs,) + spec.shape
    per_row = [rows for rows, shape in phases if shape == (pairs,) + spec.shape]
    assert np.array_equal(np.concatenate(per_row), sign * u[~on_lattice])
    # a radial window: one stored column per u row
    blocks = [rows for rows, shape in phases if shape == (len(rows), 1, pairs) + spec.shape]
    assert len(blocks) + len(per_row) == len(phases)
    assert np.array_equal(np.concatenate(blocks), sign * np.where(on_lattice[:, None], u, 0.0))
    assert any(0 < np.count_nonzero(rows.any(axis=1)) < len(rows) for rows in blocks)


# dimension and the pairs of a multivector signal that are zeroed
PARTIAL = {"n3-pairs-1-3": (3, [1, 3]), "n2-pair-0": (2, [0])}


@pytest.mark.parametrize("case", list(PARTIAL))
def test_dead_pairs_are_skipped_exactly(case):
    """A signal whose pairs are not all live transforms its live pairs only
    (a set with a gap at n = 3, one without pair 0 at n = 2): the three
    paths agree, spot slices match the engine-free quadrature, the volume
    stores the live pairs alone, and the dead pairs' blades are exactly
    zero."""
    n, dead = PARTIAL[case]
    spec, ctx = (GridSpec(2, 6.0, 32), transform_algebra(2)) if n == 2 else (
        GridSpec(3, 4.0, 12), transform_algebra(3))
    top = ctx.blade_count - 1
    f = noise(spec, ctx, seed=11)
    dead_blades = [b for p in dead for b in (p, top - p)]
    f.data[dead_blades] = 0.0
    assert live_pairs(pack(ctx, f.data)).tolist() == [
        p for p in range(ctx.blade_count // 2) if p not in dead]
    psi = SkewedGaussian(2) if n == 2 else GaussianWindow(3, sigma=0.9)
    u = mixed_u_list(spec)
    vols = {path: clcst(f, psi, M, u, THETAS, path=path) for path in PATHS}
    for path in PATHS:
        assert_slices_close(vols[path], vols["direct"], 1e-12)
        assert vols[path].pairs.tolist() == [p for p in range(ctx.blade_count // 2)
                                             if p not in dead]
        assert np.all(vols[path].values[dead_blades] == 0.0)
    for ui, ti in [(1, 2), (5, 0)]:  # a lattice and an off-lattice u
        oracle = clcst_direct_sum_slice(f, psi, M, ScalingMatrix(u[ui]), Rotation(THETAS[ti]))
        got = vols["three_step"].slice(ui, ti).data
        assert np.max(np.abs(got - oracle.data)) <= 1e-12 * np.max(np.abs(oracle.data))


def test_resolution_synthesis_reads_the_stored_pairs(monkeypatch):
    """Resolution synthesis transforms the volume's stored pairs alone: a
    volume of pairs 1 and 3, read a block of two rows at a time,
    synthesizes what the volume of every pair, the other two zero, gives."""
    from clcst import transform

    spec, ctx = setting(3)
    psi = GaussianWindow(3, sigma=0.9)
    u = mixed_u_list(spec)  # 7 rows: blocks 0:2, 2:4, 4:6 (one off-lattice row), 6:7
    live = [1, 3]
    rng = np.random.default_rng(12)
    shape = (len(u), 1, len(live)) + spec.shape
    stored = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    every = np.zeros((len(u), 1, ctx.blade_count // 2) + spec.shape, dtype=complex)
    every[:, :, live] = stored
    vols = [CLCSTVolume(spec, ctx, u, THETAS, stored=s, params=M, window=psi, pairs=p)
            for s, p in ((stored, live), (every, None))]
    monkeypatch.setattr(transform, "block_rows", lambda bytes_per_u: 2)
    (got, (_, stats)), (expect, (_, expect_stats)) = (
        reconstruct_resolution(vol, psi, M) for vol in vols)
    assert_close(got.data, expect.data)
    assert stats == expect_stats
    assert vols[0].rel_max_difference(vols[1]) == 0.0
    # a volume of fewer u rows is refused, not compared on its rows alone
    fewer = CLCSTVolume(spec, ctx, u[:5], THETAS, stored=stored[:5], window=psi, pairs=live)
    with pytest.raises(GridError, match="5 and 7 u rows"):
        fewer.rel_max_difference(vols[0])


def median_spacing_weights(u_list):
    """The u weights as np.unique and np.median give them: the product over
    the axes of the median gap between sorted distinct values, 1.0 for an
    axis with one value."""
    u_list = np.asarray(u_list, dtype=np.float64)
    spacing = [np.median(np.diff(np.unique(col))) if len(np.unique(col)) > 1 else 1.0
               for col in u_list.T]
    return np.full(len(u_list), float(np.prod(spacing)))


def test_u_weights_equal_the_median_spacing_bit_for_bit():
    """u_weights_from_list takes the middle of the sorted gaps between
    distinct values, without np.unique or np.median, and gets the same bits
    as np.median: on uniform and default lists, on scattered lists with odd
    and even gap counts and repeated values, and on one-value axes."""
    rng = np.random.default_rng(19)
    spec2, spec3 = GridSpec(2, 6.0, 48), GridSpec(3, 4.0, 32)
    steps = [k for k in range(-24, 24) if k != 0]
    lists = [
        default_u_list(spec2),
        default_u_list(GridSpec(2, 6.0, 64)),
        tensor_u_list([np.array(steps) * spec2.dw] * 2),
        tensor_u_list([[0.61, 1.37, 2.9], [-2.2, -0.7, 1.01], [0.8, 1.9, 2.6]]),
        mixed_u_list(spec3),
        mixed_u_list(spec2) * np.pi,
        [[0.5, 0.7]],
        [[0.5, 0.7], [0.5, -0.7]],
    ]
    for rows in (5, 6, 9, 12, 31, 200):  # odd and even gap counts
        lists.append(rng.uniform(-3.0, 3.0, (rows, 3)))
        lists.append(np.round(rng.uniform(-3.0, 3.0, (rows, 2)), 1) + 0.05)  # repeats
    for u in lists:
        got, expect = u_weights_from_list(u), median_spacing_weights(u)
        assert got.tobytes() == expect.tobytes()
