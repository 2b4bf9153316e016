"""The slice engine: one signal spectrum rolled per lattice u, one window
spectrum per (u, theta) shared by the slices and the admissibility profile,
and for a radial window one window, spectrum and slice per u for every theta."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcst.algebra import transform_algebra
from clcst.cli import main
from clcst.grid import SPACE, GridSignal, GridSpec, pack
from clcst.lct import LCTParams
from clcst.stockwell import (
    Rotation,
    ScalingMatrix,
    cst,
    cst_direct_point,
    cst_slice,
    transformed_window_values,
)
from clcst.transform import (
    PATHS,
    admissibility_profile,
    clcst,
    modulated_window_spectrum,
    reconstruct_resolution,
)
from clcst.volume import theta_weight, u_weights_from_list
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


def radial_window(n, kind):
    if kind == "gaussian":
        return GaussianWindow(n, sigma=0.9)
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


def assert_slices_close(a, b, tol):
    for ui, ti in a.iter_indices():
        sa, sb = a.values[..., ui, ti], b.values[..., ui, ti]
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
    # at the CFT point the transform is the Stockwell transform, also rolled
    at_cft_point = clcst(f, psi, LCTParams.cft_point(), u, THETAS, path="direct")
    assert_slices_close(cst(f, psi, u, THETAS), at_cft_point, 1e-12)


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


@pytest.mark.parametrize("n", [2, 3])
def test_pass_profile_equals_admissibility_profile(n):
    spec, ctx = setting(n)
    psi = SkewedGaussian(n)
    u = mixed_u_list(spec)
    standalone, stats = admissibility_profile(psi, M, spec, ctx, u, THETAS)
    f = noise(spec, ctx, 1)
    volumes = [clcst(f, psi, M, u, THETAS, path=p) for p in ("three_step", "direct", "spectral")]
    for vol in volumes + [cst(f, psi, u, THETAS)]:
        sig, pass_stats = vol.admissibility
        assert np.max(np.abs(sig.data - standalone.data)) <= 1e-13 * np.max(standalone.data)
        assert pass_stats == pytest.approx(stats, rel=1e-13)
    # the rolled terms against |Q|^2 of each explicitly modulated window
    expect = np.zeros(spec.shape)
    u_w, t_w = u_weights_from_list(u), theta_weight(THETAS)
    for ui, row in enumerate(u):
        scaling = ScalingMatrix(row)
        for theta in THETAS:
            Q = modulated_window_spectrum(psi, spec, scaling, Rotation(theta))
            expect += u_w[ui] * t_w * scaling.det_abs**2 * np.abs(Q) ** 2
    assert np.max(np.abs(standalone.data[0] - expect)) <= 1e-13 * np.max(expect)


def test_resolution_synthesis_matches_per_slice_sum():
    spec, ctx = setting(2)
    psi = SkewedGaussian(2)
    u = mixed_u_list(spec)
    vol = clcst(noise(spec, ctx, 2), psi, M, u, THETAS)
    out = reconstruct_resolution(vol, psi, M, 1.7)
    # each slice convolved with its window, modulated and summed in space
    axes = (-2, -1)
    chirp = np.exp(1j * M.chirp_rate * spec.squared_radius(SPACE))
    total = np.zeros((2,) + spec.shape, dtype=complex)
    for ui, ti in vol.iter_indices():
        scaling, rotation = ScalingMatrix(u[ui]), Rotation(THETAS[ti])
        w = transformed_window_values(psi, spec, np.zeros(2), scaling, rotation)
        kernel = np.fft.fftn(np.fft.ifftshift(w)) * spec.cell_weight()
        s = pack(ctx, vol.values[..., ui, ti]) * chirp
        conv = np.fft.ifftn(np.fft.fftn(s, axes=axes) * kernel, axes=axes)
        weight = scaling.det_abs * vol.u_weights[ui] * vol.theta_step
        total += conv * np.exp(1j * spec.dot(scaling.u)) * weight
    expect = total * chirp.conj() * (2.0 * np.pi) ** -1.0 / 1.7
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

    def assert_close(got, expect):
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    for path in PATHS + ("cst",):
        shared, separate = (
            cst(f, w, u, THETAS) if path == "cst" else clcst(f, w, M, u, THETAS, path=path)
            for w in (psi, each)
        )
        assert np.array_equal(shared.values[..., 0], shared.values[..., 2])  # one slice per u
        assert_slices_close(shared, separate, 1e-13)
        assert_close(shared.admissibility[0].data, separate.admissibility[0].data)
    assert_close(
        admissibility_profile(psi, M, spec, ctx, u, THETAS)[0].data,
        admissibility_profile(each, M, spec, ctx, u, THETAS)[0].data,
    )
    vol = clcst(f, each, M, u, THETAS)
    assert_close(
        reconstruct_resolution(vol, psi, M, 1.7).data,
        reconstruct_resolution(vol, each, M, 1.7).data,
    )


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
    transformed once each, with one inverse FFT of each window's slice."""
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
    window is radial: one FFT of the signal's pairs, and one window per u
    evaluated and transformed once for both angles."""
    spec, ctx = COUNT_SPEC, transform_algebra(2)
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    u_spec = json.dumps([[a * spec.dw, b * spec.dw] for a, b in COUNT_U_STEPS])
    out = tmp_path / "vol.clcg"
    assert main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--u-list", u_spec, "--theta", "0,0.7", "--out", str(out),
    ]) == 0
    report = json.loads((tmp_path / "vol.clcg.report.json").read_text())
    assert report["admissibility"]["mean"] > 0.0
    assert_counts(counts, spec, ctx, windows=len(COUNT_U_STEPS))


def test_one_window_per_slice_for_a_window_that_is_not_radial(counts):
    spec, ctx = COUNT_SPEC, transform_algebra(2)
    f = noise(spec, ctx, seed=6)
    u = np.array(COUNT_U_STEPS) * spec.dw
    clcst(f, SkewedGaussian(2), M, u, COUNT_THETAS)
    assert_counts(counts, spec, ctx, windows=len(COUNT_U_STEPS) * len(COUNT_THETAS))
