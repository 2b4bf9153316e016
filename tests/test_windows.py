import numpy as np
import pytest

from clcst.algebra import transform_algebra
from clcst.cli import build_parser
from clcst.grid import GridSpec, sample
from clcst.windows import (
    WINDOWS,
    CompositeWindow,
    DOGWindow,
    GaussianWindow,
    WindowError,
    ZeroIntegralError,
    make_window,
)


def quadrature(window, spec):
    ctx = transform_algebra(spec.n)
    sig = sample(lambda x: window.evaluate(x), spec, ctx)
    return float(np.sum(sig.data[0]) * spec.cell_weight("space"))


@pytest.mark.parametrize(
    "window",
    [
        GaussianWindow(2, sigma=0.9),
        GaussianWindow(3, sigma=0.75).normalize_unit_integral(),
        DOGWindow(3, lam=0.5, amplitude=2.5),
        CompositeWindow([(0.8, GaussianWindow(2, sigma=0.7)), (-0.3, DOGWindow(2, lam=0.6))], 1.7),
    ],
)
def test_separable_terms_sum_to_the_window(window):
    """psi(y) = sum_t c_t prod_i g_t(y_i), amplitude included."""
    points = np.random.default_rng(0).normal(scale=1.5, size=(window.n, 200))
    terms = window.separable_terms()
    total = sum(c * np.prod([g(axis) for axis in points], axis=0) for c, g in terms)
    expect = window.evaluate(points)
    assert np.max(np.abs(total - expect)) <= 1e-15 * np.max(np.abs(expect))


def test_dog_at_origin():
    assert DOGWindow(2, lam=0.5).evaluate(np.zeros(2)) == pytest.approx(3.0)
    assert DOGWindow(3, lam=0.5).evaluate(np.zeros(3)) == pytest.approx(3.0)


def test_dog_decay_and_radial_symmetry():
    w = DOGWindow(2, lam=0.5)
    assert w.evaluate(np.array([40.0, 0.0])) == pytest.approx(0.0, abs=1e-200)
    theta = 0.83
    x = np.array([1.2, -0.4])
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert w.evaluate(x) == pytest.approx(w.evaluate(rot @ x), rel=1e-12)


def test_dog_range_validation():
    with pytest.raises(WindowError):
        DOGWindow(2, lam=1.0)
    with pytest.raises(WindowError):
        DOGWindow(2, lam=-0.1)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_sigma_must_be_positive_and_finite(sigma):
    with pytest.raises(WindowError, match="sigma must be positive and finite"):
        GaussianWindow(2, sigma=sigma)


@pytest.mark.parametrize("n, sigma, message", [
    (2, 1e300, "its square inf overflows"),
    (2, 1e-300, "its square 0.0 underflows"),
    (3, 1e-155, "underflows"),  # a subnormal square
    (2, 1e154, "integral"),  # the square is finite, 2 pi sigma^2 is not
    (3, 1e103, "integral"),  # (2 pi sigma^2)^(3/2) overflows
    (3, 1e-104, "integral"),  # and underflows
], ids=["square-overflows", "square-underflows", "square-subnormal", "integral-n2",
        "integral-overflows-n3", "integral-underflows-n3"])
def test_gaussian_sigma_must_square_to_a_normal_number(n, sigma, message):
    """A sigma whose square, or whose window integral, overflows or
    underflows is refused when the window is made: it would end in an
    OverflowError from raw_integral or in a window of NaN values."""
    with pytest.raises(WindowError, match="sigma = .* is out of range: .*" + message):
        GaussianWindow(n, sigma=sigma)


@pytest.mark.parametrize("n, sigma", [(2, 1e-150), (2, 1e153), (3, 1e-102), (3, 1e102)])
def test_gaussian_sigma_near_the_range_ends_is_kept(n, sigma):
    """Just inside the range, the integral is a finite positive number."""
    assert 0.0 < GaussianWindow(n, sigma=sigma).integral() < np.inf


@pytest.mark.parametrize("lam", [1e-200, 1e-155])
def test_dog_lam_must_square_to_a_normal_number(lam):
    """A lam whose square underflows is refused: its term's coefficient
    amplitude / lam^2 divides by zero."""
    with pytest.raises(WindowError, match="lam = .* is out of range: its square .* underflows"):
        DOGWindow(2, lam=lam)
    assert DOGWindow(2, lam=1e-150).separable_terms()[0][0] == pytest.approx(1e300)


def test_dog_tends_to_zero_as_lam_to_one():
    w = DOGWindow(2, lam=0.999)
    spec = GridSpec(2, 6.0, 64)
    vals = w.evaluate(spec.mesh())
    assert np.max(np.abs(vals)) < 0.01


def test_gaussian_normalization_n2():
    w = GaussianWindow(2, sigma=1.0).normalize_unit_integral()
    assert w.amplitude == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)
    # the sigma=1 tail needs L=8 before truncation drops below 1e-10
    assert quadrature(w, GridSpec(2, 8.0, 64)) == pytest.approx(1.0, abs=1e-10)
    narrow = GaussianWindow(2, sigma=0.5).normalize_unit_integral()
    assert quadrature(narrow, GridSpec(2, 6.0, 64)) == pytest.approx(1.0, abs=1e-10)


def test_dog_normalization_n3():
    raw = DOGWindow(3, lam=0.5)
    assert raw.integral() == pytest.approx((2 * np.pi) ** 1.5 * (0.5 - 1.0), rel=1e-14)
    w = raw.normalize_unit_integral()
    assert quadrature(w, GridSpec(3, 8.0, 64)) == pytest.approx(1.0, abs=1e-10)


def test_dog_zero_integral_n2():
    w = DOGWindow(2, lam=0.5)
    assert w.integral() == 0.0
    with pytest.raises(ZeroIntegralError):
        w.normalize_unit_integral()


def test_composite_window():
    g1 = GaussianWindow(2, sigma=1.0)
    g2 = GaussianWindow(2, sigma=0.5)
    combo = CompositeWindow([(2.0, g1), (-1.0, g2)])
    pts = np.zeros((2, 1))
    assert combo.evaluate(pts)[0] == pytest.approx(1.0)
    assert combo.integral() == pytest.approx(2 * g1.integral() - g2.integral(), rel=1e-14)


def test_make_window():
    """Each WINDOWS kind by name, from the parameters it declares: the others
    are ignored and a missing one takes its default.  The CLI's --window
    choices are the table's kinds."""
    assert isinstance(make_window("gaussian", 2, sigma=2.0), GaussianWindow)
    assert isinstance(make_window("dog", 2, lam=0.25), DOGWindow)
    assert make_window("dog", 2, sigma=2.0).lam == 0.5
    assert make_window("Gaussian", 2, lam=0.25).sigma == 1.0
    with pytest.raises(WindowError):
        make_window("morlet", 2)
    args = build_parser().parse_args(["transform", "--input", "f.clcg", "--out", "v.clcg"])
    assert args.settings["window.kind"].choices == list(WINDOWS)
