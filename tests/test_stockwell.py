import numpy as np
import pytest

from clcst.algebra import transform_algebra
from clcst.grid import GridSignal, GridSpec, norm_l2, plane_wave_multiply, rel_l2_error, sample
from clcst.stockwell import (
    AnalyticWindowRequiredError,
    NonUnitWindowWarning,
    Rotation,
    ScalingMatrix,
    StockwellError,
    cst,
    cst_direct_point,
    cst_slice,
    minimal_image,
    window_family,
)
from clcst.volume import default_u_list
from clcst.windows import GaussianWindow

SPEC = GridSpec(2, 6.0, 64)
CTX = transform_algebra(2)


def gaussian(center=0.0, rate=1.0):
    return sample(lambda x: np.exp(-rate * np.sum((x - center) ** 2, axis=0)), SPEC, CTX)


def test_scaling_matrix_properties():
    s = ScalingMatrix([2.0, 3.0])
    assert s.det_abs == pytest.approx(6.0)
    x = np.array([[1.0], [2.0]])
    assert np.allclose(s.apply(x).ravel(), [2.0, 6.0])
    assert np.allclose(s.apply_inverse(x).ravel(), [0.5, 2.0 / 3.0])
    sneg = ScalingMatrix([2.0, -3.0])
    assert sneg.det_abs == pytest.approx(6.0)
    with pytest.raises(StockwellError):
        ScalingMatrix([1.0, 0.0])


def test_rotation_orthogonality():
    for theta in (0.0, 0.3, np.pi / 4, np.pi / 2):
        for n in (2, 3):
            m = Rotation(theta).matrix(n)
            assert np.allclose(m.T @ m, np.eye(n), atol=1e-14)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)


def test_rotation_matches_worked_expansion():
    # first row (u1 x1 - u1 b1) cos t - (u2 x2 - u2 b2) sin t, second row the
    # + sin / + cos combination; axis 3 untouched
    t = 0.7
    u = np.array([1.3, -0.8, 2.0])
    b = np.array([0.3, -0.2, 0.1])
    x = np.array([1.1, 2.0, -0.4])
    out = Rotation(t).apply(ScalingMatrix(u).apply((x - b).reshape(3, 1))).ravel()
    r1 = (u[0] * x[0] - u[0] * b[0]) * np.cos(t) - (u[1] * x[1] - u[1] * b[1]) * np.sin(t)
    r2 = (u[0] * x[0] - u[0] * b[0]) * np.sin(t) + (u[1] * x[1] - u[1] * b[1]) * np.cos(t)
    r3 = u[2] * x[2] - u[2] * b[2]
    assert np.allclose(out, [r1, r2, r3], atol=1e-15)


def test_minimal_image():
    assert minimal_image(np.array([7.0]), 6.0)[0] == pytest.approx(-5.0)
    assert minimal_image(np.array([-6.5]), 6.0)[0] == pytest.approx(5.5)
    assert minimal_image(np.array([3.0]), 6.0)[0] == pytest.approx(3.0)


def test_window_family_trivial_configuration():
    psi = GaussianWindow(2, sigma=1.0)
    wf = window_family(psi, np.zeros(2), ScalingMatrix([1.0, 1.0]), Rotation(0.0), SPEC, CTX)
    base = sample(lambda x: psi.evaluate(x), SPEC, CTX)
    expect = plane_wave_multiply(base, np.ones(2), +1)
    assert rel_l2_error(wf, expect) < 1e-15


def test_window_family_determinant_factor():
    psi = GaussianWindow(2, sigma=1.0)
    wf = window_family(psi, np.zeros(2), ScalingMatrix([2.0, 3.0]), Rotation(0.0), SPEC, CTX)
    center = (SPEC.samples_per_axis // 2,) * 2
    assert wf.value_at(center).coeffs[0] == pytest.approx(6.0)  # phase = 0 at origin


def test_window_family_norm_scaling():
    psi = GaussianWindow(2, sigma=1.0)
    base = sample(lambda x: psi.evaluate(x), SPEC, CTX)
    for u in ([2.0, 3.0], [1.5, -2.5]):
        wf = window_family(psi, np.zeros(2), ScalingMatrix(u), Rotation(0.3), SPEC, CTX)
        det = ScalingMatrix(u).det_abs
        assert norm_l2(wf) == pytest.approx(np.sqrt(det) * norm_l2(base), rel=1e-6)


def test_sampled_window_refused():
    """Rescaling or rotating sampled data would need interpolation, so every
    transform and the window family take analytic windows only."""
    from clcst.lct import LCTParams
    from clcst.transform import clcst

    sampled = sample(lambda x: GaussianWindow(2, sigma=1.0).evaluate(x), SPEC, CTX)
    f, u = gaussian(), np.array([[1.0, 1.0]])
    with pytest.raises(AnalyticWindowRequiredError):
        cst(f, sampled, u, [0.0])
    with pytest.raises(AnalyticWindowRequiredError):
        clcst(f, sampled, LCTParams(1, 2, 1, 3), u, [0.0])
    with pytest.raises(AnalyticWindowRequiredError):
        window_family(sampled, np.zeros(2), ScalingMatrix([1.0, 1.0]), Rotation(0.0), SPEC, CTX)


def test_cst_zero_signal():
    psi = GaussianWindow(2, sigma=1.0).normalize_unit_integral()
    vol = cst(GridSignal.zero(SPEC, CTX), psi, np.array([[1.0, 1.0]]), [0.0])
    assert np.all(vol.values == 0.0)


def test_cst_default_grids():
    psi = GaussianWindow(2, sigma=1.0).normalize_unit_integral()
    u = default_u_list(SPEC)
    assert u.shape == ((2 * (SPEC.samples_per_axis // 4)) ** 2, 2)
    assert np.all(u != 0.0)
    assert np.min(np.abs(u)) == pytest.approx(SPEC.dw)
    assert np.max(np.abs(u)) == pytest.approx(SPEC.dw * SPEC.samples_per_axis / 4)


def test_cst_warns_on_non_unit_window():
    psi = GaussianWindow(2, sigma=1.0)  # integral 2 pi
    with pytest.warns(NonUnitWindowWarning):
        cst(gaussian(), psi, np.array([[1.0, 1.0]]), [0.0])
    with pytest.raises(StockwellError):
        cst(gaussian(), psi, np.array([[1.0, 1.0]]), [0.0], strict=True)


def test_cst_slice_matches_point_oracle():
    f = gaussian(center=0.4)
    psi = GaussianWindow(2, sigma=1.0)
    rng = np.random.default_rng(0)
    for _ in range(4):
        u = rng.uniform(1.0, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        theta = rng.uniform(0.0, np.pi / 2)
        scaling, rotation = ScalingMatrix(u), Rotation(theta)
        slice_ = cst_slice(f, psi, scaling, rotation)
        idx = tuple(rng.integers(0, SPEC.samples_per_axis, size=2))
        b = np.array([SPEC.axis()[idx[0]], SPEC.axis()[idx[1]]])
        expected = cst_direct_point(f, psi, b, scaling, rotation)
        assert np.allclose(slice_.value_at(idx).coeffs, expected.coeffs, atol=1e-13)


def test_cst_rotation_invariance_radial_window():
    f = gaussian(center=0.4)
    psi = GaussianWindow(2, sigma=1.0)
    scaling = ScalingMatrix([1.5, -2.0])
    base = cst_slice(f, psi, scaling, Rotation(0.0))
    for theta in (np.pi / 4, np.pi / 2, 1.1):
        assert rel_l2_error(cst_slice(f, psi, scaling, Rotation(theta)), base) < 1e-10


def test_cst_multivector_signal():
    rng = np.random.default_rng(1)
    env = np.exp(-np.sum(SPEC.mesh() ** 2, axis=0))
    f = GridSignal(SPEC, CTX, rng.standard_normal((CTX.blade_count,) + SPEC.shape) * env)
    psi = GaussianWindow(2, sigma=1.0)
    scaling, rotation = ScalingMatrix([2.0, 1.0]), Rotation(0.5)
    slice_ = cst_slice(f, psi, scaling, rotation)
    idx = (20, 44)
    b = np.array([SPEC.axis()[idx[0]], SPEC.axis()[idx[1]]])
    expected = cst_direct_point(f, psi, b, scaling, rotation)
    assert np.allclose(slice_.value_at(idx).coeffs, expected.coeffs, atol=1e-13)
