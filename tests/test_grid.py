import numpy as np
import pytest

from clcst.algebra import scalar_part, transform_algebra
from clcst.grid import (
    FREQUENCY,
    SPACE,
    GridError,
    GridSignal,
    GridSpec,
    chirp_multiply,
    inner_product,
    norm_l2,
    phase_multiply,
    plane_wave_multiply,
    pointwise_product,
    rel_l2_error,
    sample,
)
from clcst.windows import DOGWindow


DEFAULT = GridSpec(2, 6.0, 64)
CTX = transform_algebra(2)


def random_signal(spec=DEFAULT, ctx=CTX, seed=0):
    rng = np.random.default_rng(seed)
    return GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))


def test_spec_invariants():
    s = DEFAULT
    assert s.dx * s.dw * s.samples_per_axis == pytest.approx(2 * np.pi, rel=1e-15)
    ax = s.axis(SPACE)
    assert ax[0] == -s.half_width
    assert ax[s.samples_per_axis // 2] == 0.0
    wax = s.axis(FREQUENCY)
    assert wax[s.samples_per_axis // 2] == 0.0
    with pytest.raises(GridError):
        GridSpec(2, 6.0, 63)


def test_mesh_is_built_once_per_domain_and_read_only():
    spec = GridSpec(2, 6.0, 16)
    space, freq = spec.mesh(SPACE), spec.mesh(FREQUENCY)
    assert spec.mesh() is space and spec.mesh(FREQUENCY) is freq
    assert np.array_equal(space[0][:, 0], spec.axis(SPACE))
    assert np.array_equal(freq[1][0], spec.axis(FREQUENCY))
    with pytest.raises(ValueError):
        space += 1.0


def test_sample_constant_and_gaussian():
    ones = sample(lambda x: np.ones(x.shape[1:]), DEFAULT, CTX)
    assert np.all(ones.data[0] == 1.0)
    assert np.all(ones.data[1:] == 0.0)
    g = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), DEFAULT, CTX)
    center = (DEFAULT.samples_per_axis // 2,) * 2
    assert g.data[0][center] == 1.0


def test_sample_dog_at_origin():
    w = DOGWindow(2, lam=0.5)
    sig = sample(lambda x: w.evaluate(x), DEFAULT, CTX)
    center = (DEFAULT.samples_per_axis // 2,) * 2
    assert sig.data[0][center] == pytest.approx(3.0, abs=1e-15)  # lam^-2 - 1


def test_inner_product_single_point():
    f = GridSignal.zero(DEFAULT, CTX)
    f.data[0, 3, 5] = 1.0
    ip = inner_product(f, f)
    assert scalar_part(ip) == pytest.approx(DEFAULT.dx**2, rel=1e-15)


def test_inner_product_orthogonal_blades():
    f = GridSignal.zero(DEFAULT, CTX)
    g = GridSignal.zero(DEFAULT, CTX)
    f.data[0b01, 3, 5] = 1.0  # e1 at one lattice point
    g.data[0b10, 3, 5] = 1.0  # e2 at the same point
    assert scalar_part(inner_product(f, g)) == 0.0


def test_inner_product_conjugate_symmetry_and_linearity():
    from clcst.algebra import clifford_conjugate

    f = random_signal(seed=1)
    g = random_signal(seed=2)
    lhs = inner_product(f, g)
    rhs = clifford_conjugate(inner_product(g, f))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
    a, b = 0.7, -2.3
    combo = inner_product(f.scale(a) + g.scale(b), g)
    split = inner_product(f, g) * a + inner_product(g, g) * b
    assert np.allclose(combo.coeffs, split.coeffs, rtol=1e-12, atol=1e-12)


def test_norm_positive():
    f = random_signal(seed=3)
    assert norm_l2(f) > 0
    assert norm_l2(GridSignal.zero(DEFAULT, CTX)) == 0.0


def test_quadrature_sanity_gaussian():
    g = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), DEFAULT, CTX)
    assert scalar_part(inner_product(g, g)) == pytest.approx(np.pi / 2, rel=1e-8)


def test_chirp_round_trip():
    f = random_signal(seed=4)
    out = chirp_multiply(chirp_multiply(f, 0.37, +1), 0.37, -1)
    assert rel_l2_error(out, f) < 1e-14


def test_chirp_rate_zero_and_origin():
    f = random_signal(seed=5)
    assert rel_l2_error(chirp_multiply(f, 0.0), f) == 0.0
    out = chirp_multiply(f, 1.234)
    center = (DEFAULT.samples_per_axis // 2,) * 2
    assert np.array_equal(out.data[(slice(None),) + center], f.data[(slice(None),) + center])


@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_phase_multiply_matches_pointwise_kernel(n):
    # geometric_product pins the complex-pair signs independently of grid.pack
    from clcst.algebra import geometric_product, pseudoscalar_exp

    spec = GridSpec(n, 2.0, 8)
    ctx = transform_algebra(n)
    rng = np.random.default_rng(6)
    f = GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))
    phase = rng.standard_normal(spec.shape)
    out = phase_multiply(f, phase)
    for idx in [(0, 0, 4), (3, 5, 1), (7, 2, 6)]:
        idx = idx[:n]
        expect = geometric_product(f.value_at(idx), pseudoscalar_exp(ctx, phase[idx]))
        assert np.allclose(out.value_at(idx).coeffs, expect.coeffs, atol=1e-15)


def test_plane_wave_multiply():
    f = random_signal(seed=7)
    u = np.array([0.5, -1.5])
    out = plane_wave_multiply(plane_wave_multiply(f, u, +1), u, -1)
    assert rel_l2_error(out, f) < 1e-14


def test_pointwise_product_scalar_identity():
    f = random_signal(seed=8)
    ones = sample(lambda x: np.ones(x.shape[1:]), DEFAULT, CTX)
    assert rel_l2_error(pointwise_product(ones, f), f) == 0.0


def test_boundary_mass_ratio():
    g = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), DEFAULT, CTX)
    assert g.boundary_mass_ratio() < 1e-10
    flat = sample(lambda x: np.ones(x.shape[1:]), DEFAULT, CTX)
    assert flat.boundary_mass_ratio() > 1e-3


def test_spec_mismatch_raises():
    other = GridSpec(2, 6.0, 32)
    f = random_signal()
    g = GridSignal.zero(other, CTX)
    with pytest.raises(GridError):
        inner_product(f, g)
