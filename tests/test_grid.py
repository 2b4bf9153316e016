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
    live_pairs,
    norm_l2,
    pack,
    phase_multiply,
    plane_wave_multiply,
    pointwise_product,
    rel_l2_error,
    sample,
    unpack,
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
    for half_width in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(GridError, match="half_width"):
            GridSpec(2, half_width, 16)


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


def test_sample_refuses_values_of_another_shape():
    """sample takes a scalar function: a blade-major array is refused."""
    with pytest.raises(GridError, match=r"^sampled function returned shape \(4, 64, 64\), not the "
                       r"lattice's \(64, 64\)$"):
        sample(lambda x: np.ones((CTX.blade_count,) + x.shape[1:]), DEFAULT, CTX)


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


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_mass_ratio_adds_squares_in_numpys_order(n):
    """The squares are added a blade at a time, without a squared copy of
    the blades, to the bits of np.sum(data**2, axis=0)."""
    spec = GridSpec(n, 4.0, 16)
    f = random_signal(spec, transform_algebra(n), seed=n)
    f.data[:] *= np.geomspace(1e-3, 1e3, len(f.data)).reshape((-1,) + (1,) * n)
    sq = np.sum(f.data**2, axis=0)
    total = float(np.sum(sq))
    expect = float((total - np.sum(sq[(slice(1, -1),) * n])) / total)
    assert f.boundary_mass_ratio() == expect


def test_spec_mismatch_raises():
    other = GridSpec(2, 6.0, 32)
    f = random_signal()
    g = GridSignal.zero(other, CTX)
    with pytest.raises(GridError):
        inner_product(f, g)


@pytest.mark.parametrize("n", [2, 3])
def test_pack_and_unpack_select_pairs(n):
    """unpack(pairs=) takes a selection of packed pairs, in the order given,
    and writes their blades and zeros over every other pair's blades."""
    ctx = transform_algebra(n)
    half, top = ctx.blade_count // 2, ctx.blade_count - 1
    data = np.random.default_rng(n).standard_normal((ctx.blade_count, 5, 3))
    pairs = [half - 1, 0]
    z = pack(ctx, data)
    assert z.shape == (half,) + data.shape[1:]
    assert np.array_equal(unpack(ctx, z), data)
    assert np.array_equal(pack(ctx, data, pairs=pairs), z[pairs])
    out = unpack(ctx, z[pairs], pairs=pairs)
    for b in range(half):
        blades = [b, top - b]
        if b in pairs:
            assert np.array_equal(out[blades], data[blades])
        else:
            assert np.all(out[blades] == 0.0)


def test_live_pairs_of_blades_and_of_pairs():
    """The live pairs of packed blades: a pair is live when either of its
    blades is."""
    ctx = transform_algebra(3)
    data = np.zeros((ctx.blade_count, 4, 4))
    assert live_pairs(pack(ctx, data)).tolist() == [0]  # a zero signal still runs one pair
    data[6, 1, 2] = 1.0  # blade 6 = e_23, the partner of pair 1
    assert live_pairs(pack(ctx, data)).tolist() == [1]
    data[3, 0, 0] = -0.5  # pair 3
    z = pack(ctx, data)
    assert live_pairs(z).tolist() == [1, 3]
    assert live_pairs(z[:, None]).tolist() == [1, 3]  # any shape after the pair axis
    assert live_pairs(data).tolist() == [1, 3]  # the blades, before any packing
    data[:] = 0.0
    assert live_pairs(data).tolist() == [0]
    for blade, pair in [(6, 1), (1, 1), (7, 0), (4, 3)]:  # either blade of a pair
        data[blade, 3, 3] = 2.0
        assert live_pairs(data).tolist() == [pair]
        assert live_pairs(data).tolist() == live_pairs(pack(ctx, data)).tolist()
        data[blade] = 0.0
