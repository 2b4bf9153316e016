import numpy as np
import pytest

from clcst.algebra import (
    Multivector,
    UnsupportedDimensionError,
    algebra,
    geometric_product,
    pseudoscalar_exp,
    scalar_part,
    transform_algebra,
)
from clcst.cft import (
    cft_forward,
    cft_forward_direct,
    cft_inverse,
    convolution_theorem_rhs,
    convolve,
)
from clcst.grid import (
    FREQUENCY,
    SPACE,
    GridError,
    GridSignal,
    GridSpec,
    inner_product,
    rel_l2_error,
    sample,
)

SPEC2 = GridSpec(2, 6.0, 64)
CTX2 = transform_algebra(2)
SPEC3 = GridSpec(3, 4.0, 16)
CTX3 = transform_algebra(3)


def random_signal(spec, ctx, seed):
    rng = np.random.default_rng(seed)
    return GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))


def gaussian_mix(spec, ctx, seed):
    rng = np.random.default_rng(seed)
    mesh = spec.mesh()
    vals = np.zeros(spec.shape)
    for _ in range(3):
        center = rng.uniform(-1.5, 1.5, size=spec.n)
        width = rng.uniform(0.5, 1.5)
        amp = rng.standard_normal()
        vals += amp * np.exp(-np.sum((mesh - center.reshape(-1, *[1] * spec.n)) ** 2, axis=0) / width)
    return GridSignal.from_scalar(spec, ctx, vals)


@pytest.mark.parametrize("spec,ctx", [(SPEC2, CTX2), (SPEC3, CTX3)], ids=["n2", "n3"])
def test_round_trip(spec, ctx):
    f = random_signal(spec, ctx, 0)
    assert rel_l2_error(cft_inverse(cft_forward(f)), f) < 1e-12


def test_zero_maps_to_zero():
    z = GridSignal.zero(SPEC2, CTX2)
    assert np.all(cft_forward(z).data == 0.0)
    zf = GridSignal.zero(SPEC2, CTX2, domain=FREQUENCY)
    assert np.all(cft_inverse(zf).data == 0.0)


def test_gaussian_fixed_point():
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / 2), SPEC2, CTX2)
    F = cft_forward(f)
    expected = sample(lambda w: np.exp(-np.sum(w**2, axis=0) / 2), SPEC2, CTX2, domain=FREQUENCY)
    assert rel_l2_error(F, expected) < 1e-8


def test_unit_mass_at_zero_frequency():
    F = GridSignal.zero(SPEC2, CTX2, domain=FREQUENCY)
    half = SPEC2.samples_per_axis // 2
    F.data[0, half, half] = 1.0
    f = cft_inverse(F)
    expected = (2 * np.pi) ** (-1) * SPEC2.dw**2
    assert np.allclose(f.data[0], expected, rtol=1e-12)
    assert np.allclose(f.data[1:], 0.0)


@pytest.mark.parametrize("spec,ctx", [(SPEC2, CTX2), (SPEC3, CTX3)], ids=["n2", "n3"])
def test_fft_path_matches_direct_sum(spec, ctx):
    f = random_signal(spec, ctx, 1)
    assert rel_l2_error(cft_forward(f), cft_forward_direct(f)) < 1e-12


@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_direct_sum_matches_blade_level_quadrature(n):
    # fully independent oracle: naive multivector sum on a tiny grid, which
    # pins the complex-pair signs through geometric_product alone
    spec = GridSpec(n, 2.0, 8)
    ctx = transform_algebra(n)
    f = random_signal(spec, ctx, 2)
    F = cft_forward(f)
    x = spec.mesh(SPACE)
    w_mesh = spec.mesh(FREQUENCY)
    scale = (2 * np.pi) ** (-n / 2) * spec.cell_weight(SPACE)
    for k in [(0, 0, 2), (3, 6, 7), (5, 1, 4)]:
        k = k[:n]
        w = w_mesh[(slice(None),) + k]
        acc = Multivector.zero(ctx)
        for idx in np.ndindex(*spec.shape):
            phase = -float(np.dot(w, x[(slice(None),) + idx]))
            acc = acc + geometric_product(f.value_at(idx), pseudoscalar_exp(ctx, phase))
        acc = acc * scale
        assert np.allclose(acc.coeffs, F.value_at(k).coeffs, atol=1e-13)


def test_constant_blade_factors_out_n3():
    g = gaussian_mix(SPEC3, CTX3, 3)
    e1 = np.zeros((CTX3.blade_count,) + SPEC3.shape)
    e1[0b001] = g.data[0]
    f = GridSignal(SPEC3, CTX3, e1)
    F = cft_forward(f)
    G = cft_forward(g)
    # e1 * cft(g): left-multiply each lattice value by e1
    expect = np.zeros_like(F.data)
    e1_mv = Multivector.basis_vector(CTX3, 0)
    for b in range(CTX3.blade_count):
        target = 0b001 ^ b
        expect[target] += CTX3.sign_table[0b001, b] * G.data[b]
    assert np.allclose(F.data, expect, atol=1e-12)


def test_plancherel_scalar_part_n2():
    rng = np.random.default_rng(4)
    for seed in range(20):
        f = random_signal(SPEC2, CTX2, 100 + seed)
        g = random_signal(SPEC2, CTX2, 200 + seed)
        lhs = scalar_part(inner_product(f, g))
        rhs = scalar_part(inner_product(cft_forward(f), cft_forward(g)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_plancherel_full_multivector_n3():
    f = random_signal(SPEC3, CTX3, 5)
    g = random_signal(SPEC3, CTX3, 6)
    lhs = inner_product(f, g)
    rhs = inner_product(cft_forward(f), cft_forward(g))
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-10, atol=1e-10)


def test_linearity():
    f = random_signal(SPEC2, CTX2, 7)
    g = random_signal(SPEC2, CTX2, 8)
    combo = cft_forward(f.scale(1.3) + g.scale(-0.4))
    split = cft_forward(f).scale(1.3) + cft_forward(g).scale(-0.4)
    assert rel_l2_error(combo, split) < 1e-14


def test_even_real_signal_has_cosine_spectrum():
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC2, CTX2)
    F = cft_forward(f)
    # pseudoscalar component vanishes for even real input
    assert np.max(np.abs(F.data[CTX2.full_mask])) < 1e-14 * np.max(np.abs(F.data[0]))


def test_convolve_with_delta_is_identity():
    f = random_signal(SPEC2, CTX2, 9)
    delta = GridSignal.zero(SPEC2, CTX2)
    half = SPEC2.samples_per_axis // 2
    delta.data[0, half, half] = 1.0 / SPEC2.cell_weight(SPACE)
    assert rel_l2_error(convolve(f, delta), f) < 1e-13


def test_gaussian_convolution_closed_form():
    # exp(-|x|^2/(2a)) * exp(-|x|^2/(2b)) has peak (2 pi a b/(a+b)) at 0

    a, b = 0.5, 0.8
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / (2 * a)), SPEC2, CTX2)
    g = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / (2 * b)), SPEC2, CTX2)
    conv = convolve(f, g)
    half = SPEC2.samples_per_axis // 2
    peak = conv.data[0, half, half]
    expected = 2 * np.pi * a * b / (a + b)
    assert peak == pytest.approx(expected, rel=1e-6)


def test_convolution_theorem_exact():
    f = gaussian_mix(SPEC2, CTX2, 10)
    g = gaussian_mix(SPEC2, CTX2, 11)
    lhs = cft_forward(convolve(f, g))
    rhs = convolution_theorem_rhs(f, g)
    assert rel_l2_error(lhs, rhs) < 1e-10


def test_convolution_theorem_multivector():
    # n=2: the kernel phase commutes only with even-grade values, so the
    # identity needs an even-graded right factor there; n=3 is unrestricted.
    f = random_signal(SPEC2, CTX2, 12)
    g = random_signal(SPEC2, CTX2, 13)
    g.data[0b01] = 0.0
    g.data[0b10] = 0.0
    lhs = cft_forward(convolve(f, g))
    rhs = convolution_theorem_rhs(f, g)
    assert rel_l2_error(lhs, rhs) < 1e-10

    f3 = random_signal(SPEC3, CTX3, 14)
    g3 = random_signal(SPEC3, CTX3, 15)
    lhs3 = cft_forward(convolve(f3, g3))
    rhs3 = convolution_theorem_rhs(f3, g3)
    assert rel_l2_error(lhs3, rhs3) < 1e-10


def test_domain_and_dimension_errors():
    f = random_signal(SPEC2, CTX2, 14)
    F = cft_forward(f)
    with pytest.raises(GridError):
        cft_forward(F)
    with pytest.raises(GridError):
        cft_inverse(f)
    bad = GridSignal.zero(GridSpec(2, 6.0, 8), algebra(2, +1))
    # n=2 with +1 metric still has i^2=-1, so this passes the square check;
    # a 4-dimensional grid must be rejected outright.
    spec4 = GridSpec(4, 2.0, 4)
    ctx4 = algebra(4)
    with pytest.raises(UnsupportedDimensionError):
        cft_forward(GridSignal.zero(spec4, ctx4))
