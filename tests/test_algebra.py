import numpy as np
import pytest

from clcst.algebra import (
    DimensionMismatchError,
    Multivector,
    UnsupportedDimensionError,
    algebra,
    clifford_conjugate,
    geometric_product,
    pseudoscalar_exp,
    scalar_part,
    transform_algebra,
)


def random_mv(ctx, rng):
    return Multivector(ctx, rng.standard_normal(ctx.blade_count))


@pytest.fixture(params=[(2, -1), (3, -1), (3, +1)], ids=["n2", "n3-anti", "n3-euclid"])
def ctx(request):
    return algebra(*request.param)


def test_basis_vector_squares():
    for n in (2, 3):
        c = algebra(n, -1)
        for i in range(n):
            e = Multivector.basis_vector(c, i)
            sq = e * e
            assert scalar_part(sq) == -1.0
            assert np.allclose((sq + 1).coeffs, 0.0)


def test_anticommutation_exhaustive(ctx):
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            ei = Multivector.basis_vector(ctx, i)
            ej = Multivector.basis_vector(ctx, j)
            assert np.allclose((ei * ej + ej * ei).coeffs, 0.0)


def test_e1e2_product_order():
    c = algebra(2)
    e1 = Multivector.basis_vector(c, 0)
    e2 = Multivector.basis_vector(c, 1)
    e12 = Multivector.blade(c, 0b11)
    assert np.array_equal((e1 * e2).coeffs, e12.coeffs)
    assert np.array_equal((e2 * e1).coeffs, (-e12).coeffs)


def test_bivector_square_n2():
    c = algebra(2)
    e12 = Multivector.blade(c, 0b11)
    assert scalar_part(e12 * e12) == -1.0


def test_identity_element(ctx):
    rng = np.random.default_rng(11)
    one = Multivector.scalar(ctx, 1.0)
    m = random_mv(ctx, rng)
    assert np.allclose((one * m).coeffs, m.coeffs)
    assert np.allclose((m * one).coeffs, m.coeffs)


def test_associativity_blade_triples(ctx):
    # exhaustive over the basis, exact in float
    blades = [Multivector.blade(ctx, k) for k in range(ctx.blade_count)]
    for a in blades:
        for b in blades:
            ab = a * b
            for c in blades:
                left = (ab) * c
                right = a * (b * c)
                assert np.array_equal(left.coeffs, right.coeffs)


def test_associativity_random(ctx):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (random_mv(ctx, rng) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        assert np.allclose(left.coeffs, right.coeffs, rtol=0, atol=1e-12)


def test_dimension_mismatch():
    a = Multivector.scalar(algebra(2), 1.0)
    b = Multivector.scalar(algebra(3), 1.0)
    with pytest.raises(DimensionMismatchError):
        geometric_product(a, b)


def test_conjugate_examples():
    c = algebra(2)
    assert scalar_part(clifford_conjugate(Multivector.scalar(c, 5.0))) == 5.0
    e1 = Multivector.basis_vector(c, 0)
    assert np.array_equal(clifford_conjugate(e1).coeffs, (-e1).coeffs)


def test_conjugate_anti_automorphism(ctx):
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = random_mv(ctx, rng), random_mv(ctx, rng)
        left = clifford_conjugate(a * b)
        right = clifford_conjugate(b) * clifford_conjugate(a)
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_conjugate_positive_definite(ctx):
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_mv(ctx, rng)
        s = scalar_part(m * clifford_conjugate(m))
        assert s == pytest.approx(np.sum(m.coeffs**2), rel=1e-14)
        assert s >= 0.0
    assert scalar_part(Multivector.zero(ctx) * clifford_conjugate(Multivector.zero(ctx))) == 0.0


def test_pseudoscalar_exp_basics():
    for n in (2, 3):
        ctx = transform_algebra(n)
        one = pseudoscalar_exp(ctx, 0.0)
        assert np.array_equal(one.coeffs, Multivector.scalar(ctx, 1.0).coeffs)
        quarter = pseudoscalar_exp(ctx, np.pi / 2)
        assert np.allclose(quarter.coeffs, Multivector.pseudoscalar(ctx).coeffs, atol=1e-16)


def test_pseudoscalar_exp_adds_phases():
    rng = np.random.default_rng(13)
    for n in (2, 3):
        ctx = transform_algebra(n)
        for _ in range(10):
            a, b = rng.uniform(-6, 6, size=2)
            prod = geometric_product(pseudoscalar_exp(ctx, a), pseudoscalar_exp(ctx, b))
            assert np.allclose(prod.coeffs, pseudoscalar_exp(ctx, a + b).coeffs, atol=1e-14)


def test_pseudoscalar_square_per_metric():
    for n in (2, 3):
        ctx = transform_algebra(n)
        i_n = Multivector.pseudoscalar(ctx)
        assert scalar_part(i_n * i_n) == -1.0


def test_pseudoscalar_commutation():
    # n=3: central; n=2: commutes with even grades, anticommutes with vectors
    ctx3 = transform_algebra(3)
    i3 = Multivector.pseudoscalar(ctx3)
    for k in range(ctx3.blade_count):
        b = Multivector.blade(ctx3, k)
        assert np.array_equal((i3 * b).coeffs, (b * i3).coeffs)
    ctx2 = transform_algebra(2)
    i2 = Multivector.pseudoscalar(ctx2)
    for k in range(ctx2.blade_count):
        b = Multivector.blade(ctx2, k)
        lhs = (i2 * b).coeffs
        rhs = (b * i2).coeffs
        if ctx2.grades[k] % 2 == 0:
            assert np.array_equal(lhs, rhs)
        else:
            assert np.array_equal(lhs, -rhs)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        transform_algebra(4)
    with pytest.raises(UnsupportedDimensionError):
        transform_algebra(5)
    with pytest.raises(UnsupportedDimensionError):
        pseudoscalar_exp(algebra(3, -1), 1.0)  # pseudoscalar squares to +1 there


def test_higher_dimensions_with_kernel_metric():
    # any n = 2,3 (mod 4) admits a pseudoscalar square root of -1
    for n in (6, 7):
        ctx = transform_algebra(n)
        i_n = Multivector.pseudoscalar(ctx)
        assert scalar_part(i_n * i_n) == -1.0


def test_scalar_part_examples():
    c = algebra(2)
    m = Multivector.scalar(c, 7.0) + Multivector.basis_vector(c, 0)
    assert scalar_part(m) == 7.0
    assert scalar_part(Multivector.blade(c, 0b11)) == 0.0
    e1 = Multivector.basis_vector(c, 0)
    assert scalar_part(geometric_product(e1, e1)) == -1.0
