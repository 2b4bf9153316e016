import numpy as np
import pytest

from clcst.algebra import transform_algebra
from clcst.cft import cft_forward
from clcst.grid import GridSignal, GridSpec, phase_multiply, rel_l2_error, sample
from clcst.lct import (
    DegenerateBranchError,
    LCTError,
    LCTParams,
    ResamplingUnsupportedError,
    clct_forward,
    clct_forward_direct,
    lct_convolution_theorem_rhs,
    lct_convolve,
)

SPEC = GridSpec(2, 6.0, 64)
CTX = transform_algebra(2)


def random_signal(seed, spec=SPEC, ctx=CTX):
    rng = np.random.default_rng(seed)
    return GridSignal(spec, ctx, rng.standard_normal((ctx.blade_count,) + spec.shape))


def gaussian(spec=SPEC, ctx=CTX, width=1.0, center=0.0):
    return sample(lambda x: np.exp(-np.sum((x - center) ** 2, axis=0) / width), spec, ctx)


def test_determinant_validation():
    LCTParams(1, 2, 1, 3)
    with pytest.raises(LCTError):
        LCTParams(1, 2, 1, 2)


def test_cft_parameter_point():
    m = LCTParams.cft_point()
    assert m.as_tuple() == (0.0, 1.0, -1.0, 0.0)
    assert m.is_cft_point()


def test_kernel_degenerate_branch_error():
    """At B = 0 the chirp kernel is undefined: its rate, its direct
    quadrature and the canonical convolution refuse it."""
    m, f = LCTParams(1, 0, 0.5, 1), random_signal(0)
    with pytest.raises(DegenerateBranchError):
        m.chirp_rate
    with pytest.raises(DegenerateBranchError):
        clct_forward_direct(f, m)
    with pytest.raises(DegenerateBranchError):
        lct_convolve(f, f, m)


def test_forward_reduces_to_cft():
    f = random_signal(1)
    out = clct_forward(f, LCTParams.cft_point())
    assert rel_l2_error(out, cft_forward(f)) < 1e-12


def test_forward_zero():
    z = GridSignal.zero(SPEC, CTX)
    assert np.all(clct_forward(z, LCTParams(1, 2, 1, 3)).data == 0.0)


@pytest.mark.parametrize(
    "m",
    [LCTParams(1, 1, 0, 1), LCTParams(1, 2, 1, 3), LCTParams(2, 1, 1, 1), LCTParams(1, -1, 0, 1)],
    ids=["fresnel", "generic", "steep", "negative-B"],
)
def test_fast_path_matches_direct_quadrature(m):
    for seed in (2, 3):
        f = random_signal(seed)
        assert rel_l2_error(clct_forward(f, m), clct_forward_direct(f, m)) < 1e-10
    g = gaussian()
    assert rel_l2_error(clct_forward(g, m), clct_forward_direct(g, m)) < 1e-10


def test_forward_linearity():
    m = LCTParams(1, 2, 1, 3)
    f, g = random_signal(4), random_signal(5)
    combo = clct_forward(f.scale(0.3) + g.scale(-1.7), m)
    split = clct_forward(f, m).scale(0.3) + clct_forward(g, m).scale(-1.7)
    assert rel_l2_error(combo, split) < 1e-13


def test_scaling_branch_identity_d():
    # M = (1, 0, C, 1): pure chirp multiplication
    f = random_signal(6)
    m = LCTParams(1, 0, 0.7, 1)
    out = clct_forward(f, m)
    expect = phase_multiply(f, -0.7 * SPEC.squared_radius() / 2.0)
    assert rel_l2_error(out, expect) == 0.0


def test_scaling_branch_rejects_incompatible_d():
    f = random_signal(7)
    with pytest.raises(ResamplingUnsupportedError):
        clct_forward(f, LCTParams(2.5, 0, 1.0, 0.4))


def test_lct_convolve_delta_identity():
    f = random_signal(8)
    m = LCTParams(1, 2, 1, 3)
    delta = GridSignal.zero(SPEC, CTX)
    half = SPEC.samples_per_axis // 2
    delta.data[0, half, half] = 1.0 / SPEC.cell_weight("space")
    assert rel_l2_error(lct_convolve(f, delta, m), f) < 1e-13


def test_lct_convolve_reduces_to_plain_convolution():
    from clcst.cft import convolve

    f, g = gaussian(width=0.8), gaussian(width=1.3, center=0.4)
    m = LCTParams.cft_point()  # A = 0 kills the chirps
    assert rel_l2_error(lct_convolve(f, g, m), convolve(f, g)) == 0.0


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_canonical_convolution_theorem(seed):
    rng = np.random.default_rng(seed)
    A, B, D = rng.uniform(0.5, 2.0, size=3)
    m = LCTParams(A, B, (A * D - 1.0) / B, D)  # solve C from AD - BC = 1
    mesh = SPEC.mesh()
    vals = rng.standard_normal() * np.exp(-np.sum((mesh - 0.3) ** 2, axis=0))
    vals += rng.standard_normal() * np.exp(-np.sum((mesh + 0.5) ** 2, axis=0) / 1.4)
    f = GridSignal.from_scalar(SPEC, CTX, vals)
    g = gaussian(width=0.9)
    lhs = clct_forward(lct_convolve(f, g, m), m)
    rhs = lct_convolution_theorem_rhs(f, g, m)
    assert rel_l2_error(lhs, rhs) < 1e-10
