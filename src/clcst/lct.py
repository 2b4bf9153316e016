"""Clifford linear canonical transform: chirp kernel, fast path, convolution.

The parameter 4-tuple M = (A, B, C, D) with AD - BC = 1 drives the kernel

    K_M(u, x) = C_M exp(i_n (A|x|^2/(2B) - x.u/B + D|u|^2/(2B))),

with C_M = 1/sqrt((2 pi)^n B); for B < 0 the real positive root
1/sqrt((2 pi)^n |B|) is used.  Outputs live on the scaled frequency lattice
u_k = B w_k, which makes the chirp-FFT-chirp factorization land on exact
bins.
"""

import numpy as np

from .cft import _require_transformable, centered_cft, cft_forward, convolve
from .grid import (
    FREQUENCY,
    SPACE,
    GridError,
    GridSignal,
    chirp_multiply,
    lattice_steps,
    pack,
    phase_multiply,
    unpack,
)


class LCTError(Exception):
    pass


class DegenerateBranchError(LCTError):
    pass


class ResamplingUnsupportedError(LCTError):
    pass


class LCTParams:
    """Finite real (A, B, C, D) with AD - BC = 1 (checked to 1e-12)."""

    IDENTITY_TO_CFT = (0.0, 1.0, -1.0, 0.0)

    def __init__(self, A, B, C, D):
        A, B, C, D = (float(v) for v in (A, B, C, D))
        for name, value in zip("ABCD", (A, B, C, D)):
            if not np.isfinite(value):  # a NaN would pass the test below
                raise LCTError("%s = %r is not finite" % (name, value))
        if abs(A * D - B * C - 1.0) > 1e-12:
            raise LCTError("AD - BC = %r, expected 1" % (A * D - B * C))
        self.A, self.B, self.C, self.D = A, B, C, D

    @classmethod
    def cft_point(cls):
        return cls(*cls.IDENTITY_TO_CFT)

    def as_tuple(self):
        return (self.A, self.B, self.C, self.D)

    @property
    def chirp_rate(self):
        """A / (2B), the quadratic phase rate shared by the whole chain."""
        if self.B == 0.0:
            raise DegenerateBranchError("chirp rate undefined at B = 0")
        return self.A / (2.0 * self.B)

    def is_cft_point(self):
        return all(abs(a - b) <= 1e-15 for a, b in zip(self.as_tuple(), self.IDENTITY_TO_CFT))

    def __repr__(self):
        return "LCTParams(A=%g, B=%g, C=%g, D=%g)" % self.as_tuple()


def _amplitude(params, n):
    # real positive root also for B < 0; the phase of C_M off B > 0 is an
    # open convention and the tests only pin |C_M|
    return 1.0 / np.sqrt((2.0 * np.pi) ** n * abs(params.B))


def clct_forward(f, params):
    """L_M f on the lattice u_k = B w_k via chirp -> CFT -> chirp and scale.

    For B = 0 the transform degenerates to
    D^(-n/2) exp(-i_n C D |u|^2 / 2) f(D u), evaluated by exact lattice
    lookup; a D that does not map the lattice onto itself is an error.
    """
    if params.B == 0.0:
        return _clct_scaling_branch(f, params)
    _require_transformable(f)
    if f.domain != SPACE:
        raise GridError("clct_forward expects a space-domain signal")
    n = f.spec.n
    chirp = np.exp(1j * params.chirp_rate * f.spec.squared_radius(SPACE))
    F = centered_cft(pack(f.ctx, f.data) * chirp, f.spec)
    # postfactor exp(i_n D|u|^2/(2B)) on the u-lattice u = B w
    u_sq = f.spec.squared_radius(FREQUENCY) * params.B**2
    post = np.exp(1j * params.D * u_sq / (2.0 * params.B))
    scale = (2.0 * np.pi) ** (n / 2.0) * _amplitude(params, n)
    return GridSignal(f.spec, f.ctx, unpack(f.ctx, F * post * scale), FREQUENCY)


def _clct_scaling_branch(f, params):
    D = params.D
    if D == 0.0:
        raise DegenerateBranchError("B = 0 requires D != 0 (AD - BC = 1 forces D = 1/A)")
    N = f.spec.samples_per_axis
    half = N // 2
    target, on_lattice = lattice_steps(D * (np.arange(N) - half))
    if not on_lattice.all():
        raise ResamplingUnsupportedError("D = %g does not map the lattice to itself" % D)
    target += half
    if target.min() < 0 or target.max() >= N:
        raise ResamplingUnsupportedError("D = %g sends lattice points out of range" % D)
    data = f.data
    for axis in range(1, f.spec.n + 1):
        data = np.take(data, target, axis=axis)
    looked_up = GridSignal(f.spec, f.ctx, data, SPACE)
    phase = -params.C * D * f.spec.squared_radius(SPACE) / 2.0
    out = phase_multiply(looked_up, phase)
    return out.scale(D ** (-f.spec.n / 2.0))


def clct_forward_direct(f, params):
    """Direct quadrature of the defining sum on the u_k = B w_k lattice.

    O(N^(2n)); evaluated in blocks of 256 output points to bound memory.  This is
    the oracle the fast path is tested against.
    """
    if params.B == 0.0:
        raise DegenerateBranchError("direct quadrature only covers B != 0")
    _require_transformable(f)
    n = f.spec.n
    x = f.spec.mesh(SPACE).reshape(n, -1)  # (n, P)
    u = (params.B * f.spec.mesh(FREQUENCY)).reshape(n, -1)
    P = x.shape[1]
    x_sq = np.sum(x**2, axis=0)
    u_sq = np.sum(u**2, axis=0)
    za = pack(f.ctx, f.data).reshape(-1, P)
    amp = _amplitude(params, n) * f.spec.cell_weight(SPACE)
    rows = []
    for start in range(0, P, 256):
        block = slice(start, start + 256)
        phase = (
            params.A * x_sq[None, :] / (2.0 * params.B)
            - (u[:, block].T @ x) / params.B
            + params.D * u_sq[block, None] / (2.0 * params.B)
        )
        kernel = np.exp(1j * phase)  # (rows, P)
        rows.append(za @ kernel.T)  # (pairs, rows)
    acc = np.concatenate(rows, axis=1) * amp
    out = unpack(f.ctx, acc.reshape((-1,) + f.spec.shape))
    return GridSignal(f.spec, f.ctx, out, FREQUENCY)


def lct_convolve(f, g, params):
    """Canonical-domain convolution: anti-chirp the chirped convolution."""
    if params.B == 0.0:
        raise DegenerateBranchError("canonical convolution needs B != 0")
    f._check(g)
    chirped = chirp_multiply(f, params.chirp_rate, +1)
    conv = convolve(chirped, g)
    return chirp_multiply(conv, params.chirp_rate, -1)


def lct_convolution_theorem_rhs(f, g, params):
    """clct(f) . cft(g)(u/B) pointwise, the spectral side of the theorem.

    On the output lattice u = B w the second factor is cft(g) on its own
    bins, so both sides are exact lattice objects.
    """
    from .grid import pointwise_product

    lhs_scale = (2.0 * np.pi) ** (f.spec.n / 2.0)
    return pointwise_product(clct_forward(f, params), cft_forward(g)).scale(lhs_scale)
