"""Discrete Clifford Fourier transform and periodic convolution.

The forward kernel exp(-i_n w.x) right-multiplies the signal.  Packed as
complex pairs (:func:`~clcst.grid.pack`) that kernel is exp(-j w.x), so the
whole transform is one centered FFT of the 2^(n-1) pairs.

On the centered lattices of :class:`~clcst.grid.GridSpec` the forward and
inverse sums are exact inverses, and the centered circular convolution
satisfies the convolution theorem exactly.
"""

import numpy as np

from .algebra import UnsupportedDimensionError
from .grid import FREQUENCY, SPACE, GridError, GridSignal, pack, pointwise_product, unpack


def _require_transformable(f):
    if f.spec.n % 4 not in (2, 3):
        raise UnsupportedDimensionError(
            "transform kernels need n = 2,3 (mod 4); got n = %d" % f.spec.n
        )
    if f.ctx.pseudoscalar_square != -1:
        raise UnsupportedDimensionError(
            "context %r has pseudoscalar square %+d; use transform_algebra(n)"
            % (f.ctx, f.ctx.pseudoscalar_square)
        )


def _spatial_axes(f):
    return tuple(range(1, f.spec.n + 1))


def centered_cft(z, spec, inverse=False):
    """The CFT (or its inverse) of complex fields over their last n axes.

    Any leading axes, such as the pair axis, are batched; a span{1, i_n}
    field a + i_n b is the single complex array a + j b.
    """
    axes = tuple(range(-spec.n, 0))
    shifted = np.fft.ifftshift(z, axes=axes)
    if inverse:
        out = np.fft.ifftn(shifted, axes=axes) * spec.point_count
        weight = spec.cell_weight(FREQUENCY)
    else:
        out = np.fft.fftn(shifted, axes=axes)
        weight = spec.cell_weight(SPACE)
    return np.fft.fftshift(out, axes=axes) * ((2.0 * np.pi) ** (-spec.n / 2.0) * weight)


def cft_forward(f):
    """F(w) = (2 pi)^(-n/2) dx^n sum_j f(x_j) exp(-i_n w.x_j)."""
    _require_transformable(f)
    if f.domain != SPACE:
        raise GridError("cft_forward expects a space-domain signal")
    out = unpack(f.ctx, centered_cft(pack(f.ctx, f.data), f.spec))
    return GridSignal(f.spec, f.ctx, out, FREQUENCY)


def cft_inverse(F):
    """f(x) = (2 pi)^(-n/2) dw^n sum_k F(w_k) exp(+i_n w_k.x)."""
    _require_transformable(F)
    if F.domain != FREQUENCY:
        raise GridError("cft_inverse expects a frequency-domain signal")
    out = unpack(F.ctx, centered_cft(pack(F.ctx, F.data), F.spec, inverse=True))
    return GridSignal(F.spec, F.ctx, out, SPACE)


def cft_forward_direct(f):
    """Direct quadrature of the forward sum; the slow oracle for tests.

    Builds the per-axis kernel matrices exp(-i w_k x_j) explicitly instead of
    calling any FFT, then contracts one axis at a time.
    """
    _require_transformable(f)
    x = f.spec.axis(SPACE)
    w = f.spec.axis(FREQUENCY)
    kernel = np.exp(-1j * np.outer(w, x))  # kernel[k, j]
    acc = pack(f.ctx, f.data)
    for axis in _spatial_axes(f):
        acc = np.moveaxis(np.tensordot(kernel, acc, axes=(1, axis)), 0, axis)
    scale = (2.0 * np.pi) ** (-f.spec.n / 2.0) * f.spec.cell_weight(SPACE)
    return GridSignal(f.spec, f.ctx, unpack(f.ctx, acc * scale), FREQUENCY)


def convolve(f, g):
    """Periodic convolution with the cell weight: dx^n sum_t f(t) g(x - t).

    The difference x - t wraps on the centered lattice, which is what makes
    cft(f * g) = (2 pi)^(n/2) cft(f) cft(g) hold exactly bin by bin.
    """
    f._check(g)
    ctx = f.ctx
    axes = _spatial_axes(f)
    fhat = np.fft.fftn(f.data, axes=axes)
    ghat = np.fft.fftn(g.data, axes=axes)
    m = ctx.blade_count
    out = np.empty_like(f.data)
    half = f.spec.samples_per_axis // 2
    shift = [-half] * f.spec.n
    spatial = tuple(range(f.spec.n))
    for c in range(m):
        acc = np.zeros(f.spec.shape, dtype=np.complex128)
        for a in range(m):
            b = a ^ c
            acc += ctx.sign_table[a, b] * fhat[a] * ghat[b]
        circ = np.fft.ifftn(acc).real
        out[c] = np.roll(circ, shift, axis=spatial)
    return GridSignal(f.spec, ctx, out * f.spec.cell_weight(f.domain), f.domain)


def convolution_theorem_rhs(f, g):
    """(2 pi)^(n/2) cft(f) cft(g), the spectral side of the theorem."""
    lhs_scale = (2.0 * np.pi) ** (f.spec.n / 2.0)
    return pointwise_product(cft_forward(f), cft_forward(g)).scale(lhs_scale)
