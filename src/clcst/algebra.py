"""Clifford algebra arithmetic on bitmask-indexed blades.

Blade k is the ordered product of the basis vectors named by the set bits
of k (ascending index order), so a multivector is a real coefficient array
of length 2**n. Products reduce to an XOR of bitmasks plus a sign from
transposition counting and the metric.
"""

import math

import numpy as np


class AlgebraError(Exception):
    pass


class DimensionMismatchError(AlgebraError):
    pass


class UnsupportedDimensionError(AlgebraError):
    pass


def _popcount(x):
    return bin(x).count("1")


def _reorder_sign(a, b):
    """Sign from sorting the concatenated factor lists of blades a and b.

    Counts, for every factor in b, the factors of a with a strictly larger
    index that must hop over it; each hop is one transposition.
    """
    swaps = 0
    a >>= 1
    while a:
        swaps += _popcount(a & b)
        a >>= 1
    return -1 if swaps & 1 else 1


class AlgebraContext:
    """Immutable product tables for the algebra generated by n basis vectors.

    ``metric_sign`` is the common square of the basis vectors: -1 gives the
    anti-Euclidean algebra (the default), +1 the Euclidean one.  The
    oscillatory transform kernels need a pseudoscalar squaring to -1, which
    picks the sign per dimension; see :func:`transform_algebra`.
    """

    def __init__(self, n, metric_sign=-1):
        if n < 1:
            raise UnsupportedDimensionError("dimension must be >= 1")
        if metric_sign not in (-1, 1):
            raise AlgebraError("metric_sign must be +1 or -1")
        self.n = n
        self.metric_sign = metric_sign
        self.blade_count = 1 << n
        self.full_mask = self.blade_count - 1

        m = self.blade_count
        signs = np.empty((m, m), dtype=np.int8)
        for a in range(m):
            for b in range(m):
                s = _reorder_sign(a, b)
                if metric_sign < 0 and (_popcount(a & b) & 1):
                    s = -s
                signs[a, b] = s
        self.sign_table = signs
        blades = np.arange(m)
        self.xor_table = blades[:, None] ^ blades[None, :]
        self.grades = np.array([_popcount(k) for k in range(m)], dtype=np.int64)

        # Right multiplication by the pseudoscalar: e_k e_1...e_n = pseudo_sign[k] e_{k^F}.
        self.pseudo_sign = signs[blades, self.full_mask].astype(np.float64)
        self.pseudoscalar_square = int(signs[self.full_mask, self.full_mask])

        # Grade-sign involution inverting every unit blade, hence giving a
        # positive definite scalar product m * conj(m) in either metric.
        r = self.grades
        rev = (-1.0) ** (r * (r - 1) // 2)
        if metric_sign < 0:
            self.conj_signs = rev * (-1.0) ** r
        else:
            self.conj_signs = rev

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraContext)
            and self.n == other.n
            and self.metric_sign == other.metric_sign
        )

    def __hash__(self):
        return hash((self.n, self.metric_sign))

    def __repr__(self):
        return "AlgebraContext(n=%d, metric_sign=%+d)" % (self.n, self.metric_sign)

    def blade_name(self, k):
        if k == 0:
            return "1"
        return "e" + "".join(str(i + 1) for i in range(self.n) if k >> i & 1)


_context_cache = {}


def algebra(n, metric_sign=-1):
    """Shared, cached AlgebraContext."""
    key = (n, metric_sign)
    if key not in _context_cache:
        _context_cache[key] = AlgebraContext(n, metric_sign)
    return _context_cache[key]


def transform_algebra(n):
    """Context whose pseudoscalar squares to -1, as the kernels require.

    Only n = 2, 3 (mod 4) admit such a uniform-metric algebra: the printed
    -1 metric works for n = 2 (mod 4) and the +1 metric for n = 3 (mod 4).
    """
    rem = n % 4
    if rem == 2:
        ctx = algebra(n, -1)
    elif rem == 3:
        ctx = algebra(n, +1)
    else:
        raise UnsupportedDimensionError(
            "no pseudoscalar square root of -1 for n = %d (need n = 2,3 mod 4)" % n
        )
    assert ctx.pseudoscalar_square == -1
    return ctx


class Multivector:
    """Element of an AlgebraContext: one real coefficient per blade."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (ctx.blade_count,):
            raise AlgebraError(
                "expected %d coefficients, got %r" % (ctx.blade_count, coeffs.shape)
            )
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, np.zeros(ctx.blade_count))

    @classmethod
    def scalar(cls, ctx, value):
        c = np.zeros(ctx.blade_count)
        c[0] = value
        return cls(ctx, c)

    @classmethod
    def basis_vector(cls, ctx, i):
        if not 0 <= i < ctx.n:
            raise AlgebraError("basis index out of range")
        c = np.zeros(ctx.blade_count)
        c[1 << i] = 1.0
        return cls(ctx, c)

    @classmethod
    def blade(cls, ctx, mask, value=1.0):
        c = np.zeros(ctx.blade_count)
        c[mask] = value
        return cls(ctx, c)

    @classmethod
    def pseudoscalar(cls, ctx):
        return cls.blade(ctx, ctx.full_mask)

    def copy(self):
        return Multivector(self.ctx, self.coeffs.copy())

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.ctx, self.coeffs + other.coeffs)
        return Multivector(self.ctx, self.coeffs + Multivector.scalar(self.ctx, other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.ctx, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(self.ctx, self.coeffs * float(other))

    def __rmul__(self, other):  # a scalar times a Multivector
        return Multivector(self.ctx, float(other) * self.coeffs)

    def __truediv__(self, other):
        return Multivector(self.ctx, self.coeffs / float(other))

    def _check(self, other):
        if self.ctx != other.ctx:
            raise DimensionMismatchError(
                "operands live in %r and %r" % (self.ctx, other.ctx)
            )

    def norm(self):
        return float(np.sqrt(np.sum(self.coeffs**2)))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                terms.append("%+g*%s" % (c, self.ctx.blade_name(k)))
        return " ".join(terms) if terms else "0"


def geometric_product(a, b):
    """Associative Clifford product; blades combine by XOR with a signed table."""
    a._check(b)
    ctx = a.ctx
    out = np.zeros(ctx.blade_count)
    prod = np.outer(a.coeffs, b.coeffs) * ctx.sign_table
    np.add.at(out, ctx.xor_table, prod)
    return Multivector(ctx, out)


def left_multiplication_matrix(m):
    """The real matrix L with (m * x).coeffs = L @ x.coeffs for every x:
    column b holds sign(a, b) m_a in row a ^ b."""
    ctx = m.ctx
    out = np.zeros((ctx.blade_count, ctx.blade_count))
    out[ctx.xor_table, np.arange(ctx.blade_count)] = ctx.sign_table * m.coeffs[:, None]
    return out


def clifford_conjugate(m):
    """Anti-automorphism with m * conj(m) scalar-positive for every blade."""
    return Multivector(m.ctx, m.coeffs * m.ctx.conj_signs)


def scalar_part(m):
    return float(m.coeffs[0])


def pseudoscalar_exp(ctx, phase):
    """cos(phase) + sin(phase) * e_1...e_n; needs the pseudoscalar to square to -1.

    The package's kernels apply their phases to complex pairs instead
    (:func:`~clcst.grid.phase_multiply`); this multivector form is kept as
    the per-point oracle that the tests multiply out with
    :func:`geometric_product`, for the CFT kernel, the grid phases and the
    CLCST kernel."""
    if ctx.pseudoscalar_square != -1:
        raise UnsupportedDimensionError(
            "pseudoscalar squares to %+d in %r; phase exponentials undefined"
            % (ctx.pseudoscalar_square, ctx)
        )
    c = np.zeros(ctx.blade_count)
    c[0] = math.cos(phase)
    c[ctx.full_mask] = math.sin(phase)
    return Multivector(ctx, c)
