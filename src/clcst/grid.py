"""Uniform centered lattices carrying multivector-valued samples.

A GridSpec fixes the cube [-L, L)^n with N samples per axis; the matching
frequency lattice is w_k = k*pi/L for k in [-N/2, N/2).  With these spacings
dx * dw * N = 2*pi exactly, so the discrete transform pair in :mod:`cft`
inverts exactly on the lattice.
"""

import numpy as np

from .algebra import Multivector, algebra

SPACE = "space"
FREQUENCY = "frequency"


class GridError(Exception):
    pass


class GridSpec:
    def __init__(self, n, half_width, samples_per_axis):
        if samples_per_axis <= 0 or samples_per_axis % 2:
            raise GridError("samples_per_axis must be a positive even integer")
        if half_width <= 0:
            raise GridError("half_width must be positive")
        self.n = int(n)
        self.half_width = float(half_width)
        self.samples_per_axis = int(samples_per_axis)
        self._meshes = {}

    @property
    def dx(self):
        return 2.0 * self.half_width / self.samples_per_axis

    @property
    def dw(self):
        return np.pi / self.half_width

    @property
    def shape(self):
        return (self.samples_per_axis,) * self.n

    @property
    def point_count(self):
        return self.samples_per_axis**self.n

    def axis(self, domain=SPACE):
        N = self.samples_per_axis
        k = np.arange(N) - N // 2
        return k * (self.dx if domain == SPACE else self.dw)

    def mesh(self, domain=SPACE):
        """Stacked coordinates, shape (n,) + shape; built once per domain, read-only."""
        key = domain == SPACE
        if key not in self._meshes:
            grids = np.meshgrid(*([self.axis(domain)] * self.n), indexing="ij")
            mesh = np.stack(grids)
            mesh.flags.writeable = False
            self._meshes[key] = mesh
        return self._meshes[key]

    def squared_radius(self, domain=SPACE):
        return np.sum(self.mesh(domain) ** 2, axis=0)

    def dot(self, u, domain=SPACE):
        """x . u at every lattice point."""
        return np.tensordot(np.asarray(u, dtype=np.float64), self.mesh(domain), axes=(0, 0))

    def cell_weight(self, domain=SPACE):
        step = self.dx if domain == SPACE else self.dw
        return step**self.n

    def __eq__(self, other):
        return (
            isinstance(other, GridSpec)
            and self.n == other.n
            and self.half_width == other.half_width
            and self.samples_per_axis == other.samples_per_axis
        )

    def __repr__(self):
        return "GridSpec(n=%d, L=%g, N=%d)" % (
            self.n,
            self.half_width,
            self.samples_per_axis,
        )


def lattice_steps(x, step=1.0, tol=1e-9):
    """round(x / step) as integers, and where x lies within ``tol`` steps of that point."""
    steps = np.asarray(x, dtype=np.float64) / step
    rounded = np.rint(steps)
    return rounded.astype(np.int64), np.abs(steps - rounded) <= tol


class GridSignal:
    """Multivector samples on a lattice, stored blade-major.

    ``data`` has shape (blade_count,) + spec.shape and is treated as an
    immutable value; operations return new signals.
    """

    def __init__(self, spec, ctx, data, domain=SPACE):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (ctx.blade_count,) + spec.shape:
            raise GridError(
                "data shape %r does not match %r with %d blades"
                % (data.shape, spec, ctx.blade_count)
            )
        if domain not in (SPACE, FREQUENCY):
            raise GridError("domain must be %r or %r" % (SPACE, FREQUENCY))
        self.spec = spec
        self.ctx = ctx
        self.data = data
        self.domain = domain

    @classmethod
    def zero(cls, spec, ctx, domain=SPACE):
        return cls(spec, ctx, np.zeros((ctx.blade_count,) + spec.shape), domain)

    @classmethod
    def from_scalar(cls, spec, ctx, values, domain=SPACE):
        data = np.zeros((ctx.blade_count,) + spec.shape)
        data[0] = values
        return cls(spec, ctx, data, domain)

    def copy(self):
        return GridSignal(self.spec, self.ctx, self.data.copy(), self.domain)

    def _check(self, other):
        if self.spec != other.spec or self.ctx != other.ctx or self.domain != other.domain:
            raise GridError("grid signals are not compatible")

    def __add__(self, other):
        self._check(other)
        return GridSignal(self.spec, self.ctx, self.data + other.data, self.domain)

    def __sub__(self, other):
        self._check(other)
        return GridSignal(self.spec, self.ctx, self.data - other.data, self.domain)

    def __neg__(self):
        return GridSignal(self.spec, self.ctx, -self.data, self.domain)

    def scale(self, factor):
        return GridSignal(self.spec, self.ctx, self.data * float(factor), self.domain)

    def value_at(self, index):
        """Multivector at one lattice index tuple."""
        return Multivector(self.ctx, self.data[(slice(None),) + tuple(index)].copy())

    def boundary_mass_ratio(self):
        """L2 mass of the outermost one-cell shell relative to the total."""
        sq = np.sum(self.data**2, axis=0)
        total = float(np.sum(sq))
        if total == 0.0:
            return 0.0
        inner = sq[(slice(1, -1),) * self.spec.n]
        return float((total - np.sum(inner)) / total)


def sample(fn, spec, ctx=None, domain=SPACE):
    """Evaluate an analytic function on the lattice.

    ``fn`` receives the stacked coordinate array (n, N, ..., N) and returns
    either a scalar-valued spatial array or a full blade-major array.
    """
    if ctx is None:
        ctx = algebra(spec.n)
    values = np.asarray(fn(spec.mesh(domain)), dtype=np.float64)
    if values.shape == spec.shape:
        return GridSignal.from_scalar(spec, ctx, values, domain)
    if values.shape == (ctx.blade_count,) + spec.shape:
        return GridSignal(spec, ctx, values, domain)
    raise GridError("sampled function returned shape %r" % (values.shape,))


def inner_product(f, g):
    """<f, g> = weight * sum_x f(x) * conj(g(x)), a multivector."""
    f._check(g)
    ctx = f.ctx
    m = ctx.blade_count
    fa = f.data.reshape(m, -1)
    ga = g.data.reshape(m, -1)
    gram = fa @ ga.T  # gram[a, b] = sum_x f_a(x) g_b(x)
    weighted = gram * ctx.sign_table * ctx.conj_signs[None, :]
    out = np.zeros(m)
    np.add.at(out, ctx.xor_table, weighted)
    return Multivector(ctx, out * f.spec.cell_weight(f.domain))


def norm_l2(f):
    from .algebra import scalar_part

    return float(np.sqrt(max(scalar_part(inner_product(f, f)), 0.0)))


def rel_l2_error(approx, exact):
    denom = norm_l2(exact)
    if denom == 0.0:
        return norm_l2(approx)
    return norm_l2(approx - exact) / denom


def pointwise_product(f, g):
    """Geometric product applied lattice point by lattice point."""
    f._check(g)
    ctx = f.ctx
    out = np.zeros_like(f.data)
    for a in range(ctx.blade_count):
        for b in range(ctx.blade_count):
            out[a ^ b] += ctx.sign_table[a, b] * f.data[a] * g.data[b]
    return GridSignal(f.spec, ctx, out, f.domain)


def _pair_signs(ctx, ndim):
    """sigma_B = sign(e_{B^F} i_n) for the pair blades B < B^F, broadcastable."""
    half = ctx.blade_count // 2
    return ctx.pseudo_sign[::-1][:half].reshape((half,) + (1,) * (ndim - 1))


def pack(ctx, data):
    """Blade-major real data as 2^(n-1) complex pairs z_B = f_B - j sigma_B f_{B^F}.

    The pair blades are B < B^F, the lower half of the bitmasks; their
    partners B^F = F - B are the upper half in reverse.  Right multiplication
    by a + i_n b is then z (a + j b), because span{1, i_n} is isomorphic to C.
    """
    half = ctx.blade_count // 2
    return data[:half] - 1j * _pair_signs(ctx, data.ndim) * data[::-1][:half]


def unpack(ctx, z, out=None):
    """Inverse of :func:`pack`: f_B = Re z_B and f_{B^F} = -sigma_B Im z_B."""
    half = ctx.blade_count // 2
    if out is None:
        out = np.empty((2 * half,) + z.shape[1:])
    out[:half] = z.real
    out[::-1][:half] = -_pair_signs(ctx, z.ndim) * z.imag
    return out


def right_multiply(f, z):
    """Right-multiply pointwise by the span{1, i_n} field a + i_n b = z.real + i_n z.imag."""
    if f.ctx.pseudoscalar_square != -1:
        raise GridError("span{1, i_n} acts as C only when the pseudoscalar squares to -1")
    return GridSignal(f.spec, f.ctx, unpack(f.ctx, pack(f.ctx, f.data) * z), f.domain)


def phase_multiply(f, phase):
    """Right-multiply by exp(pseudoscalar * phase) pointwise.

    ``phase`` is a real array over the lattice; the result stays exact under
    phase negation because span{1, i_n} is commutative.
    """
    return right_multiply(f, np.exp(1j * phase))


def chirp_multiply(f, rate, sign=+1):
    """f(x) -> f(x) * exp(i_n * sign * rate * |x|^2)."""
    if rate == 0.0:
        return f.copy()
    return phase_multiply(f, float(sign) * rate * f.spec.squared_radius(f.domain))


def plane_wave_multiply(f, u, sign=+1):
    """f(x) -> f(x) * exp(i_n * sign * (x . u))."""
    return phase_multiply(f, float(sign) * f.spec.dot(u, f.domain))
