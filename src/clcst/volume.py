"""Transform volumes: multivector values indexed by (b-lattice, u, theta).

The stored quadrature weights make every reconstruction and admissibility
sum use exactly the same discrete measure as the analysis that produced the
volume, which is what the inversion identities rely on.
"""

import numpy as np

from .grid import SPACE, GridError, GridSignal, unpack


def default_u_list(spec, max_multiple=None):
    """Tensor grid over +-{dw, 2 dw, ..., (N/4) dw} per axis, zero excluded."""
    if max_multiple is None:
        max_multiple = spec.samples_per_axis // 4
    dw = spec.dw
    pos = dw * np.arange(1, max_multiple + 1)
    axis = np.concatenate([-pos[::-1], pos])
    grids = np.meshgrid(*([axis] * spec.n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def tensor_u_list(per_axis_values):
    """Cartesian product of per-axis u values into an (U, n) array."""
    axes = [np.asarray(a, dtype=np.float64) for a in per_axis_values]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def u_weights_from_list(u_list):
    """Per-point weights as the product of local per-axis spacings.

    For tensor grids this reproduces spacing^n; scattered lists fall back to
    the median spacing of the sorted distinct values per axis.
    """
    u_list = np.asarray(u_list, dtype=np.float64)
    n = u_list.shape[1]
    per_axis_spacing = []
    for axis in range(n):
        vals = np.unique(u_list[:, axis])
        if len(vals) > 1:
            spacing = np.median(np.diff(vals))
        else:
            spacing = 1.0
        per_axis_spacing.append(spacing)
    return np.full(len(u_list), float(np.prod(per_axis_spacing)))


DEFAULT_THETAS = (0.0, np.pi / 4, np.pi / 2)


def theta_weight(theta_list):
    """pi / (2 (T - 1)) for the default-style list; 1.0 for a singleton.

    Any common positive factor cancels between the admissibility constant
    and the reconstruction weights, so the singleton convention is safe.
    """
    t = len(theta_list)
    if t < 1:
        raise GridError("theta_list must not be empty")
    if t == 1:
        return 1.0
    return np.pi / (2.0 * (t - 1))


class CLCSTVolume:
    """values shape: (blade_count,) + b-grid shape + (U, T)."""

    def __init__(self, spec, ctx, u_list, theta_list, values=None, params=None,
                 window=None, path="unset", u_weights=None):
        self.spec = spec
        self.ctx = ctx
        self.u_list = np.asarray(u_list, dtype=np.float64).reshape(-1, spec.n)
        self.theta_list = np.asarray(theta_list, dtype=np.float64).ravel()
        shape = (ctx.blade_count,) + spec.shape + (len(self.u_list), len(self.theta_list))
        if values is None:
            values = np.zeros(shape)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != shape:
            raise GridError("volume values shape %r, expected %r" % (values.shape, shape))
        self.values = values
        self.params = params
        self.window = window
        self.path = path
        if u_weights is None:
            u_weights = u_weights_from_list(self.u_list)
        self.u_weights = np.asarray(u_weights, dtype=np.float64)
        self.theta_step = theta_weight(self.theta_list)

    @property
    def b_weight(self):
        return self.spec.cell_weight(SPACE)

    @property
    def u_count(self):
        return len(self.u_list)

    @property
    def theta_count(self):
        return len(self.theta_list)

    def slice(self, ui, ti):
        """The b-grid signal at one (u, theta) pair."""
        return GridSignal(self.spec, self.ctx, self.values[..., ui, ti].copy(), SPACE)

    def set_slice(self, ui, ti, pairs):
        """Unpack one slice's complex pairs (:func:`~clcst.grid.pack`) in place."""
        if pairs.shape != (self.ctx.blade_count // 2,) + self.spec.shape:
            raise GridError("slice pairs of shape %r do not match the volume" % (pairs.shape,))
        unpack(self.ctx, pairs, out=self.values[..., ui, ti])

    def iter_indices(self):
        for ui in range(self.u_count):
            for ti in range(self.theta_count):
                yield ui, ti

    def max_abs(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def rel_max_difference(self, other):
        scale = max(self.max_abs(), other.max_abs())
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.values - other.values))) / scale
