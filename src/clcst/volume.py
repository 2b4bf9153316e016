"""Transform volumes: multivector values indexed by (u, theta, b-lattice).

The stored quadrature weights make every reconstruction and admissibility
sum use exactly the same discrete measure as the analysis that produced the
volume, which is what the inversion identities rely on.
"""

import numpy as np

from .grid import SPACE, GridError, GridSignal, unpack
from .windows import window_angles


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
    """Slices stored slice-major: ``stored`` has shape (U, T_s, blade_count) +
    b-grid shape, so each (u, column) slice is one contiguous run.

    T_s is the number of :func:`~clcst.windows.window_angles` of the window:
    1 for a radial window, whose one column serves every theta, and T
    otherwise or when the window is unknown.  A given ``stored`` array may
    also hold all T columns.  ``values`` views it in the order
    (blade_count,) + b-grid shape + (U, T), read-only and without a copy.
    """

    def __init__(self, spec, ctx, u_list, theta_list, stored=None, params=None,
                 window=None, path="unset", u_weights=None):
        self.spec = spec
        self.ctx = ctx
        self.u_list = np.asarray(u_list, dtype=np.float64).reshape(-1, spec.n)
        self.theta_list = np.asarray(theta_list, dtype=np.float64).ravel()
        columns = len(window_angles(window, self.theta_list))
        if stored is None:
            stored = np.zeros((len(self.u_list), columns, ctx.blade_count) + spec.shape)
        stored = np.asarray(stored, dtype=np.float64)
        allowed = {(len(self.u_list), c, ctx.blade_count) + spec.shape
                   for c in (columns, len(self.theta_list))}
        if stored.shape not in allowed:
            raise GridError("stored volume shape %r, expected one of %r"
                            % (stored.shape, sorted(allowed)))
        self.stored = stored
        self.params = params
        self.window = window
        self.path = path
        if u_weights is None:
            u_weights = u_weights_from_list(self.u_list)
        self.u_weights = np.asarray(u_weights, dtype=np.float64)
        self.theta_step = theta_weight(self.theta_list)
        # (profile signal, stats) of the windows of the analysis pass that
        # filled the volume; None when it was built otherwise, e.g. read back
        self.admissibility = None

    @property
    def b_weight(self):
        return self.spec.cell_weight(SPACE)

    @property
    def u_count(self):
        return len(self.u_list)

    @property
    def theta_count(self):
        return len(self.theta_list)

    @property
    def stored_theta_columns(self):
        """T_s: 1 when one column serves every theta, else T."""
        return self.stored.shape[1]

    def column(self, ti):
        """The stored column that holds theta index ti."""
        return ti if self.stored_theta_columns == self.theta_count else 0

    @property
    def values(self):
        """(blade_count,) + b-grid shape + (U, T), a read-only view of ``stored``."""
        view = np.moveaxis(self.stored, (0, 1), (-2, -1))
        return np.broadcast_to(view, view.shape[:-1] + (self.theta_count,))

    def slice(self, ui, ti):
        """The b-grid signal at one (u, theta) pair."""
        return GridSignal(self.spec, self.ctx, self.stored[ui, self.column(ti)].copy(), SPACE)

    def set_slice(self, ui, ti, pairs):
        """Unpack complex pairs (:func:`~clcst.grid.pack`) into stored[ui, ti].

        ``ui`` indexes u rows and ``ti`` stored columns, as indices or
        slices; ``pairs`` has the shape of that selection with the pair axis
        in place of the blade axis, e.g. (rows, T_s, pairs) + b-shape for a
        block of u rows.
        """
        out = self.stored[ui, ti]
        axis = out.ndim - self.spec.n - 1
        if pairs.shape != out.shape[:axis] + (self.ctx.blade_count // 2,) + self.spec.shape:
            raise GridError("slice pairs of shape %r do not match the volume" % (pairs.shape,))
        unpack(self.ctx, np.moveaxis(pairs, axis, 0), out=np.moveaxis(out, axis, 0))

    def rel_max_difference(self, other):
        """max |S - S'| / max(|S|, |S'|) over every (b, u, theta); 0 for two
        zero volumes.  A shared column broadcasts against T columns."""
        a, b = self.stored, other.stored
        scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(a - b))) / scale
