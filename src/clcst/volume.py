"""Transform volumes: multivector values indexed by (u, theta, b-lattice).

The stored quadrature weights make every reconstruction and admissibility
sum use exactly the same discrete measure as the analysis that produced the
volume, which is what the inversion identities rely on.
"""

import numpy as np

from .grid import SPACE, GridError, GridSignal, unpack
from .windows import window_angles


def default_u_list(spec):
    """Tensor grid over +-{dw, 2 dw, ..., (N/4) dw} per axis, zero excluded."""
    pos = spec.dw * np.arange(1, spec.samples_per_axis // 4 + 1)
    return tensor_u_list([np.concatenate([-pos[::-1], pos])] * spec.n)


def tensor_u_list(per_axis_values):
    """Cartesian product of per-axis u values into an (U, n) array."""
    axes = [np.asarray(a, dtype=np.float64) for a in per_axis_values]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def u_weights_from_list(u_list):
    """Per-point weights as the product of local per-axis spacings.

    For tensor grids this reproduces spacing^n; scattered lists fall back to
    the median spacing of the sorted distinct values per axis.  The gaps
    between distinct values are the nonzero gaps of the sorted values, and
    their median is the mean of the two middle sorted gaps, the same bits as
    ``np.median``; neither ``np.unique`` nor ``np.median`` is called, because
    both import numpy.ma.
    """
    u_list = np.asarray(u_list, dtype=np.float64)
    n = u_list.shape[1]
    per_axis_spacing = []
    for axis in range(n):
        gaps = np.diff(np.sort(u_list[:, axis]))
        gaps = np.sort(gaps[gaps != 0.0])
        k = len(gaps)
        spacing = 0.5 * (gaps[(k - 1) // 2] + gaps[k // 2]) if k else 1.0
        per_axis_spacing.append(spacing)
    return np.full(len(u_list), float(np.prod(per_axis_spacing)))


DEFAULT_THETAS = (0.0, np.pi / 4, np.pi / 2)
BLOCK_BYTES = 4 << 20  # bound on the u rows of one block held at a time
MEMORY_BYTES = 1 << 30  # bound on a payload held in memory; a larger one goes to a sink


def block_rows(bytes_per_u):
    """u rows per block: about BLOCK_BYTES of per-u data, and at least one."""
    return max(1, BLOCK_BYTES // max(int(bytes_per_u), 1))


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


def checked_pairs(ctx, pairs=None):
    """pairs as an index array, by default every one of the 2^(n-1); pairs
    that are not distinct sorted integers in [0, 2^(n-1)) raise GridError."""
    half = ctx.blade_count // 2
    pairs = np.arange(half) if pairs is None else np.asarray(pairs)
    if (pairs.dtype.kind not in "iu" or pairs.ndim != 1 or pairs.size == 0
            or np.any(pairs < 0) or np.any(pairs >= half) or np.any(np.diff(pairs) <= 0)):
        raise GridError("pairs %r are not distinct integers, sorted, in [0, %d)"
                        % (pairs.tolist(), half))
    return pairs


class CLCSTVolume:
    """Slices stored slice-major as the engine computes them: ``stored`` is
    complex, of shape (U, T_s, P) + b-grid shape, so each (u, column) slice
    is one contiguous run of P complex pairs (:func:`~clcst.grid.pack`).

    ``pairs`` names the P stored pairs, in increasing order: by default all
    2^(n-1) of them, and for a transform the signal's live pairs
    (:func:`~clcst.grid.live_pairs`), the others being zero everywhere.
    T_s is the number of :func:`~clcst.windows.window_angles` of the window:
    1 for a radial window, whose one column serves every theta, and T
    otherwise or when the window is unknown.  Blades are unpacked from the
    pairs only for ``values`` and :meth:`signal`.

    The payload is given in one of three ways:

    * the ``stored`` array itself;
    * a reader with that array's ``shape``, ``rows(start, stop, column)``
      and ``load()``, as for a volume file (:func:`~clcst.io.read_volume`): the
      rows stay in the file until ``stored`` loads them, once;
    * None, for a volume that holds no payload until :meth:`allocate`, as
      when its u-blocks went to a sink while they were computed.

    :meth:`rows` reads a block of u rows, of one stored column or all,
    without loading the rest.
    """

    def __init__(self, spec, ctx, u_list, theta_list, stored=None, params=None,
                 window=None, path="unset", u_weights=None, pairs=None):
        self.spec = spec
        self.ctx = ctx
        self.u_list = np.asarray(u_list, dtype=np.float64).reshape(-1, spec.n)
        self.theta_list = np.asarray(theta_list, dtype=np.float64).ravel()
        self.pairs = checked_pairs(ctx, pairs)
        columns = len(window_angles(window, self.theta_list))
        expected = (len(self.u_list), columns, len(self.pairs)) + spec.shape
        self._reader = None
        if stored is None:
            shape = expected
        elif hasattr(stored, "rows"):
            self._reader, stored = stored, None
            shape = tuple(self._reader.shape)
        else:
            stored = np.asarray(stored, dtype=np.complex128)
            shape = stored.shape
        if shape != expected:
            raise GridError("stored volume shape %r, expected %r: the window's %d theta columns "
                            "and %d pairs" % (shape, expected, columns, len(self.pairs)))
        self.stored_shape = shape
        self._stored = stored
        self.params = params
        self.window = window
        self.path = path
        if u_weights is None:
            u_weights = u_weights_from_list(self.u_list)
        self.u_weights = np.asarray(u_weights, dtype=np.float64)
        self.theta_step = theta_weight(self.theta_list)
        # (profile, stats) of the windows of the analysis pass that filled
        # the volume, the profile one real array on the centered frequency
        # lattice (stockwell.Plan.profile); None when it was built
        # otherwise, e.g. read back
        self.admissibility = None

    @property
    def stored(self):
        """The whole payload as one array, loaded from the reader on first use."""
        if self._stored is None:
            if self._reader is None:
                raise GridError("the volume holds no payload: its u-blocks went to a sink")
            self._stored = self._reader.load()
        return self._stored

    def allocate(self):
        """Hold a payload of zeros in memory, for slices to be set into; one
        above MEMORY_BYTES is refused before it is allocated."""
        size = 16 * int(np.prod(self.stored_shape, dtype=np.float64))
        if size > MEMORY_BYTES:
            raise GridError("a volume of %d bytes is more than the %d that are held in memory; "
                            "stream its u-blocks to a file instead (sink=)" % (size, MEMORY_BYTES))
        self._stored = np.zeros(self.stored_shape, dtype=np.complex128)

    def rows(self, start, stop, column=None, out=None):
        """stored[start:stop], or with ``column`` stored[start:stop,
        column:column + 1]: a view of a payload in memory, or else those u
        rows, of one column or all, read into one buffer that the next call
        reuses, so that a caller going block by block holds one block of
        the payload.

        With ``out``, a little-endian complex array of their shape, the
        rows are copied or read into it and it is returned: rows that the
        caller may overwrite, whether the payload is in memory or in a
        file."""
        if self._stored is None and self._reader is not None:
            return self._reader.rows(start, stop, column, out)
        columns = slice(None) if column is None else slice(column, column + 1)
        if out is None:
            return self.stored[start:stop, columns]
        np.copyto(out, self.stored[start:stop, columns])
        return out

    def blocks(self, column=None, rows=None):
        """(start, stop, :meth:`rows`) for consecutive blocks of ``rows`` u
        rows, by default about BLOCK_BYTES of them, of one stored column or
        all."""
        shape = self.stored_shape[1:] if column is None else self.stored_shape[2:]
        step = rows or block_rows(16 * np.prod(shape))
        for start in range(0, self.u_count, step):
            stop = min(start + step, self.u_count)
            yield start, stop, self.rows(start, stop, column)

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
        return self.stored_shape[1]

    def column(self, ti):
        """The stored column that holds theta index ti."""
        return ti if self.stored_theta_columns == self.theta_count else 0

    def _blades(self, rows):
        """The blades of stored u rows, in the order (blade, u, column) + b."""
        return unpack(self.ctx, np.moveaxis(rows, 2, 0), pairs=self.pairs)

    def signal(self, z, domain=SPACE):
        """The lattice signal of complex pairs z, one per stored pair, all
        other pairs zero: a slice, or a reconstruction from the volume."""
        return GridSignal(self.spec, self.ctx, unpack(self.ctx, z, pairs=self.pairs), domain)

    @property
    def values(self):
        """(blade_count,) + b-grid shape + (U, T), read-only, unpacked from
        ``stored`` on each call."""
        view = np.moveaxis(self._blades(self.stored), (1, 2), (-2, -1))
        return np.broadcast_to(view, view.shape[:-1] + (self.theta_count,))

    def slice(self, ui, ti):
        """The b-grid signal at one (u, theta) pair."""
        ui = range(self.u_count)[ui]  # a negative index counts from the end
        return self.signal(self.rows(ui, ui + 1, self.column(ti))[0, 0])

    def set_slice(self, ui, ti, pairs):
        """stored[ui, ti] = pairs: the stored pairs of the u rows and stored
        columns ``ui`` and ``ti``, as indices or slices."""
        self.stored[ui, ti] = pairs

    def rel_max_difference(self, other):
        """max |S - S'| / max(|S|, |S'|) over every (b, u, theta); 0 for two
        zero volumes.  A shared column broadcasts against T columns.

        Read block by block (:meth:`blocks`), each block unpacked into its
        blades.
        """
        if self.u_count != other.u_count:
            raise GridError("volumes of %d and %d u rows" % (self.u_count, other.u_count))
        scale = difference = 0.0
        for start, stop, rows in self.blocks():
            a, b = self._blades(rows), other._blades(other.rows(start, stop))
            scale = max(scale, np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
            difference = max(difference, np.max(np.abs(a - b), initial=0.0))
        if scale == 0.0:
            return 0.0
        return float(difference) / scale
