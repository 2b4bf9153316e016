"""The slice engine's axis-by-axis route, for a radial window with separable
terms (``WindowSpec.separable_terms``: the Gaussian, the DOG and composites
of them), psi(A_u y) = sum_t c_t prod_i g_t(u_i y_i) on the diagonal A_u.

A slice is then a sum over terms of products of 1-D correlations, one per
axis, built from per-axis tables of the 1-D window spectra
(:class:`AxisTables`), so no value of the window is computed on the n-D
lattice.  The CLI's u lists of kind default, multiples and tensor are
tensor products of per-axis values, whose consecutive rows share their
leading values, and the partial transform after axis i serves every row
that shares u_0 .. u_i (:class:`AxisRoute`).
"""

import copy
from itertools import combinations_with_replacement

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grid import SPACE, lattice_steps
from .volume import block_rows

ROLL_TOLERANCE = 1e-13  # in steps of dw; the roll's phase error stays below 1e-12
# up to this many samples per axis, an off-lattice axis value of the
# axis-by-axis route is applied as one dense N x N operator per term, by
# matmul, and above it by 1-D FFTs: timed in-process (CHANGES.md), the dense
# operator is faster at n = 3 up to N = 96, and at n = 2 faster up to N = 32,
# about even at 48 and slower from 56 on
DENSE_AXIS_SAMPLES = 48


def along(table, axis, n):
    """A (..., N) table shaped to multiply arrays (..., P) + b-shape along
    b-axis ``axis`` of n, its leading axes against theirs."""
    return table.reshape(table.shape[:-1] + (1,) * (axis + 1) + (-1,) + (1,) * (n - 1 - axis))


class AxisTables:
    """Per-axis tables of the 1-D window spectra of the u rows ``u_rows``,
    for a window with separable terms ``terms``.

    Per axis i: ``values[i]``, the distinct u_i of the rows, and ``index[:,
    i]``, each row's value among them; ``lattice[i]``, each value's lattice
    class at ROLL_TOLERANCE; ``m[i]`` and ``b[i]``, shape (terms, values,
    N), the 1-D FFTs of g_t(v x) e^{j v x} and of g_t(v x), times dx and, on
    axis 0, the term's coefficient c_t; and on an axis with an off-lattice
    value ``kernels[i]``, shape (terms, values, 2 N), the same g_t(v x) dx
    (c_t) in FFT order, untransformed and twice over (None on an axis of
    lattice values alone).  The window's n-D spectra are sums over terms of
    outer products of these tables (:meth:`spectra`), its admissibility
    terms are summed from them without an n-D spectrum (:meth:`power`), and
    the dense 1-D operators of off-lattice values are built from the
    kernels (:meth:`operators`).  They take 32 n T N bytes per distinct
    value, and 32 T N more on an axis with an off-lattice value."""

    def __init__(self, terms, spec, u_rows):
        self.spec = spec
        self.x = x = spec.axis(SPACE)
        self.index = np.empty(u_rows.shape, dtype=np.intp)
        self.values, self.lattice, self.m, self.b, self.kernels = [], [], [], [], []
        for axis in range(spec.n):
            values, self.index[:, axis] = np.unique(u_rows[:, axis], return_inverse=True)
            arg = values[:, None] * x
            g = np.array([g(arg) for _, g in terms], dtype=np.complex128)  # (terms, values, N)
            if axis == 0:
                g *= np.reshape([c for c, _ in terms], (-1, 1, 1))
            lattice = lattice_steps(values, spec.dw, ROLL_TOLERANCE)[1]
            kernels = None  # only an off-lattice value needs them
            if not lattice.all():
                shifted = np.fft.ifftshift(g, axes=-1)
                kernels = np.concatenate([shifted, shifted], axis=-1) * spec.dx
                # a narrow factor's tails underflow, and subnormal products slow
                # a matmul several-fold: parts below 1e-200 of a peak are zero
                peak = np.max(np.abs(kernels), axis=-1, keepdims=True)
                kernels[np.abs(kernels) < 1e-200 * peak] = 0.0
            self.kernels.append(kernels)
            self.b.append(np.fft.fft(np.fft.ifftshift(g, axes=-1)) * spec.dx)
            g *= np.exp(1j * arg)
            self.m.append(np.fft.fft(np.fft.ifftshift(g, axes=-1)) * spec.dx)
            self.values.append(values)
            self.lattice.append(lattice)

    def block(self, start, stop):
        """These tables, with the index of rows start:stop alone."""
        view = copy.copy(self)
        view.index = self.index[start:stop]
        return view

    def operators(self, axis, j, closing, layout):
        """K_t(v) = diag(closing) F^-1 diag(conj b_t(v)) F diag(e^{-j v x})
        on axis ``axis`` for each value v of the indices j, with its own
        closing (rows of ``closing``):

            K_t(v)[b, x] = closing[b] g_t(v wrap(x - b)) e^{-j v x} dx,

        c_t on axis 0, the periodic correlation with the term's factor
        between a modulation and a closing phase, as one matrix per value
        and term.  Its axes come in the order of ``layout``, a permutation
        of "rtbx": the values, the terms, b and x.  Row b of a correlation
        is a window of the doubled kernel, kernels[t, N - b:2 N - b], so it
        is read in place."""
        kernels = self.kernels[axis][:, j]  # (terms, values, 2 N)
        N = kernels.shape[-1] // 2
        sizes = dict(r=len(j), t=len(kernels), b=N, x=N)
        steps = dict(r=kernels.strides[1], t=kernels.strides[0], b=-kernels.strides[2],
                     x=kernels.strides[2])
        correlation = as_strided(kernels[..., N:], [sizes[a] for a in layout],
                                 [steps[a] for a in layout], writeable=False)
        wave = np.exp(-1j * self.values[axis][j, None] * self.x)
        ops = np.multiply(correlation, wave.reshape([sizes[a] if a in "rx" else 1 for a in layout]),
                          out=np.empty(correlation.shape, dtype=np.complex128))
        ops *= closing.reshape([sizes[a] if a in "rb" else 1 for a in layout])
        return ops

    def spectra(self, rows, modulated):
        """The n-D window spectra of the rows ``rows``, shape (rows, 1) +
        spec.shape: M, the spectra of e^{j u.y} psi(A_u y), if
        ``modulated``, else B, the plain spectra of :func:`window_spectra`.
        Per row the sum over terms of the outer products is a product of
        matrices with the term as the inner axis."""
        tables = self.m if modulated else self.b
        index = self.index[rows]
        count, terms = len(index), len(tables[0])
        acc = np.moveaxis(tables[0][:, index[:, 0]], 0, -1)  # (rows, N, terms)
        for axis in range(1, self.spec.n - 1):
            factor = np.moveaxis(tables[axis][:, index[:, axis]], 0, -1)
            acc = (acc[:, :, None] * factor[:, None]).reshape(count, -1, terms)
        last = np.moveaxis(tables[-1][:, index[:, -1]], 0, 1)  # (rows, terms, N)
        return (acc @ last).reshape((count, 1) + self.spec.shape)

    def power(self, weights):
        """sum_r weights[r] |M_r|^2 over the rows r, shape spec.shape, as
        sum_{t,s} sum_r weights[r] (x)_i m_{t,i} conj(m_{s,i}).  Per pair of
        terms and block of rows, the last axis's factors are weighted and
        summed over each run of rows that share their other values; then
        each earlier axis's factor multiplies those sums, and the rows that
        share the values before it are summed, and so on up to axis 0.
        There each leading value's sum is expanded by its axis-0 factor
        into the block's n-D sum, one value after another, in the order of
        a sum over the values: a block holds that sum and one product, not
        two n-D arrays per leading value.  The pairs (t, s) and (s, t) are
        conjugate, so each unordered pair is taken once, twice weighted, by
        its real part; a term with itself, |m_t|^2, is real, and its n-D
        products are taken in real arithmetic."""
        n, N = self.spec.n, self.spec.samples_per_axis
        step = block_rows(16 * self.spec.point_count)
        power = np.zeros((N, self.spec.point_count // N))
        for t, s in combinations_with_replacement(range(len(self.m[0])), 2):
            pair = [m[t] * m[s].conj() for m in self.m]  # (values, N) per axis
            for start in range(0, len(self.index), step):
                index = self.index[start:start + step]
                acc = pair[-1][index[:, -1]] * weights[start:start + step, None] * (2 - (t == s))
                for axis in range(n - 2, -1, -1):
                    runs = np.ones(len(index), dtype=bool)
                    runs[1:] = np.any(index[1:, :axis + 1] != index[:-1, :axis + 1], axis=1)
                    starts = np.flatnonzero(runs)
                    acc, index = np.add.reduceat(acc, starts), index[starts]
                    factor = pair[axis][index[:, axis]]
                    if axis > 0:
                        acc = (factor[:, :, None] * acc[:, None]).reshape(len(index), -1)
                if t == s:  # |m_t|^2 and its products are real
                    factor, acc = factor.real, acc.real
                # axis 0's factor of each leading value, expanded in turn
                block = np.multiply.outer(factor[0], acc[0])  # (N, N^(n-1))
                for r in range(1, len(factor)):
                    block += np.multiply.outer(factor[r], acc[r])
                power += block.real
        return power.reshape(self.spec.shape)


class AxisRoute:
    """The factored rows of a :class:`~clcst.stockwell.Plan`, closed with
    the chirp e^{-j rate |b|^2}, one axis at a time in either direction:
    their slices of the pairs z (:meth:`slices`), and the adjoint that the
    resolution synthesis sums over their weighted slices (:meth:`add`,
    :meth:`total`).  A slice is

        S_u = |det A_u| (2 pi)^(-n/2) sum_t O_{t,n-1}(u_{n-1}) ... O_{t,0}(u_0) z,

    where O_{t,i}(v) acts on b-axis i alone and is diag(post) F^-1 diag(d) F
    diag(pre) (:meth:`_factors`).  For a lattice value v, pre = 1, d =
    conj(m_{t,i}(v)) and post = e^{-j (v b_i + rate b_i^2)}: the frequency
    shift of the fast S-transform (Stockwell, Mansinha and Lowe, 1996) one
    axis at a time, which holds because psi(A_u y) is a sum of products of
    1-D factors.  Off it, pre = e^{-j v x_i}, d = conj(b_{t,i}(v)) and post
    = e^{-j rate b_i^2}.  The adjoint O^H = diag(conj pre) F^-1 diag(conj d)
    F diag(conj post) swaps and conjugates the same factors.  Up to
    DENSE_AXIS_SAMPLES samples per axis an off-lattice O is one N x N matrix
    per term, K_t(v) of :meth:`AxisTables.operators`, and O^H its conjugate
    transpose (:meth:`_operators`), each applied by matmul.

    Operators on different axes commute, so the rows that share u_0 ..
    u_{i-1} share what lies beyond axis i - 1, and both directions walk the
    runs alike (:meth:`_walk`).  The analysis keeps the partial after each
    axis of the last row's leading values, one per term, for the rows after
    it, in its block or the next, and shares its spectrum among them.  A
    run's rows sum their terms in the spectrum before one inverse FFT for
    the run; a dense row is the last partial, its terms stacked beside its
    last axis, times the row's operators, stacked alike and scaled by |det
    A_u| (2 pi)^(-n/2).  The synthesis opens and transforms a run's rows by
    one FFT call, sums the lattice rows' terms in that spectrum and adds the
    others' in space; a span of dense rows goes side by side against their
    adjoints, in one matmul that sums over the rows and b.  Once its rows
    are all in, each sum takes O^H of the next axis outward into the sum of
    the rows that share one value fewer, so each node's sum is inverted
    once, axis 0's in :meth:`total`.  The operators of a span of dense rows
    are built together, at most BLOCK_BYTES / 8 of them."""

    def __init__(self, plan, rate, z=None):
        self.plan, self.tables, self.n = plan, plan.tables, plan.spec.n
        x = plan.spec.axis(SPACE)
        self.pre, self.d, self.post = [], [], []  # per axis and value: :meth:`_factors`
        for values, lattice, m, b in zip(self.tables.values, self.tables.lattice,
                                         self.tables.m, self.tables.b):
            self.pre.append(np.exp(-1j * np.where(lattice, 0.0, values)[:, None] * x))
            self.d.append(np.where(lattice[:, None], m, b).conj())
            phases = np.exp(1j * (np.where(lattice, values, 0.0)[:, None] * x + rate * x**2))
            self.post.append(phases.conj())
        self.scale = plan.det * (2.0 * np.pi) ** (-self.n / 2.0)
        self.dense = plan.spec.samples_per_axis <= DENSE_AXIS_SAMPLES
        self.keys = []  # keys[i]: the value index on axis i of the run being walked
        # the analysis: nodes[i], the partial after axes 0 .. i - 1, and
        # spectra[i], its FFT along axis i once needed
        self.nodes, self.spectra = [None if z is None else z[None]], [None]
        # the synthesis: per depth i, the terms' sums of what O^H of axis i
        # added, in the spectrum along axis i from lattice values and in
        # space from the others
        self.sums = [[None, None] for _ in range(self.n)]

    def _factors(self, axis, j):
        """pre, d and post of O_{t,axis}(v) for the value v of index j, or
        for each of an array of indices: shapes N, (terms, N) and N, after
        the indices' shape."""
        return self.pre[axis][j], self.d[axis][:, j], self.post[axis][j]

    def _operators(self, axis, j, weights, layout, adjoint=False):
        """weights[r] K_t(v_r) for the values v_r of the indices j, axes in
        the order of ``layout`` (:meth:`AxisTables.operators`), or with
        ``adjoint`` their conjugates: in a layout with b and x swapped, the
        matrices weights[r] K_t(v_r)^H."""
        ops = self.tables.operators(axis, j, self.post[axis][j] * weights[:, None], layout)
        return np.conjugate(ops, out=ops) if adjoint else ops

    def _dense(self, axis, j):
        """Which of the values of the indices j take a dense operator."""
        lattice = self.tables.lattice[axis][j]
        return ~lattice if self.dense else np.zeros_like(lattice)

    def _walk(self, start, stop, index, leave, enter):
        """(first, end, j) for each run of the rows start:stop, whose value
        indices are ``index``: the run's rows in the block and their indices
        on the last axis.  Before a run, ``leave(axis)`` is called for each
        axis whose value changes, innermost first, and then ``enter(axis)``
        for each new value, outermost first, once ``keys`` holds it."""
        last = self.n - 1
        bounds = [0, *(1 + np.flatnonzero(self.plan.run_starts[start + 1:stop])), stop - start]
        for first, end in zip(bounds[:-1], bounds[1:]):
            key, keep = index[first, :last], 0
            while keep < len(self.keys) and self.keys[keep] == key[keep]:
                keep += 1
            for axis in range(len(self.keys) - 1, keep - 1, -1):
                leave(axis)
            del self.keys[keep:]
            for axis in range(keep, last):
                self.keys.append(key[axis])
                enter(axis)
            yield first, end, index[first:end, last]

    def _opened(self, axis, lattice, pre):
        """F diag(pre) nodes[axis] along b-axis ``axis``; for a lattice value,
        where pre = 1, the node's spectrum, taken once for every value."""
        if not lattice:
            opened = self.nodes[axis] * along(pre, axis, self.n)
            return np.fft.fft(opened, axis=axis - self.n, out=opened)
        if self.spectra[axis] is None:
            self.spectra[axis] = np.fft.fft(self.nodes[axis], axis=axis - self.n)
        return self.spectra[axis]

    def _leave(self, axis):
        del self.nodes[-1], self.spectra[-1]

    def _enter(self, axis):
        """nodes[axis + 1] = O_{t,axis}(v) nodes[axis] for every term t, v
        the value keys[axis]."""
        n, j = self.n, self.keys[axis]
        if self._dense(axis, j):
            ops = self._operators(axis, [j], np.ones(1), "rtbx")[0]
            out = _apply_along(ops, self.nodes[axis], axis)
        else:
            pre, d, post = self._factors(axis, j)
            out = self._opened(axis, self.tables.lattice[axis][j], pre) * along(d, axis, n)
            np.fft.ifft(out, axis=axis - n, out=out)
            out *= along(post, axis, n)
        self.nodes.append(out)
        self.spectra.append(None)

    def slices(self, start, stop, tables, B, out):
        """Write the slices of the factored u rows start:stop, whose index
        in the plan's tables ``tables`` holds (:meth:`AxisTables.block`),
        into ``out``, shape (rows, 1, P) + b-shape.  B is empty."""
        n, N, out = self.n, self.plan.spec.samples_per_axis, out[:, 0]
        last = n - 1
        # a span of dense rows takes one call, its operators at most BLOCK_BYTES / 8
        span = block_rows(8 * 16 * len(self.plan.terms) * N**2)
        for first, end, j in self._walk(start, stop, tables.index, self._leave, self._enter):
            rows, scale = out[first:end], self.scale[start + first:start + end]
            dense = self._dense(last, j)
            if dense.any():  # the last partial, its terms beside its last axis
                node = self.nodes[-1]
                stacked = np.moveaxis(node.reshape(len(node), -1, N), 0, 1)
                stacked = stacked.reshape(-1, len(node) * N)
                for lo, hi in _spans(dense, span):
                    # per row, that partial times the row's operators, stacked alike
                    ops = self._operators(last, j[lo:hi], scale[lo:hi], "rtxb")
                    np.matmul(stacked, ops.reshape(hi - lo, -1, N),
                              out=rows[lo:hi].reshape(hi - lo, -1, N))
            summed = np.flatnonzero(~dense)  # the rows whose terms are summed in a spectrum
            if not len(summed):
                continue
            part = rows
            if len(summed) < len(rows):
                part = np.empty((len(summed),) + rows.shape[1:], dtype=rows.dtype)
            # the terms are summed row by row, beside a temporary of one row
            pre, d, post = self._factors(last, j[summed])
            lattice = self.tables.lattice[last][j[summed]]
            for i, row in enumerate(part):
                _sum_terms(self._opened(last, lattice[i], pre[i]), d[:, i], last, n, row)
            np.fft.ifft(part, axis=-1, out=part)
            part *= along(post * scale[summed, None], last, n)
            if part is not rows:
                rows[summed] = part

    def _buffer(self, depth, part, like):
        """The terms' sum ``part`` at depth ``depth``, zeros until first used."""
        sums = self.sums[depth]
        if sums[part] is None:
            shape = (len(self.plan.terms),) + like.shape[-self.n - 1:]
            sums[part] = np.zeros(shape, dtype=np.complex128)
        return sums[part]

    def _sum(self, depth):
        """The terms' sums at depth ``depth``, in space, which are then reset."""
        spectrum, space = self.sums[depth]
        self.sums[depth] = [None, None]
        if spectrum is None:
            return space
        np.fft.ifft(spectrum, axis=depth - self.n, out=spectrum)
        return spectrum if space is None else spectrum + space

    def _add(self, axis, rows, j, weights):
        """Add sum_r weights[r] O_{t,axis}(v_r)^H rows[r] for every term t,
        rows of shape (rows, 1 or terms, P) + b-shape and v_r the values of
        the indices j, to the sums of depth ``axis``: the rows opened and
        transformed in place, by one FFT call, a lattice row's terms summed
        in that spectrum, any other's inverted and added in space.  The
        rows are spent."""
        n, lattice = self.n, self.tables.lattice[axis][j]
        pre, d, post = self._factors(axis, j)
        spectra = rows
        spectra *= along(post.conj() * weights[:, None], axis, n)[:, None]
        np.fft.fft(spectra, axis=axis - n, out=spectra)
        for i in np.flatnonzero(~lattice):
            term = spectra[i] * along(d[:, i].conj(), axis, n)
            np.fft.ifft(term, axis=axis - n, out=term)
            term *= along(pre[i].conj(), axis, n)
            self._buffer(axis, 1, term)[...] += term
        if lattice.any():
            if not lattice.all():
                spectra, d = spectra[lattice], d[:, lattice]
            sums = self._buffer(axis, 0, spectra[0])
            for t, table in enumerate(d.conj()):
                part = spectra[:, t % spectra.shape[1]]  # a row of one term serves every term
                out = part if t == len(d) - 1 else None  # the last term's product in place
                sums[t] += np.sum(np.multiply(part, along(table, axis, n), out=out), axis=0)

    def _close(self, axis):
        """Take the complete sum of depth axis + 1 through O^H of ``axis``,
        for the value keys[axis], into the sums of depth ``axis``."""
        j, summed = self.keys[axis], self._sum(axis + 1)
        if self._dense(axis, j):
            adjoints = self._operators(axis, [j], np.ones(1), "rtxb", adjoint=True)[0]
            self._buffer(axis, 1, summed)[...] += _apply_along(adjoints, summed, axis)
        else:
            self._add(axis, summed[None], [j], np.ones(1))

    def add(self, start, stop, tables, B, slices, weights):
        """Add the adjoints of the factored u rows start:stop, whose index
        in the plan's tables ``tables`` holds (:meth:`AxisTables.block`), to
        the sum: ``slices``, shape (rows, 1, P) + b-shape, and their
        synthesis ``weights``.  B is empty.  The slices are weighted and
        transformed in place, so they are spent: the caller hands over rows
        of its own, not a view of a volume's payload."""
        N, last, slices = self.plan.spec.samples_per_axis, self.n - 1, slices[:, 0]
        # a span of dense rows takes one call, its copy of the rows and its
        # adjoints at most BLOCK_BYTES / 8
        span = block_rows(8 * 16 * (slices[0].size + len(self.plan.terms) * N**2))
        for first, end, j in self._walk(start, stop, tables.index, self._close, lambda axis: None):
            rows, w = slices[first:end], weights[first:end]
            dense = self._dense(last, j)
            if dense.any():
                for lo, hi in _spans(dense, span):
                    # the rows side by side against their adjoints stacked
                    # alike, summed over the rows and b by the contraction
                    stacked = np.moveaxis(rows[lo:hi].reshape(hi - lo, -1, N), 0, 1)
                    stacked = stacked.reshape(-1, (hi - lo) * N)
                    adjoints = self._operators(last, j[lo:hi], w[lo:hi], "rbtx", adjoint=True)
                    summed = np.matmul(stacked, adjoints.reshape((hi - lo) * N, -1))
                    space = self._buffer(last, 1, rows)
                    summed = summed.reshape(-1, len(space), N)
                    space.reshape(len(space), -1, N)[...] += np.moveaxis(summed, 1, 0)
                if dense.all():
                    continue
                rows, w, j = rows[~dense], w[~dense], j[~dense]
            self._add(last, rows[:, None], j, w)

    def total(self):
        """The sum over every row added, in space, shape (P,) + b-shape."""
        for axis in range(len(self.keys) - 1, -1, -1):
            self._close(axis)
        self.keys = []
        return np.sum(self._sum(0), axis=0)


def _sum_terms(spectra, tables, axis, n, out):
    """out = sum_t spectra[t] tables[t] along b-axis ``axis``, tables of shape
    (terms, N)."""
    np.multiply(spectra[0], along(tables[0], axis, n), out=out)
    for t in range(1, len(tables)):
        out += spectra[t] * along(tables[t], axis, n)


def _spans(mask, size):
    """(start, stop) of each run of True in ``mask``, cut into spans of at
    most ``size`` entries."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(np.int8), [0]])))
    for start, stop in zip(edges[0::2], edges[1::2]):
        for first in range(start, stop, size):
            yield first, min(first + size, stop)


def _apply_along(ops, array, axis):
    """sum_x ops[t, b, x] array[t, ..., x, ...] along b-axis ``axis``, not
    the last, for ops of shape (terms, N, N) and an array of shape (terms or
    1, P) + b-shape: shape (terms, P) + b-shape, in one matmul."""
    shape = array.shape
    N = shape[-1]
    out = np.matmul(ops[:, None, None], array.reshape(shape[:2] + (N**axis, N, -1)))
    return out.reshape((len(ops),) + shape[1:])

