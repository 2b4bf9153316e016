"""Clifford-valued Stockwell transform: scaled, rotated windows on the lattice.

The analysis window family is

    psi^theta_{b,u}(x) = |det A_u| exp(i_n x.u) psi(R_{-theta} A_u (x - b)),

with A_u = diag(u), every u_i nonzero, and R_{-theta} the proper planar
rotation acting on axes (1, 2).  Over the whole b-grid a (u, theta) slice is
one periodic correlation of the modulated complex pairs
(:func:`~clcst.grid.pack`) with the window.  With the window spectrum

    B_{u,theta} = fftn(ifftshift(psi(R_{-theta} A_u y))) dx^n

that is ifftn(fftn(z e^{-j x.u}) conj(B)).  The frequency shift of the fast
S-transform (Stockwell, Mansinha and Lowe, 1996) is applied to the window,
not to the signal: the modulated window's spectrum

    M_{u,theta} = fftn(ifftshift(e^{j u.y} psi(R_{-theta} A_u y))) dx^n

is roll(B, k) for a lattice u = k dw, and there

    ifftn(fftn(z e^{-j x.u}) conj(B)) = e^{-j u.b} ifftn(fftn(z) conj(M)).

On that n-D route the slice engine (:func:`fill_volume`) takes fftn(z) once
per volume, writes the slice spectra of a whole block of u rows and inverts
them with one in-place ifftn.  e^{-j u.b}, like every other per-u phase and
scale, is a product of 1-D factors, one per axis, and is applied to the
whole block at once (:func:`axis_phase_multiply`).  Only an off-lattice u
is modulated and transformed explicitly, once per u, against its plain
spectrum B.  |M|^2 is also each window's admissibility term, so the profile
needs no roll per u.

One :class:`Plan` per (u, theta) set is the one place that classifies and
weighs the u rows, so the analysis (:func:`fill_volume`), the admissibility
profile and the resolution synthesis share one discrete measure and one
notion of "u on the lattice".

A radial window (``WindowSpec.radial``, as the Gaussian and the DOG are)
satisfies psi(R_{-theta} A_u y) = psi(A_u y), so every theta of a u has the
same window, spectrum and slice: the engine computes one slice per u and
stores it once, in the volume's one theta column that serves every theta.

A radial window with separable terms (``WindowSpec.separable_terms``: the
Gaussian, the DOG and composites of them) is a sum of products of 1-D
factors on the diagonal A_u, psi(A_u y) = sum_t c_t prod_i g_t(u_i y_i).
So a slice is a sum over terms of products of 1-D correlations, one per
axis, and the engine works from per-axis tables (:class:`AxisTables`) of
the 1-D window spectra

    m_{t,i}(v) = fft(ifftshift(g_t(v x) e^{j v x})) dx,

and b_{t,i}(v) the same without the modulation.  The CLI's u lists of
kind default, multiples and tensor are tensor products of per-axis values,
so consecutive rows share their leading values.  On a run of more than
2 T such rows, T the number of terms, the engine goes one axis at a time
(:class:`AxisRoute`): the partial transform after axis i serves every
row that shares u_0 .. u_i, and only the last axis is applied per row.
Each axis's operator is written once, as

    O_t(v) = diag(post) F^-1 diag(d) F diag(pre),

with pre = 1, d = conj(m_t(v)) and post = e^{-j (v b + rate b^2)} for a
lattice value v, whose pre = 1 lets the rows share their partial's
spectrum, and pre = e^{-j v x}, d = conj(b_t(v)) and post = e^{-j rate
b^2} off the lattice.  Up to DENSE_AXIS_SAMPLES samples per axis an
off-lattice O_t(v) is applied as the dense N x N matrix K_t[b, x] = e^{-j
rate b^2} g_t(v wrap(x - b)) e^{-j v x} dx read from the tables
(:meth:`AxisTables.operators`), by one matmul per node of the tree of
values and one per span of a run's rows; above it, where the matmul's N
products per point and term cost more than FFTs, as its five factors.
The resolution synthesis runs the same class as the adjoint, in reverse
order: O_t(v)^H swaps and conjugates those factors, and K_t(v)^H is the
conjugate of K_t(v).  The run's admissibility terms are summed from the
tables.  No value of such a window is computed on the n-D lattice: a row
outside a long run builds its n-D spectra as outer products of its
block's tables.  Any other window is evaluated on the lattice once per
(u, theta), modulated and transformed by one n-D FFT.

Every kernel phase multiplies on the right by span{1, i_n}, which acts on
each complex pair on its own (Hitzer and Mawardi, AACA 2008), so a pair
that is zero everywhere transforms to zero everywhere, exactly.  The engine
transforms only the signal's live pairs (:func:`~clcst.grid.live_pairs`),
and the volume stores those pairs alone (``CLCSTVolume.pairs``).  A scalar
signal has one live pair of the 2^(n-1).
"""

import copy
import warnings
from itertools import combinations_with_replacement

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .cft import _require_transformable
from .grid import (
    SPACE,
    GridError,
    GridSignal,
    lattice_steps,
    live_pairs,
    pack,
    plane_wave_multiply,
    unpack,
)
from .volume import (
    CLCSTVolume,
    DEFAULT_THETAS,
    block_rows,
    default_u_list,
    theta_weight,
    u_weights_from_list,
)
from .windows import WindowSpec, window_angles

ROLL_TOLERANCE = 1e-13  # in steps of dw; the roll's phase error stays below 1e-12
# up to this many samples per axis, an off-lattice axis value of the
# axis-by-axis route is applied as one dense N x N operator per term, by
# matmul, and above it by 1-D FFTs: timed in-process (CHANGES.md), the dense
# operator is faster at n = 3 up to N = 96, and at n = 2 faster up to N = 32,
# about even at 48 and slower from 56 on
DENSE_AXIS_SAMPLES = 48
# in steps of dw, how near its frequency bin a u feeds the marginal: the roll
# must be exact for the 1e-12 slice check, but a bin slip of 1e-9 steps is far
# below the marginal's 1e-6 gate and its c(u) bias of 4.5e-5 to 1e-4
BIN_TOLERANCE = 1e-9


class StockwellError(Exception):
    pass


class AnalyticWindowRequiredError(StockwellError):
    pass


class NonUnitWindowWarning(UserWarning):
    pass


def check_analysis_inputs(f, psi):
    """Refuse a signal or window that cst and clcst cannot analyze.

    The signal must be a finite space-domain signal in a kernel-compatible
    algebra and the window analytic.  A window that does not integrate to
    one is a :class:`NonUnitWindowWarning` (an error under an "error"
    filter), because the reconstruction identities assume a unit integral.
    """
    _require_transformable(f)
    if f.domain != SPACE:
        raise GridError("the transform expects a space-domain signal")
    bad = int(np.count_nonzero(~np.isfinite(f.data)))
    if bad:
        raise StockwellError("signal has %d non-finite samples" % bad)
    if not isinstance(psi, WindowSpec):
        raise AnalyticWindowRequiredError("the transform needs an analytic window")
    if not psi.is_unit_integral():
        warnings.warn(
            "window integral is %g, not 1; reconstruction identities assume 1"
            % psi.integral(),
            NonUnitWindowWarning,
            stacklevel=3,
        )


def checked_lists(spec, u_list=None, theta_list=None, u_weights=None):
    """The (U, n) u array, flat theta array and u weights of a volume,
    refused before the volume is allocated.

    The u list is one row of n components or a list of such rows.  Every u
    component and angle must be finite; every u component must be nonzero,
    because A_u = diag(u) is inverted, and every row's |det A_u| a positive
    finite number, because each slice and profile term is weighed by it;
    the angles must be distinct, because the theta weight is meant for
    distinct angles.  The u weights, by default those of
    :func:`~clcst.volume.u_weights_from_list`, must be finite.  None
    selects the default list.
    """
    if u_list is None:
        u_list = default_u_list(spec)
    if theta_list is None:
        theta_list = DEFAULT_THETAS
    u_list = np.asarray(u_list, dtype=np.float64)
    if u_list.ndim not in (1, 2) or u_list.shape[-1] != spec.n:
        raise StockwellError("u list of shape %r is not rows of n = %d" % (u_list.shape, spec.n))
    u_list = u_list.reshape(-1, spec.n)
    theta_list = np.asarray(theta_list, dtype=np.float64).ravel()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # refused below, by row
        det = np.prod(np.abs(u_list), axis=1)  # as Plan computes it
        if u_weights is None:
            u_weights = u_weights_from_list(u_list)
    for bad, what in ((~np.all(np.isfinite(u_list), axis=1), "is not finite"),
                      (np.any(u_list == 0.0, axis=1), "has a zero component"),
                      (~((det > 0.0) & (det < np.inf)), "has |det A_u| = {det}, not a positive "
                                                        "finite number"),
                      (~np.isfinite(u_weights), "has weight {weight}, not a finite number")):
        if bad.any():
            row = np.argmax(bad)
            raise StockwellError(("u row {row} " + what + ": {u}").format(
                row=row, det=det[row], weight=u_weights[row], u=u_list[row].tolist()))
    if not np.all(np.isfinite(theta_list)):
        raise StockwellError("theta list is not finite: %r" % theta_list.tolist())
    # neighbours of the sorted angles, not np.unique, which imports numpy.ma
    if np.any(np.diff(np.sort(theta_list)) == 0.0):
        raise StockwellError("theta list repeats an angle: %r" % theta_list.tolist())
    return u_list, theta_list, u_weights


class ScalingMatrix:
    """Diagonal scaling A_u = diag(u); every component must be nonzero."""

    def __init__(self, u):
        u = np.asarray(u, dtype=np.float64).ravel()
        if np.any(u == 0.0):
            raise StockwellError("scaling vector has a zero component: %r" % (u,))
        self.u = u

    @property
    def det_abs(self):
        return float(np.abs(np.prod(self.u)))

    def apply(self, points):
        """A_u x componentwise; points shaped (n, ...)."""
        return self.u.reshape((-1,) + (1,) * (points.ndim - 1)) * points


class Rotation:
    """Planar rotation by theta acting on axes (1, 2), identity elsewhere."""

    def __init__(self, theta):
        self.theta = float(theta)

    def matrix(self, n):
        m = np.eye(n)
        if n >= 2:
            c, s = np.cos(self.theta), np.sin(self.theta)
            m[0, 0] = c
            m[0, 1] = -s
            m[1, 0] = s
            m[1, 1] = c
        return m

    def apply(self, points):
        return np.einsum("ij,j...->i...", self.matrix(points.shape[0]), points)


def minimal_image(diff, half_width):
    """Wrap coordinate differences into [-L, L), the periodic-lattice image."""
    period = 2.0 * half_width
    return (diff + half_width) % period - half_width


def transformed_window_values(psi, spec, b, scaling, rotation, wrap=False):
    """psi(R_{-theta} A_u (x - b)) sampled exactly on the lattice.

    ``wrap`` takes the difference modulo the lattice period, matching the
    periodic correlation the FFT paths compute.
    """
    if not isinstance(psi, WindowSpec):
        raise AnalyticWindowRequiredError(
            "transformed evaluation needs an analytic window, not sampled data"
        )
    b = np.asarray(b, dtype=np.float64).reshape((-1,) + (1,) * spec.n)
    pts = spec.mesh(SPACE) - b
    if wrap:
        pts = minimal_image(pts, spec.half_width)
    return psi.evaluate(rotation.apply(scaling.apply(pts)))


def window_family(psi, b, scaling, rotation, spec, ctx):
    """The analysis window psi^theta_{b,u} of an analytic window psi as a
    lattice signal."""
    vals = transformed_window_values(psi, spec, b, scaling, rotation)
    sig = GridSignal.from_scalar(spec, ctx, vals * scaling.det_abs, SPACE)
    return plane_wave_multiply(sig, scaling.u, +1)


def window_block(psi, spec, u_rows, theta_list):
    """psi(R_{-theta} A_u y) on the lattice for every u row and theta, in one
    evaluation: shape (U, T) + spec.shape."""
    if not isinstance(psi, WindowSpec):
        raise AnalyticWindowRequiredError("the transform needs an analytic window")
    n = spec.n
    rotations = np.array([Rotation(t).matrix(n) for t in theta_list]).reshape(-1, n, n)
    maps = rotations[None] * np.reshape(u_rows, (-1, 1, 1, n))  # R_{-theta} A_u
    points = np.tensordot(maps, spec.mesh(SPACE), axes=(3, 0))  # (U, T, n) + shape
    return psi.evaluate(np.moveaxis(points, 2, 0))


def window_spectra(values, spec):
    """B = fftn(ifftshift(w)) dx^n over the last n axes, for windows w sampled
    on the centered lattice; conj(B) is the spectrum of w(-y) on the periodic
    lattice."""
    axes = tuple(range(-spec.n, 0))
    return np.fft.fftn(np.fft.ifftshift(values, axes=axes), axes=axes) * spec.cell_weight(SPACE)


def axis_phase_multiply(block, spec, u_rows, rate, scale, out=None):
    """block[r] scale[r] e^{j (u_r.b + rate |b|^2)} over the b-grid of each
    row r (one u row for an array of pairs), into ``out`` or a new array: 1-D
    factors per axis, scale folded into axis 0, applied in two passes, the
    leading n - 1 axes' outer product (1/N of a slice), then the last axis."""
    b = spec.axis(SPACE)
    factors = np.exp(1j * (u_rows[:, :, None] * b + rate * b**2))  # (rows, n, N)
    factors[:, 0] *= np.reshape(scale, (-1, 1))
    rows = (len(u_rows),) + (1,) * (block.ndim - spec.n - 1)
    lead = factors[:, 0]
    for axis in range(1, spec.n - 1):
        lead = lead[..., None] * factors[:, axis].reshape(rows[:1] + (1,) * axis + (-1,))
    out = np.multiply(block, lead.reshape(rows + spec.shape[1:] + (1,)), out=out)
    out *= factors[:, -1].reshape(rows + (1,) * (spec.n - 1) + (-1,))
    return out


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


class Plan:
    """What every pass over one (u, theta) set shares, worked out once: the
    one place that classifies and weighs the u rows.

    Per u row: the steps k of u / dw (``steps``); whether u = k dw within
    ROLL_TOLERANCE steps (``on_lattice``), so that e^{j y.u} acts on a window
    spectrum as a roll by k; ``lattice_u``, u on the lattice and 0 off it;
    ``det``, |det A_u|; and ``weights``, u weight x theta weight x |det A_u|,
    the discrete measure that the analysis, the admissibility profile and
    the synthesis share.  ``angles`` are the window's
    :func:`~clcst.windows.window_angles`, each standing for ``copies``
    thetas.

    For a radial window with separable terms (``terms``), the rows that
    share their leading values u_0 .. u_{n-2} with the rows beside them form
    runs (``run_starts``).  A run of more than 2 T rows, T the number of
    terms, is ``factored``: its slices, and their adjoint in the synthesis,
    are computed one axis at a time (:class:`AxisRoute`), which shares each
    axis's partial transform across the run.  Every other row takes the n-D
    route, whose window spectra are built, multiplied with the signal's
    spectrum and inverted by n-D FFTs, as does every row of a window without
    terms.
    At n = 2 a factored run of R lattice rows takes about 2 T + R axis
    passes over the b-grid, and the n-D route 2 R: the factored route does
    less FFT work only beyond 2 T rows, and timed in-process, runs of
    fewer than 2 T lattice rows are slower on it.

    The plan keeps the :class:`AxisTables` of the factored rows
    (``tables``), which grow with their distinct values on each axis, a
    few per axis for a tensor list; the n-D rows of a separable window get
    tables for their block alone, whose outer products are their spectra.
    :meth:`blocks` yields consecutive blocks of u rows, each on one route,
    with the n-D route's window spectra or a factored block's tables.
    """

    def __init__(self, psi, spec, u_list, theta_list, u_weights):
        self.psi, self.spec, self.u_list = psi, spec, u_list
        self.steps, on_lattice = lattice_steps(u_list, spec.dw, ROLL_TOLERANCE)
        self.on_lattice = np.all(on_lattice, axis=-1)
        self.lattice_u = np.where(self.on_lattice[:, None], u_list, 0.0)
        self.det = np.prod(np.abs(u_list), axis=1)
        self.weights = u_weights * theta_weight(theta_list) * self.det
        self.angles = window_angles(psi, theta_list)
        self.copies = len(theta_list) // len(self.angles)
        # the tables hold psi(A_u y), not its rotations: radial windows only
        radial = isinstance(psi, WindowSpec) and psi.radial
        self.terms = psi.separable_terms() if radial else None
        self.factored = np.zeros(len(u_list), dtype=bool)
        self.run_starts = np.ones(len(u_list), dtype=bool)
        if self.terms is not None:
            self.run_starts[1:] = np.any(u_list[1:, :-1] != u_list[:-1, :-1], axis=1)
            run = np.cumsum(self.run_starts) - 1
            self.factored = np.bincount(run)[run] > 2 * len(self.terms)
            self.tables = AxisTables(self.terms, spec, u_list[self.factored])

    @property
    def row_bytes(self):
        """Bytes one u row of a :meth:`blocks` block holds at its peak, per
        point and angle: 16 for its modulated spectra M.  A window evaluated
        on the lattice first holds its n coordinates and their squares, 16 n,
        and a sum of them, 8; then its real values, 8, their modulated copy,
        16, and M, that copy in FFT order.  An off-lattice row's B is another
        16.  A factored block holds no spectra: its partial transforms are
        kept per run, not per row, and these bytes bound them.  Its dense
        off-lattice operators, T N^2 values a row, are built per node or per
        span of rows, at most BLOCK_BYTES / 8 of them, for one matmul."""
        per_point = 16 if self.terms is not None else max(40, 16 * self.spec.n + 8)
        return per_point * len(self.angles) * self.spec.point_count

    def _bounds(self, rows):
        """(start, stop) of consecutive blocks of at most ``rows`` u rows,
        each of them factored or not throughout."""
        edges = [0, *(np.flatnonzero(np.diff(self.factored)) + 1), len(self.u_list)]
        for first, last in zip(edges[:-1], edges[1:]):
            for start in range(first, last, rows):
                yield start, min(start + rows, last)

    def blocks(self, rows, plain=False):
        """(start, stop, M, B) for consecutive blocks of at most ``rows`` u
        rows, each factored or not throughout.  A factored block has in M's
        place the plan's tables with the block's index
        (:meth:`AxisTables.block`) and B empty: its slices need no n-D
        spectra.

        M holds the modulated spectrum of each window of the block, one per
        angle, shape (rows, angles) + spec.shape; for a lattice u = k dw it
        is roll(B, k), B the plain spectrum of :func:`window_spectra`.  With
        ``plain``, B maps each off-lattice row of the block to its plain
        spectra; otherwise it is empty.  A window with terms builds both
        from the block's tables (:meth:`AxisTables.spectra`); any other
        window is evaluated on the lattice once per (u, angle), modulated
        (:func:`axis_phase_multiply`), put in FFT order and transformed in
        place, and transformed once more for B.

        The profile terms weights[r] copies |det A_u| sum_angle |M_{r,angle}|^2
        of a block's rows are added to the profile before the block is
        yielded: |M|^2 (2 pi)^(-n), shifted by N/2, is |Q|^2 for Q =
        cft[e^{i_n u.y} psi(R_{-theta} A_u y)], on or off the lattice.  The
        pass starts the profile from those of the factored rows, summed from
        the tables.  :meth:`profile` applies that shift and scale once.
        """
        spec, psi = self.spec, self.psi
        axes = tuple(range(-spec.n, 0))
        cell = spec.cell_weight(SPACE)
        power_weights = self.weights * self.copies * self.det
        self.power = np.zeros(spec.shape)
        if self.factored.any():
            self.power += self.tables.power(power_weights[self.factored])
        done = 0  # factored rows yielded
        for start, stop in self._bounds(rows):
            u_rows = self.u_list[start:stop]
            if self.factored[start]:
                done += stop - start
                yield start, stop, self.tables.block(done - (stop - start), done), {}
                continue
            off = np.flatnonzero(~self.on_lattice[start:stop]) if plain else []
            if self.terms is not None:
                tables = AxisTables(self.terms, spec, u_rows)
                M = tables.spectra(slice(None), modulated=True)
                B = tables.spectra(off, modulated=False) if len(off) else []
                del tables
            else:
                values = window_block(psi, spec, u_rows, self.angles)
                M = np.fft.ifftshift(axis_phase_multiply(values, spec, u_rows, 0.0, cell), axes=axes)
                np.fft.fftn(M, axes=axes, out=M)
                B = []
                if len(off):
                    B = np.fft.fftn(np.fft.ifftshift(values[off], axes=axes), axes=axes)
                    B *= cell
                del values
            flat = M.view(np.float64).reshape(stop - start, -1)  # real and imaginary parts
            summed = np.einsum("r,rk,rk->k", power_weights[start:stop], flat, flat)
            self.power += (summed[0::2] + summed[1::2]).reshape((-1,) + spec.shape).sum(axis=0)
            del flat, summed  # flat, a view, would keep M alive into the next block
            yield start, stop, M, dict(zip(off, B))
            del M, B  # before the next block's are built

    def profile(self):
        """The admissibility profile of the last :meth:`blocks` pass on the
        centered frequency lattice, one real array of spec.shape, and its
        min, max, mean and relative variation.

        The pass's sum ``power`` becomes the profile where it lies: rolled
        by N/2 on each axis, one pair of hyperplanes swapped at a time, and
        scaled by (2 pi)^(-n), to the bits of np.roll and a product but
        without a second array of spec.shape.  The plan holds no sum after
        this."""
        spec, half = self.spec, self.spec.samples_per_axis // 2
        profile, self.power = self.power, None
        for axis in range(spec.n):
            planes = np.moveaxis(profile, axis, 0)  # a view
            for i in range(half):
                planes[[i, i + half]] = planes[[i + half, i]]
        profile *= (2.0 * np.pi) ** (-spec.n)
        stats = {
            "min": float(profile.min()),
            "max": float(profile.max()),
            "mean": float(profile.mean()),
        }
        stats["relative_variation"] = (
            (stats["max"] - stats["min"]) / stats["mean"] if stats["mean"] > 0 else np.inf
        )
        return profile, stats


class AxisRoute:
    """The factored rows of :class:`Plan`, closed with the chirp e^{-j rate
    |b|^2}, one axis at a time in either direction: their slices of the
    pairs z (:meth:`slices`), and the adjoint that the resolution synthesis
    sums over their weighted slices (:meth:`add`, :meth:`total`).  A slice is

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
            return np.fft.fft(self.nodes[axis] * along(pre, axis, self.n), axis=axis - self.n)
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

    def slices(self, start, stop, tables, out):
        """Write the slices of the factored u rows start:stop, whose index
        in the plan's tables ``tables`` holds (:meth:`AxisTables.block`),
        into ``out``, shape (rows, P) + b-shape."""
        n, N = self.n, self.plan.spec.samples_per_axis
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
                ops = self._operators(last, j[lo:hi], scale[lo:hi], "rtxb").reshape(hi - lo, -1, N)
                np.matmul(stacked, ops, out=rows[lo:hi].reshape(hi - lo, -1, N))
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
        transformed by one FFT call, a lattice row's terms summed in that
        spectrum, any other's inverted and added in space."""
        n, lattice = self.n, self.tables.lattice[axis][j]
        pre, d, post = self._factors(axis, j)
        spectra = rows * along(post.conj() * weights[:, None], axis, n)[:, None]
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

    def add(self, start, stop, tables, slices, weights):
        """Add the adjoints of the factored u rows start:stop, whose index
        in the plan's tables ``tables`` holds (:meth:`AxisTables.block`), to
        the sum: ``slices``, shape (rows, P) + b-shape, and their synthesis
        ``weights``."""
        N, last = self.plan.spec.samples_per_axis, self.n - 1
        # a span of dense rows takes one call, its copy of the rows and its
        # adjoints at most BLOCK_BYTES / 8
        span = block_rows(8 * 16 * (slices[0].size + len(self.plan.terms) * N**2))
        for first, end, j in self._walk(start, stop, tables.index, self._close, lambda axis: None):
            rows, w = slices[first:end], weights[first:end]
            dense = self._dense(last, j)
            for lo, hi in _spans(dense, span):
                # the rows side by side against their adjoints stacked alike,
                # summed over the rows and b by the contraction
                stacked = np.moveaxis(rows[lo:hi].reshape(hi - lo, -1, N), 0, 1)
                stacked = stacked.reshape(-1, (hi - lo) * N)
                adjoints = self._operators(last, j[lo:hi], w[lo:hi], "rbtx", adjoint=True)
                summed = np.matmul(stacked, adjoints.reshape((hi - lo) * N, -1))
                space = self._buffer(last, 1, rows)
                summed = summed.reshape(-1, len(space), N)
                space.reshape(len(space), -1, N)[...] += np.moveaxis(summed, 1, 0)
            if dense.all():
                continue
            if dense.any():
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


def fill_volume(vol, plan, fill_block, sink=None):
    """Compute every stored slice of vol, one block of u rows at a time, and
    set ``vol.admissibility`` to the profile of the same windows, those of
    ``plan``, the :class:`Plan` of vol's lists and weights: the real array
    and stats of :meth:`Plan.profile`.

    ``fill_block(start, stop, M, B, block)`` writes the slices of u rows
    start:stop into ``block``, their stored rows: shape (rows, A, P) +
    b-shape, given the block's modulated window spectra M and the plain
    spectra B of its off-lattice rows, or for a factored block its
    :class:`AxisTables` in M's place (:meth:`Plan.blocks`); A is the
    volume's stored theta column count, 1 for a radial window, and P the
    number of ``vol.pairs``.  It may overwrite M and B, which are then spent.

    Those are the signal's live pairs (:func:`~clcst.grid.live_pairs`),
    those not identically zero.  Every kernel phase multiplies on the right
    by span{1, i_n} = C, which maps each pair to itself, so a dead pair's
    slices are exactly zero: the block holds the live pairs alone, and
    their FFTs and products are all the engine computes.  A scalar signal,
    like every input ``clcst synthesize`` makes, has one live pair.

    Each finished block, a few MB in one buffer that the next block reuses,
    goes to ``sink(start, stop, block)`` in u order.  By default vol
    allocates its payload, and each block is set into its rows
    (:meth:`~clcst.volume.CLCSTVolume.set_slice`).  Each window's
    admissibility term |M|^2, weighted as the volume is, is added to the
    profile in the same pass.  The block buffer is released before the
    profile is built, in place of the pass's sum, so the pass's peak is the
    engine's: its block, its window spectra and its partial transforms.
    """
    if sink is None:
        vol.allocate()

        def sink(start, stop, block):
            vol.set_slice(slice(start, stop), slice(None), block)

    # rows are counted by every pair of the algebra, so that a block stays
    # about BLOCK_BYTES whatever the stored pairs
    shape = vol.stored_shape[1:2] + (vol.ctx.blade_count // 2,) + vol.spec.shape
    rows = block_rows(16 * np.prod(shape))
    buffer = np.empty((min(rows, vol.u_count),) + vol.stored_shape[1:], dtype=np.complex128)
    for start, stop, M, B in plan.blocks(rows, plain=True):
        block = buffer[:stop - start]
        fill_block(start, stop, M, B, block)
        del M, B  # before the next block's spectra are built
        sink(start, stop, block)
        del block  # a view, which would keep the buffer alive
    del buffer  # before the profile is built
    vol.admissibility = plan.profile()


def spectrum_slices(z, plan, rate):
    """``fill_block`` for :func:`fill_volume` on the pairs z, whose slices
    close with the chirp e^{-j rate |b|^2} (rate 0 for the Stockwell
    transform).

    A factored block goes axis by axis (:meth:`AxisRoute.slices`).  For the n-D
    route, fftn(z) is taken once, if any of its rows is on the lattice.
    The lattice rows' slice spectra are fftn(z) conj(M), one broadcast
    product over the block; an off-lattice row's is fftn(z e^{-j x.u})
    conj(B), one row at a time.  One in-place ifftn inverts the block.  Each
    slice is then multiplied over the b-grid by the chirp, |det A_u|
    (2 pi)^(-n/2) and, for a lattice u, e^{-j u.b}, as per-axis 1-D factors
    (:func:`axis_phase_multiply`).
    """
    spec = plan.spec
    axes = tuple(range(-spec.n, 0))
    scale = plan.det * (2.0 * np.pi) ** (-spec.n / 2.0)
    route = AxisRoute(plan, rate, z) if plan.factored.any() else None
    if np.any(plan.on_lattice & ~plan.factored):
        Z = np.fft.fftn(z, axes=axes)

    def fill(start, stop, M, B, block):
        if plan.factored[start]:  # M holds the block's tables; the window's one column
            route.slices(start, stop, M, block[:, 0])
            return
        lattice = plan.on_lattice[start:stop]
        if lattice.any():  # off-lattice rows are left for their own spectra
            where = True if lattice.all() else lattice.reshape((-1,) + (1,) * (block.ndim - 1))
            np.multiply(Z, np.conjugate(M, out=M)[:, :, None], out=block, where=where)
        for i in np.flatnonzero(~lattice):
            zu = axis_phase_multiply(z, spec, -plan.u_list[[start + i]], 0.0, 1.0)
            np.multiply(np.fft.fftn(zu, axes=axes), B[i].conj()[:, None], out=block[i])
        np.fft.ifftn(block, axes=axes, out=block)
        axis_phase_multiply(block, spec, -plan.lattice_u[start:stop], -rate, scale[start:stop], out=block)

    return fill


def row_slices(slices_of_u, plan):
    """``fill_block`` for :func:`fill_volume` from ``slices_of_u(ui, spectra,
    out)``, which writes the slices of u row ui into ``out``, shape
    (A, pairs) + b-shape, given the plain spectra B of its A windows; a
    lattice row's B is roll(M, -k), and a factored row's the outer products
    of its block's tables (:meth:`AxisTables.spectra`)."""
    steps, on_lattice = plan.steps, plan.on_lattice
    axes = tuple(range(-plan.spec.n, 0))

    def fill(start, stop, M, B, block):
        for i, ui in enumerate(range(start, stop)):
            if plan.factored[start]:
                spectra = M.spectra([i], modulated=False)[0]
            elif on_lattice[ui]:
                spectra = np.roll(M[i], tuple(-steps[ui]), axis=axes)
            else:
                spectra = B[i]
            slices_of_u(ui, spectra, block[i])

    return fill


def correlate_spectrum(z, spec, spectrum):
    """dx^n sum_t z(t) w(t - b) at every b of the periodic lattice, for complex
    pairs z and the spectrum B of a window w (:func:`window_spectra`)."""
    axes = tuple(range(-spec.n, 0))
    return np.fft.ifftn(np.fft.fftn(z, axes=axes) * spectrum.conj(), axes=axes)


def correlate_window(z, spec, psi, scaling, rotation):
    """|det A_u| (2 pi)^(-n/2) dx^n sum_t z(t) psi(R_{-theta} A_u (t - b)) for
    every b: the (u, theta) slice of already modulated complex pairs z.  The
    difference t - b wraps on the lattice, as in :func:`~clcst.verify.cst_direct_point`."""
    values = transformed_window_values(psi, spec, np.zeros(spec.n), scaling, rotation)
    scale = scaling.det_abs * (2.0 * np.pi) ** (-spec.n / 2.0)
    return correlate_spectrum(z, spec, window_spectra(values, spec)) * scale


def cst_slice(f, psi, scaling, rotation):
    """One (u, theta) slice of the Stockwell transform over the full b-grid."""
    _require_transformable(f)
    modulated = pack(f.ctx, f.data) * np.exp(-1j * f.spec.dot(scaling.u))
    out = unpack(f.ctx, correlate_window(modulated, f.spec, psi, scaling, rotation))
    return GridSignal(f.spec, f.ctx, out, f.domain)


def cst(f, psi, u_list=None, theta_list=None):
    """Stockwell transform volume of f against the window psi.

    The window is expected to integrate to one; a non-unit integral is a
    warning (:func:`check_analysis_inputs`).
    """
    check_analysis_inputs(f, psi)
    u_list, theta_list, u_weights = checked_lists(f.spec, u_list, theta_list)
    if len(u_list) == 0 or len(theta_list) == 0:
        raise StockwellError("the transform needs a non-empty (u, theta) set")
    live = live_pairs(f.data)
    vol = CLCSTVolume(f.spec, f.ctx, u_list, theta_list, window=psi, path="cst",
                      u_weights=u_weights, pairs=live)
    plan = Plan(psi, f.spec, u_list, theta_list, vol.u_weights)
    fill_volume(vol, plan, spectrum_slices(pack(f.ctx, f.data, pairs=live), plan, 0.0))
    return vol
