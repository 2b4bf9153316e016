"""Slice engine of the CST and CLCST: scaled, rotated windows on the lattice.

The analysis window family is

    psi^theta_{b,u}(x) = |det A_u| exp(i_n x.u) psi(R_{-theta} A_u (x - b)),

with A_u = diag(u), every u_i nonzero, and R_{-theta} the proper planar
rotation acting on axes (1, 2).  Over the whole b-grid a (u, theta) slice is
one periodic correlation of the modulated complex pairs
(:func:`~clcst.grid.pack`) with the window.

One :class:`Plan` per (u, theta) set is the one place that checks, classifies
and weighs the u rows, so the analysis (:func:`fill_volume`), the
admissibility profile and the resolution synthesis refuse the same input
and share one discrete measure and one notion of "u on the lattice".  It
also picks each row's route
(:meth:`Plan.routes`), and each route computes both its rows' slices and
their adjoint: the n-D route (:class:`SpectrumRoute`) by n-D FFTs against
each window's n-D spectrum, and the axis-by-axis route of a separable
window (:class:`~clcst.axis.AxisRoute`) one axis at a time.

A radial window (``WindowSpec.radial``, as the Gaussian and the DOG are)
satisfies psi(R_{-theta} A_u y) = psi(A_u y), so every theta of a u has the
same window, spectrum and slice: the engine computes one slice per u and
stores it once, in the volume's one theta column that serves every theta.

Every kernel phase multiplies on the right by span{1, i_n}, which acts on
each complex pair on its own (Hitzer and Mawardi, AACA 2008), so a pair
that is zero everywhere transforms to zero everywhere, exactly.  The engine
transforms only the signal's live pairs (:func:`~clcst.grid.live_pairs`),
and the volume stores those pairs alone (``CLCSTVolume.pairs``).  A scalar
signal has one live pair of the 2^(n-1).
"""

import numpy as np

from .axis import ROLL_TOLERANCE, AxisRoute, AxisTables
from .cft import _require_transformable
from .grid import (
    SPACE,
    GridError,
    GridSignal,
    lattice_steps,
    pack,
    plane_wave_multiply,
    unpack,
)
from .volume import (
    DEFAULT_THETAS,
    block_rows,
    default_u_list,
    theta_weight,
    u_weights_from_list,
)
from .windows import WindowSpec, window_angles

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


def check_analysis_inputs(f):
    """Refuse a signal that clcst cannot analyze, one that is not a finite
    space-domain signal in a kernel-compatible algebra, before its plan is
    built."""
    _require_transformable(f)
    if f.domain != SPACE:
        raise GridError("the transform expects a space-domain signal")
    bad = int(np.count_nonzero(~np.isfinite(f.data)))
    if bad:
        raise StockwellError("signal has %d non-finite samples" % bad)


def checked_lists(spec, u_list=None, theta_list=None, u_weights=None):
    """The (U, n) u array, flat theta array and u weights of a volume,
    refused before the volume is allocated.

    The u list is one row of n components or a list of such rows; neither
    list may be empty.  Every u component and angle must be finite; every u
    component must be nonzero, because A_u = diag(u) is inverted, and every
    row's |det A_u| a positive finite number, because each slice is weighed
    by it; the angles must be distinct, because the theta weight is meant
    for distinct angles.  The u weights, by default those of
    :func:`~clcst.volume.u_weights_from_list`, must be finite, one per row,
    and |det A_u|^2 x u weight, which weighs the row's profile term, normal.
    None selects the default list, which is empty below N = 4 samples per
    axis.
    """
    if u_list is None:
        if spec.samples_per_axis < 4:
            raise StockwellError("the default u list is empty at N = %d samples per axis: it "
                                 "needs N >= 4, or an explicit u list" % spec.samples_per_axis)
        u_list = default_u_list(spec)
    if theta_list is None:
        theta_list = DEFAULT_THETAS
    u_list = np.asarray(u_list, dtype=np.float64)
    if u_list.ndim not in (1, 2) or u_list.shape[-1] != spec.n:
        raise StockwellError("u list of shape %r is not rows of n = %d" % (u_list.shape, spec.n))
    u_list = u_list.reshape(-1, spec.n)
    theta_list = np.asarray(theta_list, dtype=np.float64).ravel()
    for name, values in (("u", u_list), ("theta", theta_list)):
        if len(values) == 0:
            raise StockwellError("%s list is empty; a (u, theta) set must be non-empty" % name)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # refused below, by row
        det = np.prod(np.abs(u_list), axis=1)  # as Plan computes it
        if u_weights is None:
            u_weights = u_weights_from_list(u_list)
        u_weights = np.asarray(u_weights, dtype=np.float64)
        if u_weights.shape != (len(u_list),):
            raise StockwellError("u weights of shape %r, not one for each of %d u rows"
                                 % (u_weights.shape, len(u_list)))
        power = det**2 * u_weights
    for bad, what in ((~np.all(np.isfinite(u_list), axis=1), "is not finite"),
                      (np.any(u_list == 0.0, axis=1), "has a zero component"),
                      (~((det > 0.0) & (det < np.inf)), "has |det A_u| = {det}, not a positive "
                                                        "finite number"),
                      (~np.isfinite(u_weights), "has weight {weight}, not a finite number"),
                      (~((power >= np.finfo(np.float64).tiny) & (power < np.inf)),
                       "has |det A_u|^2 x weight = {power}, not a normal number")):
        if bad.any():
            row = np.argmax(bad)
            raise StockwellError(("u row {row} " + what + ": {u}").format(
                row=row, det=det[row], weight=u_weights[row], power=power[row],
                u=u_list[row].tolist()))
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


class Plan:
    """What every pass over one (u, theta) set shares, worked out once: the
    one place that checks, classifies and weighs the u rows.  Before it
    builds anything, it refuses a window that is not a
    :class:`~clcst.windows.WindowSpec` and the lists that
    :func:`checked_lists` refuses, and keeps the checked ``u_list``,
    ``theta_list`` and ``u_weights``.

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
    terms, is ``factored``: it takes the axis-by-axis route
    (:class:`~clcst.axis.AxisRoute`), which shares each axis's partial
    transform across the run.  Every other row takes the n-D route
    (:class:`SpectrumRoute`), as does every row of a window without terms.
    At n = 2 a factored run of R lattice rows takes about 2 T + R axis
    passes over the b-grid, and the n-D route 2 R: the factored route does
    less FFT work only beyond 2 T rows, and timed in-process, runs of
    fewer than 2 T lattice rows are slower on it.

    The plan keeps the :class:`~clcst.axis.AxisTables` of the factored
    rows (``tables``), which grow with their distinct values on each axis, a
    few per axis for a tensor list, and each factored row's index among
    their rows (``table_rows``); the n-D rows of a separable window get
    tables for their block alone, whose outer products are their spectra.
    :meth:`blocks` yields consecutive blocks of u rows, each on one route,
    with the n-D route's window spectra, :meth:`run` drives every pass over
    them, and :meth:`routes` gives the route of each kind of block.
    """

    def __init__(self, psi, spec, u_list=None, theta_list=None, u_weights=None):
        if not isinstance(psi, WindowSpec):
            raise AnalyticWindowRequiredError("a %s is not an analytic window" % type(psi).__name__)
        u_list, theta_list, u_weights = checked_lists(spec, u_list, theta_list, u_weights)
        self.psi, self.spec = psi, spec
        self.u_list, self.theta_list, self.u_weights = u_list, theta_list, u_weights
        self.steps, on_lattice = lattice_steps(u_list, spec.dw, ROLL_TOLERANCE)
        self.on_lattice = np.all(on_lattice, axis=-1)
        self.lattice_u = np.where(self.on_lattice[:, None], u_list, 0.0)
        self.det = np.prod(np.abs(u_list), axis=1)
        self.weights = u_weights * theta_weight(theta_list) * self.det
        self.angles = window_angles(psi, theta_list)
        self.copies = len(theta_list) // len(self.angles)
        # the tables hold psi(A_u y), not its rotations: radial windows only
        self.terms = psi.separable_terms() if psi.radial else None
        self.factored = np.zeros(len(u_list), dtype=bool)
        self.run_starts = np.ones(len(u_list), dtype=bool)
        if self.terms is not None:
            self.run_starts[1:] = np.any(u_list[1:, :-1] != u_list[:-1, :-1], axis=1)
            run = np.cumsum(self.run_starts) - 1
            self.factored = np.bincount(run)[run] > 2 * len(self.terms)
            self.tables = AxisTables(self.terms, spec, u_list[self.factored])
            self.table_rows = np.cumsum(self.factored) - 1

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

    def bounds(self, rows, factored_rows=None):
        """(start, stop) of consecutive blocks of u rows, each factored or
        not throughout: at most ``rows`` rows, or ``factored_rows`` (by
        default ``rows``) in a factored block."""
        edges = [0, *(np.flatnonzero(np.diff(self.factored)) + 1), len(self.u_list)]
        for first, last in zip(edges[:-1], edges[1:]):
            step = rows if factored_rows is None or not self.factored[first] else factored_rows
            for start in range(first, last, step):
                yield start, min(start + step, last)

    def blocks(self, rows, factored_rows=None):
        """(start, stop, M, B) for the blocks of :meth:`bounds`, which
        :meth:`run` hands to a pass.  A factored block has M None and B
        empty: its slices need no n-D spectra, only the plan's tables.

        M holds the modulated spectrum of each window of the block, one per
        angle, shape (rows, angles) + spec.shape; for a lattice u = k dw it
        is roll(B, k), B the plain spectrum of :func:`window_spectra`, and B
        maps each off-lattice row of the block to its plain spectra.  A
        window with terms builds both from the block's tables
        (:meth:`~clcst.axis.AxisTables.spectra`); any other
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
        for start, stop in self.bounds(rows, factored_rows):
            u_rows = self.u_list[start:stop]
            if self.factored[start]:
                yield start, stop, None, {}
                continue
            off = np.flatnonzero(~self.on_lattice[start:stop])
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

    def run(self, rows, shape, step, factored_rows=None):
        """The pass over :meth:`blocks`: each block goes to ``step(start,
        stop, M, B, block)``, ``block`` its rows of one complex buffer, shape
        (rows,) + ``shape``, sized for the largest block and allocated at the
        first, once the factored rows' profile is summed.  The buffer is
        dropped before the pass's :meth:`profile` is built and returned."""
        buffer = None
        for start, stop, M, B in self.blocks(rows, factored_rows):
            if buffer is None:
                largest = max(stop - start for start, stop in self.bounds(rows, factored_rows))
                buffer = np.empty((largest,) + shape, dtype=np.complex128)
            step(start, stop, M, B, buffer[:stop - start])
            del M, B  # before the next block's are built
        del buffer
        return self.profile()

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

    def routes(self, rate, z=None):
        """The route of each kind of :meth:`blocks` block, keyed by
        ``factored[start]``: the n-D route under False and the axis-by-axis
        route under True, None for a kind that no row takes.  Their slices of
        the pairs z close with the chirp e^{-j rate |b|^2}; without z, they
        only sum the adjoint."""
        return {False: None if self.factored.all() else SpectrumRoute(self, rate, z),
                True: AxisRoute(self, rate, z) if self.factored.any() else None}


class SpectrumRoute:
    """The n-D rows of a :class:`Plan`, closed with the chirp e^{-j rate
    |b|^2}, in either direction: their slices of the pairs z
    (:meth:`slices`), and the adjoint that the resolution synthesis sums
    over their weighted slices (:meth:`add`, :meth:`total`).  With the
    plain window spectrum

        B_{u,theta} = fftn(ifftshift(psi(R_{-theta} A_u y))) dx^n,

    a slice is |det A_u| (2 pi)^(-n/2) e^{-j rate |b|^2} ifftn(fftn(z e^{-j
    x.u}) conj(B)).  The frequency shift of the fast S-transform (Stockwell,
    Mansinha and Lowe, 1996) is applied to the window, not to the signal:
    the modulated window's spectrum

        M_{u,theta} = fftn(ifftshift(e^{j u.y} psi(R_{-theta} A_u y))) dx^n

    is roll(B, k) for a lattice u = k dw, and there

        ifftn(fftn(z e^{-j x.u}) conj(B)) = e^{-j u.b} ifftn(fftn(z) conj(M)).

    So fftn(z) is taken once, the slice spectra of a block's lattice rows
    are one broadcast product with conj(M), and one in-place ifftn inverts
    the block; only an off-lattice row is modulated and transformed on its
    own, against B.  The adjoint of a lattice row is fftn(s e^{j u.b}) M,
    summed over the rows without a roll and inverted once, in
    :meth:`total`; an off-lattice row is convolved with B, inverted and
    modulated by e^{j x.u} on its own.  Every per-u phase and scale is a
    product of 1-D factors, applied to a whole block at once
    (:func:`axis_phase_multiply`).  The adjoint's two sums are allocated at
    its first block."""

    def __init__(self, plan, rate, z=None):
        self.plan, self.rate, self.z = plan, rate, z
        self.axes = tuple(range(-plan.spec.n, 0))
        self.scale = plan.det * (2.0 * np.pi) ** (-plan.spec.n / 2.0)
        if z is not None and np.any(plan.on_lattice & ~plan.factored):
            self.Z = np.fft.fftn(z, axes=self.axes)
        self.summed = self.modulated = None

    def slices(self, start, stop, M, B, out):
        """Write the slices of the n-D u rows start:stop into ``out``, shape
        (rows, angles, P) + b-shape, from their :meth:`Plan.blocks` spectra
        M and B, which are then spent."""
        plan, spec = self.plan, self.plan.spec
        lattice = plan.on_lattice[start:stop]
        if lattice.any():  # off-lattice rows are left for their own spectra
            where = True if lattice.all() else lattice.reshape((-1,) + (1,) * (out.ndim - 1))
            np.multiply(self.Z, np.conjugate(M, out=M)[:, :, None], out=out, where=where)
        for i in np.flatnonzero(~lattice):
            zu = axis_phase_multiply(self.z, spec, -plan.u_list[[start + i]], 0.0, 1.0)
            np.multiply(np.fft.fftn(zu, axes=self.axes), B[i].conj()[:, None], out=out[i])
        np.fft.ifftn(out, axes=self.axes, out=out)
        axis_phase_multiply(out, spec, -plan.lattice_u[start:stop], -self.rate,
                            self.scale[start:stop], out=out)

    def add(self, start, stop, M, B, s, weights):
        """Add the adjoints of the n-D u rows start:stop to the sums:
        ``s``, shape (rows, columns, P) + b-shape, and their synthesis
        ``weights``, against the :meth:`Plan.blocks` spectra M and B, one
        column per angle.  The slices are weighted, transformed and
        multiplied in place, so they are spent: the caller hands over rows
        of its own, not a view of a volume's payload."""
        plan, spec = self.plan, self.plan.spec
        if self.summed is None:
            self.summed = np.zeros((s.shape[2],) + spec.shape, dtype=np.complex128)
            self.modulated = np.zeros_like(self.summed)
        lattice = plan.on_lattice[start:stop]
        # weight x chirp x e^{j u.b} on the lattice, before one fftn
        axis_phase_multiply(s, spec, plan.lattice_u[start:stop], self.rate, weights, out=s)
        np.fft.fftn(s, axes=self.axes, out=s)
        for i in np.flatnonzero(~lattice):
            term = np.sum(s[i] * B[i][:, None], axis=0)
            np.fft.ifftn(term, axes=self.axes, out=term)
            self.modulated += axis_phase_multiply(term, spec, plan.u_list[[start + i]], 0.0, 1.0,
                                                  out=term)
        s *= M[:, :, None]
        self.summed += np.sum(s, axis=(0, 1), where=lattice.reshape((-1,) + (1,) * (s.ndim - 1)))

    def total(self):
        """The sum over every row added, in space, shape (P,) + b-shape."""
        total = np.fft.ifftn(self.summed, axes=self.axes, out=self.summed)
        total += self.modulated
        self.summed = self.modulated = None
        return total


def fill_volume(vol, plan, fill_block, sink=None):
    """Compute every stored slice of vol, one block of u rows at a time, in
    the pass (:meth:`Plan.run`) of ``plan``, the :class:`Plan` of vol's
    lists and weights, and set ``vol.admissibility`` to the profile that it
    returns, of the same windows, weighted as the volume is.

    ``fill_block(start, stop, M, B, block)`` writes the slices of u rows
    start:stop into ``block``, their stored rows: shape (rows, A, P) +
    b-shape, given the block's modulated window spectra M and the plain
    spectra B of its off-lattice rows, M None for a factored block
    (:meth:`Plan.blocks`); A is the volume's stored theta column count, 1
    for a radial window, and P the number of ``vol.pairs``, the signal's
    live pairs, the only ones whose slices are not exactly zero (see the
    module docstring).  It may overwrite M and B, which are then spent.

    Each finished block goes to ``sink(start, stop, block)`` in u order,
    in the one buffer of the pass.  An n-D block holds about BLOCK_BYTES of
    rows, counted by every pair of the algebra, since its window spectra
    are as many; a factored block, whose tables are the plan's, at most
    BLOCK_BYTES / 8 of stored rows, and at least one row.  By default vol
    allocates its payload, and each block is set into its rows
    (:meth:`~clcst.volume.CLCSTVolume.set_slice`).  The pass's peak is the
    engine's: its block, its window spectra and its partial transforms.
    """
    if sink is None:
        vol.allocate()

        def sink(start, stop, block):
            vol.set_slice(slice(start, stop), slice(None), block)

    def step(start, stop, M, B, block):
        fill_block(start, stop, M, B, block)
        sink(start, stop, block)

    # a factored block's rows only batch the last axis's inverse FFT and the
    # sink's write, so they are far fewer bytes than an n-D block's spectra
    shape = vol.stored_shape[1:2] + (vol.ctx.blade_count // 2,) + vol.spec.shape
    rows = block_rows(16 * np.prod(shape))
    factored_rows = block_rows(8 * 16 * np.prod(vol.stored_shape[1:]))
    vol.admissibility = plan.run(rows, vol.stored_shape[1:], step, factored_rows)


def row_slices(slices_of_u, plan):
    """``fill_block`` for :func:`fill_volume` from ``slices_of_u(ui, spectra,
    out)``, which writes the slices of u row ui into ``out``, shape
    (A, pairs) + b-shape, given the plain spectra B of its A windows; a
    lattice row's B is roll(M, -k), and a factored row's the outer products
    of the plan's tables (:meth:`~clcst.axis.AxisTables.spectra`)."""
    axes = tuple(range(-plan.spec.n, 0))

    def fill(start, stop, M, B, block):
        for i, ui in enumerate(range(start, stop)):
            if plan.factored[start]:
                spectra = plan.tables.spectra(plan.table_rows[[ui]], modulated=False)[0]
            elif plan.on_lattice[ui]:
                spectra = np.roll(M[i], tuple(-plan.steps[ui]), axis=axes)
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

