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

So the slice engine (:func:`fill_volume`) takes fftn(z) once per volume,
writes the slice spectra of a whole block of u rows and inverts them with
one in-place ifftn.  e^{-j u.b}, like every other per-u phase and scale, is
a product of 1-D factors, one per axis, and is applied to the whole block
at once (:func:`axis_phase_multiply`).  Only an off-lattice u is modulated
and transformed explicitly, once per u, against its plain spectrum B.
|M|^2 is also each window's admissibility term, so the profile needs no
roll per u.

One :class:`Plan` per (u, theta) set is the one place that classifies and
weighs the u rows, so the analysis (:func:`fill_volume`), the admissibility
profile and the resolution synthesis share one discrete measure and one
notion of "u on the lattice".

A radial window (``WindowSpec.radial``, as the Gaussian and the DOG are)
satisfies psi(R_{-theta} A_u y) = psi(A_u y), so every theta of a u has the
same window, spectrum and slice: the engine builds one window spectrum per
u, computes one slice per u and stores it once, in the volume's one theta
column that serves every theta.

A separable window (``WindowSpec.separable_terms``: the Gaussian, the DOG
and composites of them) is a sum of products of 1-D factors on the diagonal
A_u, psi(A_u y) = sum_t c_t prod_i g_t(u_i y_i), so its spectra are sums of
outer products of 1-D FFTs,

    M_u = sum_t c_t (x)_i fft(ifftshift(g_t(u_i x) e^{j u_i x})) dx,

and B_u the same without the modulation.  No value of such a window is
computed on the n-D lattice.  Any other window is evaluated there once per
(u, theta), modulated and transformed by one n-D FFT.

Every kernel phase multiplies on the right by span{1, i_n}, which acts on
each complex pair on its own (Hitzer and Mawardi, AACA 2008), so a pair
that is zero everywhere transforms to zero everywhere, exactly.  The engine
transforms only the signal's live pairs (:func:`~clcst.grid.live_pairs`),
and the volume stores those pairs alone (``CLCSTVolume.pairs``).  A scalar
signal has one live pair of the 2^(n-1).
"""

import warnings

import numpy as np

from .cft import _require_transformable
from .grid import (
    FREQUENCY,
    SPACE,
    GridError,
    GridSignal,
    lattice_steps,
    live_pairs,
    pack,
    plane_wave_multiply,
    unpack,
)
from .volume import CLCSTVolume, DEFAULT_THETAS, block_rows, default_u_list, theta_weight
from .windows import WindowSpec, window_angles

ROLL_TOLERANCE = 1e-13  # in steps of dw; the roll's phase error stays below 1e-12
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


def checked_lists(spec, u_list=None, theta_list=None):
    """The (U, n) u array and flat theta array of a volume, refused before
    the volume is allocated.

    The u list is one row of n components or a list of such rows.  Every u
    component must be nonzero, because A_u = diag(u) is inverted, and the
    angles must be distinct, because the theta weight is meant for distinct
    angles.  None selects the default list.
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
    zero_rows = np.flatnonzero(np.any(u_list == 0.0, axis=1))
    if zero_rows.size:
        raise StockwellError(
            "u row %d has a zero component: %r" % (zero_rows[0], u_list[zero_rows[0]].tolist())
        )
    if len(np.unique(theta_list)) != len(theta_list):
        raise StockwellError("theta list repeats an angle: %r" % theta_list.tolist())
    return u_list, theta_list


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


def separable_spectra(terms, spec, u_rows, modulated=False):
    """:func:`window_spectra` of psi(A_u y) for each u row, shape (rows, 1) +
    spec.shape, for a window with ``terms = psi.separable_terms()``, built
    from 1-D FFTs without evaluating psi on the lattice:

        B_u = sum_t c_t (x)_i fft(ifftshift(g_t(u_i x))) dx

    ``modulated`` gives instead M_u, the spectrum of e^{j u.y} psi(A_u y):
    the same outer products of the 1-D FFTs of g_t(u_i x) e^{j u_i x}.
    """
    arg = u_rows.T[:, :, None] * spec.axis(SPACE)  # (n, rows, N)
    factors = np.array([g(arg) for _, g in terms], dtype=np.complex128)  # (terms, n, rows, N)
    if modulated:
        factors *= np.exp(1j * arg)
    factors = np.fft.fft(np.fft.ifftshift(factors, axes=-1)) * spec.dx
    # per row, the sum over terms of the outer products is a product of
    # matrices with the term as the inner axis
    rows, count = arg.shape[1], len(terms)
    acc = np.moveaxis(factors[:, 0], 0, -1) * np.array([c for c, _ in terms])
    for axis in range(1, spec.n - 1):
        acc = (acc[:, :, None] * np.moveaxis(factors[:, axis], 0, -1)[:, None]).reshape(rows, -1, count)
    return (acc @ np.moveaxis(factors[:, -1], 0, 1)).reshape((rows, 1) + spec.shape)


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
    one place that classifies and weighs the u rows.

    Per u row: the steps k of u / dw (``steps``); whether u = k dw within
    ROLL_TOLERANCE steps (``on_lattice``), so that e^{j y.u} acts on a window
    spectrum as a roll by k; ``lattice_u``, u on the lattice and 0 off it;
    ``det``, |det A_u|; and ``weights``, u weight x theta weight x |det A_u|,
    the discrete measure that the analysis, the admissibility profile and
    the synthesis share.  ``angles`` are the window's
    :func:`~clcst.windows.window_angles`, each standing for ``copies``
    thetas.

    :meth:`blocks` yields the window spectra of consecutive blocks of u rows
    and adds each block's admissibility term to the profile as it yields;
    :meth:`profile` is that profile once a pass is through.
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
        self.terms = psi.separable_terms() if isinstance(psi, WindowSpec) else None

    @property
    def row_bytes(self):
        """Bytes one u row of a :meth:`blocks` block holds at its peak, per
        point and angle: 16 for its modulated spectra M.  A window evaluated
        on the lattice first holds its n coordinates and their squares, 16 n,
        and a sum of them, 8; then its real values, 8, their modulated copy,
        16, and M, that copy in FFT order.  An off-lattice row's B is another
        16."""
        per_point = 16 if self.terms is not None else max(40, 16 * self.spec.n + 8)
        return per_point * len(self.angles) * self.spec.point_count

    def blocks(self, rows, plain=False):
        """(start, stop, M, B) for consecutive blocks of ``rows`` u rows.

        M holds the modulated spectrum of each window of the block, one per
        angle, shape (rows, angles) + spec.shape; for a lattice u = k dw it
        is roll(B, k), B the plain spectrum of :func:`window_spectra`.  With
        ``plain``, B maps each off-lattice row of the block to its plain
        spectra; otherwise it is empty.  A separable window builds both from
        1-D FFTs (:func:`separable_spectra`); any other window is evaluated
        on the lattice once per (u, angle), modulated
        (:func:`axis_phase_multiply`), put in FFT order and transformed in
        place, and transformed once more for B.

        Before a block is yielded, its terms weights[r] copies |det A_u|
        sum_angle |M_{r,angle}|^2 are added to the profile, which this pass
        starts from zero: |M|^2 (2 pi)^(-n), shifted by N/2, is |Q|^2 for
        Q = cft[e^{i_n u.y} psi(R_{-theta} A_u y)], on or off the lattice.
        :meth:`profile` applies that shift and scale once.
        """
        spec, psi, terms = self.spec, self.psi, self.terms
        axes = tuple(range(-spec.n, 0))
        cell = spec.cell_weight(SPACE)
        power_weights = self.weights * self.copies * self.det
        self.power = np.zeros(spec.shape)
        for start in range(0, len(self.u_list), rows):
            stop = min(start + rows, len(self.u_list))
            u_rows = self.u_list[start:stop]
            off = np.flatnonzero(~self.on_lattice[start:stop]) if plain else []
            if terms is None:
                values = window_block(psi, spec, u_rows, self.angles)
                M = np.fft.ifftshift(axis_phase_multiply(values, spec, u_rows, 0.0, cell), axes=axes)
                np.fft.fftn(M, axes=axes, out=M)
                B = []
                if len(off):
                    B = np.fft.fftn(np.fft.ifftshift(values[off], axes=axes), axes=axes)
                    B *= cell
                del values
            else:
                M = separable_spectra(terms, spec, u_rows, modulated=True)
                B = separable_spectra(terms, spec, u_rows[off]) if len(off) else []
            flat = M.view(np.float64).reshape(stop - start, -1)  # real and imaginary parts
            summed = np.einsum("r,rk,rk->k", power_weights[start:stop], flat, flat)
            self.power += (summed[0::2] + summed[1::2]).reshape((-1,) + spec.shape).sum(axis=0)
            del flat, summed  # flat, a view, would keep M alive into the next block
            yield start, stop, M, dict(zip(off, B))
            del M, B  # before the next block's are built

    def profile(self, ctx):
        """The admissibility profile of the last :meth:`blocks` pass, shifted
        to the centered frequency lattice, as a frequency-domain scalar
        signal, and its min, max, mean and relative variation."""
        spec = self.spec
        centre = (spec.samples_per_axis // 2,) * spec.n
        profile = np.roll(self.power, centre, axis=tuple(range(spec.n))) * (2.0 * np.pi) ** (-spec.n)
        sig = GridSignal.from_scalar(spec, ctx, profile, FREQUENCY)
        stats = {
            "min": float(profile.min()),
            "max": float(profile.max()),
            "mean": float(profile.mean()),
        }
        stats["relative_variation"] = (
            (stats["max"] - stats["min"]) / stats["mean"] if stats["mean"] > 0 else np.inf
        )
        return sig, stats


def fill_volume(vol, plan, fill_block, sink=None):
    """Compute every stored slice of vol, one block of u rows at a time, and
    set ``vol.admissibility`` to the profile of the same windows, those of
    ``plan``, the :class:`Plan` of vol's lists and weights.

    ``fill_block(start, stop, M, B, block)`` writes the slices of u rows
    start:stop into ``block``, their stored rows: shape (rows, A, P) +
    b-shape, given the block's modulated window spectra M and the plain
    spectra B of its off-lattice rows (:meth:`Plan.blocks`); A is the
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
    profile in the same pass.
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
    vol.admissibility = plan.profile(vol.ctx)


def spectrum_slices(z, plan, rate):
    """``fill_block`` for :func:`fill_volume` on the pairs z, whose slices
    close with the chirp e^{-j rate |b|^2} (rate 0 for the Stockwell
    transform).

    fftn(z) is taken here once.  The lattice rows' slice spectra are
    fftn(z) conj(M), one broadcast product over the block; an off-lattice
    row's is fftn(z e^{-j x.u}) conj(B), one row at a time.  One in-place
    ifftn inverts the block.  Each slice is then multiplied over the b-grid
    by the chirp, |det A_u| (2 pi)^(-n/2) and, for a lattice u, e^{-j u.b},
    as per-axis 1-D factors (:func:`axis_phase_multiply`).
    """
    spec = plan.spec
    axes = tuple(range(-spec.n, 0))
    Z = np.fft.fftn(z, axes=axes)
    scale = plan.det * (2.0 * np.pi) ** (-spec.n / 2.0)

    def fill(start, stop, M, B, block):
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
    lattice row's B is roll(M, -k)."""
    steps, on_lattice = plan.steps, plan.on_lattice
    axes = tuple(range(-plan.spec.n, 0))

    def fill(start, stop, M, B, block):
        for i, ui in enumerate(range(start, stop)):
            spectra = np.roll(M[i], tuple(-steps[ui]), axis=axes) if on_lattice[ui] else B[i]
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
    difference t - b wraps on the lattice, as in :func:`cst_direct_point`."""
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
    u_list, theta_list = checked_lists(f.spec, u_list, theta_list)
    z = pack(f.ctx, f.data)
    live = live_pairs(z)
    vol = CLCSTVolume(f.spec, f.ctx, u_list, theta_list, window=psi, path="cst", pairs=live)
    plan = Plan(psi, f.spec, u_list, theta_list, vol.u_weights)
    fill_volume(vol, plan, spectrum_slices(z[live], plan, 0.0))
    return vol


def cst_direct_point(f, psi, b, scaling, rotation):
    """Naive quadrature of one transform value; the slow oracle.

    Windows are evaluated at the minimal-image difference so the oracle sums
    exactly the periodic-lattice object the FFT path computes.
    """
    from .algebra import Multivector

    _require_transformable(f)
    wvals = transformed_window_values(psi, f.spec, b, scaling, rotation, wrap=True)
    kernel = wvals * f.spec.cell_weight(SPACE) * np.exp(-1j * f.spec.dot(scaling.u))
    axes = tuple(range(1, f.spec.n + 1))
    summed = np.tensordot(pack(f.ctx, f.data), kernel, axes=(axes, tuple(range(f.spec.n))))
    scale = scaling.det_abs * (2.0 * np.pi) ** (-f.spec.n / 2.0)
    return Multivector(f.ctx, unpack(f.ctx, summed) * scale)
