"""Clifford-valued Stockwell transform: scaled, rotated windows on the lattice.

The analysis window family is

    psi^theta_{b,u}(x) = |det A_u| exp(i_n x.u) psi(R_{-theta} A_u (x - b)),

with A_u = diag(u), every u_i nonzero, and R_{-theta} the proper planar
rotation acting on axes (1, 2).  Over the whole b-grid a (u, theta) slice is
one periodic correlation of the modulated complex pairs
(:func:`~clcst.grid.pack`) with the window.  With the window spectrum

    B_{u,theta} = fftn(ifftshift(psi(R_{-theta} A_u y))) dx^n

that is ifftn(fftn(z e^{-j x.u}) conj(B)).  The slice engine
(:func:`fill_volume`) takes fftn(z) once per volume: for a lattice u = k dw
the modulated spectrum is (-1)^(sum k) roll(fftn(z), -k), the frequency
shift of the fast S-transform (Stockwell, Mansinha and Lowe, 1996).  Only an
off-lattice u is modulated and transformed explicitly, once per u.

A radial window (``WindowSpec.radial``, as the Gaussian and the DOG are)
satisfies psi(R_{-theta} A_u y) = psi(A_u y), so every theta of a u has the
same window, spectrum and slice: the engine builds one window spectrum per
u, computes one slice per u and stores it once, in the volume's one theta
column that serves every theta.

A separable window (``WindowSpec.separable_terms``: the Gaussian, the DOG
and composites of them) is a sum of products of 1-D factors on the diagonal
A_u, psi(A_u y) = sum_t c_t prod_i g_t(u_i y_i), so its spectrum is a sum of
outer products of 1-D FFTs,

    B_u = sum_t c_t (x)_i fft(ifftshift(g_t(u_i x))) dx,

and an off-lattice u's modulated centered spectrum for the admissibility
profile is built the same way from 1-D centered CFTs.  No value of such a
window is computed on the n-D lattice.  Any other window is evaluated there
once per (u, theta) and transformed by one n-D FFT.
"""

import warnings

import numpy as np

from .cft import _require_transformable, centered_cft
from .grid import (
    FREQUENCY,
    SPACE,
    GridError,
    GridSignal,
    lattice_steps,
    pack,
    plane_wave_multiply,
    unpack,
)
from .volume import CLCSTVolume, DEFAULT_THETAS, default_u_list, theta_weight
from .windows import WindowSpec, window_angles

BLOCK_BYTES = 4 << 20  # bound on the slices of one u-block held before their write
ROLL_TOLERANCE = 1e-13  # in steps of dw; the roll's phase error stays below 1e-12


class StockwellError(Exception):
    pass


class AnalyticWindowRequiredError(StockwellError):
    pass


class NonUnitWindowWarning(UserWarning):
    pass


def check_analysis_inputs(f, psi, strict=False):
    """Refuse a signal or window that cst and clcst cannot analyze.

    The signal must be a finite space-domain signal in a kernel-compatible
    algebra and the window analytic.  A window that does not integrate to
    one is a warning, or an error in strict mode, because the reconstruction
    identities assume a unit integral.
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
        if strict:
            raise StockwellError("window does not integrate to one (strict mode)")
        warnings.warn(
            "window integral is %g, not 1; reconstruction identities assume 1"
            % psi.integral(),
            NonUnitWindowWarning,
            stacklevel=3,
        )


def checked_lists(spec, u_list=None, theta_list=None):
    """The (U, n) u array and flat theta array of a volume, refused before
    the volume is allocated.

    Every u component must be nonzero, because A_u = diag(u) is inverted,
    and the angles must be distinct, because the theta weight is meant for
    distinct angles.  None selects the default list.
    """
    if u_list is None:
        u_list = default_u_list(spec)
    if theta_list is None:
        theta_list = DEFAULT_THETAS
    u_list = np.asarray(u_list, dtype=np.float64).reshape(-1, spec.n)
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
    def n(self):
        return len(self.u)

    @property
    def det_abs(self):
        return float(np.abs(np.prod(self.u)))

    def apply(self, points):
        """A_u x componentwise; points shaped (n, ...)."""
        return self.u.reshape((-1,) + (1,) * (points.ndim - 1)) * points

    def apply_inverse(self, points):
        return points / self.u.reshape((-1,) + (1,) * (points.ndim - 1))


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

    ``modulated`` gives instead Q = cft[e^{j u.y} psi(A_u y)], the outer
    products of the 1-D centered CFTs of g_t(u_i x) e^{j u_i x}.
    """
    arg = u_rows.T[:, :, None] * spec.axis(SPACE)  # (n, rows, N)
    factors = np.array([g(arg) for _, g in terms], dtype=np.complex128)  # (terms, n, rows, N)
    if modulated:
        factors *= np.exp(1j * arg)
        factors = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(factors, axes=-1)), axes=-1)
        factors *= spec.dx / np.sqrt(2.0 * np.pi)
    else:
        factors = np.fft.fft(np.fft.ifftshift(factors, axes=-1)) * spec.dx
    # per row, the sum over terms of the outer products is a product of
    # matrices with the term as the inner axis
    rows, count = arg.shape[1], len(terms)
    acc = np.moveaxis(factors[:, 0], 0, -1) * np.array([c for c, _ in terms])
    for axis in range(1, spec.n - 1):
        acc = (acc[:, :, None] * np.moveaxis(factors[:, axis], 0, -1)[:, None]).reshape(rows, -1, count)
    return (acc @ np.moveaxis(factors[:, -1], 0, 1)).reshape((rows, 1) + spec.shape)


def _separable_terms(psi):
    return psi.separable_terms() if isinstance(psi, WindowSpec) else None


def window_row_bytes(psi, spec, theta_list):
    """Bytes one u row of a :func:`window_blocks` block holds: 16 per point and
    angle for its complex spectra, and 8 more for the real values of a window
    evaluated on the lattice.  An off-lattice row's Q is another 16."""
    per_point = 16 if _separable_terms(psi) is not None else 24
    return per_point * len(window_angles(psi, theta_list)) * spec.point_count


def block_rows(bytes_per_u):
    """u rows per block: about BLOCK_BYTES of per-u data, and at least one."""
    return max(1, BLOCK_BYTES // max(int(bytes_per_u), 1))


def window_blocks(psi, spec, u_list, theta_list, rows, modulated=False):
    """(start, stop, spectra, Q) for consecutive blocks of ``rows`` u rows.

    ``spectra`` holds the spectrum B of each window of the block, one per
    :func:`window_angles` of theta_list.  With ``modulated``, Q maps each
    off-lattice row of the block to its modulated centered spectra (see
    :func:`add_admissibility`); otherwise it is empty.  A separable window
    builds both from 1-D FFTs (:func:`separable_spectra`); any other window
    is evaluated on the lattice once per (u, angle) and transformed once.
    """
    angles = window_angles(psi, theta_list)
    terms = _separable_terms(psi)
    on_lattice = roll_steps(spec, u_list)[1]
    for start in range(0, len(u_list), rows):
        stop = min(start + rows, len(u_list))
        u_rows = u_list[start:stop]
        off = np.flatnonzero(~on_lattice[start:stop]) if modulated else []
        if terms is None:
            values = window_block(psi, spec, u_rows, angles)
            Q = [centered_cft(values[i] * np.exp(1j * spec.dot(u_rows[i])), spec) for i in off]
            yield start, stop, window_spectra(values, spec), dict(zip(off, Q))
        else:
            # Q is made in the yield, so that only the consumer holds it and
            # can free it before the block's slices
            yield start, stop, separable_spectra(terms, spec, u_rows), (
                dict(zip(off, separable_spectra(terms, spec, u_rows[off], modulated=True)))
                if len(off)
                else {}
            )


def roll_steps(spec, u_list):
    """Per u row: the integer steps k of u / dw, and whether u = k dw, so that
    e^{-j x.u} acts on a spectrum as (-1)^(sum k) times a roll by -k."""
    steps, on_lattice = lattice_steps(u_list, spec.dw, ROLL_TOLERANCE)
    return steps, np.all(on_lattice, axis=-1)


def roll_sign(steps):
    """(-1)^(sum k): x.u = sum_i (i - N/2) k 2 pi / N on the centered lattice."""
    return -1.0 if int(np.sum(steps)) % 2 else 1.0


def add_admissibility(profile, spec, u_rows, weights, spectra, modulated):
    """profile += sum over the u rows of weights[u] sum_theta |Q_{u,theta}|^2.

    Q = cft[e^{i_n u.y} psi(R_{-theta} A_u y)] is the centered window spectrum
    shifted by u: for a lattice u, |B|^2 (2 pi)^(-n) rolled by k + N/2 (the
    centering); an off-lattice row i reads its Q from ``modulated[i]``, as
    :func:`window_blocks` yields it.
    """
    axes = tuple(range(-spec.n, 0))
    steps, on_lattice = roll_steps(spec, u_rows)
    centre = spec.samples_per_axis // 2
    for i in range(len(u_rows)):
        if on_lattice[i]:
            power = np.sum(spectra[i].real ** 2 + spectra[i].imag ** 2, axis=0)
            weight = weights[i] * (2.0 * np.pi) ** (-spec.n)
            profile += np.roll(power * weight, tuple(steps[i] + centre), axis=axes)
        else:
            Q = modulated[i]
            profile += np.sum(Q.real ** 2 + Q.imag ** 2, axis=0) * weights[i]


def admissibility_weights(psi, u_list, u_weights, theta_list):
    """u weight x theta weight x |det A_u|^2 per u row, times the number of
    theta columns each window of :func:`window_angles` stands for."""
    copies = len(theta_list) // len(window_angles(psi, theta_list))
    return u_weights * (theta_weight(theta_list) * copies) * np.prod(np.abs(u_list), axis=1) ** 2


def profile_result(profile, spec, ctx):
    """An admissibility profile as a frequency-domain scalar signal, and its
    min, max, mean and relative variation."""
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


def fill_volume(vol, psi, slices_of_u):
    """Write every stored slice of vol, one block of u rows at a time, and
    set ``vol.admissibility`` to the profile of the same windows.

    ``slices_of_u(ui, spectra, out)`` writes the slices of u row ui as
    complex pairs into ``out``, shape (A, pairs) + b-shape, given the window
    spectra B of its A windows, one per :func:`window_angles`; A is the
    volume's stored theta column count, 1 for a radial window.  A finished
    block, a few MB, is unpacked into the volume's rows in one contiguous
    write.  Each window's admissibility term, weighted as the volume is, is
    added to the profile in the same pass.
    """
    spec = vol.spec
    angles = window_angles(psi, vol.theta_list)
    shape = (len(angles), vol.ctx.blade_count // 2) + spec.shape
    profile = np.zeros(spec.shape)
    weights = admissibility_weights(psi, vol.u_list, vol.u_weights, vol.theta_list)
    rows = block_rows(16 * np.prod(shape))
    blocks = window_blocks(psi, spec, vol.u_list, vol.theta_list, rows, modulated=True)
    for start, stop, spectra, modulated in blocks:
        u_rows = vol.u_list[start:stop]
        add_admissibility(profile, spec, u_rows, weights[start:stop], spectra, modulated)
        del modulated  # the off-lattice Q, freed before the slices
        block = np.empty((stop - start,) + shape, dtype=np.complex128)
        for i in range(stop - start):
            slices_of_u(start + i, spectra[i], block[i])
        vol.set_slice(slice(start, stop), slice(None), block)
    vol.admissibility = profile_result(profile, spec, vol.ctx)


def rolled_slices(z, vol, closing=None):
    """``slices_of_u`` for :func:`fill_volume` on the pairs z: fftn(z) is taken
    here once, and each lattice u rolls it; ``closing`` multiplies every slice
    over the b-grid."""
    spec = vol.spec
    axes = tuple(range(-spec.n, 0))
    Z = np.fft.fftn(z, axes=axes)
    steps, on_lattice = roll_steps(spec, vol.u_list)
    closing = 1.0 if closing is None else closing
    base = (2.0 * np.pi) ** (-spec.n / 2.0)

    def slices(ui, spectra, out):
        u = vol.u_list[ui]
        if on_lattice[ui]:
            Zu = np.roll(Z, tuple(-steps[ui]), axis=axes)
            sign = roll_sign(steps[ui])
        else:
            Zu = np.fft.fftn(z * np.exp(-1j * spec.dot(u)), axes=axes)
            sign = 1.0
        scale = sign * base * np.prod(np.abs(u))  # (-1)^(sum k) |det A_u| (2 pi)^(-n/2)
        np.multiply(np.fft.ifftn(Zu * spectra.conj()[:, None], axes=axes), closing * scale, out=out)

    return slices


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


def cst(f, psi, u_list=None, theta_list=None, strict=False):
    """Stockwell transform volume of f against the window psi.

    The window is expected to integrate to one; a non-unit integral is a
    warning, or an error in strict mode.
    """
    check_analysis_inputs(f, psi, strict)
    u_list, theta_list = checked_lists(f.spec, u_list, theta_list)
    vol = CLCSTVolume(f.spec, f.ctx, u_list, theta_list, window=psi, path="cst")
    fill_volume(vol, psi, rolled_slices(pack(f.ctx, f.data), vol))
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
