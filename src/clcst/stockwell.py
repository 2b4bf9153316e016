"""Clifford-valued Stockwell transform: scaled, rotated windows on the lattice.

The analysis window family is

    psi^theta_{b,u}(x) = |det A_u| exp(i_n x.u) psi(R_{-theta} A_u (x - b)),

with A_u = diag(u_1, ..., u_n), every u_i nonzero, and R_{-theta} the proper
planar rotation acting on axes (1, 2).  Per (u, theta) the transform over the
whole b-grid is one modulation plus one FFT convolution of the signal's
complex pairs (:func:`~clcst.grid.pack`).
"""

import warnings

import numpy as np

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
from .volume import CLCSTVolume, DEFAULT_THETAS, default_u_list
from .windows import WindowSpec


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


def transformed_window_values(psi, spec, b, scaling, rotation, negate=False, wrap=False):
    """psi(R_{-theta} A_u (x - b)) sampled exactly on the lattice.

    With ``negate`` the argument is R_{-theta} A_u (-x), the reflected window
    entering the convolution form.  ``wrap`` takes the difference modulo the
    lattice period, matching the periodic convolution the FFT paths compute.
    """
    if not isinstance(psi, WindowSpec):
        raise AnalyticWindowRequiredError(
            "transformed evaluation needs an analytic window, not sampled data"
        )
    mesh = spec.mesh(SPACE)
    if negate:
        pts = -mesh
    else:
        b = np.asarray(b, dtype=np.float64).reshape((-1,) + (1,) * spec.n)
        pts = mesh - b
    if wrap:
        pts = minimal_image(pts, spec.half_width)
    return psi.evaluate(rotation.apply(scaling.apply(pts)))


def window_family(psi, b, scaling, rotation, spec, ctx):
    """The analysis window psi^theta_{b,u} as a lattice signal.

    Sampled (GridSignal) windows are accepted only for the untransformed
    configuration u = (1,...,1), theta = 0, and a lattice-vector b, where a
    periodic shift is exact; anything else demands an analytic window.
    """
    if isinstance(psi, GridSignal):
        return _shift_sampled_window(psi, b, scaling, rotation)
    vals = transformed_window_values(psi, spec, b, scaling, rotation)
    sig = GridSignal.from_scalar(spec, ctx, vals * scaling.det_abs, SPACE)
    return plane_wave_multiply(sig, scaling.u, +1)


def _shift_sampled_window(psi, b, scaling, rotation):
    if not (np.all(scaling.u == 1.0) and rotation.theta == 0.0):
        raise AnalyticWindowRequiredError(
            "sampled windows cannot be rescaled or rotated without interpolation"
        )
    steps, on_lattice = lattice_steps(np.ravel(b), psi.spec.dx)
    if not on_lattice.all():
        raise AnalyticWindowRequiredError("sampled windows shift only by lattice vectors")
    shifted = np.roll(psi.data, steps, axis=tuple(range(1, psi.spec.n + 1)))
    sig = GridSignal(psi.spec, psi.ctx, shifted, SPACE)
    return plane_wave_multiply(sig, scaling.u, +1)


def convolve_pairs(z, spec, kernel_values):
    """dx^n sum_t z(t) k(x - t) on the periodic lattice, for complex pairs z
    and a real kernel sampled on the centered lattice, via FFTs."""
    axes = tuple(range(1, spec.n + 1))
    khat = np.fft.fftn(np.fft.ifftshift(kernel_values)) * spec.cell_weight(SPACE)
    return np.fft.ifftn(np.fft.fftn(z, axes=axes) * khat, axes=axes)


def correlate_window(z, spec, psi, scaling, rotation):
    """|det A_u| (2 pi)^(-n/2) dx^n sum_t z(t) psi(R_{-theta} A_u (t - b)) for
    every b: the (u, theta) slice of already modulated complex pairs z."""
    reflected = transformed_window_values(psi, spec, None, scaling, rotation, negate=True)
    scale = scaling.det_abs * (2.0 * np.pi) ** (-spec.n / 2.0)
    return convolve_pairs(z, spec, reflected) * scale


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
    z = pack(f.ctx, f.data)
    for ui in range(vol.u_count):
        scaling = ScalingMatrix(vol.u_list[ui])
        modulated = z * np.exp(-1j * f.spec.dot(scaling.u))
        for ti in range(vol.theta_count):
            rotation = Rotation(vol.theta_list[ti])
            vol.set_slice(ui, ti, correlate_window(modulated, f.spec, psi, scaling, rotation))
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
