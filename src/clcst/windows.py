"""Analytic window catalogue: Gaussian, difference-of-Gaussians, combinations.

Windows are evaluated exactly at transformed coordinates (no interpolation),
which keeps the transform theorems free of resampling error.
"""

import numpy as np


class WindowError(Exception):
    pass


class ZeroIntegralError(WindowError):
    pass


RAW = "raw"
UNIT_INTEGRAL = "unit-integral"


class WindowSpec:
    """Base class; concrete windows implement _evaluate and raw_integral.

    ``radial`` says that psi(R y) = psi(y) for every rotation R, so the
    transform evaluates one window per u and shares it across every theta.
    It is False here; a subclass that overrides _evaluate must set it again,
    True only if its window is radial.

    :meth:`separable_terms` says that psi is a sum of products of one 1-D
    factor per axis, psi(y) = sum_t c_t prod_i g_t(y_i), so that
    psi(A_u y) = sum_t c_t prod_i g_t(u_i y_i) for every diagonal A_u and
    the transform of a radial window works from 1-D FFTs, one axis at a
    time, without evaluating psi on the lattice.  It returns None here; a subclass that overrides
    _evaluate must override it again, returning terms only if they sum to
    exactly the values of :meth:`evaluate`, amplitude included.

    ``kind`` names the class in sidecars and on the command line, and
    ``parameters`` the numbers after n that its constructor takes and keeps
    as attributes of those names.
    """

    kind = None
    parameters = ()
    radial = False

    def separable_terms(self):
        """[(c, g)] with psi(y) = sum c prod_i g(y_i) and g a real function
        of one coordinate array, or None when psi has no such form."""
        return None

    def __init__(self, n, amplitude=1.0, normalization=RAW):
        self.n = int(n)
        self.amplitude = float(amplitude)
        self.normalization = normalization

    def evaluate(self, points):
        """points: stacked coordinates of shape (n, ...) -> real values."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] != self.n:
            raise WindowError("expected %d coordinate rows" % self.n)
        return self.amplitude * self._evaluate(points)

    def integral(self):
        """Analytic integral over R^n including the amplitude."""
        return self.amplitude * self.raw_integral()

    def normalize_unit_integral(self):
        """This window scaled to integrate to one, refused for an integral of
        zero, or one whose unit amplitude squares to no normal number: the
        admissibility profile squares it."""
        total = self.integral()
        if total == 0.0:
            raise ZeroIntegralError(
                "window integrates to zero over R^%d; unit normalization impossible" % self.n
            )
        amplitude = self.amplitude / total
        with np.errstate(over="ignore", under="ignore"):
            square = np.float64(amplitude) ** 2
        if not _normal(square):
            raise WindowError("window integral %g over R^%d is out of range for unit "
                              "normalization: the amplitude %g squares to %g, not a normal number"
                              % (total, self.n, amplitude, square))
        return self._with_amplitude(amplitude, UNIT_INTEGRAL)

    def is_unit_integral(self):
        return abs(self.integral() - 1.0) <= 1e-10

    def _with_amplitude(self, amplitude, normalization):
        values = {p: getattr(self, p) for p in self.parameters}
        return type(self)(self.n, **values, amplitude=amplitude, normalization=normalization)

    def __repr__(self):
        fields = ["n=%d" % self.n] + ["%s=%g" % (p, getattr(self, p)) for p in self.parameters]
        return "%s(%s, amplitude=%g)" % (type(self).__name__, ", ".join(fields), self.amplitude)


def _normal(value):
    """Whether value is a positive finite float that is not subnormal."""
    return np.finfo(np.float64).tiny <= value < np.inf


def _squared_scale(name, scale):
    """scale^2 of a window's scale ``name``, refused unless it is a normal
    number: one that overflows makes the window's integral infinite, and one
    that underflows divides by zero or flattens the window into a spike."""
    with np.errstate(over="ignore", under="ignore"):
        square = np.float64(scale) ** 2
    if not _normal(square):
        raise WindowError("%s = %r is out of range: its square %r %s"
                          % (name, scale, float(square),
                             "overflows" if square > 1.0 else "underflows"))
    return square


def _gaussian_factor(sigma):
    """t -> exp(-t^2 / (2 sigma^2)), one axis of a Gaussian."""
    return lambda t: np.exp(-(t**2) / (2.0 * sigma**2))


class GaussianWindow(WindowSpec):
    """exp(-|x|^2 / (2 sigma^2))."""

    kind = "gaussian"
    parameters = ("sigma",)
    radial = True

    def __init__(self, n, sigma=1.0, amplitude=1.0, normalization=RAW):
        if not 0.0 < sigma < np.inf:  # a NaN sigma fails both comparisons
            raise WindowError("sigma must be positive and finite, got %r" % (sigma,))
        square = _squared_scale("sigma", sigma)
        with np.errstate(over="ignore", under="ignore"):
            integral = (2.0 * np.pi * square) ** (n / 2.0)
        if not _normal(integral):
            raise WindowError("sigma = %r is out of range: the window integral "
                              "(2 pi sigma^2)^(n/2) = %r at n = %d is not a normal number"
                              % (sigma, float(integral), n))
        super().__init__(n, amplitude, normalization)
        self.sigma = float(sigma)

    def _evaluate(self, points):
        return np.exp(-np.sum(points**2, axis=0) / (2.0 * self.sigma**2))

    def separable_terms(self):
        return [(self.amplitude, _gaussian_factor(self.sigma))]

    def raw_integral(self):
        return (2.0 * np.pi * self.sigma**2) ** (self.n / 2.0)


class DOGWindow(WindowSpec):
    """lam^-2 exp(-|x|^2/(2 lam^2)) - exp(-|x|^2/2) with 0 < lam < 1.

    The integral is (2 pi)^(n/2) (lam^(n-2) - 1), which vanishes identically
    at n = 2, so unit normalization is impossible there.
    """

    kind = "dog"
    parameters = ("lam",)
    radial = True

    def __init__(self, n, lam=0.5, amplitude=1.0, normalization=RAW):
        if not 0.0 < lam < 1.0:
            raise WindowError("DOG scale ratio must satisfy 0 < lam < 1")
        _squared_scale("lam", lam)
        super().__init__(n, amplitude, normalization)
        self.lam = float(lam)

    def _evaluate(self, points):
        r2 = np.sum(points**2, axis=0)
        lam2 = self.lam**2
        return np.exp(-r2 / (2.0 * lam2)) / lam2 - np.exp(-r2 / 2.0)

    def separable_terms(self):
        return [
            (self.amplitude / self.lam**2, _gaussian_factor(self.lam)),
            (-self.amplitude, _gaussian_factor(1.0)),
        ]

    def raw_integral(self):
        return (2.0 * np.pi) ** (self.n / 2.0) * (self.lam ** (self.n - 2) - 1.0)


class CompositeWindow(WindowSpec):
    """Real linear combination of windows, for the window-linearity checks."""

    kind = "composite"

    def __init__(self, terms, amplitude=1.0, normalization=RAW):
        if not terms:
            raise WindowError("need at least one (coefficient, window) term")
        n = terms[0][1].n
        if any(w.n != n for _, w in terms):
            raise WindowError("component windows disagree on dimension")
        super().__init__(n, amplitude, normalization)
        self.terms = [(float(c), w) for c, w in terms]

    @property
    def radial(self):
        """A sum of radial windows is radial."""
        return all(w.radial for _, w in self.terms)

    def _evaluate(self, points):
        total = np.zeros(points.shape[1:])
        for c, w in self.terms:
            total += c * w.evaluate(points)
        return total

    def separable_terms(self):
        """The terms of every component, scaled by its coefficient and the
        amplitude; None when a component has none."""
        parts = [w.separable_terms() for _, w in self.terms]
        if any(p is None for p in parts):
            return None
        return [
            (self.amplitude * c * d, g) for (c, _), part in zip(self.terms, parts) for d, g in part
        ]

    def raw_integral(self):
        return sum(c * w.integral() for c, w in self.terms)

    def _with_amplitude(self, amplitude, normalization):
        return CompositeWindow(self.terms, amplitude, normalization)


def window_angles(psi, theta_list):
    """The angles at which the transform evaluates psi: every theta, or
    theta = 0 alone for a radial window, whose rotated windows are all the
    unrotated one.  A volume of psi stores one theta column per angle."""
    if isinstance(psi, WindowSpec) and psi.radial:
        return np.zeros(1)
    return theta_list


# the window kinds built by name and kept in sidecars (a composite's terms are windows)
WINDOWS = {cls.kind: cls for cls in (GaussianWindow, DOGWindow)}


def make_window(kind, n, **params):
    """A window of a :data:`WINDOWS` kind from the params it declares; the
    others are ignored, and a missing one takes its constructor default."""
    cls = WINDOWS.get(kind.lower())
    if cls is None:
        raise WindowError("unknown window kind %r" % kind)
    return cls(n, **{p: params[p] for p in cls.parameters if p in params})
