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
    """

    radial = False

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

    def __call__(self, points):
        return self.evaluate(points)

    def integral(self):
        """Analytic integral over R^n including the amplitude."""
        return self.amplitude * self.raw_integral()

    def normalize_unit_integral(self):
        total = self.integral()
        if abs(total) < 1e-300:
            raise ZeroIntegralError(
                "window integrates to zero over R^%d; unit normalization impossible" % self.n
            )
        out = self._with_amplitude(self.amplitude / total)
        out.normalization = UNIT_INTEGRAL
        return out

    def is_unit_integral(self, tol=1e-10):
        return abs(self.integral() - 1.0) <= tol


class GaussianWindow(WindowSpec):
    """exp(-|x|^2 / (2 sigma^2))."""

    radial = True

    def __init__(self, n, sigma=1.0, amplitude=1.0, normalization=RAW):
        if sigma <= 0:
            raise WindowError("sigma must be positive")
        super().__init__(n, amplitude, normalization)
        self.sigma = float(sigma)

    def _evaluate(self, points):
        return np.exp(-np.sum(points**2, axis=0) / (2.0 * self.sigma**2))

    def raw_integral(self):
        return (2.0 * np.pi * self.sigma**2) ** (self.n / 2.0)

    def _with_amplitude(self, amplitude):
        return GaussianWindow(self.n, self.sigma, amplitude)

    def __repr__(self):
        return "GaussianWindow(n=%d, sigma=%g, amplitude=%g)" % (
            self.n,
            self.sigma,
            self.amplitude,
        )


class DOGWindow(WindowSpec):
    """lam^-2 exp(-|x|^2/(2 lam^2)) - exp(-|x|^2/2) with 0 < lam < 1.

    The integral is (2 pi)^(n/2) (lam^(n-2) - 1), which vanishes identically
    at n = 2, so unit normalization is impossible there.
    """

    radial = True

    def __init__(self, n, lam, amplitude=1.0, normalization=RAW):
        if not 0.0 < lam < 1.0:
            raise WindowError("DOG scale ratio must satisfy 0 < lam < 1")
        super().__init__(n, amplitude, normalization)
        self.lam = float(lam)

    def _evaluate(self, points):
        r2 = np.sum(points**2, axis=0)
        lam2 = self.lam**2
        return np.exp(-r2 / (2.0 * lam2)) / lam2 - np.exp(-r2 / 2.0)

    def raw_integral(self):
        return (2.0 * np.pi) ** (self.n / 2.0) * (self.lam ** (self.n - 2) - 1.0)

    def _with_amplitude(self, amplitude):
        return DOGWindow(self.n, self.lam, amplitude)

    def __repr__(self):
        return "DOGWindow(n=%d, lam=%g, amplitude=%g)" % (self.n, self.lam, self.amplitude)


class CompositeWindow(WindowSpec):
    """Real linear combination of windows, for the window-linearity checks."""

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

    def raw_integral(self):
        return sum(c * w.integral() for c, w in self.terms)

    def _with_amplitude(self, amplitude):
        return CompositeWindow(self.terms, amplitude)


def window_angles(psi, theta_list):
    """The angles at which the transform evaluates psi: every theta, or
    theta = 0 alone for a radial window, whose rotated windows are all the
    unrotated one.  A volume of psi stores one theta column per angle."""
    if isinstance(psi, WindowSpec) and psi.radial:
        return np.zeros(1)
    return theta_list


def make_window(kind, n, **params):
    kind = kind.lower()
    if kind == "gaussian":
        return GaussianWindow(n, sigma=params.get("sigma", 1.0))
    if kind == "dog":
        return DOGWindow(n, lam=params.get("lam", 0.5))
    raise WindowError("unknown window kind %r" % kind)
