"""Continuous marginal families, iid max normalizers and known uniform rates.

Each margin knows its cdf/quantile pair and, for the built-ins, the classical
normalizing sequences (c_n, d_n) under which F^n(c_n x + d_n) converges to a
GEV limit, plus a uniform rate bound beta(n) for that convergence where one
is known (standard normal and the exactly max-stable Frechet margins).

``Margin`` is the one checked shell: a margin gives only formulas, and the
shell checks q and n >= 2, raises where a margin has no recipe and evaluates
cdf and quantile by ``_numutil.elementwise``.  ``Generic`` holds a user's
callables as the formulas.
"""

from __future__ import annotations

import math

import numpy as np

from ._numutil import check_count, check_level, check_positive, elementwise, lookup
from .gev import GevParams


_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(x):
    """Standard normal cdf Phi of a float array, from ``math.erfc``.

    Phi(x) = 1 - erfc(x/sqrt(2))/2 for x > 0 and erfc(-x/sqrt(2))/2 otherwise,
    so the lower tail keeps its relative accuracy; x/sqrt(2) is rounded as
    x * sqrt(1/2).  erfc runs element by element (numpy has no erfc), which
    for an array of any size is faster than ``np.frompyfunc``.
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x * _SQRT_HALF)
    h = np.fromiter(map(math.erfc, z.ravel().tolist()), float, count=z.size).reshape(z.shape)
    h *= 0.5
    return np.where(x > 0, 1.0 - h, h)


class NoNormalizerError(ValueError):
    """Margin has no registered iid normalizing sequences."""


class NoKnownRateError(ValueError):
    """Margin has no known uniform convergence-rate bound."""


class Margin:
    """The checked shell around a margin's formulas.

    A subclass gives _cdf(x) and _quantile(q), formulas on a float array
    (q in (0, 1)), and where it has them the recipes _normalizers(n) and
    _uniform_rate(n), for an integer n >= 2.
    """

    tag = "margin"
    _normalizers = _uniform_rate = None

    def cdf(self, x):
        return elementwise(self._cdf, x)

    def quantile(self, q):
        return elementwise(self._quantile, check_level(q))

    def normalizers(self, n: int) -> tuple[float, float, GevParams]:
        """(c_n, d_n, limit) with F^n(c_n x + d_n) -> gev_cdf(limit, x)."""
        if self._normalizers is None:
            raise NoNormalizerError(f"no normalizers registered for {self.tag}")
        check_count("n", n, 2)
        return self._normalizers(n)

    def uniform_rate(self, n: int) -> float:
        """Known bound on sup_x |F^n(c_n x + d_n) - limit(x)|."""
        if self._uniform_rate is None:
            raise NoKnownRateError(f"no uniform rate known for {self.tag}")
        check_count("n", n, 2)
        return self._uniform_rate(n)


class Frechet(Margin):
    """F(x) = exp(-x^(-alpha)), alpha > 0.  Exactly max-stable: F^n(n^(1/alpha) x) = F(x)."""

    def __init__(self, alpha: float):
        self.alpha = check_positive("Frechet alpha", alpha)
        self.tag = f"frechet({alpha})"

    def _cdf(self, x):
        # x^-alpha overflows only where the cdf is exactly 0
        with np.errstate(over="ignore"):
            return np.where(x <= 0, 0.0, np.exp(-np.where(x <= 0, 1.0, x) ** -self.alpha))

    def _quantile(self, q):
        return (-np.log(q)) ** (-1.0 / self.alpha)

    def _normalizers(self, n):
        a = self.alpha
        return (n ** (1.0 / a), 0.0, GevParams(1.0 / a, 1.0, 1.0 / a))

    def _uniform_rate(self, n):
        return 0.0


class UnitFrechet(Frechet):
    """F(x) = exp(-1/x) for x > 0: Frechet(1.0) under its own tag."""

    def __init__(self):
        super().__init__(1.0)
        self.tag = "unit-frechet"


class Exponential(Margin):
    """F(x) = 1 - exp(-lam*x); normalizers (1/lam, log(n)/lam), Gumbel limit."""

    def __init__(self, lam: float = 1.0):
        self.lam = check_positive("Exponential rate", lam)
        self.tag = f"exponential({lam})"

    def _cdf(self, x):
        # x <= 0 is masked before expm1, which overflows far to the left;
        # lam*x overflows only where the cdf is exactly 1
        with np.errstate(over="ignore"):
            return -np.expm1(-self.lam * np.where(x <= 0, 0.0, x))

    def _quantile(self, q):
        return -np.log1p(-q) / self.lam

    def _normalizers(self, n):
        return (1.0 / self.lam, math.log(n) / self.lam, GevParams(0.0, 0.0, 1.0))


class Uniform01(Margin):
    """Standard uniform; (1/n, 1) normalizers, reversed-Weibull limit."""

    tag = "uniform01"

    def _cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def _quantile(self, q):
        return q

    def _normalizers(self, n):
        # F^n(x/n + 1) = (1 + x/n)^n -> e^x on x <= 0, i.e. xi = -1 with
        # upper endpoint 0: H_{-1,-1,1}(x) = exp(-(1-(x+1))) = exp(x).
        return (1.0 / n, 1.0, GevParams(-1.0, -1.0, 1.0))


class Pareto(Margin):
    """F(x) = 1 - x^(-alpha) on x >= 1, not max-stable, so with no uniform rate.

    Its normalizers are Frechet(alpha)'s: c_n = F^{-1}(1 - 1/n) = n^(1/alpha), d_n = 0.
    """

    def __init__(self, alpha: float):
        self.alpha = check_positive("Pareto alpha", alpha)
        self.tag = f"pareto({alpha})"

    def _cdf(self, x):
        return np.where(x < 1.0, 0.0, 1.0 - np.where(x < 1.0, 1.0, x) ** -self.alpha)

    def _quantile(self, q):
        return (1.0 - q) ** (-1.0 / self.alpha)

    _normalizers = Frechet._normalizers


class StandardNormal(Margin):
    """N(0, 1) with Hall's normalizing constants and the 3/log(n) rate bound.

    d_n = b_n is the root of 2*pi*b^2*exp(b^2) = n^2 (see hall_constant),
    and c_n = 1/b_n; with this choice
    sup_x |Phi^n(c_n x + d_n) - Gumbel(x)| <= 3/log(n).  The cdf is
    ``_normal_cdf``, built on ``math.erfc`` and accurate to 2^-53 absolute,
    since the n-th power amplifies cdf error by n.
    """

    tag = "normal"

    def _cdf(self, x):
        return _normal_cdf(x)

    # scipy.special is imported at its one use, so only the quantile loads it
    def _quantile(self, q):
        from scipy.special import ndtri

        return ndtri(q)

    def hall_constant(self, n: int) -> float:
        """Root b_n of 2*pi*b^2*exp(b^2) = n^2 (Hall 1979): sqrt(W0(n^2/(2*pi))).

        W0 is the principal branch of Lambert W (Corless et al. 1996).  Its
        value w = b^2 solves w + log(w) = target = 2*log(n) - log(2*pi), in
        logs, so that no n overflows, and Newton's method solves it with
        ``math`` alone.  The left side is increasing and concave, so from
        w = 1 + target, above the root, the first step lands below it and
        every later one climbs towards it, until a step no longer climbs.
        The relative error is ~1e-16 for every n.
        """
        target = 2.0 * math.log(check_count("n", n, 2)) - math.log(2.0 * math.pi)

        def step(w):
            # the residual w + log(w) - target, its two large terms cancelled first
            return w - ((w - target) + math.log(w)) * w / (1.0 + w)

        w, nxt = 0.0, step(1.0 + target)
        while nxt > w:
            w, nxt = nxt, step(nxt)
        return math.sqrt(w)

    def _normalizers(self, n):
        b = self.hall_constant(n)
        return (1.0 / b, b, GevParams(0.0, 0.0, 1.0))

    def _uniform_rate(self, n):
        return 3.0 / math.log(n)


class Generic(Margin):
    """User-supplied cdf/quantile formulas on a float array, with optional normalizer and rate recipes."""

    def __init__(self, cdf, quantile, normalizers=None, uniform_rate=None, tag="generic"):
        self._cdf, self._quantile = cdf, quantile
        self._normalizers, self._uniform_rate = normalizers, uniform_rate
        self.tag = tag


# every built-in margin by name, with the parameters its constructor takes
MARGINS: dict[str, tuple[type[Margin], tuple[str, ...]]] = {
    "unit-frechet": (UnitFrechet, ()),
    "frechet": (Frechet, ("alpha",)),
    "exponential": (Exponential, ("lam",)),
    "normal": (StandardNormal, ()),
    "uniform": (Uniform01, ()),
    "pareto": (Pareto, ("alpha",)),
}
_ALIASES = {"unitfrechet": "unit-frechet", "exp": "exponential", "std-normal": "normal", "gaussian": "normal",
            "uniform01": "uniform"}


def make_margin(name: str, **params) -> Margin:
    """The built-in margin of a name or alias (see ``MARGINS``), looked up as
    ``models.model_spec`` looks up a model; it takes the parameters it has
    from params, and the rest are ignored."""
    cls, names = lookup("margin", MARGINS, _ALIASES, name)
    return cls(**{p: params[p] for p in names if p in params})
