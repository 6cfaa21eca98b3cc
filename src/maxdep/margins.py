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


# Wichura's AS 241, PPND16 (Applied Statistics 37, 1988), as the (8, 3, 2, 1)
# array of Horner's steps: per step, highest degree first, the numerator's
# and the denominator's coefficient of each branch (central, near, far)
_PPND16 = np.array([
    [[2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4, 4.5921953931549871457e4,
      1.3731693765509461125e4, 1.9715909503065514427e3, 1.3314166789178437745e2, 3.3871328727963666080e0],
     [5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4, 2.1213794301586595867e4,
      5.3941960214247511077e3, 6.8718700749205790830e2, 4.2313330701600911252e1, 1.0]],
    [[7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e0,
      3.64784832476320460504e0, 5.76949722146069140550e0, 4.63033784615654529590e0, 1.42343711074968357734e0],
     [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
      6.89767334985100004550e-1, 1.67638483018380384940e0, 2.05319162663775882187e0, 1.0]],
    [[2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
      2.96560571828504891230e-1, 1.78482653991729133580e0, 5.46378491116411436990e0, 6.65790464350110377720e0],
     [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
      1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0]],
]).transpose(2, 0, 1)[..., None]


_PPND16_CHUNK = 4096  # levels a pass, so that its arrays stay in cache


def _ppnd16(u):
    """Phi^-1 of a 1-d array of at most _PPND16_CHUNK levels; see _normal_quantile."""
    q = u - 0.5
    central = np.abs(q) <= 0.425
    n_central = np.count_nonzero(central)
    # the branches lo..hi-1, from the first to the last that some level takes
    lo, hi = (0 if n_central else 1), 1
    if n_central < u.size:
        r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
        far = r > 5.0
        n_far = np.count_nonzero(far)
        lo, hi = (2 if n_far == u.size else lo), (3 if n_far else 2)
    # their numerators and denominators in one Horner pass over (k, 2, m)
    t = np.stack([0.180625 - q * q if b == 0 else r - (1.6, 5.0)[b - 1] for b in range(lo, hi)])[:, None]
    steps = _PPND16[:, lo:hi]
    acc = steps[0] * t
    acc += steps[1]
    for c in steps[2:]:
        acc *= t
        acc += c
    if lo == 0:
        acc[0, 0] *= q  # the central value is q * numerator / denominator
    ratio = acc[:, 0] / acc[:, 1]
    if hi == 1:
        return ratio[0]
    # a tail level takes the far row where r > 5, the near row elsewhere
    tail = np.where(far, ratio[-1], ratio[-2]) if hi == 3 and lo < 2 else ratio[-1]
    x = np.copysign(tail, q)
    return np.where(central, ratio[0], x) if lo == 0 else x


def _normal_quantile(u):
    """Phi^-1(u) for a float array u in (0, 1), by AS 241 (PPND16).

    With q = u - 1/2, q times a rational function of 0.180625 - q^2 serves
    |q| <= 0.425, and two rational functions of r = sqrt(-log(min(u, 1 - u))),
    split at r = 5, serve the tails, with the sign of q; the relative error
    is about 1e-16.  The central branch is odd in q, and where 1 - u is exact
    the tails see the same p = min(u, 1 - u) at u and at 1 - u, so there
    Phi^-1(1 - u) is exactly -Phi^-1(u).  Chunks of the array go through
    ``_ppnd16`` in turn, and each evaluates a branch over the whole chunk,
    only where some level takes it: at the 4096 row maxima of a Berman
    block, masking the array into pieces cost more than the arithmetic it
    saved (about 210 against 195 us on a 2-vCPU x86-64 host).
    """
    x = np.empty(u.shape)
    flat_u, flat_x = u.ravel(), x.reshape(-1)
    for s in range(0, flat_u.size, _PPND16_CHUNK):
        flat_x[s:s + _PPND16_CHUNK] = _ppnd16(flat_u[s:s + _PPND16_CHUNK])
    return x


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
    since the n-th power amplifies cdf error by n.  The quantile is
    ``_normal_quantile``, AS 241 in numpy, which Berman's sampler shares.
    """

    tag = "normal"

    def _cdf(self, x):
        return _normal_cdf(x)

    def _quantile(self, q):
        return _normal_quantile(q)

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
