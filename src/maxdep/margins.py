"""Continuous marginal families, iid max normalizers and known uniform rates.

Each margin knows its cdf/quantile pair and, for the built-ins, the classical
normalizing sequences (c_n, d_n) under which F^n(c_n x + d_n) converges to a
GEV limit, plus a uniform rate bound beta(n) for that convergence where one
is known (standard normal and the exactly max-stable Frechet margins).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .gev import GevParams


class NoNormalizerError(ValueError):
    """Margin has no registered iid normalizing sequences."""


class NoKnownRateError(ValueError):
    """Margin has no known uniform convergence-rate bound."""


class Margin:
    """Base class; subclasses fill in cdf/quantile and optional recipes."""

    tag = "margin"

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def normalizers(self, n: int) -> tuple[float, float, GevParams]:
        """(c_n, d_n, limit) with F^n(c_n x + d_n) -> gev_cdf(limit, x)."""
        raise NoNormalizerError(f"no normalizers registered for {self.tag}")

    def uniform_rate(self, n: int) -> float:
        """Known bound on sup_x |F^n(c_n x + d_n) - limit(x)|."""
        raise NoKnownRateError(f"no uniform rate known for {self.tag}")

    def _check_q(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise ValueError("quantile level must lie strictly in (0, 1)")
        return q


def _require_n(n):
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")


class UnitFrechet(Margin):
    """F(x) = exp(-1/x) for x > 0.  Exactly max-stable: F^n(n x) = F(x)."""

    tag = "unit-frechet"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(x > 0, np.exp(-1.0 / np.where(x > 0, x, 1.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        return -1.0 / np.log(self._check_q(q))

    def normalizers(self, n):
        _require_n(n)
        return (float(n), 0.0, GevParams(1.0, 1.0, 1.0))

    def uniform_rate(self, n):
        _require_n(n)
        return 0.0


class Frechet(Margin):
    """F(x) = exp(-x^(-alpha)), alpha > 0; also exactly max-stable."""

    tag = "frechet"

    def __init__(self, alpha: float):
        if not alpha > 0:
            raise ValueError(f"Frechet alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.tag = f"frechet({alpha})"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, np.exp(-np.where(x > 0, x, 1.0) ** -self.alpha), 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        return (-np.log(self._check_q(q))) ** (-1.0 / self.alpha)

    def normalizers(self, n):
        _require_n(n)
        a = self.alpha
        return (n ** (1.0 / a), 0.0, GevParams(1.0 / a, 1.0, 1.0 / a))

    def uniform_rate(self, n):
        _require_n(n)
        return 0.0


class Exponential(Margin):
    """F(x) = 1 - exp(-lam*x); normalizers (1/lam, log(n)/lam), Gumbel limit."""

    tag = "exponential"

    def __init__(self, lam: float = 1.0):
        if not lam > 0:
            raise ValueError(f"rate must be positive, got {lam}")
        self.lam = float(lam)
        self.tag = f"exponential({lam})"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, -np.expm1(-self.lam * x), 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        return -np.log1p(-self._check_q(q)) / self.lam

    def normalizers(self, n):
        _require_n(n)
        return (1.0 / self.lam, math.log(n) / self.lam, GevParams(0.0, 0.0, 1.0))


class Uniform01(Margin):
    """Standard uniform; (1/n, 1) normalizers, reversed-Weibull limit."""

    tag = "uniform01"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip(x, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        q = self._check_q(q)
        return float(q) if q.ndim == 0 else q

    def normalizers(self, n):
        _require_n(n)
        # F^n(x/n + 1) = (1 + x/n)^n -> e^x on x <= 0, i.e. xi = -1 with
        # upper endpoint 0: H_{-1,-1,1}(x) = exp(-(1-(x+1))) = exp(x).
        return (1.0 / n, 1.0, GevParams(-1.0, -1.0, 1.0))


class Pareto(Margin):
    """F(x) = 1 - x^(-alpha) on x >= 1; quantile-based Frechet normalizers."""

    tag = "pareto"

    def __init__(self, alpha: float):
        if not alpha > 0:
            raise ValueError(f"Pareto alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.tag = f"pareto({alpha})"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, 1.0 - np.where(x >= 1.0, x, 1.0) ** -self.alpha, 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        return (1.0 - self._check_q(q)) ** (-1.0 / self.alpha)

    def normalizers(self, n):
        _require_n(n)
        # c_n = F^{-1}(1 - 1/n) = n^{1/alpha}, d_n = 0.
        a = self.alpha
        return (n ** (1.0 / a), 0.0, GevParams(1.0 / a, 1.0, 1.0 / a))


class StandardNormal(Margin):
    """N(0, 1) with Hall's normalizing constants and the 3/log(n) rate bound.

    d_n = b_n is the root of 2*pi*b^2*exp(b^2) = n^2 and c_n = 1/b_n; with
    this choice sup_x |Phi^n(c_n x + d_n) - Gumbel(x)| <= 3/log(n).  The cdf
    uses the complementary error function, accurate to ~1e-16 absolute, since
    the n-th power amplifies cdf error by n.
    """

    tag = "normal"

    def cdf(self, x):
        out = ndtr(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        out = ndtri(self._check_q(q))
        return float(out) if np.ndim(out) == 0 else out

    def hall_constant(self, n: int) -> float:
        """Root b_n of 2*pi*b^2*exp(b^2) = n^2, bracketed and solved to 1e-13."""
        _require_n(n)
        n2 = float(n) * float(n)
        # The root dips below 1 for n <= 4, so the bracket starts near 0.
        return brentq(
            lambda b: 2.0 * math.pi * b * b * math.exp(b * b) - n2,
            0.05,
            math.sqrt(2.0 * math.log(n)) + 3.0,
            xtol=1e-13,
        )

    def normalizers(self, n):
        b = self.hall_constant(n)
        return (1.0 / b, b, GevParams(0.0, 0.0, 1.0))

    def uniform_rate(self, n):
        _require_n(n)
        return 3.0 / math.log(n)


class Generic(Margin):
    """User-supplied cdf/quantile, with optional normalizer and rate recipes."""

    tag = "generic"

    def __init__(self, cdf, quantile, normalizers=None, uniform_rate=None, tag="generic"):
        self._cdf = cdf
        self._quantile = quantile
        self._normalizers = normalizers
        self._uniform_rate = uniform_rate
        self.tag = tag

    def cdf(self, x):
        return self._cdf(x)

    def quantile(self, q):
        return self._quantile(self._check_q(q))

    def normalizers(self, n):
        if self._normalizers is None:
            raise NoNormalizerError(f"no normalizers registered for {self.tag}")
        return self._normalizers(n)

    def uniform_rate(self, n):
        if self._uniform_rate is None:
            raise NoKnownRateError(f"no uniform rate known for {self.tag}")
        return self._uniform_rate(n)


def make_margin(spec: str, **params) -> Margin:
    """Margin from a short name: unit-frechet, frechet, exponential, normal,
    uniform, pareto."""
    s = spec.lower().replace("_", "-")
    if s in ("unit-frechet", "unitfrechet"):
        return UnitFrechet()
    if s == "frechet":
        return Frechet(params.get("alpha", 1.0))
    if s in ("exponential", "exp"):
        return Exponential(params.get("lam", 1.0))
    if s in ("normal", "std-normal", "gaussian"):
        return StandardNormal()
    if s in ("uniform", "uniform01"):
        return Uniform01()
    if s == "pareto":
        return Pareto(params.get("alpha", 1.0))
    raise ValueError(f"unknown margin {spec!r}")
