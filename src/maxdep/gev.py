"""Generalized extreme value (GEV) distributions and their max-stability algebra.

The family H(x) = exp(-(1 + xi*(x-mu)/sigma)^(-1/xi)) for xi != 0, with the
Gumbel limit exp(-exp(-(x-mu)/sigma)) at xi = 0, is closed under powers:
H^theta is again GEV of the same shape.  ``gev_power`` returns the transformed
location/scale for that identity, which is the algebraic backbone of every
limit law assembled elsewhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numutil import check_level, check_positive, check_real, elementwise

# |xi| below this is treated as the Gumbel branch; the xi != 0 formula has a
# removable limit there, and the two differ by about xi*z^2/2 in log(-log H).
XI_ZERO_TOL = 1e-12
# below this |xi|, t^(-1/xi) is taken as exp(-log1p(xi*z)/xi) and ell^(-xi) - 1
# as expm1(-xi*log(ell)); above it the plain powers lose at most two digits and
# stay, so no value at the shapes the margins produce (0, 1/alpha, -1) moves
XI_LOG1P = 1e-2
# below this z, e^(-z) > e^700 and the Gumbel cdf and density are 0 in double
# precision; z is clamped here so that e^(-z) cannot overflow on the way
GUMBEL_Z_MIN = -700.0


@dataclass(frozen=True)
class GevParams:
    """Shape/location/scale triple (xi, mu, sigma) with sigma > 0."""

    xi: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_positive("sigma", self.sigma)
        check_real("xi", self.xi)
        check_real("mu", self.mu)

    @property
    def is_gumbel(self) -> bool:
        return abs(self.xi) < XI_ZERO_TOL


def _t_power(p: GevParams, z):
    """(t, t^(-1/xi)) for t = 1 + xi*z; the power is 1 where t <= 0, off the support."""
    t = 1.0 + p.xi * z
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if abs(p.xi) < XI_LOG1P:
            # t^(-1/xi) would multiply the rounding of t by 1/|xi|
            w = np.exp(-np.log1p(np.where(t <= 0, 0.0, p.xi * z)) / p.xi)
        else:
            w = np.where(t <= 0, 1.0, t) ** (-1.0 / p.xi)
    return t, w


def _standardize(p: GevParams, x):
    # z overflows to +-inf for a tiny sigma, where the cdf and density take their limits (0 or 1, and 0)
    with np.errstate(over="ignore"):
        return (x - p.mu) / p.sigma


def gev_cdf(p: GevParams, x):
    """Distribution function of H_{xi,mu,sigma}, clamped to 0/1 outside support.

    Total in x (scalar or array); continuous everywhere.  A NaN x gives NaN.
    """
    return elementwise(_cdf, x, p)


def _cdf(x, p: GevParams):
    z = _standardize(p, x)
    if p.is_gumbel:
        return np.exp(-np.exp(-np.maximum(z, GUMBEL_Z_MIN)))
    t, w = _t_power(p, z)
    below = 0.0 if p.xi > 0 else 1.0
    return np.where(t <= 0, below, np.exp(-w))


def gev_quantile(p: GevParams, q):
    """Inverse of ``gev_cdf`` on (0, 1)."""
    return elementwise(_quantile, check_level(q), p)


def _quantile(q, p: GevParams):
    ell = -np.log(q)
    if p.is_gumbel:
        return p.mu - p.sigma * np.log(ell)
    # ell^(-xi) - 1 cancels for small |xi|; expm1 keeps its digits there
    grow = np.expm1(-p.xi * np.log(ell)) if abs(p.xi) < XI_LOG1P else ell ** (-p.xi) - 1.0
    return p.mu + p.sigma * grow / p.xi


def gev_density(p: GevParams, x):
    """Density of H_{xi,mu,sigma}; zero outside the support and at x = +-inf.

    A NaN x gives NaN, as in ``gev_cdf``.
    """
    return elementwise(_density, x, p)


def _density(x, p: GevParams):
    z = _standardize(p, x)
    if p.is_gumbel:
        zc = np.maximum(z, GUMBEL_Z_MIN)
        return np.exp(-zc - np.exp(-zc)) / p.sigma
    t, w = _t_power(p, z)
    safe = np.where(t > 0, t, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # w overflows only far in the tail, where exp(-w) is 0 first
        body = np.where(np.isinf(w), 0.0, w / safe * np.exp(-w) / p.sigma)
    return np.where(t <= 0, 0.0, body)


def gev_support(p: GevParams) -> tuple[float, float]:
    """Open interval {x : 1 + xi*(x - mu)/sigma > 0}."""
    if p.is_gumbel:
        return (-math.inf, math.inf)
    edge = p.mu - p.sigma / p.xi
    return (edge, math.inf) if p.xi > 0 else (-math.inf, edge)


def gev_power(p: GevParams, theta: float) -> GevParams:
    """Parameters q with gev_cdf(q, x) == gev_cdf(p, x)**theta for all x.

    Closed form: for xi == 0, mu' = mu + sigma*log(theta), sigma' = sigma; for
    xi != 0, sigma' = sigma*theta**xi and mu' = mu + sigma*(theta**xi - 1)/xi.
    The pointwise identity is the contract here.  A form sometimes quoted with
    sigma' = sigma*theta**(1/|xi|) and mu' = mu does not satisfy it (plug
    x into H^theta to check); only the exponent xi does.
    """
    check_positive("theta", theta)
    if p.is_gumbel:
        return GevParams(p.xi, p.mu + p.sigma * math.log(theta), p.sigma)
    # expm1 keeps (theta^xi - 1)/xi accurate through the xi -> 0 crossover
    grow = math.expm1(p.xi * math.log(theta))
    return GevParams(p.xi, p.mu + p.sigma * grow / p.xi, p.sigma * (1.0 + grow))
