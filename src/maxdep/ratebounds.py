"""Exact suprema of power differences and uniform convergence-rate bounds.

Everything here is elementary calculus on u^a - u^b over [0, 1], but the
resulting inequalities assemble into computable uniform rates for the weak
convergence of normalized dependent maxima: a margin term beta(n), a ceiling
correction 3/(e*r_n) for non-integer rates, and the sup distance s(n) of the
diagonal power distortion from its limit, combined through the Holder
continuity of the limit distortion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

THREE_OVER_E = 3.0 / math.e

_LOG2 = math.log(2.0)
_WINDOW = _LOG2 / (1.0 - _LOG2)  # ~2.2589, and its reciprocal ~0.4427


class PowerSup(NamedTuple):
    value: float
    argmax: float


class WindowedBound(NamedTuple):
    bound: float
    valid: bool


def sup_power_diff(a: float, b: float) -> PowerSup:
    """sup over [0, 1] of |u^a - u^b| for 0 < a < b, with its maximizer.

    The supremum is (1 - a/b) * (b/a)^(a/(a-b)), attained at
    u* = (b/a)^(1/(a-b)).  Evaluated in log space so extreme exponents and
    nearly equal pairs keep full precision.
    """
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    log_ratio = math.log1p((b - a) / a)  # log(b/a), exact for b/a near 1
    u_star = math.exp(-log_ratio / (b - a))
    value = ((b - a) / b) * math.exp(-(a / (b - a)) * log_ratio)
    return PowerSup(value, u_star)


def small_gap_bound(a: float, b_n: float) -> WindowedBound:
    """Bound 3/e * |b_n| / a on sup |u^a - u^(a+b_n)| for a small exponent gap.

    Valid (proved) for b_n in (-a*log 2, a*log 2 / (1 - log 2)); outside that
    window the value is still returned with valid=False.
    """
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    bound = THREE_OVER_E * abs(b_n) / a
    valid = -a * _LOG2 < b_n < a * _WINDOW
    return WindowedBound(bound, valid)


def large_n_bound(b: float, a_n: float) -> WindowedBound:
    """Bound 3/e * b / a_n on sup |u^a_n - u^(a_n+b)| for a large base exponent.

    Valid for a_n >= b * (1 - log 2)/log 2 ~ 0.4427*b.
    """
    if not (b > 0 and a_n > 0):
        raise ValueError(f"need b > 0 and a_n > 0, got b={b}, a_n={a_n}")
    return WindowedBound(THREE_OVER_E * b / a_n, a_n >= b / _WINDOW)


def ceil_rate_bound(r_n: float) -> float:
    """3/(e*ceil(r_n)), bounding sup |u - u^(r_n/ceil(r_n))|.

    Trivially true (value >= the sup, which is <= 1) even for r_n <= 1.
    Callers apply the non-integer indicator themselves where it matters.
    """
    if not r_n > 0:
        raise ValueError(f"rate must be positive, got {r_n}")
    return THREE_OVER_E / math.ceil(r_n)


def ceil_power_cdf_bound(r_n: float) -> float:
    """3/(e*r_n), bounding sup_x |F^ceil(r_n)(x) - F^r_n(x)| for any cdf F."""
    if not r_n > 0:
        raise ValueError(f"rate must be positive, got {r_n}")
    return THREE_OVER_E / r_n


@dataclass(frozen=True)
class RateBoundReport:
    """Composite uniform bound with its named addends.

    bound = holder_K * (margin_term + ceiling_term)^holder_kappa
            + distortion_term, recomputable from the fields.
    """

    bound: float
    margin_term: float
    ceiling_term: float
    distortion_term: float
    holder_K: float
    holder_kappa: float
    valid: bool = True

    def recompute(self) -> float:
        return self.holder_K * (self.margin_term + self.ceiling_term) ** self.holder_kappa + self.distortion_term


def _is_integer_rate(r_n: float) -> bool:
    return float(r_n) == math.floor(r_n)


def composite_rate_bound(beta_star_n: float, s_n: float, K: float, kappa: float, r_n: float) -> RateBoundReport:
    """K*(beta(ceil r_n) + 3/(e*r_n)*1{r_n not integer})^kappa + s(n).

    Bounds sup_x of the distance between the law of the normalized maximum
    and its limit D(H(x)), given the iid margin rate beta, the Holder
    constants (K, kappa) of D, and the distortion sup distance s(n).

    Read in reverse, as ``reverse_bound``, the same assembly bounds
    sup |D_n^r - D|: there (K, kappa) are uniform Holder constants of the
    diagonal power distortions themselves, and the last argument is an
    overall rate gamma(n) bounding the distance of the normalized-maximum
    law from D(H(x)).
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    if not K > 0:
        raise ValueError(f"K must be positive, got {K}")
    if not (beta_star_n >= 0 and s_n >= 0):
        raise ValueError("rate terms must be nonnegative")
    if not r_n > 0:
        raise ValueError(f"rate must be positive, got {r_n}")
    ceiling = 0.0 if _is_integer_rate(r_n) else THREE_OVER_E / r_n
    bound = K * (beta_star_n + ceiling) ** kappa + s_n
    return RateBoundReport(bound, beta_star_n, ceiling, s_n, K, kappa)


reverse_bound = composite_rate_bound


def movingmax_s(n: int, k: int) -> float:
    """Exact sup distance of the sliding-max distortion from its limit.

    s(n) = k/(n+k) * (1 + k/n)^(-n/k); equals
    sup_u |u^((n+k)/(n(k+1))) - u^(1/(k+1))|.  k = 0 is the iid case, s = 0.
    """
    n = operator.index(n)
    k = operator.index(k)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if k == 0:
        return 0.0
    return (k / (n + k)) * (1.0 + k / n) ** (-n / k)


class CuadrasAugeSup(NamedTuple):
    exact: float
    bound: float


def cuadras_auge_sup(n: int, theta: float) -> CuadrasAugeSup:
    """Exact sup |u^eta_n - u^(1/theta)| and the bound 3/e*(1-theta)^n.

    eta_n = (1 - (1-theta)^n)/theta.  Evaluated in log space; for large n the
    term ((1-theta)^(-n) - 1) * log(1 - (1-theta)^n) is taken to its -1 limit
    once (1-theta)^n underflows.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    eps = math.exp(n * math.log1p(-theta))  # (1-theta)^n
    if eps == 0.0:
        log_exact = n * math.log1p(-theta) - 1.0
    else:
        log_exact = n * math.log1p(-theta) + (1.0 / eps - 1.0) * math.log1p(-eps)
    return CuadrasAugeSup(math.exp(log_exact), THREE_OVER_E * eps)
