"""Copula diagonal families, diagonal power distortions and rate machinery.

The diagonal of an n-variate copula, delta_n(u) = C_n(u, ..., u), equals the
probability that the maximum of n dependent standard uniforms stays below u.
Raising the argument to 1/r_n for a positive rate r gives the diagonal power
distortion delta_n(u^(1/r_n)), whose n -> infinity limit is the distortion
factor of the corresponding limit law.  Every dependence model treated in
this package appears here with its diagonal in closed form and, where one
exists, its canonical rate and limiting distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numutil import golden_max
from .distortions import Distortion, archimedean_limit, efgm_limit, power
from .generators import ArchGenerator


@dataclass(frozen=True)
class RateFn:
    """Positive rate function n -> r_n."""

    fn: Callable[[int], float]
    tag: str = ""

    def __call__(self, n: int) -> float:
        v = float(self.fn(n))
        if not v > 0:
            raise ValueError(f"rate must be positive, got {v} at n={n}")
        return v


@dataclass(frozen=True)
class DiagonalFamily:
    """Map (n, u) -> delta_n(u) plus optional rate/limit metadata.

    ``finite_rate_limit`` is set on families whose canonical rate converges to
    a finite constant rho; no stabilization applies there and the limit of the
    plain maxima is F^rho rather than a distortion of a GEV law.
    """

    fn: Callable
    tag: str
    canonical_rate: RateFn | None = None
    limit_distortion: Distortion | None = None
    exchangeable: bool = False
    finite_rate_limit: float | None = None

    def __call__(self, n: int, u):
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("diagonal argument must lie in [0, 1]")
        # endpoints are fixed for every copula diagonal; evaluate only inside
        interior = (u > 0.0) & (u < 1.0)
        out = np.asarray(self.fn(int(n), np.where(interior, u, 0.5)), dtype=float)
        out = np.where(interior, out, np.where(u <= 0.0, 0.0, 1.0))
        return float(out) if out.ndim == 0 else out


def logistic_eta(theta: float) -> Callable[[int], float]:
    """The logistic extremal-coefficient schedule eta_n = n^(1/theta)."""
    return lambda n: float(n) ** (1.0 / theta)


def independence_diagonal() -> DiagonalFamily:
    return DiagonalFamily(
        fn=lambda n, u: u**n,
        tag="independence",
        canonical_rate=RateFn(lambda n: float(n), "n"),
        limit_distortion=power(1.0),
        exchangeable=True,
    )


def comonotone_diagonal() -> DiagonalFamily:
    return DiagonalFamily(fn=lambda n, u: u, tag="comonotone", exchangeable=True)


def logistic_power_diagonal(theta: float) -> DiagonalFamily:
    """Power diagonal u^(eta_n) with the extremal-coefficient schedule eta_n = n^(1/theta)."""
    if not theta >= 1.0:
        raise ValueError(f"logistic theta must be >= 1, got {theta}")
    eta = logistic_eta(theta)
    return DiagonalFamily(
        fn=lambda n, u: u ** eta(n),
        tag=f"logistic({theta})",
        canonical_rate=RateFn(eta, "eta"),
        limit_distortion=power(1.0),
        exchangeable=True,
    )


def moving_max_diagonal(k: int) -> DiagonalFamily:
    """Sliding-maximum model of window k: delta_n(u) = u^((n+k)/(k+1))."""
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"window k must be an integer >= 0, got {k!r}")
    k = int(k)
    return DiagonalFamily(
        fn=lambda n, u: u ** ((n + k) / (k + 1.0)),
        tag=f"movingmax({k})",
        canonical_rate=RateFn(lambda n: float(n), "n"),
        limit_distortion=power(1.0 / (k + 1.0)),
    )


def cuadras_auge_diagonal(theta: float) -> DiagonalFamily:
    """delta_n(u) = u^((1-(1-theta)^n)/theta); the exponent tends to 1/theta.

    The rate has a finite limit, so the family is flagged as finite-rate: the
    plain maxima converge to F^(1/theta) and no centering sequence applies.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")

    def eta(n: int) -> float:
        return -math.expm1(n * math.log1p(-theta)) / theta

    return DiagonalFamily(
        fn=lambda n, u: u ** eta(n),
        tag=f"cuadras-auge({theta})",
        canonical_rate=RateFn(eta, "eta"),
        limit_distortion=power(1.0),
        exchangeable=True,
        finite_rate_limit=1.0 / theta,
    )


def _arch_rate(g: ArchGenerator, eta: Callable[[int], float]) -> RateFn:
    return RateFn(lambda n: 1.0 / float(g.one_minus_psi(1.0 / float(eta(n)))), "1/(1-psi(1/eta))")


def _scaled_inverse_diagonal(g: ArchGenerator, eta: Callable[[int], float]) -> Callable:
    def fn(n, u):
        # eta_n * psi_inv(u) may overflow to inf, where psi is 0
        with np.errstate(over="ignore"):
            t = float(eta(n)) * np.asarray(g.psi_inv(u), dtype=float)
        return np.asarray(g.psi(t), dtype=float)

    return fn


def archimedean_diagonal(g: ArchGenerator) -> DiagonalFamily:
    """delta_n(u) = psi(n * psi_inv(u)); canonical rate 1/(1 - psi(1/n))."""
    return DiagonalFamily(
        fn=_scaled_inverse_diagonal(g, float),
        tag=f"archimedean[{g.tag}]",
        canonical_rate=_arch_rate(g, lambda n: float(n)),
        limit_distortion=archimedean_limit(g),
        exchangeable=True,
    )


def archimax_diagonal(g: ArchGenerator, eta: Callable[[int], float], tag: str | None = None) -> DiagonalFamily:
    """delta_n(u) = psi(eta_n * psi_inv(u)); rate 1/(1 - psi(1/eta_n))."""
    return DiagonalFamily(
        fn=_scaled_inverse_diagonal(g, eta),
        tag=tag or f"archimax[{g.tag}]",
        canonical_rate=_arch_rate(g, eta),
        limit_distortion=archimedean_limit(g),
    )


def efgm_mixture_diagonal(theta: float) -> DiagonalFamily:
    """Exchangeable mixture diagonal int_0^1 (u + theta*u*(u-1)*(2t-1))^n dt.

    The integrand is the n-th power of a linear function of t running from
    lo = u - c to hi = u + c, c = |theta|*u*(1-u), so the integral is
    (hi^(n+1) - lo^(n+1)) / (2c(n+1)) = hi^n * (1 - (1-e)^(n+1)) / ((n+1)*e)
    with e = 2c/hi = 2|theta|(1-u) / (1 + |theta|(1-u)).  It is evaluated in
    log space, with log(1-e) = log1p(-e) and, where hi >= 1/2, log hi =
    log1p(-(1-u)*(1-|theta|*u)); both keep full relative accuracy for tiny
    theta and for u near 1.  At e = 0 (theta = 0) it is hi^n = u^n.
    """
    if not (-1.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    th = abs(theta)

    def fn(n: int, u):
        u = np.asarray(u, dtype=float)
        hi = u + th * u * (1.0 - u)
        e = 2.0 * th * (1.0 - u) / (1.0 + th * (1.0 - u))
        m = n + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_hi = np.where(hi >= 0.5, np.log1p(-(1.0 - u) * (1.0 - th * u)), np.log(hi))
            log_mean = np.log(-np.expm1(m * np.log1p(-e))) - np.log(m * e)
        return np.exp(n * log_hi + np.where(e > 0.0, log_mean, 0.0))

    return DiagonalFamily(
        fn=fn,
        tag=f"efgm({theta})",
        canonical_rate=RateFn(lambda n: float(n), "n"),
        limit_distortion=efgm_limit(theta) if theta != 0.0 else power(1.0),
        exchangeable=True,
    )


def _power_arg(u, r_n: float):
    # u^(1/r_n) in log space so huge rates keep full accuracy near 0 and 1.
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(np.log(np.where(u > 0, u, 1.0)) / r_n)
    return np.where(u <= 0, 0.0, np.where(u >= 1.0, 1.0, out))


def power_distortion(fam: DiagonalFamily, r: RateFn | None, n: int, u):
    """Diagonal power distortion delta_n(u^(1/r_n)).

    Uses the family's canonical rate when r is None.  Exact at the endpoints:
    0 at u = 0 and 1 at u = 1.
    """
    rate = r if r is not None else fam.canonical_rate
    if rate is None:
        raise ValueError(f"family {fam.tag} has no canonical rate; pass one explicitly")
    r_n = rate(n)
    u = np.asarray(u, dtype=float)
    out = np.asarray(fam(n, _power_arg(u, r_n)), dtype=float)
    out = np.where(u <= 0, 0.0, np.where(u >= 1.0, 1.0, out))
    return float(out) if out.ndim == 0 else out


# log(-log u) from u = 1 - 2^-53 down to the smallest positive double
_LOGLOG_SPAN = (math.log(2.0**-53), math.log(-math.log(math.ulp(0.0))))


def distortion_sup_distance(
    fam: DiagonalFamily,
    r: RateFn | None,
    n: int,
    D: Distortion,
    grid_size: int = 1000,
) -> float:
    """sup_u |delta_n(u^(1/r_n)) - D(u)| by grid scans plus golden-section refines.

    One grid is linear in u; the other is linear in log(-log u) over the
    whole double range, so it also finds suprema pressed against u = 0 or
    u = 1 (for Clayton, D decays only like a power of -log u, and the
    supremum at n = 64 sits near u = e^-298).  The scan with the larger
    maximum is refined around its argmax.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")

    def gap(u):
        return np.abs(power_distortion(fam, r, n, u) - np.asarray(D.cdf(u), dtype=float))

    scans = []
    for grid, to_u in (
        (np.linspace(0.0, 1.0, grid_size), lambda x: x),
        (np.linspace(*_LOGLOG_SPAN, grid_size), lambda w: np.exp(-np.exp(w))),
    ):
        diff = gap(to_u(grid))
        i = int(np.argmax(diff))
        scans.append((float(diff[i]), grid[max(i - 1, 0)], grid[min(i + 1, grid_size - 1)], to_u))
    best, lo, hi, to_u = max(scans, key=lambda scan: scan[0])
    _, refined = golden_max(lambda x: float(gap(to_u(x))), float(lo), float(hi), tol=1e-12)
    return max(best, refined)


def rate_scaling_limit(r: RateFn, t: float, n_values) -> np.ndarray:
    """Trajectory r_ceil(n*t) / r_n along n_values; its limit is lambda(t).

    For the logistic schedule eta_n = n^(1/theta) the limit is t^(1/theta).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    ns = np.asarray(n_values)
    if np.any(np.diff(ns) <= 0):
        raise ValueError("n_values must be increasing")
    return np.array([r(int(math.ceil(int(n) * t))) / r(int(n)) for n in ns])


def mixing_discrepancy(fam: DiagonalFamily, n: int, t1: float, t2: float, v: float) -> float:
    """|delta_{m1+m2}(v) - delta_{m1}(v)*delta_{m2}(v)| with m_i = ceil(n*t_i).

    A nonvanishing limit exhibits the failure of the distributional mixing
    condition at threshold level v; pass v = u^(1/r_n) to probe the level
    matching a diagonal power distortion argument u.  Only exchangeable
    families support this factorization probe.
    """
    if not fam.exchangeable:
        raise ValueError(f"family {fam.tag} is not exchangeable")
    if not (0.0 < t1 < 1.0 and 0.0 < t2 < 1.0 and t1 + t2 < 1.0):
        raise ValueError("need t1, t2 in (0, 1) with t1 + t2 < 1")
    if not (0.0 < v < 1.0):
        raise ValueError("threshold level v must lie in (0, 1)")
    m1 = int(math.ceil(n * t1))
    m2 = int(math.ceil(n * t2))
    return float(abs(fam(m1 + m2, v) - fam(m1, v) * fam(m2, v)))


def empirical_diagonal_distance(fam: DiagonalFamily, samples) -> float:
    """Max z-score of MC diagonal estimates against the analytic diagonal.

    samples is an iterable of (n, u, estimate, std_error) tuples.
    """
    worst = 0.0
    count = 0
    for n, u, p_hat, se in samples:
        if not se > 0:
            raise ValueError("standard errors must be positive")
        worst = max(worst, abs(float(p_hat) - float(fam(int(n), u))) / float(se))
        count += 1
    if count == 0:
        raise ValueError("no samples supplied")
    return worst
