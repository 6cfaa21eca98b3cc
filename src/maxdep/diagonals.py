"""Copula diagonal families, diagonal power distortions and rate machinery.

The diagonal of an n-variate copula, delta_n(u) = C_n(u, ..., u), equals the
probability that the maximum of n dependent standard uniforms stays below u.
Raising the argument to 1/r_n for a positive rate r gives the diagonal power
distortion delta_n(u^(1/r_n)), whose n -> infinity limit is the distortion
factor of the corresponding limit law.  Each diagonal takes that root as the
pair (u, r), ``fam(n, u, r)``, so 1 - u^(1/r) is never taken from a rounded
u^(1/r), which keeps only ~1e-16/(1 - u^(1/r)) of its digits.  n, u and r
broadcast: ``fam(ns[:, None], u, rs[:, None])`` evaluates a whole n schedule
in one call, bit for bit the rows ``fam(n, u, r)``.  Every dependence model
treated in this package appears here with its diagonal in closed form and,
where one exists, its canonical rate and limiting distortion.  Every one but
EFGM's has one of two shapes, built by one constructor each: a power law
u^(eta_n) (``_power_law``) or an Archimax diagonal psi(eta_n * psi_inv(u))
(``_archimax``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numutil import check_count, check_positive, check_real, on_unit, refine_max, scalar_exponent_power, scalar_or_array
from .distortions import Distortion, archimedean_limit, efgm_limit, power
from .generators import ArchGenerator


def _per_n(f, n):
    """float(f(n)) for a scalar n; over an array n, f of each element as a
    Python number, as a float array of n's shape.

    Functions of n are evaluated one n at a time, as Python scalars, so an
    n schedule gets the very doubles its n would get alone, and an n past
    the int64 range (an object array) stays exact.
    """
    if np.ndim(n) == 0:
        return float(f(n))
    n = np.asarray(n)
    return np.array([float(f(k)) for k in n.ravel().tolist()]).reshape(n.shape)


def _check_n(n):
    """n as an int, or as an integer array (object arrays of ints included).

    Anything else, bools and float arrays included, or any n below 1 raises.
    """
    if isinstance(n, np.ndarray):
        if n.dtype.kind not in "iuO":
            raise ValueError(f"n must be an integer array, got dtype {n.dtype}")
        for k in n.flat:
            check_count("n", k)
        return n
    return check_count("n", n)


@dataclass(frozen=True)
class RateFn:
    """Positive rate function n -> r_n; over an array n, one r_n per element."""

    fn: Callable[[int], float]
    tag: str = ""

    def __call__(self, n):
        return _per_n(self._rate, n)

    def _rate(self, n: int) -> float:
        try:
            v = float(self.fn(n))
        except OverflowError:
            raise OverflowError(f"rate {self.tag or 'r_n'} overflows at n={n}") from None
        if not v > 0:
            raise ValueError(f"rate must be positive, got {v} at n={n}")
        return v


@dataclass(frozen=True)
class DiagonalFamily:
    """Map (n, u, r) -> delta_n(u^(1/r)) plus optional rate/limit metadata.

    ``fn`` evaluates it for u in (0, 1); calling the family checks n, u and r
    and fixes u = 0 and u = 1.  r = 1 (the default) is the diagonal itself,
    r = r_n the diagonal power distortion.  n (an int or an integer array),
    u and r broadcast against each other, and each element is bit for bit
    what the call with its own n and r gives on the same u array; a scalar
    u gives the bits of a 1-element array.

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

    def __call__(self, n, u, r=1.0):
        n = _check_n(n)
        r = np.asarray(r, dtype=float)
        if not (r > 0).all():
            raise ValueError(f"rate must be positive, got {r[~(r > 0)][0]}")
        return _delta(u, self.fn, n, r)


# endpoints are fixed for every copula diagonal; fn is evaluated only inside
_delta = on_unit("diagonal argument must lie in [0, 1]", lambda u, fn, n, r: fn(n, u, r), lambda: (0.0, 1.0))


RATE_N = RateFn(float, "n")  # the rate r_n = n


def _power_law(tag: str, eta: Callable[[int], float], rate: RateFn | None = None, limit_power: float | None = None,
               exchangeable: bool = True, finite_rate_limit: float | None = None) -> DiagonalFamily:
    """The diagonal delta_n(u) = u^(eta_n), limit distortion u^limit_power.

    fn(n, u, r) = u^(eta(n)/r), one scalar-exponent power per distinct
    exponent: a scalar exponent keeps numpy's exact fast paths (u ** 2.0
    squares), which an array exponent would skip.  The limit is built on each
    call by the module's ``power``, so rebinding that name (instrumentation,
    say) reaches it.
    """
    return DiagonalFamily(
        fn=lambda n, u, r: scalar_exponent_power(u, _per_n(eta, n) / r),
        tag=tag,
        canonical_rate=rate,
        limit_distortion=None if limit_power is None else power(limit_power),
        exchangeable=exchangeable,
        finite_rate_limit=finite_rate_limit,
    )


def logistic_eta(theta: float) -> Callable[[int], float]:
    """The logistic extremal-coefficient schedule eta_n = n^(1/theta), theta >= 1.

    It is the logistic diagonal's canonical rate, so ``bound --model
    logistic-normal`` reads the rate here without building the diagonal.
    """
    check_real("theta", theta)
    if not theta >= 1.0:
        raise ValueError(f"logistic theta must be >= 1, got {theta}")
    return lambda n: float(n) ** (1.0 / theta)


def independence_diagonal() -> DiagonalFamily:
    return _power_law("independence", float, RATE_N, 1.0)


def comonotone_diagonal() -> DiagonalFamily:
    return _power_law("comonotone", lambda n: 1.0)


def logistic_power_diagonal(theta: float) -> DiagonalFamily:
    """Power diagonal u^(eta_n) with the extremal-coefficient schedule eta_n = n^(1/theta)."""
    eta = logistic_eta(theta)
    return _power_law(f"logistic({theta})", eta, RateFn(eta, "eta"), 1.0)


def moving_max_diagonal(k: int) -> DiagonalFamily:
    """Sliding-maximum model of window k: delta_n(u) = u^((n+k)/(k+1))."""
    k = check_count("window k", k, 0)
    return _power_law(f"movingmax({k})", lambda n: (n + k) / (k + 1.0), RATE_N, 1.0 / (k + 1.0), exchangeable=False)


def cuadras_auge_diagonal(theta: float) -> DiagonalFamily:
    """delta_n(u) = u^((1-(1-theta)^n)/theta); the exponent tends to 1/theta.

    The rate has a finite limit, so the family is flagged as finite-rate: the
    plain maxima converge to F^(1/theta) and no centering sequence applies.
    """
    if not (0.0 < check_real("theta", theta) < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")

    def eta(n: int) -> float:
        return -math.expm1(n * math.log1p(-theta)) / theta

    return _power_law(f"cuadras-auge({theta})", eta, RateFn(eta, "eta"), 1.0, finite_rate_limit=1.0 / theta)


def _archimax(g: ArchGenerator, eta: Callable[[int], float], tag: str, exchangeable: bool) -> DiagonalFamily:
    """The diagonal delta_n(u) = psi(eta_n * psi_inv(u)), canonical rate
    1/(1 - psi(1/eta_n)) and the Archimedean limit distortion of g."""

    def fn(n, u, r):
        # eta_n * psi_inv(u^(1/r)) may overflow to inf, where psi is 0
        with np.errstate(over="ignore"):
            t = _per_n(eta, n) * g.psi_inv(u, r)
        out = g.psi(t)
        # below t = 1e-6, psi(t) near 1 carries an error of a few ulps, enough
        # to fall below the Frechet bound 2u - 1; its complement 1 - psi(t)
        # keeps its relative digits, so only the final subtraction rounds.
        # It is taken on those elements only: on large t it may overflow
        near_one = t < 1e-6
        if near_one.any():
            out[near_one] = 1.0 - g.one_minus_psi(t[near_one])
        return out

    rate = RateFn(lambda n: 1.0 / g.one_minus_psi(1.0 / float(eta(n))), "1/(1-psi(1/eta))")
    return DiagonalFamily(fn, f"{tag}[{g.tag}]", rate, archimedean_limit(g), exchangeable)


def archimedean_diagonal(g: ArchGenerator) -> DiagonalFamily:
    """delta_n(u^(1/r)) = psi(n * psi_inv(u, r)); canonical rate 1/(1 - psi(1/n))."""
    return _archimax(g, float, "archimedean", True)


def archimax_diagonal(g: ArchGenerator, eta: Callable[[int], float]) -> DiagonalFamily:
    """delta_n(u^(1/r)) = psi(eta_n * psi_inv(u, r)); rate 1/(1 - psi(1/eta_n))."""
    return _archimax(g, eta, "archimax", False)


def _log_binomial_mean(m: float, e):
    """log((1 - (1-e)^m) / (m*e)) for m*e < 1e-3, from the binomial series.

    The mean is 1 + sum_k a_k with a_2 = -(m-1)e/2 and a_(k+1) = -a_k (m-k) e/(k+1).
    The first term left out, a_7, is below 1e-18 of the sum, so the log keeps
    every digit, where the difference of two logs it replaces keeps only a
    share ~1e-16/(m*e) of them.
    """
    term = -(m - 1.0) * e / 2.0
    total = term
    for k in range(2, 6):
        term = -term * (m - k) * e / (k + 1.0)
        total = total + term
    return np.log1p(total)


def efgm_mixture_diagonal(theta: float) -> DiagonalFamily:
    """Exchangeable mixture diagonal int_0^1 (u + theta*u*(u-1)*(2t-1))^n dt.

    The integrand is the n-th power of a linear function of t running from
    lo = u - c to hi = u + c, c = |theta|*u*(1-u), so the integral is
    (hi^(n+1) - lo^(n+1)) / (2c(n+1)) = hi^n * (1 - (1-e)^(n+1)) / ((n+1)*e)
    with e = 2c/hi = 2|theta|(1-u) / (1 + |theta|(1-u)).  It is evaluated in
    log space at the root u^(1/r) = e^-s, s = -log(u)/r, with d = 1 - e^-s
    = -expm1(-s), log hi = log1p(|theta|*d) - s and log(1-e) = log1p(-e);
    these keep full relative accuracy for tiny theta and for u near 1.  Where
    (n+1)*e < 1e-3 the log of the mean comes from its binomial series
    (``_log_binomial_mean``), so at e = 0 (theta = 0) it is hi^n = u^n.
    """
    check_real("theta", theta)
    if not (-1.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    th = abs(theta)

    def fn(n, u, r):
        n = _per_n(float, n)
        s = -np.log(u) / r
        d = -np.expm1(-s)
        e = 2.0 * th * d / (1.0 + th * d)
        m = n + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_hi = np.log1p(th * d) - s
            log_mean = np.log(-np.expm1(m * np.log1p(-e))) - np.log(m * e)
            series = m * e < 1e-3
            if series.any():
                log_mean = np.where(series, _log_binomial_mean(m, e), log_mean)
        return np.exp(n * log_hi + log_mean)

    return DiagonalFamily(
        fn=fn,
        tag=f"efgm({theta})",
        canonical_rate=RATE_N,
        limit_distortion=efgm_limit(theta) if theta != 0.0 else power(1.0),
        exchangeable=True,
    )


def power_distortion(fam: DiagonalFamily, r: RateFn | None, n, u):
    """Diagonal power distortion delta_n(u^(1/r_n)).

    Uses the family's canonical rate when r is None.  n is an int or an
    integer array broadcasting against u, with one rate r_n per element.
    Exact at the endpoints: 0 at u = 0 and 1 at u = 1.
    """
    rate = r if r is not None else fam.canonical_rate
    if rate is None:
        raise ValueError(f"family {fam.tag} has no canonical rate; pass one explicitly")
    n = _check_n(n)  # before the rate, which need not be defined at n < 1
    return fam(n, u, rate(n))


# log(-log u) from u = 1 - 2^-53 down to the smallest positive double
_LOGLOG_SPAN = (math.log(2.0**-53), math.log(-math.log(math.ulp(0.0))))
_SUP_GRID = 1000  # points of each scan


def distortion_sup_distance(fam: DiagonalFamily, r: RateFn | None, n: int, D: Distortion) -> float:
    """sup_u |delta_n(u^(1/r_n)) - D(u)| by grid scans plus an array refine.

    One grid is linear in u; the other is linear in log(-log u) over the
    whole double range, so it also finds suprema pressed against u = 0 or
    u = 1 (for Clayton, D decays only like a power of -log u, and the
    supremum at n = 64 sits near u = e^-298).  The scan with the larger
    maximum is refined around its argmax by ``refine_max``, whose passes each
    evaluate the gap on one array of points, down to a bracket of 1e-12.
    """

    def gap(u):
        return np.abs(power_distortion(fam, r, n, u) - D.cdf(u))

    grids = (np.linspace(0.0, 1.0, _SUP_GRID), np.linspace(*_LOGLOG_SPAN, _SUP_GRID))
    to_u = (lambda x: x, lambda w: np.exp(-np.exp(w)))
    # both scans in one call; on a tie the linear one is refined
    diffs = gap(np.concatenate([f(grid) for f, grid in zip(to_u, grids)])).reshape(2, _SUP_GRID)
    k, i = np.unravel_index(np.argmax(diffs), diffs.shape)
    grid, f = grids[k], to_u[k]
    _, refined = refine_max(lambda x: gap(f(x)), grid[max(i - 1, 0)], grid[min(i + 1, _SUP_GRID - 1)])
    return max(float(diffs[k, i]), refined)


def rate_scaling_limit(r: RateFn, t: float, n_values) -> np.ndarray:
    """Trajectory r_ceil(n*t) / r_n along n_values; its limit is lambda(t).

    n_values are increasing integers >= 1.  For the logistic schedule
    eta_n = n^(1/theta) the limit is t^(1/theta).
    """
    check_positive("t", t)
    ns = _check_n(np.asarray(n_values))
    if np.any(np.diff(ns) <= 0):
        raise ValueError("n_values must be increasing")
    return np.array([r(math.ceil(n * t)) / r(n) for n in ns.tolist()])


def _ceil_times(n, t: float):
    """ceil(k*t) as an exact int for each k of a checked n, in an object array of n's shape."""
    return np.array([math.ceil(k * t) for k in np.ravel(n).tolist()], dtype=object).reshape(np.shape(n))


def mixing_discrepancy(fam: DiagonalFamily, n, t1: float, t2: float, v):
    """|delta_{m1+m2}(v) - delta_{m1}(v)*delta_{m2}(v)| with m_i = ceil(n*t_i).

    A nonvanishing limit exhibits the failure of the distributional mixing
    condition at threshold level v; pass v = u^(1/r_n) to probe the level
    matching a diagonal power distortion argument u.  Only exchangeable
    families support this factorization probe.  n (an int or an integer
    array) and v broadcast, v into n's shape, each m_i an exact int per
    element, so a whole n schedule is one call, bit for bit the calls with
    one n and v each; a scalar n and v give a float.
    """
    if not fam.exchangeable:
        raise ValueError(f"family {fam.tag} is not exchangeable")
    if not (0.0 < t1 < 1.0 and 0.0 < t2 < 1.0 and t1 + t2 < 1.0):
        raise ValueError("need t1, t2 in (0, 1) with t1 + t2 < 1")
    v = np.asarray(v, dtype=float)
    if not ((v > 0.0) & (v < 1.0)).all():
        raise ValueError("threshold level v must lie in (0, 1)")
    n = _check_n(n)
    if v.ndim > np.ndim(n):
        raise ValueError("threshold level v must broadcast into the shape of n")
    m1, m2 = _ceil_times(n, t1), _ceil_times(n, t2)
    # the three diagonals in one call, stacked on a new first axis of n
    d = fam(np.stack([m1 + m2, m1, m2]), v)
    return scalar_or_array(np.abs(d[0] - d[1] * d[2]))


def empirical_diagonal_distance(fam: DiagonalFamily, samples) -> float:
    """Max z-score of MC diagonal estimates against the analytic diagonal.

    samples is an iterable of (n, u, estimate, std_error) tuples, each n an
    integer >= 1, each estimate a finite real and each std_error a finite
    real > 0; the diagonal is evaluated at all of them in one call.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no samples supplied")
    ns, us, p_hat, se = zip(*samples)
    se = np.array([check_positive("std_error", e) for e in se])
    n = np.array([check_count("n", k) for k in ns], dtype=object)
    p_hat = np.array([check_real("estimate", p) for p in p_hat])
    z = np.abs(p_hat - fam(n, np.array(us, dtype=float))) / se
    return float(z.max())
