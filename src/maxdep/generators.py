"""Archimedean generators: built-in families, constructions and diagnostics.

A generator is a continuous strictly decreasing psi with psi(0) = 1 and
psi(t) -> 0.  Each instance carries its inverse, derivative, the regular
variation index rho of 1 - psi(1/.), and -psi'(0) as an extended real.
A dedicated ``one_minus_psi`` evaluator keeps 1 - psi(s) accurate to full
relative precision for small s; the canonical rates 1/(1 - psi(1/n)) used by
the diagonal machinery would otherwise lose up to half their digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._numutil import solve_increasing

# bracket grid of the numeric inverse: log t from the smallest positive double
# to the largest, through -512, ..., -1, 1, ..., 512
_LOG_T_GRID = np.array(
    [math.log(math.ulp(0.0)), *(-(2.0**k) for k in range(9, -1, -1)), *(2.0**k for k in range(10)), math.log(np.finfo(float).max)]
)


@dataclass(frozen=True)
class ArchGenerator:
    """Archimedean generator bundle.

    psi maps [0, inf) to [0, 1]; psi_inv is its inverse on (0, 1] with
    psi_inv(0) = inf for strict generators; psi_prime is the derivative on
    (0, inf).  rho is the index with 1 - psi(1/x) regularly varying of order
    -rho at infinity; neg_psi_prime_0 is -psi'(0+) (math.inf allowed).
    All callables must be pure and accept scalars or numpy arrays.
    """

    psi: Callable
    psi_inv: Callable
    psi_prime: Callable
    rho: float
    neg_psi_prime_0: float
    tag: str
    one_minus_psi: Callable = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.one_minus_psi is None:
            object.__setattr__(self, "one_minus_psi", lambda s: 1.0 - self.psi(s))


def _numeric_inverse(f: Callable, f_prime: Callable, excess: Callable | None = None) -> Callable:
    """Inverse of psi = exp(-f) from its additive hazard f = -log psi.

    Solves log f(t) = log(-log u) in log t over the whole positive double
    range, with Newton steps (slope t*f'(t)/f(t)) inside per-element brackets
    read off a grid of log t, then takes one Newton step on f(t) = -log u in
    t itself, whose last digits are finer than those of log t.  Working with
    f keeps full relative accuracy where psi is near 1 (f small) and in the
    far tail, where psi itself underflows.  An inverse above the largest
    double is inf and one below the smallest positive double is 0; so
    psi_inv(0) = inf and psi_inv(1) = 0.

    excess(t) = f(t) - log t, if given, forms the residual of that last step
    for t >= 1 as excess(t) + log(t*u): f(t) and -log u are then never
    rounded on their own, which at u = 0.005 for the ballerini generator
    (t = 73) makes the difference between 5e-14 and 8e-15 in e^-t.
    """

    def log_f(s):
        t = np.exp(s)
        ft = np.asarray(f(t), dtype=float)
        return np.log(ft), t * np.asarray(f_prime(t), dtype=float) / ft

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = log_f(_LOG_T_GRID)[0]

    def inv(u):
        arr = np.asarray(u, dtype=float)
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("generator inverse defined on [0, 1]")
        with np.errstate(divide="ignore"):
            y = -np.log(arr.ravel())
            log_y = np.log(y)
        # each target's bracket is the last grid cell starting at or below it;
        # none exists at u = 1 or where t is below the smallest double, and
        # the last cell is passed at u = 0 or where t is above the largest one
        below = grid[None, :] <= log_y[:, None]
        inside = below.any(axis=1) & ~below[:, -1]
        out = np.where(below[:, -1], math.inf, 0.0)
        k = below.shape[1] - 2 - np.argmax(below[inside, -2::-1], axis=1)
        t = np.exp(solve_increasing(log_f, log_y[inside], _LOG_T_GRID[k], _LOG_T_GRID[k + 1], 1e-10))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.asarray(f(t), dtype=float) - y[inside]
            if excess is not None:
                r = np.where(t >= 1.0, np.asarray(excess(t), dtype=float) + np.log(t * arr.ravel()[inside]), r)
            step = r / np.asarray(f_prime(t), dtype=float)
        out[inside] = np.where(np.isfinite(step), t - step, t)
        out = out.reshape(arr.shape)
        return float(out) if out.ndim == 0 else out

    return inv


def _log1p_recip(t):
    # log(1 + 1/t).  For 0 < t < 1/DBL_MAX the reciprocal overflows, and there
    # log1p(t) - log(t) gives the same quantity without it; everywhere else
    # log1p(1/t) is used unchanged.
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = 1.0 / t
        return np.where(np.isinf(r), np.log1p(t) - np.log(t), np.log1p(r))


def _ballerini_f(t):
    # f(t) = (1+t)*log(1+1/t) + log(t), rewritten as log1p(t) + t*log1p(1/t);
    # both summands are then free of cancellation over the whole half line,
    # down to the smallest subnormal t (see _log1p_recip).
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.log1p(t) + t * _log1p_recip(t)
    out = np.where(t == 0.0, 0.0, out)
    return np.where(np.isinf(t), np.inf, out)


def builtin_generator(family: str, theta: float | None = None) -> ArchGenerator:
    """Construct a built-in generator by family name.

    Families and admissible parameters: ``independence`` (none), ``amh``
    (theta in (0,1)), ``clayton`` (theta > 0), ``frank`` (theta > 0),
    ``gumbel`` (theta >= 1), ``joe`` (theta > 1), ``ballerini`` (none,
    the generator 1/(t*(1+1/t)^(1+t)) whose inverse has no closed form).
    """
    fam = family.lower().replace("-", "").replace("_", "")

    if fam == "independence":
        return ArchGenerator(
            psi=lambda t: np.exp(-np.asarray(t, dtype=float)),
            psi_inv=lambda u: -np.log(u),
            psi_prime=lambda t: -np.exp(-np.asarray(t, dtype=float)),
            rho=1.0,
            neg_psi_prime_0=1.0,
            tag="independence",
            one_minus_psi=lambda s: -np.expm1(-np.asarray(s, dtype=float)),
        )

    if fam == "ballerini":
        psi = lambda t: np.exp(-_ballerini_f(t))
        return ArchGenerator(
            psi=psi,
            psi_inv=_numeric_inverse(_ballerini_f, _log1p_recip, lambda t: (1.0 + t) * _log1p_recip(t)),
            psi_prime=lambda t: -_log1p_recip(t) * psi(t),
            rho=1.0,
            neg_psi_prime_0=math.inf,
            tag="ballerini",
            one_minus_psi=lambda s: -np.expm1(-_ballerini_f(s)),
        )

    if theta is None:
        raise ValueError(f"family {family!r} requires a parameter")
    th = float(theta)

    if fam == "amh":
        if not 0.0 < th < 1.0:
            raise ValueError(f"AMH parameter must lie in (0, 1), got {th}")
        # (1-th)/(e^t - th) written with e^{-t} so huge t cannot overflow
        return ArchGenerator(
            psi=lambda t: (1.0 - th)
            * np.exp(-np.asarray(t, dtype=float))
            / (1.0 - th * np.exp(-np.asarray(t, dtype=float))),
            psi_inv=lambda u: np.log((1.0 - th * (1.0 - np.asarray(u, dtype=float))) / u),
            psi_prime=lambda t: -(1.0 - th)
            * np.exp(-np.asarray(t, dtype=float))
            / (1.0 - th * np.exp(-np.asarray(t, dtype=float))) ** 2,
            rho=1.0,
            neg_psi_prime_0=1.0 / (1.0 - th),
            tag=f"amh({th})",
            one_minus_psi=lambda s: np.expm1(s) / (np.expm1(s) + 1.0 - th),
        )

    if fam == "clayton":
        if not th > 0.0:
            raise ValueError(f"Clayton parameter must be positive, got {th}")

        def clayton_inv(u):
            with np.errstate(over="ignore"):  # inf below DBL_MAX^(-1/theta), beyond the doubles
                return np.asarray(u, dtype=float) ** (-th) - 1.0

        return ArchGenerator(
            psi=lambda t: (1.0 + np.asarray(t, dtype=float)) ** (-1.0 / th),
            psi_inv=clayton_inv,
            psi_prime=lambda t: -(1.0 / th)
            * (1.0 + np.asarray(t, dtype=float)) ** (-1.0 / th - 1.0),
            rho=1.0,
            neg_psi_prime_0=1.0 / th,
            tag=f"clayton({th})",
            one_minus_psi=lambda s: -np.expm1(-np.log1p(s) / th),
        )

    if fam == "frank":
        if not th > 0.0:
            raise ValueError(f"Frank parameter must be positive, got {th}")
        em = math.expm1(-th)  # e^{-theta} - 1, exact for all theta
        steep = em < 1e-3 - 1.0  # theta > 6.9, the only theta at which w below can fall under 1e-3

        def psi(t):
            # log1p(w - 1) with w = 1 + em*e^{-t} >= e^{-theta}; where w < 1e-3
            # that sum cancels, and w is formed as (1 - e^{-t}) + e^{-theta-t}
            # instead, on those elements only.  The flag spares the common
            # theta its elementwise test, a pass that costs about a third of
            # the time of psi on large frailty draws
            t = np.asarray(t, dtype=float)
            if not steep:
                return -np.log1p(em * np.exp(-t)) / th
            e = em * np.exp(-t)
            log_w = np.log1p(e, out=np.empty_like(t))
            cancels = e < 1e-3 - 1.0
            with np.errstate(divide="ignore"):
                log_w[cancels] = np.log(-np.expm1(-t[cancels]) + np.exp(-th - t[cancels]))
            return -log_w / th

        def psi_inv(u):
            # -log r with r = e^{-t}; for theta > 6.9, r - 1 is formed as
            # -e^{-theta*u}*expm1(-theta*(1-u))/em and its log1p taken
            # wherever r > 1/2.  Below that theta the plain form is kept,
            # which pins the digits of the Frank tables and converge output
            u = np.asarray(u, dtype=float)
            r = np.expm1(-th * u) / em
            if not steep:
                return -np.log(r)
            with np.errstate(divide="ignore"):
                return np.where(r > 0.5, -np.log1p(-np.exp(-th * u) * np.expm1(-th * (1.0 - u)) / em), -np.log(r))

        def psi_prime(t):
            e = em * np.exp(-np.asarray(t, dtype=float))
            return e / (th * (1.0 + e))

        def one_minus(s):
            # 1 - psi(s) = log1p((e^theta - 1)*(1 - e^{-s})) / theta
            return np.log1p(math.expm1(th) * (-np.expm1(-np.asarray(s, dtype=float)))) / th

        return ArchGenerator(
            psi=psi,
            psi_inv=psi_inv,
            psi_prime=psi_prime,
            rho=1.0,
            neg_psi_prime_0=math.expm1(th) / th,
            tag=f"frank({th})",
            one_minus_psi=one_minus,
        )

    if fam == "gumbel":
        if not th >= 1.0:
            raise ValueError(f"Gumbel parameter must be >= 1, got {th}")
        return ArchGenerator(
            psi=lambda t: np.exp(-np.asarray(t, dtype=float) ** (1.0 / th)),
            psi_inv=lambda u: (-np.log(u)) ** th,
            psi_prime=lambda t: -(1.0 / th)
            * np.asarray(t, dtype=float) ** (1.0 / th - 1.0)
            * np.exp(-np.asarray(t, dtype=float) ** (1.0 / th)),
            rho=1.0 / th,
            neg_psi_prime_0=1.0 if th == 1.0 else math.inf,
            tag=f"gumbel({th})",
            one_minus_psi=lambda s: -np.expm1(-np.asarray(s, dtype=float) ** (1.0 / th)),
        )

    if fam == "joe":
        if not th > 1.0:
            raise ValueError(f"Joe parameter must be > 1, got {th}")

        def one_minus(s):
            # 1 - psi(s) = (1 - e^{-s})^{1/theta}
            return (-np.expm1(-np.asarray(s, dtype=float))) ** (1.0 / th)

        def psi(t):
            # 1 - (1-e^{-t})^{1/theta} = -expm1(log(1-e^{-t})/theta).  log1p(-e^{-t})
            # keeps the e^{-t}/theta tail instead of rounding to zero near t ~ 37,
            # but 1 - e^{-t} formed inside it carries a relative error ~1e-16/t;
            # below t = 1e-5, where that would pass ~1e-13 in psi, the log is
            # taken of -expm1(-t) instead, on those elements only; at t = 0 it
            # is -inf and psi = 1
            t = np.asarray(t, dtype=float)
            small = t < 1e-5
            with np.errstate(divide="ignore"):
                log_1m = np.log1p(-np.exp(-t), out=np.empty_like(t))
                log_1m[small] = np.log(-np.expm1(-t[small]))
                return -np.expm1(log_1m / th)

        def psi_inv(u):
            # -log1p(-(1-u)^theta) is inf once (1-u)^theta rounds to 1, below
            # u ~ 1e-16, and already loses digits near 1e-10; below 1e-3 the
            # complement 1 - (1-u)^theta comes from expm1 instead
            u = np.asarray(u, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(u < 1e-3, -np.log(-np.expm1(th * np.log1p(-u))), -np.log1p(-((1.0 - u) ** th)))

        return ArchGenerator(
            psi=psi,
            psi_inv=psi_inv,
            psi_prime=lambda t: -(1.0 / th)
            * (-np.expm1(-np.asarray(t, dtype=float))) ** (1.0 / th - 1.0)
            * np.exp(-np.asarray(t, dtype=float)),
            rho=1.0 / th,
            neg_psi_prime_0=math.inf,
            tag=f"joe({th})",
            one_minus_psi=one_minus,
        )

    raise ValueError(f"unknown generator family {family!r}")


def generator_from_f(
    f: Callable,
    f_prime: Callable,
    rho: float | None = None,
    tag: str = "from_f",
) -> ArchGenerator:
    """Build psi(t) = exp(-f(t)) from an additive hazard f.

    f must vanish at 0, increase to infinity, and have a positive decreasing
    derivative; these are checked on a 1000-point logarithmic grid (full
    complete monotonicity of f' cannot be verified numerically).  The inverse
    is a bracketed root find.  -psi'(0) is probed at t = 1e-10 and reported as
    inf above 1e12; note that a probe at fixed t cannot distinguish a large
    finite limit from slow (e.g. logarithmic) divergence.  rho may be supplied;
    otherwise it is estimated with ``rv_index_estimate`` and subject to that
    estimator's finite-t bias.
    """
    grid = np.logspace(-3.0, 3.0, 1000)
    fv = np.asarray([float(f(t)) for t in grid])
    fpv = np.asarray([float(f_prime(t)) for t in grid])
    if not float(f(1e-10)) < 1e-3:
        raise ValueError("f must vanish at 0")
    if np.any(np.diff(fv) <= 0) or fv[-1] < 1.0:
        raise ValueError("f must be increasing toward infinity")
    if np.any(fpv <= 0) or np.any(np.diff(fpv) > 1e-12 * np.abs(fpv[:-1])):
        raise ValueError("f' must be positive and nonincreasing")

    def psi(t):
        return np.exp(-np.asarray(f(t), dtype=float))

    def psi_prime(t):
        return -np.asarray(f_prime(t), dtype=float) * psi(t)

    def one_minus(s):
        return -np.expm1(-np.asarray(f(s), dtype=float))

    probe = float(f_prime(1e-10))
    neg0 = math.inf if probe > 1e12 else probe

    if rho is None:
        t0 = 1e8
        rho = -math.log(float(one_minus(1.0 / (2.0 * t0))) / float(one_minus(1.0 / t0))) / math.log(2.0)

    return ArchGenerator(
        psi=psi,
        psi_inv=_numeric_inverse(f, f_prime),
        psi_prime=psi_prime,
        rho=rho,
        neg_psi_prime_0=neg0,
        tag=tag,
        one_minus_psi=one_minus,
    )


def scale_generator(g: ArchGenerator, c: float) -> ArchGenerator:
    """Rescale the argument: psi_c(t) = psi(c*t).

    Generates the same copula for every c > 0 (the diagonal
    psi_c(n * psi_c^{-1}(u)) is unchanged); the induced limit distortions of
    the two generators are related by a power of the argument, see the
    distortions module.
    """
    if not c > 0:
        raise ValueError(f"scale factor must be positive, got {c}")
    return ArchGenerator(
        psi=lambda t: g.psi(c * np.asarray(t, dtype=float)),
        psi_inv=lambda u: g.psi_inv(u) / c,
        psi_prime=lambda t: c * g.psi_prime(c * np.asarray(t, dtype=float)),
        rho=g.rho,
        neg_psi_prime_0=c * g.neg_psi_prime_0,
        tag=f"scale({g.tag},{c})",
        one_minus_psi=lambda s: g.one_minus_psi(c * np.asarray(s, dtype=float)),
    )


def rv_index_estimate(g: ArchGenerator, lam: float, t: float) -> float:
    """Finite-t estimate of the regular variation index of 1 - psi(1/.).

    Returns -log[(1-psi(1/(lam*t))) / (1-psi(1/t))] / log(lam), which tends to
    rho as t grows.  The bias is driven by the slowly varying factor: for
    families whose factor converges (all parametric built-ins) it decays like
    1/t or faster, while a log-type factor decays only like 1/log(t).  For the
    factor 1 + log(t) (the ballerini generator) the estimate approaches rho
    from below with bias log1p(log(lam)/(1 + log(t)))/log(lam); at lam = 2
    that is 0.0506 at t = 1e8 and drops below 0.005 only past t ~ e^137.
    """
    if not (lam > 0 and lam != 1.0):
        raise ValueError("lambda must be positive and different from 1")
    if not t >= 1e4:
        raise ValueError("t must be at least 1e4")
    num = float(g.one_minus_psi(1.0 / (lam * t)))
    den = float(g.one_minus_psi(1.0 / t))
    if num <= 0.0 or den <= 0.0:
        raise FloatingPointError(
            "1 - psi underflowed; use a larger lambda or evaluate at smaller t"
        )
    return -math.log(num / den) / math.log(lam)


def polynomial_growth_trajectory(g: ArchGenerator, rho: float, t_values) -> np.ndarray:
    """Values of t^rho * (1 - psi(1/t)) along t_values.

    Convergence to a finite positive constant is the polynomial growth
    property; divergence (as for the ballerini generator with rho = 1) shows
    the slowly varying factor is unbounded.
    """
    t = np.asarray(t_values, dtype=float)
    return t**rho * np.asarray(g.one_minus_psi(1.0 / t), dtype=float)
