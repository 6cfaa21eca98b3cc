"""Archimedean generators: built-in families, constructions and diagnostics.

A generator is a continuous strictly decreasing psi with psi(0) = 1 and
psi(t) -> 0.  Each instance carries its inverse, derivative, the regular
variation index rho of 1 - psi(1/.), and -psi'(0) as an extended real.
A dedicated ``one_minus_psi`` evaluator keeps 1 - psi(s) accurate to full
relative precision for small s; the canonical rates 1/(1 - psi(1/n)) used by
the diagonal machinery would otherwise lose up to half their digits.  The
four functions of every generator are checked and evaluated in one shell;
those of psi = exp(-f), for an additive hazard f, are built from f and f'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._numutil import (check_positive, check_real, elementwise, name_key, on_unit, scalar_exponent_power,
                       solve_increasing)

# bracket grid of the numeric inverse: log t from the smallest positive double
# to the largest, through -512, ..., -1, 1, ..., 512
_LOG_T_GRID = np.array(
    [math.log(math.ulp(0.0)), *(-(2.0**k) for k in range(9, -1, -1)), *(2.0**k for k in range(10)), math.log(np.finfo(float).max)]
)


def _log1mexp(a):
    """log(1 - e^-a) for a float array a >= 0, by expm1 up to a = log 2 and log1p beyond (Maechler 2012)."""
    with np.errstate(divide="ignore"):
        return np.where(a <= math.log(2.0), np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))


@dataclass(frozen=True)
class ArchGenerator:
    """Archimedean generator bundle, built by ``_generator`` or ``scale_generator``.

    psi maps [0, inf] to [0, 1] and psi_prime is its derivative; they and
    one_minus_psi raise ValueError for an argument below 0 or NaN.
    psi_inv(u, r=1.0) is psi^-1(u^(1/r)) for u in [0, 1] and r in (0, inf]
    (u and r broadcast), inf at u = 0 and 0 at u = 1 for every r, and raises
    ValueError for any other u or r, NaN included.  All four follow
    ``_numutil.elementwise``: a scalar argument gives a float.  rho is the
    index with 1 - psi(1/x) regularly varying of order -rho at infinity;
    neg_psi_prime_0 is -psi'(0+) (math.inf allowed).
    """

    psi: Callable
    psi_inv: Callable
    psi_prime: Callable
    rho: float
    neg_psi_prime_0: float
    tag: str
    one_minus_psi: Callable


def _generator(tag: str, rho: float, neg_psi_prime_0: float, psi, psi_prime, one_minus_psi, inv) -> ArchGenerator:
    """The ArchGenerator of formulas, each checked in one shell.

    psi, psi_prime and one_minus_psi are formulas on a float array t >= 0.
    inv(s, u, r) is the inverse at s = -log(u)/r, formed once here, for a
    float array u in (0, 1) and r > 0; so 1 - u^(1/r) = -expm1(-s) is never
    taken from a rounded u^(1/r).  ``on_unit`` sets the ends u = 0 and u = 1.
    """

    def interior(u, r):
        if not (r > 0.0).all():  # NaN included
            raise ValueError("generator inverse rate must be positive")
        return inv(-np.log(u) / r, u, r)

    inverse = on_unit("generator inverse defined on [0, 1]", interior, lambda: (math.inf, 0.0))
    return ArchGenerator(_on_half_line(psi), lambda u, r=1.0: inverse(u, np.asarray(r, dtype=float)),
                         _on_half_line(psi_prime), rho, neg_psi_prime_0, tag, _on_half_line(one_minus_psi))


def _hazard(tag: str, rho: float, neg_psi_prime_0: float, f, f_prime, inv) -> ArchGenerator:
    """The ArchGenerator psi = exp(-f), psi' = -f'*exp(-f), 1 - psi = -expm1(-f) of
    formulas f and f' = f_prime on a float array t >= 0; inv is as for ``_generator``."""
    return _generator(tag, rho, neg_psi_prime_0, psi=lambda t: np.exp(-f(t)),
                      psi_prime=lambda t: -f_prime(t) * np.exp(-f(t)),
                      one_minus_psi=lambda t: -np.expm1(-f(t)), inv=inv)


def _on_half_line(f):
    """A formula f on a float array t >= 0 as a checked function of t in [0, inf]."""

    def checked(t):
        # a NaN fails the test
        if not t.min(initial=math.inf) >= 0.0:
            raise ValueError("generator argument must lie in [0, inf]")
        return f(t)

    return lambda t: elementwise(checked, t)


def _numeric_inverse(f: Callable, f_prime: Callable, excess: Callable | None = None) -> Callable:
    """Inverse formula inv(s, u, r) of psi = exp(-f) from its additive hazard f = -log psi.

    Solves log f(t) = log s in log t over the whole positive double range,
    with Newton steps (slope t*f'(t)/f(t)) inside per-element brackets read
    off a grid of log t, then takes one Newton step on f(t) = s in t itself,
    whose last digits are finer than those of log t.  Working with f keeps
    full relative accuracy where psi is near 1 (f small) and in the far
    tail, where psi itself underflows.  An inverse above the largest double
    is inf and one below the smallest positive double is 0.  f and f_prime
    map float arrays to float arrays.

    excess(t) = f(t) - log t, if given, forms the residual of that last step
    for t >= 1 as excess(t) + log(t*u): f(t) and -log u are then never
    rounded on their own, which at u = 0.005 for the ballerini generator
    (t = 73) makes the difference between 5e-14 and 8e-15 in e^-t.  At
    r != 1, where u^(1/r) is not exact, log(t) - s replaces log(t*u).  u and
    r broadcast, and that choice is made per element.
    """

    def log_f(x):
        t = np.exp(x)
        ft = f(t)
        return np.log(ft), t * f_prime(t) / ft

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = log_f(_LOG_T_GRID)[0]

    def inv(y, u, r):
        shape = y.shape
        y = y.ravel()
        with np.errstate(divide="ignore"):
            log_y = np.log(y)
        # each target's bracket is the last cell of the increasing grid that
        # starts at or below it; none exists where t is below the smallest
        # double, and the last cell is passed where t is above the largest one
        i = np.searchsorted(grid, log_y, side="right")
        inside = (i > 0) & (i < grid.size)
        out = np.where(i < grid.size, 0.0, math.inf)
        k = i[inside] - 1
        t = np.exp(solve_increasing(log_f, log_y[inside], _LOG_T_GRID[k], _LOG_T_GRID[k + 1], 1e-10))
        with np.errstate(divide="ignore", invalid="ignore"):
            res = f(t) - y[inside]
            if excess is not None:
                u_in, r_in = (np.broadcast_to(v, shape).ravel()[inside] for v in (u, r))
                log_tv = np.where(r_in == 1.0, np.log(t * u_in), np.log(t) - y[inside])
                res = np.where(t >= 1.0, excess(t) + log_tv, res)
            step = res / f_prime(t)
        out[inside] = np.where(np.isfinite(step), t - step, t)
        return out.reshape(shape)

    return inv


def _log1p_recip(t):
    # log(1 + 1/t) on a float array.  For 0 < t < 1/DBL_MAX the reciprocal
    # overflows, and there log1p(t) - log(t) gives the same quantity without
    # it; everywhere else log1p(1/t) is used unchanged.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = 1.0 / t
        return np.where(np.isinf(r), np.log1p(t) - np.log(t), np.log1p(r))


def _ballerini_f(t):
    # f(t) = (1+t)*log(1+1/t) + log(t), rewritten as log1p(t) + t*log1p(1/t);
    # both summands are then free of cancellation over the whole half line,
    # down to the smallest subnormal t (see _log1p_recip).
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
    A theta is a finite real number.  A family name is read in any case,
    with '_' as '-', as model and margin names are.
    """
    fam = name_key(family)

    if fam == "independence":
        return _hazard("independence", rho=1.0, neg_psi_prime_0=1.0, f=lambda t: t, f_prime=lambda t: 1.0,
                       inv=lambda s, u, r: s)

    if fam == "ballerini":
        return _hazard("ballerini", rho=1.0, neg_psi_prime_0=math.inf, f=_ballerini_f, f_prime=_log1p_recip,
                       inv=_numeric_inverse(_ballerini_f, _log1p_recip, lambda t: (1.0 + t) * _log1p_recip(t)))

    if theta is None:
        raise ValueError(f"family {family!r} requires a parameter")
    th = check_real("theta", theta)

    if fam == "amh":
        if not 0.0 < th < 1.0:
            raise ValueError(f"AMH parameter must lie in (0, 1), got {th}")

        def amh_inv(s, u, r):
            # log((1 - th*(1-v))/v) at v = e^-s is log1p((1-th)*expm1(s)),
            # which nothing cancels in while expm1(s) is finite; past s = 700
            # it is s + log1p(-th*(1-v)), 1 - v = -expm1(-s), whose two terms
            # cancel only for small s
            with np.errstate(over="ignore"):
                return np.where(s < 700.0, np.log1p((1.0 - th) * np.expm1(s)), s + np.log1p(th * np.expm1(-s)))

        def amh_one_minus_psi(t):
            # (e^t - 1)/(e^t - th), in e^-t from t = 700 on, where expm1 nears its overflow
            big = t >= 700.0
            e = np.expm1(np.where(big, 0.0, t))
            return np.where(big, -np.expm1(-t) / (1.0 - th * np.exp(-t)), e / (e + 1.0 - th))

        # (1-th)/(e^t - th) written with e^{-t} so huge t cannot overflow
        return _generator(f"amh({th})", rho=1.0, neg_psi_prime_0=1.0 / (1.0 - th),
                          psi=lambda t: (1.0 - th) * np.exp(-t) / (1.0 - th * np.exp(-t)),
                          psi_prime=lambda t: -(1.0 - th) * np.exp(-t) / (1.0 - th * np.exp(-t)) ** 2,
                          one_minus_psi=amh_one_minus_psi, inv=amh_inv)

    if fam == "clayton":
        check_positive("Clayton parameter", th)

        def clayton_inv(s, u, r):
            # v^-theta - 1 at v = u^(1/r): expm1(theta*s) below 1, where the
            # subtraction cancels; above, the power of u, rounded once at r = 1
            with np.errstate(over="ignore"):
                return np.where(th * s < math.log(2.0), np.expm1(th * s), scalar_exponent_power(u, -th / r) - 1.0)

        return _generator(f"clayton({th})", rho=1.0, neg_psi_prime_0=1.0 / th,
                          psi=lambda t: (1.0 + t) ** (-1.0 / th),
                          psi_prime=lambda t: -(1.0 / th) * (1.0 + t) ** (-1.0 / th - 1.0),
                          one_minus_psi=lambda t: -np.expm1(-np.log1p(t) / th), inv=clayton_inv)

    if fam == "frank":
        check_positive("Frank parameter", th)
        em = math.expm1(-th)  # e^{-theta} - 1, exact for all theta

        def psi(t):
            # log1p(w - 1) with w = 1 + em*e^{-t} >= e^{-theta}; where w < 1e-3
            # (only at theta > 6.9) that sum cancels, and w is formed as
            # (1 - e^{-t}) + e^{-theta-t} instead, on those elements only
            e = em * np.exp(-t)
            log_w = np.log1p(e)
            cancels = e < 1e-3 - 1.0
            if np.count_nonzero(cancels):
                tc = t[cancels]
                with np.errstate(divide="ignore"):
                    log_w[cancels] = np.log(-np.expm1(-tc) + np.exp(-th - tc))
            return -log_w / th

        def frank_inv(s, u, r):
            # -log(e), e = expm1(-theta*v)/em at v = u^(1/r), the power of u;
            # above e = 1/2 the log1p of its complement
            # e^{-theta*v}*expm1(-theta*(1-v))/em, 1 - v = -expm1(-s)
            v = scalar_exponent_power(u, 1.0 / r)
            e = np.expm1(-th * v) / em
            with np.errstate(divide="ignore"):
                return np.where(e > 0.5, -np.log1p(-np.exp(-th * v) * np.expm1(th * np.expm1(-s)) / em), -np.log(e))

        def psi_prime(t):
            e = em * np.exp(-t)
            return e / (th * (1.0 + e))

        # 1 - psi(t) = log1p((e^theta - 1)*(1 - e^{-t})) / theta
        return _generator(f"frank({th})", rho=1.0, neg_psi_prime_0=math.expm1(th) / th,
                          psi=psi, psi_prime=psi_prime, inv=frank_inv,
                          one_minus_psi=lambda t: np.log1p(math.expm1(th) * (-np.expm1(-t))) / th)

    if fam == "gumbel":
        if not th >= 1.0:
            raise ValueError(f"Gumbel parameter must be >= 1, got {th}")
        # the inverse s^theta overflows to inf at a tiny r, as it should
        return _hazard(f"gumbel({th})", rho=1.0 / th, neg_psi_prime_0=1.0 if th == 1.0 else math.inf,
                       f=lambda t: t ** (1.0 / th), f_prime=lambda t: (1.0 / th) * t ** (1.0 / th - 1.0),
                       inv=np.errstate(over="ignore")(lambda s, u, r: s**th))

    if fam == "joe":
        if not th > 1.0:
            raise ValueError(f"Joe parameter must be > 1, got {th}")

        def joe_inv(s, u, r):
            # -log(1 - w), w = (1-v)^theta at v = e^-s: log1p(-w) below w = 1/2;
            # above, 1 - w = -expm1(theta*log(1-v)), with log(1-v) = log1mexp(s)
            # keeping its digits where v is tiny and 1 - v rounds to 1
            w = (-np.expm1(-s)) ** th
            with np.errstate(divide="ignore"):
                return np.where(w < 0.5, -np.log1p(-w), -np.log(-np.expm1(th * _log1mexp(s))))

        # 1 - psi(t) = (1 - e^{-t})^{1/theta}
        return _generator(f"joe({th})", rho=1.0 / th, neg_psi_prime_0=math.inf,
                          psi=lambda t: -np.expm1(_log1mexp(t) / th),
                          psi_prime=lambda t: -(1.0 / th) * (-np.expm1(-t)) ** (1.0 / th - 1.0) * np.exp(-t),
                          one_minus_psi=lambda t: (-np.expm1(-t)) ** (1.0 / th), inv=joe_inv)

    raise ValueError(f"unknown generator family {family!r}")


def generator_from_f(
    f: Callable,
    f_prime: Callable,
    rho: float | None = None,
    tag: str = "from_f",
) -> ArchGenerator:
    """Build psi(t) = exp(-f(t)) from an additive hazard f.

    f and f_prime map a float array to a float array (or, for a constant f',
    a float).  f must vanish at 0, increase to infinity, and have a positive
    decreasing derivative; these and finiteness are checked on a 1000-point
    logarithmic grid (full complete monotonicity of f' cannot be verified
    numerically).  The inverse is a bracketed root find.  -psi'(0) is probed
    at t = 1e-10 and reported as inf above 1e12; note that a probe at fixed t
    cannot distinguish a large finite limit from slow (e.g. logarithmic)
    divergence.  rho may be supplied, a finite real > 0; otherwise it is
    ``rv_index_estimate(g, 2.0, 1e8)``, subject to that estimator's finite-t bias.
    """
    grid = np.logspace(-3.0, 3.0, 1000)
    fv, fpv = np.full(grid.size, f(grid), dtype=float), np.full(grid.size, f_prime(grid), dtype=float)
    # a NaN fails every comparison below, so it is refused first
    if not (np.isfinite(fv).all() and np.isfinite(fpv).all()):
        raise ValueError("f and f' must be finite on the grid")
    if not float(f(1e-10)) < 1e-3:
        raise ValueError("f must vanish at 0")
    if np.any(np.diff(fv) <= 0) or fv[-1] < 1.0:
        raise ValueError("f must be increasing toward infinity")
    # -psi'(0) is probed below the grid, and a NaN probe fails its test too
    probe = float(f_prime(1e-10))
    if np.any(fpv <= 0) or np.any(np.diff(fpv) > 1e-12 * np.abs(fpv[:-1])) or not probe > 0.0:
        raise ValueError("f' must be positive and nonincreasing")
    g = _hazard(tag, rho=math.nan if rho is None else check_positive("rho", rho),
                neg_psi_prime_0=math.inf if probe > 1e12 else probe, f=f, f_prime=f_prime,
                inv=_numeric_inverse(f, f_prime))
    return g if rho is not None else replace(g, rho=rv_index_estimate(g, 2.0, 1e8))


def scale_generator(g: ArchGenerator, c: float) -> ArchGenerator:
    """Rescale the argument: psi_c(t) = psi(c*t), for a finite c > 0.

    Generates the same copula for every c > 0 (the diagonal
    psi_c(n * psi_c^{-1}(u)) is unchanged); the induced limit distortions of
    the two generators are related by a power of the argument, see the
    distortions module.
    """
    check_positive("scale factor", c)
    # g.psi_inv checks u and forms s = -log(u)/r itself, so the inverse only divides
    return ArchGenerator(_on_half_line(lambda t: g.psi(c * t)), lambda u, r=1.0: g.psi_inv(u, r) / float(c),
                         _on_half_line(lambda t: c * g.psi_prime(c * t)), g.rho, c * g.neg_psi_prime_0,
                         f"scale({g.tag},{c})", _on_half_line(lambda t: g.one_minus_psi(c * t)))


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
    if check_positive("lambda", lam) == 1.0:
        raise ValueError("lambda must differ from 1")
    if not check_real("t", t) >= 1e4:
        raise ValueError("t must be at least 1e4")
    num = g.one_minus_psi(1.0 / (lam * t))
    den = g.one_minus_psi(1.0 / t)
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
    check_real("rho", rho)
    t = np.asarray(t_values, dtype=float)
    return t**rho * g.one_minus_psi(1.0 / t)
