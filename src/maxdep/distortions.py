"""Limiting distortion functions D and the composite laws D(H(x)).

A distortion is a continuous distribution function on [0, 1] with D(0) = 0
and D(1) = 1.  Composed with a GEV cdf it yields the limit law of suitably
normalized dependent maxima; the variants here are the power distortion
u^theta, the Archimedean limit psi((-log u)^(1/rho)), the exchangeable
mixture limit (u^(1+theta) - u^(1-theta)) / (2*theta*log u), the closed-form
uniform mixture of the AMH limits, and finite or Gauss-Legendre mixtures
over a parametric family of distortions.  Quantiles without a closed form
come from one vectorized Newton solve in log u over all levels at once.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numutil import check_count, check_level, check_positive, check_real, elementwise, on_unit
# bound under its earlier name, which the benchmark's tracer rebinds to count
# the cdf evaluations of the quantile solves
from ._numutil import solve_increasing as bisect_increasing
from .generators import ArchGenerator
from .gev import GevParams, gev_cdf


@dataclass(frozen=True)
class Distortion:
    """cdf/density/quantile bundle on [0, 1].

    cdf and density take u in [0, 1] and raise elsewhere, NaN included; the
    density at 0 and 1 is its boundary limit (possibly infinite).  quantile
    maps levels in (0, 1) to [0, 1] and raises at any other level.
    """

    cdf: Callable
    density: Callable
    quantile: Callable
    tag: str = "distortion"


def _distortion(tag: str, cdf, density, density_ends, quantile=None) -> Distortion:
    """The Distortion of formulas on (0, 1): D(0) = 0, D(1) = 1, the density's
    boundary values from density_ends(), called once at the first call that
    needs one, and the quantile solved numerically where no formula is given."""
    cdf = on_unit("distortion argument must lie in [0, 1]", cdf, lambda: (0.0, 1.0))
    density = on_unit("distortion argument must lie in [0, 1]", density, functools.cache(density_ends))
    quantile = quantile or _numeric_quantile(cdf, density)
    return Distortion(cdf, density, lambda q: elementwise(quantile, check_level(q)), tag)


# log of the smallest normal double: the lower end of every quantile solve
_LOG_DBL_MIN = math.log(sys.float_info.min)


def _numeric_quantile(cdf, density) -> Callable:
    """Quantile by a Newton solve of log D(u) = log q in x = log u.

    The slope of log D in log u is u*d(u)/D(u).  All levels are solved in one
    call on [log DBL_MIN, 0], DBL_MIN the smallest normal double; a level
    below D(DBL_MIN) has a quantile below DBL_MIN, returned as 0.  D(DBL_MIN)
    is evaluated at the first quantile call and kept, so building a
    distortion whose quantile is never asked for costs no cdf call.
    """

    def log_cdf(x):
        u = np.exp(x)
        D = cdf(u)
        return np.log(D), u * density(u) / D

    @functools.cache
    def log_floor() -> float:
        with np.errstate(divide="ignore"):
            return float(np.log(cdf(sys.float_info.min)))

    def quantile(q):
        logq = np.log(q)
        inside = logq > log_floor()
        x = bisect_increasing(log_cdf, np.where(inside, logq, 0.0), _LOG_DBL_MIN, 0.0, 1e-10)
        return np.where(inside, np.exp(x), 0.0)

    return quantile


def power(theta: float) -> Distortion:
    """D(u) = u^theta for a finite theta > 0 (identity at theta = 1); d(0) = inf for theta < 1."""
    check_positive("power exponent", theta)
    return _distortion(f"power({theta})", lambda u: u**theta, lambda u: theta * u ** (theta - 1.0),
                       lambda: (theta * 0.0 ** (theta - 1.0) if theta >= 1.0 else math.inf, theta),
                       lambda q: q ** (1.0 / theta))


def _arch_density_at_zero(g: ArchGenerator) -> float:
    # d(0) = lim_{y->inf} -psi'(y) * y^(1-rho) * e^(y^rho) / rho, probed in
    # log space at two points to classify divergence vs a finite limit.
    def h(y):
        p = -g.psi_prime(y)
        if p <= 0.0:  # derivative underflow: the e^(y^rho) factor cannot save it
            return -math.inf
        return math.log(p) + (1.0 - g.rho) * math.log(y) + y**g.rho - math.log(g.rho)

    h1, h2 = h(40.0), h(80.0)
    if h2 > h1 + 1.0 and h2 > 50.0:
        return math.inf
    return math.exp(h2) if h2 > -math.inf else 0.0


def _arch_density_at_one(g: ArchGenerator) -> float:
    # d(1) = -psi'(0) when rho = 1, else lim_{y->0} -psi'(y)*y^(1-rho)/rho.
    if g.rho == 1.0:
        return g.neg_psi_prime_0
    val = -g.psi_prime(1e-12) * (1e-12) ** (1.0 - g.rho) / g.rho
    return math.inf if val > 1e12 else val


def archimedean_limit(g: ArchGenerator) -> Distortion:
    """D(u) = psi((-log u)^(1/rho)) with analytic density and quantile.

    Density d(u) = -psi'(y) * y^(1-rho) / (rho * u) at y = (-log u)^(1/rho),
    with the boundary limits d(1) = -psi'(0) when rho = 1 (else the y->0
    limit of the same expression) and d(0) the y->inf limit.

    Rescaling the generator shifts the distortion by a power of the argument:
    with psi_c(t) = psi(c*t) one has D_{psi_c}(u) = D_psi(u^(c^rho)).  For
    Clayton(theta), D(u) = (1 - log u)^(-1/theta) and the scaled generator
    (1 + c*t)^(-1/theta) gives (1 - c*log u)^(-1/theta) = D(u^c), since
    rho = 1 there.
    """
    rho = g.rho
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"generator rho must lie in (0, 1], got {rho}")

    def cdf(u):
        with np.errstate(over="ignore"):
            return g.psi((-np.log(u)) ** (1.0 / rho))

    def density(u):
        y = (-np.log(u)) ** (1.0 / rho)
        return -g.psi_prime(y) * y ** (1.0 - rho) / (rho * u)

    return _distortion(f"arch-limit[{g.tag}]", cdf, density,
                       lambda: (_arch_density_at_zero(g), _arch_density_at_one(g)),
                       lambda q: np.exp(-g.psi_inv(q) ** rho))


def efgm_limit(theta: float) -> Distortion:
    """Exchangeable-mixture limit (u^(1+theta) - u^(1-theta))/(2*theta*log u).

    Symmetric in theta (the theta and -theta mixtures share one limit) and
    extended by continuity with D(1) = 1.  The two powers cancel as
    z = theta*log u -> 0, with a relative error of about 1e-16/|z|; below
    |z| = 1e-3 the cdf is taken in the equal form u*sinh(z)/z instead.
    """
    if not (-1.0 <= check_real("theta", theta) <= 1.0) or theta == 0.0:
        raise ValueError(f"theta must lie in [-1, 1] and differ from 0, got {theta}")

    def cdf(u):
        L = np.log(u)
        z = theta * L
        direct = (u ** (1.0 + theta) - u ** (1.0 - theta)) / (2.0 * theta * L)
        with np.errstate(over="ignore"):
            return np.where(np.abs(z) < 1e-3, u * np.sinh(z) / z, direct)

    th = abs(theta)

    def density(u):
        # d = sinh(z)/z + |t|*(z*cosh z - sinh z)/z^2 with z = |t|*log u, the
        # derivative of u*sinh(z)/z.  Below |z| = 0.1 both terms come from
        # their series, which keep full precision as u -> 1.  Elsewhere
        # d = c_plus*u^|t| + c_minus*u^-|t|, the u^-|t| term taken in log
        # space so that it overflows only where d exceeds DBL_MAX.
        z = th * np.log(u)
        small = np.abs(z) < 0.1
        zl = np.where(small, -1.0, z)
        w = 0.5 / (zl * zl)
        with np.errstate(over="ignore"):
            out = np.asarray(((1.0 + th) * zl - th) * w * np.exp(zl) + np.exp(np.log(((th - 1.0) * zl + th) * w) - zl))
        if np.count_nonzero(small):
            zs = z[small]
            zz = zs * zs
            sinhc = 1.0 + zz * (1 / 6 + zz * (1 / 120 + zz * (1 / 5040 + zz * (1 / 362880 + zz / 39916800))))
            odd = zs * (1 / 3 + zz * (1 / 30 + zz * (1 / 840 + zz * (1 / 45360 + zz / 3991680))))
            out[small] = sinhc + th * odd
        return out

    # d(0+) = +inf; d(1) = 1
    return _distortion(f"efgm({theta})", cdf, density, lambda: (math.inf, 1.0))


def parameter_mixture(components: Sequence[Distortion], weights: Sequence[float]) -> Distortion:
    """Finite mixture sum_i w_i * D_i; weights are finite reals >= 0 that sum to 1."""
    w = np.array([check_real("weight", x) for x in weights])
    if len(components) != w.size or w.size == 0:
        raise ValueError("components and weights must have equal nonzero length")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
        raise ValueError("weights must be nonnegative and sum to 1")
    comps = list(components)

    def cdf(u):
        return sum(wi * c.cdf(u) for wi, c in zip(w, comps))

    def density(u):
        return sum(wi * c.density(u) for wi, c in zip(w, comps))

    return _distortion("mixture", cdf, density, lambda: density(np.array([0.0, 1.0])))


def mixture_over_interval(make: Callable[[float], Distortion], a: float, b: float) -> Distortion:
    """Uniform mixture over theta in (a, b) via 64-node Gauss-Legendre quadrature."""
    a, b = check_real("a", a), check_real("b", b)
    # imported here, at its one use, so `import maxdep` does not pay for numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(64)
    thetas = 0.5 * (b - a) * x + 0.5 * (a + b)
    # the interval Jacobian (b-a)/2 and the uniform density 1/(b-a) reduce to
    # a flat factor 1/2 on the reference weights
    return parameter_mixture([make(t) for t in thetas], 0.5 * w)


# below u = 0.1 the AMH mixture comes from its Taylor series at 0, whose 16
# terms reach full double precision there
_AMH_SERIES_U = 0.1
_AMH_K = np.arange(1, 17)


def amh_uniform_mixture() -> Distortion:
    """Uniform-parameter mixture of the AMH limit distortions on theta in (0,1).

    Closed form D(u) = 1 + ((1-u)/u) * log1p(-u), density
    -log1p(-u)/u^2 - 1/u.  Both subtract nearly equal terms as u -> 0, so
    below u = 0.1 they come from the series D(u) = sum u^k/(k(k+1)) and
    d(u) = sum u^(k-1)/(k+1), each summed by Horner's rule: D ~ u/2 and
    d(0) = 1/2.  d(1) = +inf.  The tests check this against a Gauss-Legendre
    mixture built with ``mixture_over_interval``.
    """

    def series(closed, coefs):
        # the closed form, and below u = 0.1 sum_j coefs[j]*u^j by Horner's rule
        def f(u):
            small = u < _AMH_SERIES_U
            out = np.asarray(closed(np.where(small, 0.5, u)))
            if np.count_nonzero(small):
                us = u[small]
                acc = np.full(us.shape, coefs[-1])
                for c in coefs[-2::-1]:
                    acc = acc * us + c
                out[small] = acc
            return out

        return f

    cdf = series(lambda u: 1.0 + (1.0 - u) / u * np.log1p(-u), np.append(0.0, 1.0 / (_AMH_K * (_AMH_K + 1))))
    density = series(lambda u: -np.log1p(-u) / u**2 - 1.0 / u, 1.0 / (_AMH_K + 1))
    return _distortion("amh-uniform-mixture", cdf, density, lambda: (0.5, math.inf))


def make_distortion(variant: str, **params) -> Distortion:
    """The limit distortion D of a model by name (its ``MODELS`` limit); other parameters are ignored."""
    from .models import model_spec  # imported here: models imports this module

    spec = model_spec(variant, "limit")
    return spec.limit(**{p: params[p] for p in spec.params})


def limit_law_cdf(D: Distortion, H: GevParams, x):
    """Composite limit law D(H(x)); a distribution function on the reals."""
    return D.cdf(gev_cdf(H, x))


def max_stability_defect(Gcdf: Callable, k: int, grid) -> float:
    """How far G is from being max-stable of its own type.

    Fits the affine map (a, b) sending the 0.25/0.75 quantiles of G^k onto
    those of G, then reports the grid supremum of |G(x)^k - G(a*x + b)|.
    Near zero iff G^k is an affine re-parameterization of G, i.e. G is
    max-stable.  The four quantiles are solved together over the grid range.
    """
    check_count("k", k, 2)
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    gvals = np.asarray(Gcdf(grid), dtype=float)
    need = np.array([0.25 ** (1.0 / k), 0.75 ** (1.0 / k), 0.25, 0.75])
    if not (gvals.min() <= need.min() and gvals.max() >= need.max()):
        raise ValueError("grid does not cover the quartile range of G and G^k")
    x0, x1, y0, y1 = bisect_increasing(Gcdf, need, lo, hi, 1e-13)
    if x1 - x0 <= 0:
        raise ValueError("degenerate cdf on grid")
    a = (y1 - y0) / (x1 - x0)
    b = y0 - a * x0
    diff = np.abs(gvals ** k - np.asarray(Gcdf(a * grid + b), dtype=float))
    return float(diff.max())
