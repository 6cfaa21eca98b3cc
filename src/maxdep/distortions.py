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

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

# bound under its earlier name, which the benchmark's tracer rebinds to count
# the cdf evaluations of the quantile solves
from ._numutil import solve_increasing as bisect_increasing
from .generators import ArchGenerator, builtin_generator
from .gev import GevParams, gev_cdf


@dataclass(frozen=True)
class Distortion:
    """cdf/density/quantile bundle on [0, 1].

    density is defined on the open interval with boundary limits at 0 and 1
    (possibly infinite); quantile maps (0, 1) to (0, 1).
    """

    cdf: Callable
    density: Callable
    quantile: Callable
    tag: str = "distortion"


def _vec(fn):
    def wrapped(u):
        out = fn(np.asarray(u, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    return wrapped


# log of the smallest normal double: the lower end of every quantile solve
_LOG_DBL_MIN = math.log(sys.float_info.min)


def _numeric_quantile(cdf, density) -> Callable:
    """Quantile by a Newton solve of log D(u) = log q in x = log u.

    The slope of log D in log u is u*d(u)/D(u).  All levels are solved in one
    call on [log DBL_MIN, 0], DBL_MIN the smallest normal double; a level
    below D(DBL_MIN) has a quantile below DBL_MIN, returned as 0.
    """

    def log_cdf(x):
        u = np.exp(x)
        D = np.asarray(cdf(u), dtype=float)
        return np.log(D), u * np.asarray(density(u), dtype=float) / D

    with np.errstate(divide="ignore"):
        floor = float(np.log(cdf(sys.float_info.min)))

    def quantile(q):
        arr = np.asarray(q, dtype=float)
        if ((arr <= 0) | (arr >= 1)).any():
            raise ValueError("quantile level must lie strictly in (0, 1)")
        logq = np.log(arr)
        inside = logq > floor
        x = bisect_increasing(log_cdf, np.where(inside, logq, 0.0), _LOG_DBL_MIN, 0.0, 1e-10)
        out = np.where(inside, np.exp(x), 0.0)
        return float(out) if out.ndim == 0 else out

    return quantile


def power(theta: float) -> Distortion:
    """D(u) = u^theta for theta > 0 (identity at theta = 1)."""
    if not theta > 0:
        raise ValueError(f"power exponent must be positive, got {theta}")
    return Distortion(
        cdf=_vec(lambda u: u**theta),
        density=_vec(lambda u: theta * u ** (theta - 1.0)),
        quantile=_vec(lambda q: q ** (1.0 / theta)),
        tag=f"power({theta})",
    )


def _arch_density_at_zero(g: ArchGenerator) -> float:
    # d(0) = lim_{y->inf} -psi'(y) * y^(1-rho) * e^(y^rho) / rho, probed in
    # log space at two points to classify divergence vs a finite limit.
    def h(y):
        p = float(-g.psi_prime(y))
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
    val = float(-g.psi_prime(1e-12)) * (1e-12) ** (1.0 - g.rho) / g.rho
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
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            y = (-np.log(np.where(u > 0, u, 0.5))) ** (1.0 / rho)
            core = np.asarray(g.psi(y), dtype=float)
        return np.where(u <= 0, 0.0, np.where(u >= 1, 1.0, core))

    d0 = _arch_density_at_zero(g)
    d1 = _arch_density_at_one(g)

    def density(u):
        u = np.asarray(u, dtype=float)
        inner = (u > 0) & (u < 1)
        uu = np.where(inner, u, 0.5)
        y = (-np.log(uu)) ** (1.0 / rho)
        core = -np.asarray(g.psi_prime(y), dtype=float) * y ** (1.0 - rho) / (rho * uu)
        return np.where(inner, core, np.where(u <= 0, d0, d1))

    def quantile(q):
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0) or np.any(q >= 1):
            raise ValueError("quantile level must lie strictly in (0, 1)")
        return np.exp(-np.asarray(g.psi_inv(q), dtype=float) ** rho)

    return Distortion(_vec(cdf), _vec(density), _vec(quantile), tag=f"arch-limit[{g.tag}]")


def efgm_limit(theta: float) -> Distortion:
    """Exchangeable-mixture limit (u^(1+theta) - u^(1-theta))/(2*theta*log u).

    Symmetric in theta (the theta and -theta mixtures share one limit) and
    extended by continuity with D(1) = 1.  The two powers cancel as
    z = theta*log u -> 0, with a relative error of about 1e-16/|z|; below
    |z| = 1e-3 the cdf is taken in the equal form u*sinh(z)/z instead.
    """
    if not (-1.0 <= theta <= 1.0) or theta == 0.0:
        raise ValueError(f"theta must lie in [-1, 1] and differ from 0, got {theta}")

    def cdf(u):
        u = np.asarray(u, dtype=float)
        inner = (u > 0) & (u < 1)
        uu = np.where(inner, u, 0.5)
        L = np.log(uu)
        z = theta * L
        direct = (uu ** (1.0 + theta) - uu ** (1.0 - theta)) / (2.0 * theta * L)
        with np.errstate(over="ignore"):
            core = np.where(np.abs(z) < 1e-3, uu * np.sinh(z) / z, direct)
        return np.where(inner, core, np.where(u <= 0, 0.0, 1.0))

    th = abs(theta)

    def density(u):
        # d = sinh(z)/z + |t|*(z*cosh z - sinh z)/z^2 with z = |t|*log u, the
        # derivative of u*sinh(z)/z.  Below |z| = 0.1 both terms come from
        # their series, which keep full precision as u -> 1.  Elsewhere
        # d = c_plus*u^|t| + c_minus*u^-|t|, the u^-|t| term taken in log
        # space so that it overflows only where d exceeds DBL_MAX.
        # d(0+) = +inf; d(1) = 1.
        u = np.asarray(u, dtype=float)
        inner = (u > 0) & (u < 1)
        z = th * np.log(np.where(inner, u, 0.5))
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
        return np.where(inner, out, np.where(u <= 0, np.inf, 1.0))

    return Distortion(_vec(cdf), _vec(density), _numeric_quantile(cdf, density), tag=f"efgm({theta})")


def parameter_mixture(components: Sequence[Distortion], weights: Sequence[float], tag: str = "mixture") -> Distortion:
    """Finite mixture sum_i w_i * D_i; weights must sum to 1."""
    w = np.asarray(weights, dtype=float)
    if len(components) != w.size or w.size == 0:
        raise ValueError("components and weights must have equal nonzero length")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
        raise ValueError("weights must be nonnegative and sum to 1")
    comps = list(components)

    def cdf(u):
        return sum(wi * np.asarray(c.cdf(u), dtype=float) for wi, c in zip(w, comps))

    def density(u):
        return sum(wi * np.asarray(c.density(u), dtype=float) for wi, c in zip(w, comps))

    return Distortion(_vec(cdf), _vec(density), _numeric_quantile(cdf, density), tag=tag)


def mixture_over_interval(make: Callable[[float], Distortion], a: float, b: float, nodes: int = 64, tag: str = "mixture") -> Distortion:
    """Uniform mixture over theta in (a, b) via Gauss-Legendre quadrature."""
    x, w = roots_legendre(nodes)
    thetas = 0.5 * (b - a) * x + 0.5 * (a + b)
    # the interval Jacobian (b-a)/2 and the uniform density 1/(b-a) reduce to
    # a flat factor 1/2 on the reference weights
    return parameter_mixture([make(t) for t in thetas], 0.5 * w, tag=tag)


# below u = 0.1 the AMH mixture comes from its Taylor series at 0, whose 16
# terms reach full double precision there
_AMH_SERIES_U = 0.1
_AMH_K = np.arange(1, 17)


def amh_uniform_mixture() -> Distortion:
    """Uniform-parameter mixture of the AMH limit distortions on theta in (0,1).

    Closed form D(u) = 1 + ((1-u)/u) * log1p(-u), density
    -log1p(-u)/u^2 - 1/u.  Both subtract nearly equal terms as u -> 0, so
    below u = 0.1 they come from the series D(u) = sum u^k/(k(k+1)) and
    d(u) = sum u^(k-1)/(k+1): D ~ u/2 and d(0) = 1/2.  d(1) = +inf.  The
    tests check this against a Gauss-Legendre mixture built with
    ``mixture_over_interval``.
    """

    def cdf(u):
        u = np.asarray(u, dtype=float)
        small = u < _AMH_SERIES_U
        ud = np.where(small | (u >= 1.0), 0.5, u)
        out = np.where(u >= 1.0, 1.0, 1.0 + (1.0 - ud) / ud * np.log1p(-ud))
        if np.count_nonzero(small):
            out[small] = np.maximum(u[small], 0.0)[:, None] ** _AMH_K @ (1.0 / (_AMH_K * (_AMH_K + 1)))
        return out

    def density(u):
        u = np.asarray(u, dtype=float)
        small = u < _AMH_SERIES_U
        ud = np.where(small | (u >= 1.0), 0.5, u)
        out = np.where(u >= 1.0, np.inf, -np.log1p(-ud) / ud**2 - 1.0 / ud)
        if np.count_nonzero(small):
            out[small] = np.maximum(u[small], 0.0)[:, None] ** (_AMH_K - 1) @ (1.0 / (_AMH_K + 1))
        return out

    return Distortion(_vec(cdf), _vec(density), _numeric_quantile(cdf, density), tag="amh-uniform-mixture")


def make_distortion(variant: str, **params) -> Distortion:
    v = variant.lower().replace("_", "-")
    if v == "power":
        return power(params["theta"])
    if v in ("archimedean", "arch-limit", "archimedean-limit"):
        g = params.get("generator")
        if g is None:
            g = builtin_generator(params["family"], params.get("theta"))
        return archimedean_limit(g)
    if v == "efgm":
        return efgm_limit(params["theta"])
    if v in ("amh-mixture", "amh-uniform-mixture"):
        return amh_uniform_mixture()
    raise ValueError(f"unknown distortion variant {variant!r}")


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
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
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
    diff = np.abs(np.asarray(Gcdf(grid), dtype=float) ** k - np.asarray(Gcdf(a * grid + b), dtype=float))
    return float(diff.max())
