"""Property tests over the whole double range: the root-finder, inverse round
trips, Frechet bounds of every model's diagonal, quantile round trips and the
EFGM diagonal against quadrature."""

import math
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from maxdep._numutil import solve_increasing
from maxdep.diagonals import efgm_mixture_diagonal
from maxdep.distortions import amh_uniform_mixture, archimedean_limit, efgm_limit
from maxdep.generators import builtin_generator, generator_from_f
from maxdep.models import MODELS

DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max

# derandomized: the same examples on every run, so a failure reproduces
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

U_LO, U_HI = 1e-300, 1.0 - 1e-15
# plain floats, log-uniform levels and levels just below 1, so every scale is drawn
UNIT = st.one_of(
    st.floats(U_LO, U_HI),
    st.floats(math.log(U_LO), 0.0).map(math.exp),
    st.floats(1.0 - U_HI, 0.5).map(lambda d: 1.0 - d),
).filter(lambda u: U_LO <= u <= U_HI)

GENERATORS = st.one_of(
    st.just(("independence", None)),
    st.just(("ballerini", None)),
    st.tuples(st.just("amh"), st.floats(0.01, 0.99)),
    st.tuples(st.just("clayton"), st.floats(0.1, 10.0)),
    st.tuples(st.just("frank"), st.floats(0.1, 20.0)),
    st.tuples(st.just("gumbel"), st.floats(1.0, 10.0)),
    st.tuples(st.just("joe"), st.floats(1.01, 10.0)),
)


@PROPERTY
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
def test_solver_roots_with_and_without_slope(targets):
    # x^3 + x is strictly increasing; each target gets its own bracket
    y = np.asarray(targets)
    lo, hi = np.full_like(y, -3.0), np.full_like(y, 3.0)
    newton = solve_increasing(lambda x: (x**3 + x, 3.0 * x**2 + 1.0), y, lo, hi, 1e-13)
    bisection = solve_increasing(lambda x: x**3 + x, y, lo, hi, 1e-13)
    for x in (newton, bisection):
        assert np.all((lo <= x) & (x <= hi))
        assert np.max(np.abs(x**3 + x - y)) <= 1e-12 * (1.0 + np.abs(y)).max()
    with pytest.raises(ValueError):
        solve_increasing(lambda x: x**3 + x, 31.0, -3.0, 3.0, 1e-13)


# psi = exp(-log1p(t) - sqrt(t)): no closed-form inverse
FROM_F = generator_from_f(
    lambda t: np.log1p(t) + np.sqrt(t),
    lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float)) + 0.5 / np.sqrt(t),
    rho=0.5,
    tag="log1p+sqrt",
)


def _check_roundtrip(g, u):
    t = float(g.psi_inv(u))
    if math.isinf(t):
        # only where the true inverse lies beyond the largest double
        assert float(g.psi(DBL_MAX)) >= u, (g.tag, u)
    else:
        assert float(g.psi(t)) == pytest.approx(u, rel=1e-12), (g.tag, u, t)


@PROPERTY
@given(GENERATORS, UNIT)
def test_builtin_inverse_roundtrip(spec, u):
    _check_roundtrip(builtin_generator(*spec), u)


@PROPERTY
@given(UNIT)
def test_generator_from_f_inverse_roundtrip(u):
    _check_roundtrip(FROM_F, u)


@PROPERTY
@given(UNIT)
def test_ballerini_diagonal_frechet_bounds(u):
    fam = builtin_generator("ballerini")
    delta = float(fam.psi(2.0 * float(fam.psi_inv(u))))
    assert max(2.0 * u - 1.0, 0.0) <= delta <= u


# parameters of every model table entry that has a diagonal
DIAGONAL_PARAMS = {
    "independence": {},
    "comonotone": {},
    "movingmax": {"k": 2},
    "cuadras-auge": {"theta": 0.4},
    "logistic": {"theta": 2.0},
    "efgm": {"theta": -0.8},
    "ballerini": {},
    "clayton": {"theta": 2.0},
    "frank": {"theta": 3.0},
    "gumbel": {"theta": 2.0},
    "joe": {"theta": 2.0},
    "amh": {"theta": 0.6},
}


@pytest.mark.parametrize("name", [name for name, spec in MODELS.items() if spec.diagonal])
@PROPERTY
@given(u=UNIT)
def test_model_diagonal_frechet_bounds(name, u):
    delta = float(MODELS[name].diagonal(**DIAGONAL_PARAMS[name])(2, u))
    # relative 1e-13, the accuracy of the diagonals: for a tail-independent
    # model delta_2 - (2u - 1) is O((1-u)^2), below one ulp of delta_2 once
    # 1 - u < 1e-8, so there the lower bound holds only up to rounding
    assert max(2.0 * u - 1.0, 0.0) * (1.0 - 1e-13) <= delta <= u * (1.0 + 1e-13), (name, u, delta)


LIMITS = st.one_of(
    st.floats(-1.0, 1.0).filter(lambda th: abs(th) >= 1e-6).map(efgm_limit),
    st.just(amh_uniform_mixture()),
    st.just(archimedean_limit(builtin_generator("ballerini"))),
)


@PROPERTY
@given(LIMITS, st.one_of(UNIT, st.floats(1e-12, 0.5).map(lambda d: 1.0 - d)).filter(lambda q: q <= 1.0 - 1e-12))
def test_quantile_roundtrip(D, q):
    Q = float(D.quantile(q))
    if q < float(D.cdf(DBL_MIN)):
        # the true quantile lies below the smallest normal double
        assert 0.0 <= Q <= DBL_MIN, (D.tag, q, Q)
    else:
        assert float(D.cdf(Q)) == pytest.approx(q, rel=1e-9), (D.tag, q, Q)


@lru_cache(maxsize=None)
def _gl(m):
    x, w = roots_legendre(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _efgm_gauss_legendre(theta, n, u):
    # degree-n polynomial in t: exact with n//2 + 1 nodes
    t, w = _gl(n // 2 + 1)
    return float(np.sum(w * (u + theta * u * (u - 1.0) * (2.0 * t - 1.0)) ** n))


@PROPERTY
@given(
    st.one_of(st.sampled_from([-1.0, 1.0, 1e-9]), st.floats(-1.0, 1.0)),
    st.sampled_from([1, 2, 3, 5, 16, 33, 100, 1000, 4096, 2**13]),
    st.floats(1e-6, 1.0 - 1e-13),
)
def test_efgm_closed_form_matches_gauss_legendre(theta, n, u):
    ref = _efgm_gauss_legendre(theta, n, u)
    got = float(efgm_mixture_diagonal(theta)(n, u))
    if ref < 1e-250:  # near underflow relative error means nothing
        assert got == pytest.approx(ref, abs=1e-250)
    else:
        assert got == pytest.approx(ref, rel=1e-11), (theta, n, u)
