"""Property tests over the whole double range: the root-finder, inverse round
trips, Frechet bounds and monotonicity in u and n of every model's diagonal,
quantile round trips, the EFGM diagonal against quadrature, the GEV power
identity and the power-difference supremum against a dense grid."""

import math
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from maxdep._numutil import scalar_or_array, solve_increasing
from maxdep.diagonals import efgm_mixture_diagonal
from maxdep.distortions import amh_uniform_mixture, archimedean_limit, efgm_limit
from maxdep.generators import builtin_generator, generator_from_f, scale_generator
from maxdep.gev import GevParams, gev_cdf, gev_density, gev_power, gev_quantile
from maxdep.margins import MARGINS, make_margin
from maxdep.models import MODELS
from maxdep.ratebounds import sup_power_diff

DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max
EPS = sys.float_info.epsilon

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


# f and f' from +, -, *, /, maximum and where only, so that the bits depend on
# neither libm nor numpy's SIMD dispatch; each case holds a target at f(lo), and
# the pins are hex floats with a slope (Newton) and without one (bisection)
SOLVER_PINS = {
    "cubic": (lambda x: x * x * x + x, lambda x: 3.0 * x * x + 1.0, [-30.0, -9.0, -1.0, -1e-300, 0.0, 0.5, 9.0],
              ["-0x1.8p+1", "-0x1.eb9098c4c76a7p+0", "-0x1.5d5a11e52f89ap-1", "-0x1.56e1fc2f8f359p-997", "0x0.0p+0",
               "0x1.b206baf529094p-2", "0x1.eb9098c4c76a7p+0"],
              ["-0x1.8p+1", "-0x1.eb9098c4c7c00p+0", "-0x1.5d5a11e530800p-1", "-0x1.8p-41", "0x0.0p+0",
               "0x1.b206baf529000p-2", "0x1.eb9098c4c7c00p+0"]),
    "flat": (lambda x: np.maximum(x, 0.0), lambda x: np.where(x > 0.0, 1.0, 0.0), [0.0, 1e-300, 0.5, 3.0],
             ["-0x1.8p+1", "0x1.56e1fc2f8f359p-997", "0x1.0p-1", "0x1.8p+1"],
             ["-0x1.8p+1", "0x1.8p-41", "0x1.0000000000800p-1", "0x1.8p+1"]),
    "jump": (lambda x: np.where(x < 0.3, 0.0, 1.0) + 0.001 * x, lambda x: np.full_like(x, 0.001),
             [-0.003, -0.002, 0.0002, 0.5, 1.0005],
             ["-0x1.8p+1", "-0x1.0p+1", "0x1.999999999999ap-3", "0x1.3333333333a9bp-2", "0x1.00000000001e0p-1"],
             ["-0x1.8p+1", "-0x1.0000000000200p+1", "0x1.999999999e000p-3", "0x1.3333333335000p-2",
              "0x1.0000000000800p-1"]),
}


@pytest.mark.parametrize("name", SOLVER_PINS)
def test_solver_keeps_its_bits(name):
    f, f_prime, targets, newton, bisection = SOLVER_PINS[name]
    y = np.array(targets)
    for got, pins in ((solve_increasing(lambda x: (f(x), f_prime(x)), y, -3.0, 3.0), newton),
                      (solve_increasing(f, y, -3.0, 3.0), bisection)):
        assert [float(v).hex() for v in got] == [float.fromhex(p).hex() for p in pins]


def test_scalar_or_array():
    assert type(scalar_or_array(np.float64(0.5))) is float
    assert type(scalar_or_array(np.array(2))) is float
    for shape in ((0,), (1,), (2, 3)):
        out = scalar_or_array(np.zeros(shape, dtype=int))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float


# psi = exp(-log1p(t) - sqrt(t)): no closed-form inverse
FROM_F = generator_from_f(
    lambda t: np.log1p(t) + np.sqrt(t),
    lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float)) + 0.5 / np.sqrt(t),
    rho=0.5,
    tag="log1p+sqrt",
)


def test_empty_targets_return_empty():
    # an empty target once kept the solver's loop running forever
    for f in (lambda x: x**3 + x, lambda x: (x**3 + x, 3.0 * x**2 + 1.0)):
        out = solve_increasing(f, np.array([]), -3.0, 3.0, 1e-13)
        assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert efgm_limit(0.8).quantile(np.array([])).shape == (0,)
    ballerini = builtin_generator("ballerini")
    assert ballerini.psi_inv(np.array([])).shape == (0,)
    # levels whose inverse lies outside the solved range leave it nothing to do
    assert ballerini.psi_inv(1.0) == 0.0 and ballerini.psi_inv(0.0) == math.inf
    assert FROM_F.psi_inv(np.array([0.0, 1.0])).tolist() == [math.inf, 0.0]


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


# parameters of every model table entry that has a diagonal; a strategy is drawn
DIAGONAL_PARAMS = {
    "independence": {},
    "comonotone": {},
    "movingmax": {"k": 2},
    "cuadras-auge": {"theta": 0.4},
    "logistic": {"theta": 2.0},
    "efgm": {"theta": -0.8},
    "ballerini": {},
    "clayton": {"theta": st.floats(0.1, 10.0)},
    "frank": {"theta": 3.0},
    "gumbel": {"theta": 2.0},
    "joe": {"theta": 2.0},
    "amh": {"theta": 0.6},
}

DIAGONAL_MODELS = [name for name, spec in MODELS.items() if spec.diagonal]


def _draw_params(name, data):
    return {k: data.draw(v, label=k) if isinstance(v, st.SearchStrategy) else v
            for k, v in DIAGONAL_PARAMS[name].items()}


@pytest.mark.parametrize("name", DIAGONAL_MODELS)
@PROPERTY
@given(u=UNIT, data=st.data())
def test_model_diagonal_frechet_bounds(name, u, data):
    params = _draw_params(name, data)
    delta = float(MODELS[name].diagonal(**params)(2, u))
    # no slack: for a tail-independent model delta_2 - (2u - 1) is
    # O((1-u)^2), below one ulp once 1 - u < 1e-8, so this holds only where
    # 1 - delta_2 is formed to its last digit
    assert max(2.0 * u - 1.0, 0.0) <= delta <= u, (name, params, u, delta)


@pytest.mark.parametrize("name", DIAGONAL_MODELS)
@PROPERTY
@given(u=UNIT, v=UNIT, n=st.sampled_from([1, 2, 3, 7, 64, 1000, 2**14, 2**20]), data=st.data())
def test_model_diagonal_monotone_in_u_and_n(name, u, v, n, data):
    # delta_n is a cdf in u, and one more component can only lower the maximum's cdf
    params = _draw_params(name, data)
    delta = MODELS[name].diagonal(**params)
    lo, hi = min(u, v), max(u, v)
    assert float(delta(n, lo)) <= float(delta(n, hi)), (name, params, n, lo, hi)
    assert float(delta(n + 1, u)) <= float(delta(n, u)), (name, params, n, u)


# fixed parameters of every model table entry with a diagonal or a limit
SCALAR_PARAMS = {**DIAGONAL_PARAMS, "clayton": {"theta": 2.0}, "power": {"theta": 0.5}, "amh-mixture": {}}
SCALAR_U = np.linspace(0.01, 0.99, 99)


@pytest.mark.parametrize("name", [name for name, spec in MODELS.items() if spec.diagonal or spec.limit])
def test_scalar_u_gives_the_bits_of_the_array_call(name):
    # numpy's scalar pow and its SIMD array pow may differ in the last digit;
    # a scalar u is evaluated as a 1-element array, so the two calls agree
    spec, params = MODELS[name], SCALAR_PARAMS[name]
    if spec.diagonal:
        fam = spec.diagonal(**params)
        for n in (2, 16, 64, 1024):
            for u in SCALAR_U.tolist():
                got = fam(n, u)
                assert type(got) is float and got == fam(n, np.array([u]))[0], (name, n, u)
    if spec.limit:
        D = spec.limit(**params)
        for u in SCALAR_U.tolist():
            assert D.cdf(u) == D.cdf(np.array([u]))[0], (name, u)
            assert D.density(u) == D.density(np.array([u]))[0], (name, u)
            got = D.quantile(u)
            assert type(got) is float and got == D.quantile(np.array([u]))[0], (name, u)


def _scalar_rule_points():
    """Points of [0, 1], the half line [0, inf] and the reals, at every scale."""
    rng = np.random.default_rng(20261020)
    unit = np.concatenate([rng.random(200), np.exp(-rng.uniform(0.0, 700.0, 50)),
                           1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 50)])
    half = np.concatenate([[0.0, math.inf], 10.0 ** rng.uniform(-300.0, 300.0, 50), rng.uniform(0.0, 20.0, 200)])
    real = np.concatenate([-half, half, rng.normal(0.0, 3.0, 100)])
    return unit[(unit > 0.0) & (unit < 1.0)], np.concatenate([[0.0, 1.0], unit]), half, real


LEVELS, UNIT_POINTS, HALF_LINE, REALS = _scalar_rule_points()


def _scalar_rule_cases():
    """(label, f, points) for the checked evaluators of generators, margins and
    GEV laws, f a function of one argument; the test above takes the models'."""
    gens = [builtin_generator(fam, th) for fam, th in [("independence", None), ("amh", 0.6), ("clayton", 2.0),
            ("frank", 3.0), ("gumbel", 2.0), ("joe", 2.0), ("ballerini", None)]]
    gens.append(scale_generator(builtin_generator("clayton", 2.0), 3.0))
    for g in gens:
        yield f"{g.tag}.psi", g.psi, HALF_LINE
        yield f"{g.tag}.psi_prime", g.psi_prime, HALF_LINE
        yield f"{g.tag}.one_minus_psi", g.one_minus_psi, HALF_LINE
        yield f"{g.tag}.psi_inv", g.psi_inv, UNIT_POINTS
        yield f"{g.tag}.psi_inv(r=7.5)", lambda u, g=g: g.psi_inv(u, 7.5), UNIT_POINTS
    margins = [make_margin(name, alpha=2.0, lam=1.5) for name in MARGINS]
    for m in margins:
        yield f"{m.tag}.cdf", m.cdf, REALS
        yield f"{m.tag}.quantile", m.quantile, LEVELS
    for xi in sorted({m.normalizers(16)[2].xi for m in margins}):
        H = GevParams(xi, 0.5, 2.0)
        yield f"gev_cdf(xi={xi})", lambda x, H=H: gev_cdf(H, x), REALS
        yield f"gev_density(xi={xi})", lambda x, H=H: gev_density(H, x), REALS
        yield f"gev_quantile(xi={xi})", lambda q, H=H: gev_quantile(H, q), LEVELS


SCALAR_RULE_CASES = list(_scalar_rule_cases())


@pytest.mark.parametrize("label, f, points", SCALAR_RULE_CASES, ids=[c[0] for c in SCALAR_RULE_CASES])
def test_a_scalar_call_has_the_bits_of_the_one_element_array_call(label, f, points):
    # one scalar rule for every checked function: a scalar x is evaluated as
    # the array [x], so it gets numpy's SIMD loop and not libm's scalar pow,
    # which differ in the last bit (Frechet(2.0).quantile once did, at 5 % of levels)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for x in points.tolist():
            got, want = f(x), f(np.array([x]))
            assert type(got) is float, (label, x)
            assert np.float64(got).tobytes() == want[0].tobytes(), (label, x, got, want[0])


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


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@PROPERTY
@given(
    xi=st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.floats(-1e-3, 1e-3)),
    mu=st.floats(-100.0, 100.0),
    sigma=_log_uniform(1e-3, 1e3),
    theta=_log_uniform(1e-3, 1e3),
    z=st.floats(-50.0, 50.0),
)
def test_gev_power_identity(xi, mu, sigma, theta, z):
    # H(x)^theta == gev_cdf(gev_power(H, theta), x) at every x
    H = GevParams(xi, mu, sigma)
    q = gev_power(H, theta)
    x = mu + sigma * z
    h = float(gev_cdf(H, x))
    assume(h >= DBL_MIN)  # below it h^theta is not computable in doubles
    lhs, rhs = h**theta, float(gev_cdf(q, x))
    # both sides see x only through t = 1 + xi*(x - mu)/sigma, whose rounding
    # grows as x nears an endpoint of the support; the error of H^theta is at
    # most that of log(-log H^theta), so the slack is the condition of t
    t = min(1.0 + xi * (x - mu) / sigma, 1.0 + xi * (x - q.mu) / q.sigma)
    kappa = 1.0 + (abs(x) + abs(mu) + abs(q.mu)) / (min(sigma, q.sigma) * t) if t > 0 else math.inf
    assert abs(lhs - rhs) <= 64.0 * EPS * kappa, (xi, mu, sigma, theta, x, lhs, rhs)


# a grid dense in s = -log u, wide enough to hold every maximizer drawn below
_S_GRID = np.geomspace(1e-10, 1e5, 200_001)


@PROPERTY
@given(a=_log_uniform(1e-3, 1e3), gap=_log_uniform(1e-12, 1e6))
def test_sup_power_diff_against_dense_grid(a, gap):
    b = a * (1.0 + gap)
    assume(b > a)
    sup = sup_power_diff(a, b)
    # |u^a - u^b| = e^(-a s) (1 - e^(-(b - a) s)), formed without cancellation
    def gap_at(s):
        return np.exp(-a * s) * -np.expm1(-(b - a) * s)

    grid_max = float(np.max(gap_at(_S_GRID)))
    # a grid maximum can only fall short of the supremum, by the grid's
    # quadratic error at a smooth maximum
    assert sup.value * (1.0 - 1e-7) <= grid_max <= sup.value * (1.0 + 1e-12), (a, b, sup, grid_max)
    # the maximizer e^(-s*) rounds to 0 once s* > 745, for the smallest exponents
    if sup.argmax > 0.0:
        assert float(gap_at(-math.log(sup.argmax))) == pytest.approx(sup.value, rel=1e-9)
