"""Accuracy against mpmath: the generator inverses psi^-1(u^(1/r)) and every
model's diagonal power distortion delta_n(u^(1/r_n)), each within a fixed
number of ulps of a 50-digit evaluation of its textbook formula at the same
double arguments, and the sup distance s(n) of every model with a limit
within 1e-12 of a 50-digit refine."""

import math

import mpmath as mp
import numpy as np
import pytest

from maxdep.diagonals import RateFn, distortion_sup_distance, power_distortion
from maxdep.generators import builtin_generator
from maxdep.models import MODELS

DPS = 50


def _root(u, r):
    return mp.mpf(u) ** (1 / mp.mpf(r))


def _ulps(got, want):
    return float(abs(mp.mpf(got) - want) / math.ulp(float(want)))


def _ballerini_f(t):
    return mp.log(t) + (1 + t) * mp.log1p(1 / t)


def _ref_generator(family, theta, g):
    """psi and (u, r) -> psi^-1(u^(1/r)) in mpmath, at the exact root of the
    doubles u and r.  The ballerini inverse takes Newton steps on
    f(t) = -log(u)/r, f'(t) = log(1 + 1/t), from the double g.psi_inv(u, r):
    from a start good to ~1e-15 four of them reach every digit."""
    if family == "ballerini":
        def inv(u, r=1.0):
            t = mp.mpf(float(g.psi_inv(float(u), r)))
            for _ in range(4):
                t -= (_ballerini_f(t) + mp.log(u) / r) / mp.log1p(1 / t)
            return t

        return (lambda t: mp.exp(-_ballerini_f(t))), inv
    th = mp.mpf(theta or 0)
    em = lambda: 1 - mp.exp(-th)  # at the working precision of the call
    psi, inv = {
        "independence": (lambda t: mp.exp(-t), lambda v: -mp.log(v)),
        "clayton": (lambda t: (1 + t) ** (-1 / th), lambda v: v ** (-th) - 1),
        "gumbel": (lambda t: mp.exp(-(t ** (1 / th))), lambda v: (-mp.log(v)) ** th),
        "joe": (lambda t: 1 - (1 - mp.exp(-t)) ** (1 / th), lambda v: -mp.log(1 - (1 - v) ** th)),
        "frank": (lambda t: -mp.log(1 - em() * mp.exp(-t)) / th, lambda v: -mp.log((1 - mp.exp(-th * v)) / em())),
        "amh": (lambda t: (1 - th) / (mp.exp(t) - th), lambda v: mp.log((1 - th * (1 - v)) / v)),
    }[family]
    return psi, lambda u, r=1.0: inv(_root(u, r))


def _ref_diagonal(name, params):
    """(n, u, r) -> delta_n(u^(1/r)) in mpmath, from the model's closed form."""
    th = mp.mpf(params.get("theta", 0))
    k = params.get("k", 0)
    exponent = {
        "independence": lambda n: n,
        "comonotone": lambda n: 1,
        "movingmax": lambda n: mp.mpf(n + k) / (k + 1),
        "cuadras-auge": lambda n: (1 - (1 - th) ** n) / th,
        "logistic": lambda n: mp.mpf(n) ** (1 / th),
    }
    if name in exponent:
        return lambda n, u, r: _root(u, r) ** exponent[name](n)
    if name == "efgm":
        def delta(n, u, r):
            v = _root(u, r)
            c = abs(th) * v * (1 - v)
            return ((v + c) ** (n + 1) - (v - c) ** (n + 1)) / (2 * c * (n + 1))

        return delta
    theta = params.get("theta")
    psi, inv = _ref_generator(name, theta, builtin_generator(name, theta))
    return lambda n, u, r: psi(n * inv(u, r))


# the tables' parameters; comonotone has no canonical rate and takes r_n = n
PARAMS = {
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

# from u = 0.01 up to 1 - 1e-12, denser toward 1
POWER_U = 1.0 - np.geomspace(0.99, 1e-12, 23)


@pytest.mark.parametrize("name", [name for name, spec in MODELS.items() if spec.diagonal])
def test_power_distortion_against_mpmath(name):
    params = PARAMS[name]
    fam = MODELS[name].diagonal(**params)
    rate = fam.canonical_rate or RateFn(float, "n")
    ref = _ref_diagonal(name, params)
    worst = []
    with mp.workdps(DPS):
        for n in (2, 64, 2**14, 2**20):
            got = np.asarray(power_distortion(fam, rate, n, POWER_U), dtype=float)
            for u, p in zip(POWER_U, got):
                want = ref(n, u, rate(n))
                worst.append((_ulps(p, want), n, u, p, want))
    err, n, u, p, want = max(worst)
    assert err <= 64.0, (name, n, u, p, mp.nstr(want, 20), err)


# 1 - u from 1e-6 to 1e-3, where each inverse is small and a form that
# cancels near u = 1 loses 3 to 6 of its digits
BAND_U = 1.0 - np.geomspace(1e-6, 1e-3, 40)


# amh near theta = 1, where the two-term form it once took cancelled most
NEAR_ONE_ULPS = {("amh", 0.9): 8.0, ("amh", 0.99): 8.0}


@pytest.mark.parametrize("family,theta", [("clayton", 2.0), ("amh", 0.6), ("amh", 0.9), ("amh", 0.99), ("frank", 3.0),
                                          ("joe", 2.0)])
def test_inverse_near_one_against_mpmath(family, theta):
    g = builtin_generator(family, theta)
    _, inv = _ref_generator(family, theta, g)
    got = np.asarray(g.psi_inv(BAND_U), dtype=float)
    with mp.workdps(DPS):
        err, u = max((_ulps(t, inv(u)), u) for u, t in zip(BAND_U, got))
    assert err <= NEAR_ONE_ULPS.get((family, theta), 16.0), (family, theta, u, err)


# 1 - u from 1e-12 to 0.5, and u from the smallest subnormal to 0.5
WIDE_U = np.concatenate((1.0 - np.geomspace(1e-12, 0.5, 30), np.geomspace(5e-324, 0.5, 30)))


@pytest.mark.parametrize("theta", [0.1, 0.6, 0.9, 0.99])
def test_amh_inverse_of_root_against_mpmath(theta):
    # log1p((1-theta)*expm1(s)) cancels nowhere; s + log1p(-theta*(1-v)),
    # which it replaces up to s = 700, lost a factor (1+theta)/(1-theta)
    g = builtin_generator("amh", theta)
    _, inv = _ref_generator("amh", theta, g)
    for r in (0.01, 1.0, 37.3):
        got = np.asarray(g.psi_inv(WIDE_U, r), dtype=float)
        with mp.workdps(DPS):
            err, u = max((_ulps(t, inv(u, r)), u) for u, t in zip(WIDE_U, got))
        assert err <= 8.0, (theta, r, u, err)


def _ref_limit(name, params):
    """u -> D(u) in mpmath, for the models whose diagonal carries a limit."""
    th = mp.mpf(params.get("theta", 0))
    if name in ("independence", "cuadras-auge", "logistic"):
        return lambda u: u
    if name == "movingmax":
        return lambda u: u ** (1 / mp.mpf(params["k"] + 1))
    if name == "efgm":
        return lambda u: (u ** (1 + th) - u ** (1 - th)) / (2 * th * mp.log(u))
    g = builtin_generator(name, params.get("theta"))
    psi, _ = _ref_generator(name, params.get("theta"), g)
    return lambda u: psi((-mp.log(u)) ** (1 / mp.mpf(g.rho)))


def _mp_golden_max(f, a, b, steps=70):
    """Golden-section maximum of f on [a, b] in mpmath; the bracket ends at
    (0.618)^70, about 1e-15 of its width."""
    a, b = mp.mpf(a), mp.mpf(b)
    inv_phi = (mp.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return max(fc, fd)


# the two scans of distortion_sup_distance: linear in u, and linear in
# log(-log u) from u = 1 - 2^-53 down to the smallest positive double
SUP_SCANS = (
    (np.linspace(0.0, 1.0, 1000), lambda x: x, lambda x: x),
    (np.linspace(math.log(2.0**-53), math.log(-math.log(math.ulp(0.0))), 1000),
     lambda w: np.exp(-np.exp(w)), lambda w: mp.exp(-mp.exp(w))),
)


@pytest.mark.parametrize("name", [name for name, spec in MODELS.items() if spec.diagonal and spec.limit])
def test_sup_distance_against_mpmath_refine(name):
    # the reference refines |delta_n(u^(1/r_n)) - D(u)| in 50 digits around
    # the argmax of each scan, in the scan's own coordinate
    params = PARAMS[name]
    fam = MODELS[name].diagonal(**params)
    D = fam.limit_distortion
    ref, ref_D = _ref_diagonal(name, params), _ref_limit(name, params)
    for n in (16, 256, 4096):
        r = fam.canonical_rate(n)
        got = distortion_sup_distance(fam, None, n, D)
        grid_max, want = 0.0, mp.mpf(0)
        for grid, to_u, to_u_mp in SUP_SCANS:
            u = to_u(grid)
            gap = np.abs(power_distortion(fam, None, n, u) - D.cdf(u))
            i = int(np.argmax(gap))
            grid_max = max(grid_max, float(gap[i]))
            with mp.workdps(DPS):
                want = max(want, _mp_golden_max(lambda x: abs(ref(n, to_u_mp(x), r) - ref_D(to_u_mp(x))),
                                                grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]))
        assert got >= grid_max, (name, n, got, grid_max)
        assert abs(got - float(want)) <= 1e-12, (name, n, got, mp.nstr(want, 20))
