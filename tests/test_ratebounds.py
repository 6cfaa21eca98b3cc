import math
import random

import mpmath as mp
import numpy as np
import pytest

from maxdep._numutil import refine_max
from maxdep.ratebounds import (
    THREE_OVER_E,
    ceil_power_cdf_bound,
    ceil_rate_bound,
    composite_rate_bound,
    cuadras_auge_sup,
    large_n_bound,
    movingmax_s,
    small_gap_bound,
    sup_power_diff,
)


def numeric_sup(a, b, grid_size=100_000):
    us = np.linspace(0.0, 1.0, grid_size)
    diff = np.abs(us**a - us**b)
    i = int(np.argmax(diff))
    lo, hi = us[max(i - 1, 0)], us[min(i + 1, grid_size - 1)]
    _, refined = refine_max(lambda u: abs(u**a - u**b), lo, hi, tol=1e-13)
    return max(float(diff[i]), refined)


def test_sup_power_diff_examples():
    v, u = sup_power_diff(1.0, 2.0)
    assert (v, u) == pytest.approx((0.25, 0.5), abs=1e-15)
    v, u = sup_power_diff(2.0, 4.0)
    assert v == pytest.approx(0.25, abs=1e-14)
    assert u == pytest.approx(math.sqrt(0.5), rel=1e-14)
    v, _ = sup_power_diff(1.0, 1.0 + 1e-9)
    assert v == pytest.approx(math.exp(-1.0) * 1e-9, rel=1e-6)
    with pytest.raises(ValueError):
        sup_power_diff(2.0, 1.0)
    with pytest.raises(ValueError):
        sup_power_diff(0.0, 1.0)


def test_sup_power_diff_matches_numeric_maximization():
    rng = np.random.default_rng(20240907)
    for _ in range(50):
        a = rng.uniform(1e-3, 20.0)
        b = rng.uniform(1e-3, 20.0)
        a, b = min(a, b), max(a, b)
        if b - a < 1e-9:
            b = a + 1e-6
        assert sup_power_diff(a, b).value == pytest.approx(numeric_sup(a, b), abs=1e-9)


def test_small_gap_bound():
    assert small_gap_bound(1.0, 0.0) == (0.0, True)
    bound, valid = small_gap_bound(1.0, 0.1)
    assert bound == pytest.approx(THREE_OVER_E * 0.1, rel=1e-15)
    assert valid
    assert bound > sup_power_diff(1.0, 1.1).value
    bound, valid = small_gap_bound(1.0, -0.8)
    assert bound == pytest.approx(THREE_OVER_E * 0.8, rel=1e-15)
    assert not valid  # below -log(2)


def test_large_n_bound():
    bound, valid = large_n_bound(1.0, 100.0)
    assert bound == pytest.approx(0.011036, abs=1e-6)
    assert valid
    assert not large_n_bound(1.0, 0.1).valid
    bound, valid = large_n_bound(1.0, 10.0)
    assert valid
    assert bound >= sup_power_diff(10.0, 11.0).value


def test_windowed_bounds_truly_bound():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.uniform(0.1, 5.0)
        b_n = rng.uniform(-a * math.log(2.0) * 0.99, a * 2.25)
        bound, valid = small_gap_bound(a, b_n)
        if valid and b_n != 0.0:
            lo, hi = sorted((a, a + b_n))
            assert bound >= sup_power_diff(lo, hi).value - 1e-15


def test_ceil_bounds():
    assert ceil_rate_bound(10.5) == pytest.approx(THREE_OVER_E / 11.0, rel=1e-15)
    assert ceil_rate_bound(0.5) == pytest.approx(THREE_OVER_E, rel=1e-15)
    assert ceil_power_cdf_bound(100.0) == pytest.approx(0.011036, abs=1e-6)
    assert ceil_power_cdf_bound(0.3) == pytest.approx(THREE_OVER_E / 0.3, rel=1e-15)
    with pytest.raises(ValueError):
        ceil_rate_bound(0.0)


def test_composite_bound_examples():
    rep = composite_rate_bound(0.0, 0.0, 1.0, 1.0, 10.0)
    assert rep.bound == 0.0
    assert rep.ceiling_term == 0.0  # integer rate
    # sliding-max with a normal margin, k = 1, n = 1e4
    n, k = 10_000, 1
    rep = composite_rate_bound(3.0 / math.log(n), movingmax_s(n, k), 1.0, 0.5, float(n))
    assert rep.bound == pytest.approx(math.sqrt(3.0 / math.log(n)) + movingmax_s(n, k), rel=1e-12)
    assert rep.bound == pytest.approx(0.5707, abs=1e-3)
    assert rep.recompute() == pytest.approx(rep.bound, abs=1e-15)


def test_composite_bound_domain_errors():
    for kappa in (0.0, 1.5):
        with pytest.raises(ValueError):
            composite_rate_bound(0.1, 0.0, 1.0, kappa, 10.0)
    with pytest.raises(ValueError):
        composite_rate_bound(0.1, 0.0, -1.0, 1.0, 10.0)


def test_composite_bound_monotonicity():
    base = composite_rate_bound(0.05, 0.01, 1.0, 0.5, 10.5).bound
    assert composite_rate_bound(0.06, 0.01, 1.0, 0.5, 10.5).bound >= base
    assert composite_rate_bound(0.05, 0.02, 1.0, 0.5, 10.5).bound >= base
    assert composite_rate_bound(0.05, 0.01, 2.0, 0.5, 10.5).bound >= base
    # base < 1: nonincreasing in kappa
    kappas = np.linspace(0.1, 1.0, 10)
    bounds = [composite_rate_bound(0.05, 0.01, 1.0, kp, 10.5).bound for kp in kappas]
    assert all(x >= y for x, y in zip(bounds, bounds[1:]))


def test_movingmax_s():
    assert movingmax_s(10, 1) == pytest.approx((1.0 / 11.0) * 1.1**-10, rel=1e-14)
    assert movingmax_s(1, 1) == pytest.approx(0.25, abs=1e-15)
    assert movingmax_s(100, 0) == 0.0
    vals = [movingmax_s(n, 1) for n in (10, 100, 1000, 10_000)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    # equals the exact power-difference supremum with matched exponents
    for n, k in [(10, 1), (7, 3), (500, 2)]:
        a = 1.0 / (k + 1.0)
        b = (n + k) / (n * (k + 1.0))
        assert movingmax_s(n, k) == pytest.approx(sup_power_diff(a, b).value, rel=1e-12)
    with pytest.raises(ValueError):
        movingmax_s(0, 1)


def test_cuadras_auge_sup():
    exact, bound = cuadras_auge_sup(10, 0.5)
    a = (1.0 - 0.5**10) / 0.5
    assert exact == pytest.approx(sup_power_diff(a, 2.0).value, rel=1e-12)
    assert bound == pytest.approx(THREE_OVER_E * 0.5**10, rel=1e-14)
    assert bound >= exact
    # n = 1 reduces to sup |u - u^2| = 1/4
    assert cuadras_auge_sup(1, 0.5).exact == pytest.approx(0.25, rel=1e-12)
    # near-comonotone dependence kills both terms
    exact, bound = cuadras_auge_sup(50, 0.999)
    assert exact < 1e-100 and bound < 1e-100
    # huge n goes through the log-space branch without overflow
    exact, bound = cuadras_auge_sup(5000, 0.5)
    assert 0.0 <= exact <= bound
    with pytest.raises(ValueError):
        cuadras_auge_sup(10, 1.5)


def _ulps(got, want):
    return float(abs(mp.mpf(got) - want) / math.ulp(float(want)))


def test_movingmax_s_against_mpmath():
    # a rounded 1 + k/n raised to n/k once lost up to five digits: 1.1e-13
    # relative at (1000, 1) and 2.2e-5 at (10^12, 2)
    rng = random.Random(3)
    cases = [(1000, 1), (10**12, 2), (3, 5)] + [(rng.randrange(1, 10**15), rng.randrange(1, 6)) for _ in range(200)]
    with mp.workdps(50):
        for n, k in cases:
            want = mp.mpf(k) / (n + k) * (1 + mp.mpf(k) / n) ** (-mp.mpf(n) / k)
            assert _ulps(movingmax_s(n, k), want) <= 3.0, (n, k)


@pytest.mark.parametrize(
    "n, theta",
    [
        # (1 - theta)^n rounds to 1: once a math domain error
        (1, 1e-20), (3, 1e-17), (10, 1e-300), (1, 5e-324),
        # (1 - theta)^n near 1, once taken from a rounded (1 - theta)^n
        (3, 1e-10), (1, 1e-8), (7, 1e-5), (100, 1e-6),
        (1, 0.3), (2, 0.2), (10, 0.5), (1000, 0.5), (5000, 0.5),
    ],
)
def test_cuadras_auge_sup_against_mpmath(n, theta):
    exact, bound = cuadras_auge_sup(n, theta)
    # enough digits that 1 - (1 - theta)^n keeps its own at theta = 1e-300
    with mp.workdps(700):
        eps = (1 - mp.mpf(theta)) ** n
        want = eps * mp.exp((1 / eps - 1) * mp.log(1 - eps))
        # the rounding of n * log1p(-theta) moves the result by up to |n * log1p(-theta)| ulps
        assert _ulps(exact, want) <= 3.0 + n * -math.log1p(-theta)
        assert _ulps(bound, 3 / mp.e * eps) <= 3.0 + n * -math.log1p(-theta)
    assert exact <= bound


@pytest.mark.parametrize("a, b", [(1e-300, 1e10), (1e-200, 1e200), (5e-324, 1.0), (0.5, 1.5)])
def test_sup_power_diff_against_mpmath(a, b):
    # (b - a)/a overflows at the first two: once (0.0, 0.0) and a NaN value
    value, argmax = sup_power_diff(a, b)
    with mp.workdps(50):
        a, b = mp.mpf(a), mp.mpf(b)
        assert _ulps(value, (1 - a / b) * (b / a) ** (a / (a - b))) <= 2.0
        assert _ulps(argmax, (b / a) ** (1 / (a - b))) <= 2.0


def test_reverse_bound():
    rep = composite_rate_bound(0.0, 0.0, 1.0, 1.0, 8.0)
    assert rep.bound == 0.0
    n, k = 1000, 1
    kappa = 1.0 / (k + 1.0)  # infimum of (n+k)/(nk+n) over n
    rep = composite_rate_bound(3.0 / math.log(n), 0.01, 1.0, kappa, float(n))
    assert rep.bound == pytest.approx(math.sqrt(3.0 / math.log(n)) + 0.01, rel=1e-12)
    assert rep.distortion_term == 0.01
