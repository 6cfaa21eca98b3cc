import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from maxdep.gev import GevParams, gev_cdf, gev_density, gev_power, gev_quantile, gev_support

GUMBEL = GevParams(0.0, 0.0, 1.0)


def support_grid(p, lo=0.001, hi=0.999, size=100):
    return gev_quantile(p, np.linspace(lo, hi, size))


def test_cdf_examples():
    assert gev_cdf(GUMBEL, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert gev_cdf(GevParams(1.0, 1.0, 1.0), 0.0) == 0.0
    assert gev_cdf(GevParams(1.0, 0.0, 1.0), 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_cdf_clamps_and_is_monotone():
    p = GevParams(-1.0, 0.0, 1.0)  # support (-inf, 1)
    assert gev_cdf(p, 2.0) == 1.0
    assert gev_cdf(GevParams(1.0, 0.0, 1.0), -5.0) == 0.0
    xs = np.linspace(-4.0, 4.0, 400)
    for params in (GUMBEL, GevParams(0.7, -1.0, 2.0), GevParams(-0.4, 1.0, 0.5)):
        vals = gev_cdf(params, xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("p", [GUMBEL, GevParams(0.5, 1.0, 2.0), GevParams(-0.5, 1.0, 2.0), GevParams(0.005)],
                         ids=["gumbel", "frechet", "weibull", "near-gumbel"])
def test_cdf_of_nan_is_nan(p):
    # a NaN x once fell on the clamped side of the support test: 0 at xi > 0, 1 at xi < 0
    assert math.isnan(gev_cdf(p, math.nan))
    out = gev_cdf(p, np.array([math.nan, 1.5]))
    assert math.isnan(out[0]) and out[1] == gev_cdf(p, 1.5)


@pytest.mark.parametrize("p", [GUMBEL, GevParams(0.0, 3.0, 0.5), GevParams(0.5), GevParams(-0.5), GevParams(0.005), GevParams(-0.005)],
                         ids=["gumbel", "gumbel-shifted", "frechet", "weibull", "near-gumbel+", "near-gumbel-"])
def test_far_tails_are_quiet(p):
    # e^(-z) once overflowed at x = -1000 on the Gumbel branch, and under
    # error::RuntimeWarning that raised where the cdf is exactly 0; the
    # density took inf - inf at -inf there and inf/inf at xi < 0
    x = np.array([-math.inf, -1e300, -1000.0, 1000.0, 1e300, math.inf])
    assert gev_cdf(p, -1000.0) == 0.0 and gev_cdf(p, -math.inf) == 0.0
    assert gev_cdf(p, math.inf) == 1.0
    assert np.array_equal(gev_cdf(p, x), [0.0, 0.0, 0.0, gev_cdf(p, 1000.0), 1.0, 1.0])
    assert np.array_equal(gev_density(p, x[[0, 1, 2, 4, 5]]), np.zeros(5))
    assert gev_density(p, -1000.0) == 0.0 and gev_density(p, math.inf) == 0.0


@pytest.mark.parametrize("xi", [2.0, 0.0, -0.5])
def test_tiny_sigma_is_quiet(xi):
    # z = (x - mu)/sigma once overflowed unguarded for a tiny sigma; an
    # infinite z gives the cdf's limits 0 and 1 and a density of 0
    p = GevParams(xi, 0.0, 1e-300)
    x = np.array([-1e300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gev_cdf(p, -1e300) == 0.0 and gev_cdf(p, 1e300) == 1.0
        assert gev_density(p, -1e300) == 0.0 and gev_density(p, 1e300) == 0.0
        assert np.array_equal(gev_cdf(p, x), [0.0, 1.0])
        assert np.array_equal(gev_density(p, x), [0.0, 0.0])


@pytest.mark.parametrize("p", [GUMBEL, GevParams(0.5, 1.0, 2.0), GevParams(-0.5, 1.0, 2.0), GevParams(0.005)],
                         ids=["gumbel", "frechet", "weibull", "near-gumbel"])
def test_density_of_nan_is_nan(p):
    # a NaN x once gave density 0 on every branch, where the cdf gives NaN
    assert math.isnan(gev_density(p, math.nan))
    out = gev_density(p, np.array([math.nan, 1.5, -math.inf, math.inf]))
    assert math.isnan(out[0]) and out[1] == gev_density(p, 1.5) and out[1] > 0.0
    assert out[2] == 0.0 and out[3] == 0.0


def test_quantile_examples():
    assert gev_quantile(GUMBEL, math.exp(-1.0)) == pytest.approx(0.0, abs=1e-14)
    assert gev_quantile(GevParams(1.0, 0.0, 1.0), math.exp(-0.5)) == pytest.approx(1.0, rel=1e-13)
    # Weibull-type upper endpoint 1 is approached from below
    p = GevParams(-1.0, 0.0, 1.0)
    assert gev_quantile(p, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert gev_quantile(p, 1.0 - 1e-12) < 1.0


@pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3, math.nan])
def test_quantile_domain_error(q):
    with pytest.raises(ValueError):
        gev_quantile(GUMBEL, q)


def test_density_examples_against_finite_differences():
    assert gev_density(GUMBEL, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert gev_density(GevParams(1.0, 0.0, 1.0), 1.0) == pytest.approx(0.25 * math.exp(-0.5), rel=1e-12)
    assert gev_density(GevParams(1.0, 0.0, 1.0), -3.0) == 0.0
    h = 1e-6
    for params in (GUMBEL, GevParams(0.5, 1.0, 2.0), GevParams(-0.5, 0.0, 1.0)):
        for x in support_grid(params, 0.05, 0.95, 9):
            fd = (gev_cdf(params, x + h) - gev_cdf(params, x - h)) / (2.0 * h)
            assert gev_density(params, x) == pytest.approx(fd, rel=1e-7, abs=1e-12)


def test_density_integrates_to_one():
    for params in (GUMBEL, GevParams(1.0, 0.0, 1.0), GevParams(-0.7, 2.0, 0.5), GevParams(0.3, -1.0, 3.0)):
        lo, hi = gev_support(params)
        total, _ = quad(lambda x: gev_density(params, x), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_support():
    assert gev_support(GUMBEL) == (-math.inf, math.inf)
    assert gev_support(GevParams(1.0, 0.0, 1.0)) == (-1.0, math.inf)
    assert gev_support(GevParams(-1.0, 0.0, 1.0)) == (-math.inf, 1.0)


def test_power_examples():
    p = GevParams(0.3, 1.0, 2.0)
    assert gev_power(p, 1.0) == p
    q = gev_power(GUMBEL, math.e)
    assert (q.xi, q.mu, q.sigma) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)
    q = gev_power(GevParams(1.0, 0.0, 1.0), 2.0)
    assert (q.xi, q.mu, q.sigma) == pytest.approx((1.0, 1.0, 2.0), abs=1e-15)
    # pointwise check of the squared law at x = 3: H(3)^2 = exp(-1/4)^2
    assert gev_cdf(q, 3.0) == pytest.approx(math.exp(-0.25) ** 2, abs=1e-14)
    assert gev_cdf(q, 3.0) == pytest.approx(gev_cdf(GevParams(1.0, 0.0, 1.0), 3.0) ** 2, abs=1e-14)


def test_power_domain_error():
    with pytest.raises(ValueError):
        gev_power(GUMBEL, 0.0)
    with pytest.raises(ValueError):
        gev_power(GUMBEL, -2.0)


def test_max_stability_pointwise():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        params = GevParams(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3), rng.uniform(0.2, 5.0))
        xs = support_grid(params)
        for k in (2, 3, 5):
            lhs = gev_cdf(params, xs) ** k
            rhs = gev_cdf(gev_power(params, k), xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_power_composes_multiplicatively():
    rng = np.random.default_rng(99)
    for _ in range(10):
        p = GevParams(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3), rng.uniform(0.2, 5.0))
        a, b = rng.uniform(0.2, 4.0, 2)
        lhs = gev_power(gev_power(p, a), b)
        rhs = gev_power(p, a * b)
        assert lhs.xi == pytest.approx(rhs.xi, abs=1e-12)
        assert lhs.mu == pytest.approx(rhs.mu, rel=1e-12, abs=1e-12)
        assert lhs.sigma == pytest.approx(rhs.sigma, rel=1e-12)


def test_quantile_cdf_roundtrip():
    for params in (GUMBEL, GevParams(0.8, 0.0, 1.0), GevParams(-0.8, 2.0, 0.3)):
        xs = support_grid(params)
        back = gev_quantile(params, gev_cdf(params, xs))
        assert np.max(np.abs(gev_cdf(params, back) - gev_cdf(params, xs))) < 1e-10


def test_gumbel_branch_continuity():
    # both branches agree near the removable xi = 0 limit
    xs = np.linspace(-3.0, 5.0, 50)
    for xi in (1e-8, -1e-8):
        near = gev_cdf(GevParams(xi, 0.0, 1.0), xs)
        at = gev_cdf(GUMBEL, xs)
        assert np.max(np.abs(near - at)) < 1e-6


def test_invalid_sigma():
    with pytest.raises(ValueError):
        GevParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GevParams(0.0, 0.0, -1.0)


@pytest.mark.parametrize("xi", [1e-11, -1e-11, 1e-9, -1e-9, 1e-6, -1e-6])
def test_small_shape_keeps_its_digits(xi):
    # near the Gumbel limit, log t^(-1/xi) = -z + xi z^2/2 - xi^2 z^3/3 + ... and
    # (ell^(-xi) - 1)/xi = -l + xi l^2/2 - xi^2 l^3/6 + ... for l = log(ell);
    # the terms left out are below 1e-17 here
    p = GevParams(xi, 0.0, 1.0)
    q = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
    lg = np.log(-np.log(q))
    x = gev_quantile(p, q)
    assert np.allclose(x, -lg + xi * lg**2 / 2 - xi**2 * lg**3 / 6, rtol=1e-14, atol=0)
    w = np.exp(-x + xi * x**2 / 2 - xi**2 * x**3 / 3)  # t^(-1/xi)
    assert np.allclose(gev_cdf(p, x), np.exp(-w), rtol=1e-14, atol=0)
    assert np.allclose(gev_density(p, x), w / (1 + xi * x) * np.exp(-w), rtol=1e-14, atol=0)
