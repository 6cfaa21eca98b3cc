import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import lambertw, ndtr

from maxdep.gev import gev_cdf, gev_quantile
from maxdep.margins import (
    Exponential,
    Frechet,
    Generic,
    NoKnownRateError,
    NoNormalizerError,
    Pareto,
    StandardNormal,
    Uniform01,
    UnitFrechet,
    _normal_cdf,
    make_margin,
)

ALL_BUILTINS = [Exponential(1.0), UnitFrechet(), Frechet(2.0), Pareto(2.0), Uniform01(), StandardNormal()]


def test_cdf_examples():
    assert Exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-14)
    assert UnitFrechet().cdf(1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)
    assert Pareto(2.0).quantile(0.75) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("margin", ALL_BUILTINS, ids=lambda m: m.tag)
def test_quantile_cdf_identity(margin):
    qs = np.linspace(0.001, 0.999, 999)
    back = np.asarray(margin.cdf(margin.quantile(qs)), dtype=float)
    assert np.max(np.abs(back - qs)) < 1e-12


@pytest.mark.parametrize("margin", ALL_BUILTINS, ids=lambda m: m.tag)
def test_nan_in_nan_out(margin):
    # the cdf once read a NaN x as below the support and returned 0
    assert math.isnan(margin.cdf(math.nan))
    out = margin.cdf(np.array([math.nan, 1.5]))
    assert math.isnan(out[0]) and out[1] == margin.cdf(1.5)
    for q in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="quantile level"):
            margin.quantile(q)


@pytest.mark.parametrize("margin", ALL_BUILTINS + [Exponential(4.0)], ids=lambda m: m.tag)
def test_far_tails_are_quiet(margin):
    # Exponential once formed -expm1(1000) at x = -1000, and Exponential(4)
    # 4 * 1e308; the Frechet margins overflowed x^-alpha or 1/x just above
    # x = 0.  Each raised under error::RuntimeWarning where the cdf is
    # exactly 0 or 1
    x = np.array([-math.inf, -1000.0, 5e-324, 1e-200, 1e308, math.inf])
    out = margin.cdf(x)
    assert np.array_equal(out[:2], [0.0, 0.0]) and np.array_equal(out[4:], [1.0, 1.0])
    assert np.all(np.diff(out) >= 0.0)
    assert margin.cdf(-1000.0) == 0.0 and margin.cdf(1e308) == 1.0


def test_invalid_parameters():
    for ctor in (Exponential, Frechet, Pareto):
        with pytest.raises(ValueError):
            ctor(-1.0)
        # checked like a model parameter: Frechet(True), Frechet(inf), Pareto(inf)
        # and Exponential(inf) once built, the last with a NaN cdf(0.0)
        with pytest.raises(ValueError, match="must be a real number"):
            ctor(True)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                ctor(value)
    with pytest.raises(ValueError):
        Exponential(1.0).quantile(1.5)


def test_exponential_normalizers():
    c, d, lim = Exponential(1.0).normalizers(100)
    assert c == 1.0
    assert d == pytest.approx(math.log(100.0), rel=1e-15)
    assert (lim.xi, lim.mu, lim.sigma) == (0.0, 0.0, 1.0)


def test_unit_frechet_normalizers_exact():
    m = UnitFrechet()
    c, d, lim = m.normalizers(10)
    assert (c, d) == (10.0, 0.0)
    xs = np.linspace(0.05, 20.0, 200)
    assert np.max(np.abs(np.asarray(m.cdf(c * xs)) ** 10 - gev_cdf(lim, xs))) < 1e-14


def test_uniform_normalizers_brute_force():
    # F^n(c x + d) = (1 + x/n)^n should approach e^x on x <= 0
    m = Uniform01()
    c, d, lim = m.normalizers(4)
    assert (c, d) == (0.25, 1.0)
    xs = np.linspace(-3.0, -0.01, 50)
    brute = np.asarray(m.cdf(c * xs + d), dtype=float) ** 4
    assert np.max(np.abs(brute - (1.0 + xs / 4.0) ** 4)) < 1e-14
    assert np.max(np.abs(gev_cdf(lim, xs) - np.exp(xs))) < 1e-14


def test_generic_margin_errors():
    g = Generic(cdf=lambda x: x, quantile=lambda q: q)
    with pytest.raises(NoNormalizerError):
        g.normalizers(10)
    with pytest.raises(NoKnownRateError):
        g.uniform_rate(10)


def test_generic_margin_with_recipes():
    ref = Exponential(1.0)
    g = Generic(
        cdf=ref.cdf,
        quantile=ref.quantile,
        normalizers=ref.normalizers,
        uniform_rate=lambda n: 5.0 / n,
        tag="exp-like",
    )
    assert g.normalizers(50) == ref.normalizers(50)
    assert g.uniform_rate(50) == pytest.approx(0.1)


def test_uniform_rate_values():
    norm = StandardNormal()
    assert norm.uniform_rate(21) == pytest.approx(3.0 / math.log(21), rel=1e-15)
    assert norm.uniform_rate(10_000) == pytest.approx(3.0 / math.log(10_000), rel=1e-15)
    assert UnitFrechet().uniform_rate(1000) == 0.0
    assert Frechet(3.0).uniform_rate(1000) == 0.0
    with pytest.raises(NoKnownRateError):
        Exponential(1.0).uniform_rate(100)


def test_hall_constant_equation():
    # log(2 pi) + 2 log b + b^2 = 2 log n, to a few ulps of 2 log n; from
    # n = 2^512 on, hall_constant and normalizers once overflowed n^2/(2 pi)
    norm = StandardNormal()
    for n in (2, 3, 4, 5, 7, 10, 64, 100, 128, 512, 1000, 1024, 4096, 10**4, 16384, 10**6, 2**30, 2**40, 2**60,
              2**512, 2**600, 2**1000):
        b = norm.hall_constant(n)
        lhs = math.log(2.0 * math.pi) + 2.0 * math.log(b) + b * b
        assert lhs == pytest.approx(2.0 * math.log(n), rel=2e-15, abs=0.0), n
        assert norm.normalizers(n)[:2] == (1.0 / b, b)


def test_hall_constant_matches_lambertw():
    # within 1 ulp of the closed form through scipy's W0, for n from 2 to 2^62
    norm = StandardNormal()
    ns = sorted({int(round(2.0**e)) for e in np.linspace(1.0, 62.0, 179)})
    for n in ns:
        ref = math.sqrt(lambertw(n**2 / (2.0 * math.pi)).real)
        assert abs(norm.hall_constant(n) - ref) <= math.ulp(ref), n


# Phi on a dense grid of [-40, 40], against 40-digit mpmath
PHI_X = np.linspace(-40.0, 40.0, 8001)


@pytest.fixture(scope="module")
def phi_ref():
    with mp.workdps(40):
        return [mp.ncdf(mp.mpf(float(x))) for x in PHI_X]


def test_normal_cdf_absolute_error(phi_ref):
    got = _normal_cdf(PHI_X)
    with mp.workdps(40):
        err = max(abs(mp.mpf(float(g)) - r) for g, r in zip(got, phi_ref))
    assert err <= 2.0**-53


def test_normal_cdf_lower_tail_no_worse_than_scipy(phi_ref):
    # below x = -1 both round x/sqrt(2) first, which costs ~x^2/2 ulps of
    # relative accuracy; in each band the largest relative error must be no
    # larger than scipy's ndtr makes at the same points.  Phi < DBL_MIN
    # (x < -37.5) keeps no relative accuracy in either
    ref = np.array([float(r) for r in phi_ref])
    keep = (PHI_X < 0.0) & (ref >= np.finfo(float).tiny)

    def rel(values):
        with mp.workdps(40):
            return np.array([float(abs(mp.mpf(float(v)) / r - 1)) for v, r, k in zip(values, phi_ref, keep) if k])

    ours, theirs, x = rel(_normal_cdf(PHI_X)), rel(ndtr(PHI_X)), PHI_X[keep]
    for lo, hi in ((-40.0, -20.0), (-20.0, -10.0), (-10.0, -5.0), (-5.0, -1.0), (-1.0, 0.0)):
        band = (x >= lo) & (x < hi)
        assert ours[band].max() <= theirs[band].max(), (lo, hi)


def test_normal_cdf_monotone_and_special_values():
    x = np.linspace(-40.0, 40.0, 200001)
    assert np.all(np.diff(_normal_cdf(x)) >= 0.0)
    out = _normal_cdf(np.array([0.0, -0.0, math.inf, -math.inf, math.nan]))
    assert out[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and math.isnan(out[4])
    # shape kept, from 0-d up
    assert _normal_cdf(np.float64(1.0)).shape == () and _normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def _grid_sup(margin, n):
    c, d, lim = margin.normalizers(n)
    xs = gev_quantile(lim, np.linspace(0.001, 0.999, 200))
    f = np.asarray(margin.cdf(c * xs + d), dtype=float)
    return float(np.max(np.abs(f**n - gev_cdf(lim, xs))))


@pytest.mark.parametrize("margin", ALL_BUILTINS, ids=lambda m: m.tag)
def test_grid_sup_nonincreasing_under_doubling(margin):
    sups = [_grid_sup(margin, 2**e) for e in range(5, 16)]
    # exactly max-stable margins sit at the float noise floor (~n*eps), hence
    # the small absolute slack
    assert all(a >= b - 1e-10 for a, b in zip(sups, sups[1:]))


def test_hall_bound_on_grid():
    norm = StandardNormal()
    for n in (100, 1000, 10_000):
        assert _grid_sup(norm, n) <= 3.0 / math.log(n)


def test_make_margin_specs():
    assert make_margin("unit-frechet").tag == "unit-frechet"
    assert make_margin("normal").tag == "normal"
    assert make_margin("pareto", alpha=2.0).tag == "pareto(2.0)"
    # every alias, in any case and with '_' read as '-', as model names are
    for name, tag in (("unitfrechet", "unit-frechet"), ("Unit_Frechet", "unit-frechet"), ("frechet", "frechet(3.0)"),
                      ("exp", "exponential(2.0)"), ("EXPONENTIAL", "exponential(2.0)"), ("std_normal", "normal"),
                      ("gaussian", "normal"), ("uniform", "uniform01"), ("uniform01", "uniform01")):
        assert make_margin(name, alpha=3.0, lam=2.0).tag == tag, name
    with pytest.raises(ValueError, match="unknown margin 'cauchy'; pick from unit-frechet, frechet, exponential, normal"):
        make_margin("cauchy")


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


GENERIC = Generic(cdf=lambda x: 1.0 - np.exp(-x), quantile=lambda q: -np.log1p(-q))


@pytest.mark.parametrize("margin", ALL_BUILTINS + [GENERIC], ids=lambda m: m.tag)
def test_scalar_in_float_out(margin):
    # four built-in quantiles once gave an np.float64 and Generic a 0-d array
    for v in (margin.cdf(1.5), margin.cdf(np.float64(1.5)), margin.quantile(0.3), margin.quantile(np.float64(0.3))):
        assert type(v) is float
    for v in (margin.cdf(np.array([1.5, 2.0])), margin.quantile([0.3, 0.7])):
        assert type(v) is np.ndarray and v.shape == (2,)


XS = np.concatenate([np.logspace(-300, 300, 601), -np.logspace(-300, 300, 61),
                     [5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, math.inf, -math.inf, math.nan]])
QS = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), np.logspace(-300, -1e-16, 301), [5e-324]])


def test_unit_frechet_is_frechet_one_bit_for_bit():
    unit, one = UnitFrechet(), Frechet(1.0)
    assert (unit.tag, one.tag) == ("unit-frechet", "frechet(1.0)")
    assert np.array_equal(_bits(unit.cdf(XS)), _bits(one.cdf(XS)))
    assert np.array_equal(_bits(unit.quantile(QS)), _bits(one.quantile(QS)))
    for x in XS:
        assert _bits(unit.cdf(x)) == _bits(one.cdf(x)), x
    for q in QS:
        assert _bits(unit.quantile(q)) == _bits(one.quantile(q)), q
    for n in (2, 3, 1000, 2**60, 2**70):
        assert unit.normalizers(n) == one.normalizers(n) and unit.uniform_rate(n) == one.uniform_rate(n) == 0.0
    # the closed forms exp(-1/x) and -1/log(q), to the bit, for an array and
    # for a scalar (a numpy float's ** -1.0 is libm's pow, which is not 1/t)
    with np.errstate(over="ignore"):
        pos = XS[XS > 0]
        assert np.array_equal(_bits(unit.cdf(pos)), _bits(np.exp(-1.0 / pos)))
        assert all(_bits(unit.cdf(x)) == _bits(np.exp(-1.0 / np.asarray(x))) for x in pos)
    assert np.array_equal(_bits(unit.quantile(QS)), _bits(-1.0 / np.log(QS)))
    assert all(_bits(unit.quantile(q)) == _bits(-1.0 / np.log(np.asarray(q))) for q in QS)


def test_pareto_takes_the_frechet_normalizers():
    for a in (0.5, 1.0, 2.0, 3.7):
        for n in (2, 3, 1000, 2**60, 2**70):
            assert Pareto(a).normalizers(n) == Frechet(a).normalizers(n)
        with pytest.raises(NoKnownRateError):
            Pareto(a).uniform_rate(1000)


def test_generic_recipes_get_n_checked():
    ref = Exponential(1.0)
    g = Generic(cdf=ref.cdf, quantile=ref.quantile, normalizers=ref.normalizers, uniform_rate=lambda n: 5.0 / n)
    for bad in (1, True, 2.5):
        for recipe in (g.normalizers, g.uniform_rate):
            with pytest.raises(ValueError, match="n must be an integer >= 2"):
                recipe(bad)
