import math

import numpy as np
import pytest

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


def test_invalid_parameters():
    for ctor in (Exponential, Frechet, Pareto):
        with pytest.raises(ValueError):
            ctor(-1.0)
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
    norm = StandardNormal()
    for n in (2, 5, 100, 10_000):
        b = norm.hall_constant(n)
        assert 2.0 * math.pi * b * b * math.exp(b * b) == pytest.approx(float(n) ** 2, rel=1e-10)


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
    with pytest.raises(ValueError):
        make_margin("cauchy")
