import math

import numpy as np
import pytest
from scipy.integrate import quad

from maxdep.diagonals import (
    RateFn,
    distortion_sup_distance,
    empirical_diagonal_distance,
    mixing_discrepancy,
    power_distortion,
    rate_scaling_limit,
)
from maxdep.generators import builtin_generator
from maxdep.models import make_diagonal
from maxdep.ratebounds import movingmax_s


def all_families():
    return [
        make_diagonal("independence"),
        make_diagonal("comonotone"),
        make_diagonal("movingmax", k=1),
        make_diagonal("movingmax", k=3),
        make_diagonal("cuadras-auge", theta=0.5),
        make_diagonal("logistic", theta=2.0),
        make_diagonal("archimedean", family="clayton", theta=1.0),
        make_diagonal("archimedean", family="gumbel", theta=2.0),
        make_diagonal("archimax", family="clayton", theta=2.0, theta_stdf=2.0),
        make_diagonal("efgm", theta=0.8),
    ]


def test_construction_examples():
    mm = make_diagonal("movingmax", k=1)
    assert mm(3, 0.5) == pytest.approx(0.25, abs=1e-15)
    ca = make_diagonal("cuadras-auge", theta=0.5)
    assert ca(2, 0.81) == pytest.approx(0.81**1.5, rel=1e-14)
    cl = make_diagonal("archimedean", family="clayton", theta=1.0)
    assert cl(2, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # every model name of the table resolves, generator families included
    assert make_diagonal("clayton", theta=1.0)(2, 0.5) == cl(2, 0.5)
    assert make_diagonal("iid").tag == "independence"


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_diagonal("cuadras-auge", theta=1.5)
    with pytest.raises(ValueError):
        make_diagonal("movingmax", k=-1)
    with pytest.raises(ValueError):
        make_diagonal("efgm", theta=2.0)
    with pytest.raises(ValueError):
        make_diagonal("no-such-family")
    with pytest.raises(ValueError):
        make_diagonal("ar1", phi=0.5)  # sampled only: no closed-form diagonal


def test_non_integer_n_rejected():
    fam = make_diagonal("independence")
    for bad in (2.5, 2.0, "3", True):
        with pytest.raises(ValueError):
            fam(bad, 0.5)


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.tag)
def test_frechet_hoeffding_sandwich(fam):
    us = np.linspace(0.0, 1.0, 1000)
    for n in (1, 2, 5, 50, 1000):
        d = fam(n, us)
        assert np.all(d <= us + 1e-12)
        assert np.all(d >= np.maximum(n * us - (n - 1), 0.0) - 1e-9)


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.tag)
def test_unit_index_is_identity(fam):
    us = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(fam(1, us) - us)) < 1e-12


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.tag)
def test_power_distortion_is_distribution_function(fam):
    rate = fam.canonical_rate or RateFn(lambda n: float(n), "n")
    us = np.linspace(0.0, 1.0, 501)
    for n in (2, 17, 400):
        vals = power_distortion(fam, rate, n, us)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= -1e-12)


def test_power_distortion_examples():
    ind = make_diagonal("independence")
    us = np.linspace(0.0, 1.0, 101)
    for n in (1, 5, 1000):
        assert np.max(np.abs(power_distortion(ind, None, n, us) - us)) < 1e-12
    mm = make_diagonal("movingmax", k=1)
    assert power_distortion(mm, None, 3, 0.5) == pytest.approx(0.5 ** (4.0 / 6.0), rel=1e-14)
    ca = make_diagonal("cuadras-auge", theta=0.5)
    for n in (1, 2, 10, 200):
        assert np.max(np.abs(power_distortion(ca, None, n, us) - us)) < 1e-13


def test_gumbel_archimedean_equals_logistic_power():
    arch = make_diagonal("archimedean", family="gumbel", theta=2.0)
    pw = make_diagonal("logistic", theta=2.0)
    us = np.linspace(1e-6, 1.0 - 1e-6, 301)
    for n in (2, 10, 100):
        assert np.max(np.abs(arch(n, us) - pw(n, us))) < 1e-12


def test_efgm_at_zero_matches_independence():
    efgm = make_diagonal("efgm", theta=0.0)
    ind = make_diagonal("independence")
    us = np.linspace(0.0, 1.0, 101)
    for n in (2, 7, 33):
        assert np.max(np.abs(efgm(n, us) - ind(n, us))) < 1e-9


def test_efgm_quadrature_matches_adaptive():
    fam = make_diagonal("efgm", theta=0.8)
    for n, u in [(4, 0.6), (33, 0.9), (128, 0.97)]:
        ref, _ = quad(lambda t: (u + 0.8 * u * (u - 1.0) * (2.0 * t - 1.0)) ** n, 0.0, 1.0, epsabs=1e-13)
        assert fam(n, u) == pytest.approx(ref, abs=1e-12)


def _efgm_antiderivative(n, u, theta):
    # the integrand is linear in t, so the integral has the closed form
    # (B(1)^(n+1) - B(0)^(n+1)) / ((n+1) * (B(1) - B(0)))
    b0 = u - theta * u * (u - 1.0)
    b1 = u + theta * u * (u - 1.0)
    return (b1 ** (n + 1) - b0 ** (n + 1)) / ((n + 1) * (b1 - b0))


def test_efgm_large_n_fallback_matches_antiderivative():
    fam = make_diagonal("efgm", theta=0.5)
    for n, u in [(100, 0.95), (20_000, 0.9999)]:
        assert fam(n, u) == pytest.approx(_efgm_antiderivative(n, u, 0.5), rel=1e-8)


def test_sup_distance_examples():
    mm = make_diagonal("movingmax", k=1)
    got = distortion_sup_distance(mm, None, 10, mm.limit_distortion)
    assert got == pytest.approx(movingmax_s(10, 1), abs=1e-10)
    ind = make_diagonal("independence")
    assert distortion_sup_distance(ind, None, 25, ind.limit_distortion) < 1e-12
    with pytest.raises(ValueError):
        distortion_sup_distance(ind, None, 25, ind.limit_distortion, grid_size=10)


@pytest.mark.parametrize(
    "fam",
    [
        make_diagonal("independence"),
        make_diagonal("movingmax", k=1),
        make_diagonal("logistic", theta=2.0),
        make_diagonal("archimedean", family="clayton", theta=2.0),
        make_diagonal("archimedean", family="gumbel", theta=2.0),
        make_diagonal("efgm", theta=0.8),
    ],
    ids=lambda f: f.tag,
)
def test_sup_distance_nonincreasing(fam):
    sups = [distortion_sup_distance(fam, None, 2**e, fam.limit_distortion, grid_size=400) for e in (4, 6, 8, 10, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))


def test_sup_distance_finds_suprema_near_zero():
    # Clayton(2): D(u) = (1 - log u)^(-1/2) decays only logarithmically, and at
    # n = 64 the supremum sits near u = e^-298, far below any linear grid in u;
    # the reference is a 40-digit mpmath scan in log(-log u) with refinement
    fam = make_diagonal("archimedean", family="clayton", theta=2.0)
    got = distortion_sup_distance(fam, None, 64, fam.limit_distortion)
    assert got == pytest.approx(0.0452552102409046, rel=1e-9)


def test_rate_scaling_limit():
    r_n = RateFn(lambda n: float(n), "n")
    assert rate_scaling_limit(r_n, 0.5, [1000])[0] == pytest.approx(0.5, abs=1e-12)
    r_sqrt = RateFn(lambda n: math.sqrt(n), "sqrt")
    assert rate_scaling_limit(r_sqrt, 0.25, [10_000])[0] == pytest.approx(0.5, rel=1e-12)
    cl = make_diagonal("archimedean", family="clayton", theta=1.0)
    assert rate_scaling_limit(cl.canonical_rate, 2.0, [1000])[0] == pytest.approx(2001.0 / 1001.0, rel=1e-12)
    with pytest.raises(ValueError):
        rate_scaling_limit(r_n, 2.0, [100, 50])


def test_rate_scaling_limit_archimax_logistic():
    # canonical rate of a Clayton Archimax family with eta_n = sqrt(n): since
    # rho = 1 the scaling limit is kappa(t)^rho = sqrt(t)
    fam = make_diagonal("archimax", family="clayton", theta=2.0, theta_stdf=2.0)
    traj = rate_scaling_limit(fam.canonical_rate, 0.25, [10**4, 10**6])
    assert traj[-1] == pytest.approx(0.5, abs=1e-3)


def test_mixing_discrepancy_independence_vanishes():
    ind = make_diagonal("independence")
    for n in (10, 1000):
        assert mixing_discrepancy(ind, n, 0.25, 0.25, 0.8) < 1e-12


def test_mixing_discrepancy_power_limit():
    fam = make_diagonal("logistic", theta=2.0)  # eta_n = sqrt(n)
    target = 0.5 ** (1.0 / math.sqrt(2.0)) - 0.5
    n = 10**6
    v = 0.5 ** (1.0 / fam.canonical_rate(n))
    assert mixing_discrepancy(fam, n, 0.25, 0.25, v) == pytest.approx(target, abs=5e-3)


def test_mixing_discrepancy_clayton_plateau():
    fam = make_diagonal("archimedean", family="clayton", theta=1.0)
    vals = []
    for n in (10**3, 10**4):
        v = 0.5 ** (1.0 / fam.canonical_rate(n))
        vals.append(mixing_discrepancy(fam, n, 0.25, 0.25, v))
    assert all(v > 0.01 for v in vals)
    # frozen regression value for n = 1e4
    assert vals[1] == pytest.approx(0.016197627681712845, rel=1e-9)


def test_mixing_discrepancy_contract():
    mm = make_diagonal("movingmax", k=1)
    with pytest.raises(ValueError):
        mixing_discrepancy(mm, 100, 0.25, 0.25, 0.5)
    ind = make_diagonal("independence")
    with pytest.raises(ValueError):
        mixing_discrepancy(ind, 100, 0.7, 0.6, 0.5)


def test_empirical_diagonal_distance():
    ind = make_diagonal("independence")
    # on-model pseudo-estimates stay within noise
    samples = [(5, 0.5, 0.5**5 + 0.001, 0.0015), (2, 0.8, 0.64 - 0.002, 0.0015)]
    assert empirical_diagonal_distance(ind, samples) < 4.0
    # a Clayton estimate is far from the independence diagonal at n=5, u=0.5
    clayton_value = float(make_diagonal("archimedean", family="clayton", theta=1.0)(5, 0.5))
    z = empirical_diagonal_distance(ind, [(5, 0.5, clayton_value, 0.0015)])
    assert z > 20.0
    with pytest.raises(ValueError):
        empirical_diagonal_distance(ind, [(5, 0.5, 0.03, 0.0)])
    with pytest.raises(ValueError):
        empirical_diagonal_distance(ind, [])
