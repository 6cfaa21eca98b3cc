import math

import numpy as np
import pytest
from scipy.integrate import quad

from maxdep.diagonals import (
    RateFn,
    archimax_diagonal,
    distortion_sup_distance,
    empirical_diagonal_distance,
    logistic_eta,
    mixing_discrepancy,
    power_distortion,
    rate_scaling_limit,
)
from maxdep.generators import builtin_generator
from maxdep.models import MODELS, make_diagonal, model_spec
from maxdep.ratebounds import movingmax_s


# the tables' parameters
PARAMS = {"movingmax": {"k": 2}, "cuadras-auge": {"theta": 0.4}, "logistic": {"theta": 2.0}, "efgm": {"theta": -0.8},
          "clayton": {"theta": 2.0}, "frank": {"theta": 3.0}, "gumbel": {"theta": 2.0}, "joe": {"theta": 2.0},
          "amh": {"theta": 0.6}}


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
        archimax_diagonal(builtin_generator("clayton", 2.0), logistic_eta(2.0)),
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
    for k in (-1, True, False):
        with pytest.raises(ValueError, match="window k must be an integer >= 0"):
            make_diagonal("movingmax", k=k)
    with pytest.raises(ValueError):
        make_diagonal("efgm", theta=2.0)
    for theta in (True, False):
        with pytest.raises(ValueError, match="theta must be a real number"):
            make_diagonal("efgm", theta=theta)
    with pytest.raises(ValueError):
        make_diagonal("no-such-family")
    with pytest.raises(ValueError):
        make_diagonal("ar1", phi=0.5)  # sampled only: no closed-form diagonal
    with pytest.raises(ValueError):
        make_diagonal("power", theta=2.0)  # a limit only


@pytest.mark.parametrize(
    "name, params",
    [("independence", {}), ("movingmax", {"k": 2}), ("efgm", {"theta": 0.0}), ("efgm", {"theta": -0.5}),
     ("ballerini", {}), ("clayton", {"theta": 2.0}), ("logistic", {"theta": 3.0})],
)
def test_model_limit_is_the_diagonal_limit(name, params):
    spec = MODELS[name]
    assert spec.limit(**params).tag == spec.diagonal(**params).limit_distortion.tag


def test_model_limit_roles():
    # every diagonal but the comonotone one has a limit distortion
    assert [name for name, spec in MODELS.items() if spec.diagonal and not spec.limit] == ["comonotone"]
    assert model_spec("power", "limit").limit(theta=2.0).tag == "power(2.0)"
    assert model_spec("amh-uniform-mixture", "limit").limit().tag == "amh-uniform-mixture"
    with pytest.raises(ValueError, match="'ar1' has no limit"):
        model_spec("ar1", "limit")


# tag, canonical rate tag, limit distortion tag, exchangeable, finite_rate_limit
ARCH_RATE = "1/(1-psi(1/eta))"
METADATA = {
    "independence": ("independence", "n", "power(1.0)", True, None),
    "comonotone": ("comonotone", None, None, True, None),
    "movingmax": ("movingmax(2)", "n", "power(0.3333333333333333)", False, None),
    "cuadras-auge": ("cuadras-auge(0.4)", "eta", "power(1.0)", True, 2.5),
    "logistic": ("logistic(2.0)", "eta", "power(1.0)", True, None),
    "efgm": ("efgm(-0.8)", "n", "efgm(-0.8)", True, None),
    "ballerini": ("archimedean[ballerini]", ARCH_RATE, "arch-limit[ballerini]", True, None),
    **{family: (f"archimedean[{family}({th})]", ARCH_RATE, f"arch-limit[{family}({th})]", True, None)
       for family, th in (("clayton", 2.0), ("frank", 3.0), ("gumbel", 2.0), ("joe", 2.0), ("amh", 0.6))},
    "archimax": ("archimax[clayton(2.0)]", ARCH_RATE, "arch-limit[clayton(2.0)]", False, None),
}


def test_every_diagonal_keeps_its_metadata():
    fams = {name: spec.diagonal(**PARAMS.get(name, {})) for name, spec in MODELS.items() if spec.diagonal}
    fams["archimax"] = archimax_diagonal(builtin_generator("clayton", 2.0), logistic_eta(2.0))
    assert set(fams) == set(METADATA)
    for name, fam in fams.items():
        rate, limit = fam.canonical_rate, fam.limit_distortion
        got = (fam.tag, rate and rate.tag, limit and limit.tag, fam.exchangeable, fam.finite_rate_limit)
        assert got == METADATA[name], name

def test_non_integer_n_rejected():
    fam = make_diagonal("independence")
    for bad in (2.5, 2.0, "3", True, np.array([2.0, 4.0]), np.array([True, False]), np.array([2, 2.5], dtype=object),
                np.array([2, True], dtype=object), np.array([[4], [0]]), np.array([3, -1])):
        with pytest.raises(ValueError, match="n must be an integer"):
            fam(bad, 0.5)
        with pytest.raises(ValueError, match="n must be an integer"):
            power_distortion(fam, None, bad, 0.5)


# grid points inside (0, 1), near both ends and the endpoints themselves
BATCH_U = np.concatenate(([0.0, 1.0], np.linspace(0.01, 0.99, 41), 1.0 - np.geomspace(1e-3, 1e-13, 6),
                          np.geomspace(1e-300, 1e-3, 6)))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "name, params",
    [(name, PARAMS.get(name, {})) for name, spec in MODELS.items() if spec.diagonal]
    + [("archimax", {"family": "clayton", "theta": 2.0, "theta_stdf": 2.0}),
       ("archimax", {"family": "joe", "theta": 2.0, "theta_stdf": 3.0})],
)
def test_batched_call_equals_per_n_calls(name, params):
    # movingmax(2) and logistic(2) take the exponent 2.0 at n = 4, which
    # numpy squares exactly for a scalar exponent; n repeats and is unsorted
    if name == "archimax":
        fam = archimax_diagonal(builtin_generator(params["family"], params["theta"]), logistic_eta(params["theta_stdf"]))
    else:
        fam = make_diagonal(name, **params)
    rate = fam.canonical_rate or RateFn(float, "n")
    ns = np.array([4, 1, 2, 3, 4, 7, 64, 1000, 2**20, 2**14, 2**40])
    for rs in (np.ones(ns.size), rate(ns), np.geomspace(0.01, 37.3, ns.size)):
        want = np.array([fam(int(n), BATCH_U, float(r)) for n, r in zip(ns, rs)])
        assert np.array_equal(_bits(fam(ns[:, None], BATCH_U, rs[:, None])), _bits(want)), rs
        # an object array of Python ints, and a scalar r against an n column
        assert np.array_equal(_bits(fam(ns.astype(object)[:, None], BATCH_U, rs[:, None])), _bits(want)), rs
    want = np.array([fam(int(n), BATCH_U) for n in ns])
    assert np.array_equal(_bits(fam(ns[:, None], BATCH_U)), _bits(want))
    want = np.array([power_distortion(fam, rate, int(n), BATCH_U) for n in ns])
    assert np.array_equal(_bits(power_distortion(fam, rate, ns[:, None], BATCH_U)), _bits(want))
    # n and r per grid point (each against a one-point grid: a 0-d u takes
    # numpy's scalar pow, not the array one), and one n against a column of rates
    rs = np.geomspace(0.5, 3.0, BATCH_U.size)
    nn = np.resize(ns, BATCH_U.size)
    want = [fam(int(n), [u], float(r))[0] for n, u, r in zip(nn, BATCH_U, rs)]
    assert np.array_equal(_bits(fam(nn, BATCH_U, rs)), _bits(want))
    want = np.array([fam(5, BATCH_U, float(r)) for r in rs[:7]])
    assert np.array_equal(_bits(fam(5, BATCH_U, rs[:7, None])), _bits(want))
    # a nested list of rates reads as that array
    assert np.array_equal(_bits(fam(5, BATCH_U, rs[:7, None].tolist())), _bits(want))


def test_rate_over_n_array():
    rate = MODELS["clayton"].diagonal(theta=2.0).canonical_rate
    ns = np.array([[2, 16], [1024, 2**63]], dtype=object)
    assert rate(ns).shape == (2, 2)
    assert rate(ns).tolist() == [[rate(2), rate(16)], [rate(1024), rate(2**63)]]
    with pytest.raises(ValueError, match="rate must be positive"):
        RateFn(lambda n: 1.0 - n, "1-n")(np.array([0, 1]))
    # each element is passed on as it is, a float not cut to an int
    assert RateFn(lambda n: n * n, "n^2")(np.array([2.5, 3.0])).tolist() == [6.25, 9.0]


def test_domain_errors():
    # NaN is neither inside [0, 1] nor an endpoint, so it is refused like 1.5
    cl = MODELS["clayton"].diagonal(theta=2.0)
    for bad in ([0.5, math.nan], math.nan, 1.5, -0.5):
        with pytest.raises(ValueError, match=r"diagonal argument must lie in \[0, 1\]"):
            cl(2, bad)
        with pytest.raises(ValueError, match=r"diagonal argument must lie in \[0, 1\]"):
            power_distortion(cl, None, 16, bad)
    for r in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="rate must be positive"):
            cl(2, 0.5, r)


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.tag)
def test_diagonal_of_root(fam):
    # fam(n, u, r) is delta_n(u^(1/r)); r = 1 is the diagonal itself
    us = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(fam(5, us, 1.0), fam(5, us))
    for r in (0.5, 7.0):
        assert fam(5, us, r) == pytest.approx(fam(5, us ** (1.0 / r)), rel=1e-12, abs=1e-300), r


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
    sups = [distortion_sup_distance(fam, None, 2**e, fam.limit_distortion) for e in (4, 6, 8, 10, 12)]
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
    fam = archimax_diagonal(builtin_generator("clayton", 2.0), logistic_eta(2.0))
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


def test_mixing_discrepancy_broadcasts_over_n_and_v():
    # a whole schedule in one call is bit for bit the calls with one n and v
    # each; 2^70 is past the int64 range and stays exact in an object array
    fam = make_diagonal("archimedean", family="clayton", theta=2.0)
    ns = np.array([16, 1000, 2**14, 2**70], dtype=object)
    vs = np.array([0.3, 0.9, 0.999, 0.9999])
    got = mixing_discrepancy(fam, ns, 0.3, 0.2, vs)
    assert got.tolist() == [mixing_discrepancy(fam, n, 0.3, 0.2, v) for n, v in zip(ns.tolist(), vs.tolist())]
    assert mixing_discrepancy(fam, np.array([1000]), 0.3, 0.2, 0.9).tolist() == [got[1]]
    # every element is checked: one v outside (0, 1), a v with more axes than
    # n, a float n, scalar or array, an n below 1
    with pytest.raises(ValueError, match="threshold level"):
        mixing_discrepancy(fam, ns, 0.3, 0.2, np.array([0.5, 0.5, 1.0, 0.5]))
    with pytest.raises(ValueError, match="shape of n"):
        mixing_discrepancy(fam, 1000, 0.3, 0.2, vs)
    with pytest.raises(ValueError, match="integer array"):
        mixing_discrepancy(fam, np.array([16.0]), 0.3, 0.2, 0.5)
    for n in (2.5, 0.5, np.array([16, 0]), 0):
        with pytest.raises(ValueError, match="integer >= 1"):
            mixing_discrepancy(fam, n, 0.3, 0.2, 0.5)


def test_empirical_diagonal_distance_is_the_per_sample_loop():
    # one call over all samples gives the z of the loop over them, bit for bit
    fam = make_diagonal("archimedean", family="clayton", theta=2.0)
    rng = np.random.default_rng(11)
    ns, us = rng.integers(1, 5000, 40).tolist(), rng.uniform(0.01, 0.99, 40).tolist()
    samples = [(n, u, float(fam(n, u)) + rng.normal(0.0, 1e-3), rng.uniform(5e-4, 2e-3)) for n, u in zip(ns, us)]
    loop = max(abs(p_hat - float(fam(n, u))) / se for n, u, p_hat, se in samples)
    assert empirical_diagonal_distance(fam, iter(samples)) == loop


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
