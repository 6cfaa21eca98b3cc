import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from maxdep import distortions
from maxdep.distortions import (
    amh_uniform_mixture,
    archimedean_limit,
    efgm_limit,
    limit_law_cdf,
    make_distortion,
    max_stability_defect,
    mixture_over_interval,
    parameter_mixture,
    power,
)
from maxdep.generators import builtin_generator, scale_generator
from maxdep.gev import GevParams, gev_cdf, gev_power
from maxdep.models import MODELS

PRESETS = [
    ("independence", None),
    ("amh", 0.5),
    ("clayton", 1.0),
    ("clayton", 4.0),
    ("frank", 2.0),
    ("gumbel", 2.0),
    ("joe", 2.0),
    ("ballerini", None),
]
PRESET_IDS = [f"{f}({t})" for f, t in PRESETS]


@pytest.fixture(params=PRESETS, ids=PRESET_IDS)
def preset(request):
    fam, th = request.param
    return fam, th, archimedean_limit(builtin_generator(fam, th))


def integrate_density(D, lo=1e-300):
    """Windowed quadrature of the density over the representable domain.

    The left tail is integrated in log coordinates (the mass there is spread
    over hundreds of decades of u).  Heavy left tails (Clayton, the log-type
    generator) place visible mass below the smallest positive double; that
    sub-double mass is only reachable through the cdf, so the integral is
    compared against the cdf mass of [lo, 1] rather than against 1.
    """
    total = 0.0
    log_edges = np.log(np.array([lo, 1e-200, 1e-100, 1e-50, 1e-20, 1e-8, 1e-3]))
    for a, b in zip(log_edges, log_edges[1:]):
        total += quad(lambda w: float(D.density(math.exp(w))) * math.exp(w), a, b, epsabs=1e-10, limit=400)[0]
    for a, b in zip([1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-8], [0.1, 0.5, 0.9, 1.0 - 1e-8, 1.0]):
        total += quad(D.density, a, b, epsabs=1e-10, limit=400)[0]
    return total, float(D.cdf(1.0) - D.cdf(lo))


def test_archimedean_limit_examples():
    gumbel = archimedean_limit(builtin_generator("gumbel", 3.0))
    us = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(gumbel.cdf(us) - us)) < 1e-12
    clayton = archimedean_limit(builtin_generator("clayton", 1.0))
    assert clayton.cdf(math.exp(-1.0)) == pytest.approx(0.5, rel=1e-14)


def test_efgm_limit_value_and_quadrature_crosscheck():
    D = efgm_limit(0.5)
    direct = (0.5**1.5 - 0.5**0.5) / (2.0 * 0.5 * math.log(0.5))
    assert D.cdf(0.5) == pytest.approx(direct, rel=1e-14)
    ref, _ = quad(lambda t: 0.5 ** (0.5 * (2.0 * t - 1.0) + 1.0), 0.0, 1.0, epsabs=1e-13)
    assert D.cdf(0.5) == pytest.approx(ref, abs=1e-12)


def _efgm_density_reference(theta, u):
    # [((1+t)u^t - (1-t)u^-t) L - (u^t - u^-t)] / (2 t L^2), L = log u, in
    # 100 digits: the cancellation near u = 1 (about z^2 for z = t*L, 1e-48
    # at t = 1e-9, u = 1 - 1e-15) leaves more than 40 of them
    with localcontext() as ctx:
        ctx.prec = 100
        t, L = Decimal(theta), Decimal(u).ln()
        a, b = (t * L).exp(), (-t * L).exp()
        return (((1 + t) * a - (1 - t) * b) * L - (a - b)) / (2 * t * L * L)


def test_efgm_density_full_precision():
    us = [5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.99]
    us += [1.0 - 10.0**-k for k in (3, 5, 6, 7, 9, 11, 13, 15)] + [1.0 - 3e-7]
    for theta in (0.5, -0.5, 0.8, 1.0, -1.0, 1e-3, 1e-9):
        got = efgm_limit(theta).density(np.array(us))
        for u, d in zip(us, got):
            ref = _efgm_density_reference(theta, u)
            if ref > Decimal(sys.float_info.max):
                assert d == math.inf, (theta, u)
            else:
                assert d == pytest.approx(float(ref), rel=1e-12), (theta, u)
    # a scalar takes the same branches as an array
    assert [efgm_limit(0.5).density(u) for u in (0.3, 0.999)] == list(efgm_limit(0.5).density(np.array([0.3, 0.999])))
    # beyond DBL_MAX at |theta| = 1 (about 9.2e313 at u = 1e-320): inf, not NaN
    assert efgm_limit(1.0).density(1e-320) == math.inf
    assert efgm_limit(-1.0).density(1e-320) == math.inf


def test_efgm_symmetry_is_exact():
    us = np.linspace(0.0, 1.0, 501)
    a = np.asarray(efgm_limit(0.7).cdf(us))
    b = np.asarray(efgm_limit(-0.7).cdf(us))
    assert np.array_equal(a, b)


def test_efgm_small_theta_approaches_identity():
    us = np.linspace(0.0, 1.0, 1001)
    sups = [float(np.max(np.abs(efgm_limit(th).cdf(us) - us))) for th in (0.1, 0.01, 0.001)]
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-3


def test_parameter_validation():
    with pytest.raises(ValueError):
        efgm_limit(0.0)
    with pytest.raises(ValueError):
        efgm_limit(1.2)
    with pytest.raises(ValueError):
        power(-1.0)
    with pytest.raises(ValueError):
        make_distortion("unknown")


def test_make_distortion_is_the_model_limit():
    assert make_distortion("clayton", theta=2.0).tag == "arch-limit[clayton(2.0)]"
    assert make_distortion("power", theta=2.0, k=3).tag == "power(2.0)"  # k is not a power parameter
    assert make_distortion("amh_uniform_mixture").tag == "amh-uniform-mixture"
    with pytest.raises(ValueError, match="'comonotone' has no limit"):
        make_distortion("comonotone")


# a parameter inside each model's domain
DOMAIN_PARAMS = {"k": 1, "theta": 2.0}
DOMAIN_THETA = {"cuadras-auge": 0.5, "efgm": 0.5, "amh": 0.5}


def every_limit():
    limits = []
    for name, spec in MODELS.items():
        if spec.limit is not None:
            params = {p: DOMAIN_THETA.get(name, DOMAIN_PARAMS[p]) if p == "theta" else DOMAIN_PARAMS[p] for p in spec.params}
            limits.append(pytest.param(spec.limit(**params), id=name))
    mixture = parameter_mixture([power(0.5), efgm_limit(0.5), amh_uniform_mixture()], [0.25, 0.25, 0.5])
    return limits + [pytest.param(mixture, id="mixture")]


@pytest.mark.parametrize("D", every_limit())
def test_domain_errors(D):
    # NaN once came back as a number: 0.59 from the clayton(1) cdf, 1.0 from efgm
    for f in (D.cdf, D.density):
        for u in (math.nan, -0.5, 1.5, np.array([0.5, math.nan]), np.array([[0.0], [1.5]])):
            with pytest.raises(ValueError, match=r"distortion argument must lie in \[0, 1\]"):
                f(u)
    # power(theta).quantile once returned 0 and 1 at the levels 0 and 1, and
    # the numeric quantiles 0 at NaN
    for q in (math.nan, 0.0, 1.0, np.array([0.5, 1.0]), np.array([math.nan, 0.5])):
        with pytest.raises(ValueError, match="quantile level"):
            D.quantile(q)
    # the endpoints are fixed, and a scalar in gives a float out
    assert D.cdf(0.0) == 0.0 and D.cdf(1.0) == 1.0
    for f in (D.cdf, D.density, D.quantile):
        assert type(f(0.5)) is float


def test_boundary_density_is_found_at_first_need(monkeypatch):
    # the boundary probes of an Archimedean limit run at the first density
    # call that holds an endpoint, once, and never when a diagonal is built
    calls = []
    monkeypatch.setattr(distortions, "_arch_density_at_zero", lambda g: calls.append(g.tag) or 7.0)
    D = MODELS["clayton"].diagonal(theta=2.0).limit_distortion
    D.cdf(np.array([0.0, 0.5, 1.0]))
    D.density(np.array([0.25, 0.5]))
    D.quantile(0.5)
    assert calls == []
    assert D.density(0.0) == 7.0 and D.density(np.array([0.0, 1.0, 0.5]))[0] == 7.0
    assert calls == ["clayton(2.0)"]


def test_quantile_floor_is_found_at_first_quantile(monkeypatch):
    # the numeric quantile's floor D(DBL_MIN) was once evaluated when the
    # distortion was built, most of what building efgm_limit cost
    args = []
    real = distortions.on_unit

    def counting(what, f, ends):
        g = real(what, f, ends)
        return lambda u: args.append(np.copy(u)) or g(u)

    monkeypatch.setattr(distortions, "on_unit", counting)
    D = efgm_limit(0.8)
    assert args == []
    q = np.array([1e-70, 1e-60, 1e-9, 1e-6, 0.3, 0.999])
    # the quantiles before the floor was deferred, the first level below it
    expected = [0.0, 1.273801388545115e-285, 3.307831648511449e-35, 2.5171999739219736e-21,
                0.2449198741509545, 0.9989998933105771]
    assert D.quantile(q).tolist() == expected
    assert D.quantile(q).tolist() == expected
    assert [a.tolist() for a in args if a.shape == ()] == [sys.float_info.min]


def test_distortion_is_distribution_function(preset):
    _, _, D = preset
    us = np.linspace(0.0, 1.0, 1000)
    vals = np.asarray(D.cdf(us), dtype=float)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= -1e-14)


# quad flags roundoff near the integrable log singularity at u = 1 of the
# log-type generator; its reported error there is ~1e-8, well inside budget
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_density_integrates_to_cdf_mass(preset):
    _, _, D = preset
    total, mass = integrate_density(D)
    assert total == pytest.approx(mass, abs=1e-6)


def test_quantile_cdf_identity(preset):
    _, _, D = preset
    us = np.linspace(0.01, 0.99, 99)
    back = np.asarray(D.quantile(np.asarray(D.cdf(us), dtype=float)), dtype=float)
    assert np.max(np.abs(back - us)) < 1e-9


BOUNDARY = {
    ("independence", None): (1.0, 1.0),
    ("amh", 0.5): (0.5, 2.0),
    ("clayton", 1.0): (math.inf, 1.0),
    ("clayton", 4.0): (math.inf, 0.25),
    ("frank", 2.0): ((1.0 - math.exp(-2.0)) / 2.0, math.expm1(2.0) / 2.0),
    ("gumbel", 2.0): (1.0, 1.0),
    ("joe", 2.0): (0.0, 1.0),
    ("ballerini", None): (math.inf, math.inf),
}


def test_boundary_density_values(preset):
    fam, th, D = preset
    d0, d1 = BOUNDARY[(fam, th)]
    got0, got1 = float(D.density(0.0)), float(D.density(1.0))
    for got, want in ((got0, d0), (got1, d1)):
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def test_density_examples():
    ones = power(1.0)
    us = np.linspace(0.0, 1.0, 50)
    assert np.max(np.abs(ones.density(us) - 1.0)) == 0.0
    clayton = archimedean_limit(builtin_generator("clayton", 1.0))
    assert clayton.density(1.0) == pytest.approx(1.0, rel=1e-12)
    gumbel = archimedean_limit(builtin_generator("gumbel", 2.0))
    assert gumbel.density(0.5) == pytest.approx(1.0, abs=1e-8)


def test_density_matches_central_differences(preset):
    _, _, D = preset
    h = 1e-7
    for u in (0.05, 0.3, 0.6, 0.9):
        fd = (float(D.cdf(u + h)) - float(D.cdf(u - h))) / (2.0 * h)
        assert float(D.density(u)) == pytest.approx(fd, rel=1e-5)


def test_amh_uniform_mixture_closed_form():
    M = amh_uniform_mixture()
    us = np.linspace(0.01, 0.99, 197)
    closed = 1.0 - ((us - 1.0) / us) * np.log1p(-us)
    assert np.max(np.abs(np.asarray(M.cdf(us)) - closed)) < 1e-8
    # independent route: the 64-node Gauss-Legendre mixture of the AMH limits
    quadrature = mixture_over_interval(lambda th: archimedean_limit(builtin_generator("amh", th)), 0.0, 1.0)
    assert np.max(np.abs(np.asarray(M.cdf(us)) - np.asarray(quadrature.cdf(us)))) < 1e-8
    assert np.max(np.abs(np.asarray(M.density(us)) - np.asarray(quadrature.density(us)))) < 1e-6


def test_amh_uniform_mixture_series_and_boundaries():
    M = amh_uniform_mixture()
    # across the switch to the series at u = 0.1 and down to tiny u
    for u in (1e-300, 1e-8, 1e-3, 0.0999999, 0.1, 0.3):
        series = sum(u**k / (k * (k + 1)) for k in range(1, 60))
        assert float(M.cdf(u)) == pytest.approx(series, rel=1e-14)
        assert float(M.density(u)) == pytest.approx(sum(u ** (k - 1) / (k + 1) for k in range(1, 60)), rel=1e-13)
    assert float(M.cdf(0.0)) == 0.0 and float(M.cdf(1.0)) == 1.0
    assert float(M.density(0.0)) == 0.5 and math.isinf(float(M.density(1.0)))
    with pytest.raises(TypeError):
        amh_uniform_mixture(nodes=64)


def test_amh_series_cells_do_not_depend_on_the_call():
    # the series was once a BLAS product, whose rounding moved with the size
    # of the call: dropping u = 0 moved the density at u = 0.0925 by one ulp
    M = amh_uniform_mixture()
    us = np.linspace(0.0, 1.0, 401)
    for f in (M.cdf, M.density):
        full = f(us)
        assert np.array_equal(f(us[1:]), full[1:])
        assert np.array_equal(f(us[7:33]), full[7:33])
        assert np.array_equal([f(float(u)) for u in us], full)


def test_amh_series_against_mpmath():
    import mpmath as mp

    M = amh_uniform_mixture()
    us = np.linspace(0.0005, 0.0995, 199)
    with mp.workdps(50):
        for f, exact in ((M.cdf, lambda u: 1 + (1 - u) / u * mp.log1p(-u)),
                         (M.density, lambda u: -mp.log1p(-u) / u**2 - 1 / u)):
            for u, got in zip(us, f(us)):
                ref = exact(mp.mpf(float(u)))
                assert abs(mp.mpf(float(got)) - ref) <= 2 * np.spacing(float(ref)), (u, got)


def test_scale_coherence():
    # D_{psi(c.)}(u) = D_psi(u^(c^rho)); Clayton worked case has rho = 1
    for fam, th in [("clayton", 1.0), ("clayton", 2.0), ("frank", 2.0), ("gumbel", 2.0), ("joe", 2.0)]:
        g = builtin_generator(fam, th)
        base = archimedean_limit(g)
        us = np.linspace(1e-6, 1.0 - 1e-6, 301)
        for c in (0.5, 2.0):
            scaled = archimedean_limit(scale_generator(g, c))
            lhs = np.asarray(scaled.cdf(us), dtype=float)
            rhs = np.asarray(base.cdf(us ** (c**g.rho)), dtype=float)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_limit_law_cdf_examples():
    frechet = GevParams(1.0, 1.0, 1.0)
    assert limit_law_cdf(power(0.5), frechet, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    gumbel = GevParams(0.0, 0.0, 1.0)
    assert limit_law_cdf(power(1.0), gumbel, 0.3) == pytest.approx(gev_cdf(gumbel, 0.3), abs=1e-15)
    clayton = archimedean_limit(builtin_generator("clayton", 1.0))
    assert limit_law_cdf(clayton, gumbel, 0.0) == pytest.approx(0.5, rel=1e-14)


def test_power_limit_matches_gev_power():
    H = GevParams(0.4, 1.0, 2.0)
    xs = np.linspace(-2.0, 20.0, 300)
    for theta in (0.25, 2.0, 7.0):
        lhs = np.asarray(limit_law_cdf(power(theta), H, xs))
        rhs = gev_cdf(gev_power(H, theta), xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_max_stability_defect():
    H = GevParams(0.5, 0.0, 1.0)
    grid = np.linspace(-1.9, 400.0, 4001)
    assert max_stability_defect(lambda x: gev_cdf(H, x), 3, grid) < 1e-10

    gumbel = GevParams(0.0, 0.0, 1.0)
    grid = np.linspace(-4.0, 12.0, 2001)
    ident = archimedean_limit(builtin_generator("gumbel", 2.0))
    assert max_stability_defect(lambda x: ident.cdf(gev_cdf(gumbel, x)), 2, grid) < 1e-10

    clayton = archimedean_limit(builtin_generator("clayton", 2.0))
    assert max_stability_defect(lambda x: clayton.cdf(gev_cdf(gumbel, x)), 2, grid) > 0.01

    with pytest.raises(ValueError):
        max_stability_defect(lambda x: np.full_like(np.asarray(x, dtype=float), 0.5), 2, grid)
