"""Acceptance suite: one test per numbered criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances are fixed here, not tuned at runtime.  Criterion 10
probes a log-type generator whose divergences are logarithmic, so its checks
are placed where the analytic finite-t behaviour allows them: the index
window at t = 1e100, the divergence of -psi'(t) at the log(1 + 1/t) rate down
to the smallest subnormal; the analysis sits in the comments.
"""

import csv
import io
import math
import time
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import maxdep as md
from maxdep.cli import main as cli_main
from maxdep.gev import GevParams, gev_cdf, gev_quantile

DATA = Path(__file__).parent / "data"


class stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, f"runtime {self.elapsed:.1f}s exceeds {self.budget}s budget"


def test_c01_power_difference_supremum_exactness():
    rng = np.random.default_rng(20240901)
    grid = np.linspace(0.0, 1.0, 100_000)
    for _ in range(50):
        a, b = np.sort(rng.uniform(1e-3, 20.0, 2))
        if b - a < 1e-9:
            b = a + 1e-6
        diff = np.abs(grid**a - grid**b)
        i = int(np.argmax(diff))
        from maxdep._numutil import refine_max

        _, refined = refine_max(lambda u: abs(u**a - u**b), grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], tol=1e-13)
        numeric = max(float(diff[i]), refined)
        assert md.sup_power_diff(a, b).value == pytest.approx(numeric, abs=1e-9)


def test_c02_gev_power_pointwise_identity():
    rng = np.random.default_rng(20240902)
    for _ in range(20):
        params = GevParams(rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0))
        theta = rng.uniform(0.05, 20.0)
        xs = gev_quantile(params, np.linspace(0.001, 0.999, 100))
        lhs = gev_cdf(params, xs) ** theta
        rhs = gev_cdf(md.gev_power(params, theta), xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_c03_hall_uniform_rate_bound():
    with stopwatch(5.0):
        norm = md.StandardNormal()
        for n in (100, 1000, 10_000):
            c, d, lim = norm.normalizers(n)
            xs = gev_quantile(lim, np.linspace(0.001, 0.999, 200))
            sup = np.max(np.abs(np.asarray(norm.cdf(c * xs + d)) ** n - gev_cdf(lim, xs)))
            assert sup <= 3.0 / math.log(n)


def test_c04_moving_max_convergence_budget():
    with stopwatch(60.0):
        n, reps = 1024, 100_000
        margin = md.UnitFrechet()
        limit = GevParams(1.0, 1.0, 1.0)
        grid = gev_quantile(limit, np.linspace(0.02, 0.98, 41))
        ecdf, se = md.normalized_max_ecdf(
            md.MovingMax(1), margin, n, reps, float(n), 0.0, grid, md.RngStream(20240904, 0)
        )
        target = np.exp(-0.5 / grid)  # square root of the unit Frechet law
        sup = float(np.max(np.abs(ecdf - target)))
        allowance = md.movingmax_s(n, 1) + 4.0 * float(np.max(se))
        assert sup <= allowance
        # the margin is exactly max-stable, so the allowance is ~0.0067
        assert allowance == pytest.approx(0.0067, abs=1e-3)


def test_c05_clayton_frailty_diagonal_oracle():
    with stopwatch(90.0):
        g = md.builtin_generator("clayton", 2.0)
        model = md.ArchimedeanFrailty("clayton", 2.0)
        idx = 0
        for n in (2, 5, 20):
            for u in (0.3, 0.6, 0.9):
                est = md.empirical_diagonal(model, n, u, 200_000, md.RngStream(20240905, idx))
                analytic = float(g.psi(n * float(g.psi_inv(u))))
                assert abs(est.value - analytic) < 4.0 * est.std_error, (n, u)
                idx += 1


def test_c06_archimedean_limit_convergence():
    fam = md.make_diagonal("archimedean", family="clayton", theta=2.0)
    sups = [md.distortion_sup_distance(fam, None, n, fam.limit_distortion) for n in (10**2, 10**3, 10**4, 10**5)]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.01
    # Clayton theta = 1: the canonical rate is n + 1 (psi(1/n) = n/(n+1)); the
    # float evaluation agrees to machine precision
    fam1 = md.make_diagonal("archimedean", family="clayton", theta=1.0)
    for n in (1, 2, 10, 1000, 10**6):
        assert fam1.canonical_rate(n) == pytest.approx(n + 1.0, rel=1e-12)


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
# boundary limits d(0), d(1) worked out from the closed-form derivatives
BOUNDARIES = {
    ("independence", None): (1.0, 1.0),
    ("amh", 0.5): (0.5, 2.0),
    ("clayton", 1.0): (math.inf, 1.0),
    ("clayton", 4.0): (math.inf, 0.25),
    ("frank", 2.0): ((1.0 - math.exp(-2.0)) / 2.0, math.expm1(2.0) / 2.0),
    ("gumbel", 2.0): (1.0, 1.0),
    ("joe", 2.0): (0.0, 1.0),
    ("ballerini", None): (math.inf, math.inf),
}


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_c07_distortion_distribution_function_suite(tmp_path):
    from test_distortions import integrate_density

    for fam, th in PRESETS:
        D = md.archimedean_limit(md.builtin_generator(fam, th))
        total, mass = integrate_density(D)
        assert total == pytest.approx(mass, abs=1e-6), (fam, th)
        us = np.linspace(0.01, 0.99, 99)
        back = np.asarray(D.quantile(np.asarray(D.cdf(us), dtype=float)), dtype=float)
        assert np.max(np.abs(back - us)) < 1e-9, (fam, th)
        d0, d1 = BOUNDARIES[(fam, th)]
        for got, want in ((float(D.density(0.0)), d0), (float(D.density(1.0)), d1)):
            if math.isinf(want):
                assert math.isinf(got), (fam, th)
            else:
                assert got == pytest.approx(want, rel=1e-4, abs=1e-4), (fam, th)
    # the density table for these presets is pinned as a golden file
    out = tmp_path / "figure1.csv"
    assert cli_main(["distortion", "--generator", "figure1", "--u-grid", "0.005:0.995:199", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "figure1_density.csv").read_bytes()


def test_c08_efgm_suite():
    us = np.linspace(0.0, 1.0, 501)
    for th in (0.3, 0.7, 1.0):
        assert np.array_equal(np.asarray(md.efgm_limit(th).cdf(us)), np.asarray(md.efgm_limit(-th).cdf(us)))
    assert float(np.max(np.abs(md.efgm_limit(0.001).cdf(us) - us))) < 1e-3

    fam = md.make_diagonal("efgm", theta=0.8)
    model = md.EfgmExchangeable(0.8)
    idx = 0
    for n in (2, 4):
        for u in (0.3, 0.6, 0.9):
            est = md.empirical_diagonal(model, n, u, 100_000, md.RngStream(20240908, idx))
            assert abs(est.value - float(fam(n, u))) < 4.0 * est.std_error, (n, u)
            idx += 1

    mix = md.amh_uniform_mixture()
    inner = np.linspace(0.01, 0.99, 197)
    closed = 1.0 - ((inner - 1.0) / inner) * np.log1p(-inner)
    assert np.max(np.abs(np.asarray(mix.cdf(inner)) - closed)) < 1e-8


def test_c09_generator_scale_invariance():
    g = md.builtin_generator("clayton", 1.0)
    us = np.linspace(1e-6, 1.0 - 1e-6, 301)
    base_D = md.archimedean_limit(g)
    for c in (0.5, 2.0):
        gc = md.scale_generator(g, c)
        for n in (2, 10, 100):
            lhs = np.asarray(g.psi(n * np.asarray(g.psi_inv(us), dtype=float)))
            rhs = np.asarray(gc.psi(n * np.asarray(gc.psi_inv(us), dtype=float)))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        scaled_D = md.archimedean_limit(gc)
        coherence = np.abs(np.asarray(scaled_D.cdf(us)) - np.asarray(base_D.cdf(us ** (c**g.rho))))
        assert np.max(coherence) < 1e-12


def test_c10_ballerini_rv_index_window():
    # Window [0.995, 1.005] for the estimator at lambda = 2.  The slowly
    # varying factor of this generator is 1 + log(t) (1 - psi(1/t) =
    # (1 + log t)/t * (1 + O(log(t)/t))), so the estimator approaches rho = 1
    # from below with the analytic bias log1p(log(2)/(1 + log(t)))/log(2):
    # 0.0506 at t = 1e8, below 0.005 only for t > e^137 ~ 3.2e59, and 0.0043
    # at t = 1e100, where the window is reached.
    g = md.builtin_generator("ballerini")
    est = md.rv_index_estimate(g, 2.0, 1e100)
    assert 0.995 <= est <= 1.005
    # the slow approach itself: at t = 1e8 the estimate sits at the bias
    slow = md.rv_index_estimate(g, 2.0, 1e8)
    bias = math.log1p(math.log(2.0) / (1.0 + math.log(1e8))) / math.log(2.0)
    assert slow == pytest.approx(1.0 - bias, abs=1e-6)


def test_c10_ballerini_polynomial_growth_divergence():
    g = md.builtin_generator("ballerini")
    ts = np.array([10.0**e for e in range(1, 7)])
    traj = md.polynomial_growth_trajectory(g, 1.0, ts)
    assert np.all(np.diff(traj) > 0)
    assert traj[-1] > 10.0


def test_c10_ballerini_derivative_probe():
    # -psi'(0+) = inf, but -psi'(t) = log(1 + 1/t) * psi(t) diverges only
    # logarithmically: 18.4 at t = 1e-8 and about 744.4 at the smallest
    # positive double, so no fixed-t threshold can show the limit is
    # infinite.  Instead -psi' must stay finite and increase strictly all
    # the way down to 5e-324 (past t = 1/DBL_MAX, where 1/t overflows), and
    # follow the divergence rate log(1 + 1/t), psi(t) -> 1.
    g = md.builtin_generator("ballerini")
    assert g.neg_psi_prime_0 == math.inf
    ts = [10.0**-k for k in (2, 8, 16, 32, 64, 128, 200, 256, 300)] + [1e-310, 5e-324]
    probes = [-float(g.psi_prime(t)) for t in ts]
    assert all(math.isfinite(p) for p in probes)
    assert all(a < b for a, b in zip(probes, probes[1:]))
    with localcontext() as ctx:
        ctx.prec = 40
        for t, p in zip(ts, probes):
            if t <= 1e-16:
                assert p / float((1 + 1 / Decimal(t)).ln()) == pytest.approx(1.0, abs=1e-12)


def test_c11_mixing_discrepancy_demo():
    fam = md.make_diagonal("logistic", theta=2.0)
    n = 10**6
    v = 0.5 ** (1.0 / fam.canonical_rate(n))
    got = md.mixing_discrepancy(fam, n, 0.25, 0.25, v)
    assert got == pytest.approx(0.5 ** (1.0 / math.sqrt(2.0)) - 0.5, abs=5e-3)


def test_c12_cuadras_auge_exact_supremum():
    from maxdep._numutil import refine_max

    n, theta = 10, 0.5
    exact, bound = md.cuadras_auge_sup(n, theta)
    eta = (1.0 - (1.0 - theta) ** n) / theta
    grid = np.linspace(0.0, 1.0, 100_001)
    diff = np.abs(grid**eta - grid ** (1.0 / theta))
    i = int(np.argmax(diff))
    _, refined = refine_max(lambda u: abs(u**eta - u ** (1.0 / theta)), grid[i - 1], grid[i + 1], tol=1e-13)
    assert exact == pytest.approx(max(float(diff[i]), refined), abs=1e-10)
    assert exact <= bound
    assert bound == pytest.approx(3.0 / math.e * (1.0 - theta) ** n, rel=1e-12)


def test_c13_berman_counterexample_qualitative():
    with stopwatch(120.0):
        rho = 0.5
        model = md.BermanEquicorrelated(rho)
        norm = md.StandardNormal()
        ks_values = []
        for i, n in enumerate((100, 1000, 10_000)):
            d_n = math.sqrt(1.0 - rho) * norm.hall_constant(n)
            m = md.max_sample(model, norm, n, 100_000, md.RngStream(7, i), workers=2)
            ks_values.append(kstest(m - d_n, "norm", args=(0.0, math.sqrt(rho))).statistic)
        assert all(a > b for a, b in zip(ks_values, ks_values[1:])), ks_values
        assert ks_values[-1] < 0.05, ks_values


def test_c14_cli_determinism_across_workers(tmp_path):
    args = [
        "converge", "--model", "clayton", "--theta", "2", "--margin", "exponential",
        "--n", "100,1000", "--reps", "20000", "--seed", "424242",
    ]
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert cli_main(args + ["--workers", "1", "--out", str(f1)]) == 0
    assert cli_main(args + ["--workers", "4", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
