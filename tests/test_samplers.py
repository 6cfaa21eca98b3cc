import math

import numpy as np
import pytest
from scipy.stats import kstest

from maxdep.generators import builtin_generator
from maxdep.margins import Exponential, StandardNormal, UnitFrechet, Uniform01
from maxdep.models import MODELS as MODEL_TABLE, make_diagonal, model_spec
from maxdep.samplers import (
    ArchimaxLogistic,
    ArchimedeanFrailty,
    BermanEquicorrelated,
    EfgmExchangeable,
    GaussianAR1,
    IID,
    MovingMax,
    RngStream,
    empirical_diagonal,
    frailty_sample,
    max_sample,
    normalized_max_ecdf,
    sample_paths,
)

MODELS = [
    IID(),
    MovingMax(1),
    ArchimedeanFrailty("clayton", 2.0),
    ArchimedeanFrailty("gumbel", 2.0),
    ArchimaxLogistic("clayton", 2.0, 2.0),
    GaussianAR1(0.6),
    EfgmExchangeable(0.8),
    BermanEquicorrelated(0.5),
]


def test_stream_independence_and_determinism():
    s = RngStream(123, 4)
    a = s.block_generator(0).random(5)
    b = s.block_generator(0).random(5)
    c = s.block_generator(1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, RngStream(123, 5).block_generator(0).random(5))


def test_sample_path_shape_and_native_scale():
    path = sample_paths(IID(), None, 7, 1, RngStream(1, 0))[0]
    assert path.shape == (7,)
    assert np.all((path >= 0.0) & (path <= 1.0))
    raw = sample_paths(BermanEquicorrelated(0.5), None, 1000, 1, RngStream(1, 1))[0]
    assert np.abs(raw).max() > 1.0  # native normal scale, not uniform


def test_margin_transform_matches_native():
    # the margin transform is the quantile of the uniform path
    m = Exponential(2.0)
    u = sample_paths(IID(), None, 4, 64, RngStream(9, 0))
    x = sample_paths(IID(), m, 4, 64, RngStream(9, 0))
    assert np.allclose(x, np.asarray(m.quantile(u)), rtol=1e-12)


@pytest.mark.parametrize("workers", [1, 3])
def test_estimators_are_worker_invariant(workers):
    model = ArchimedeanFrailty("clayton", 2.0)
    ref = empirical_diagonal(model, 5, 0.6, 50_000, RngStream(77, 0), workers=1)
    got = empirical_diagonal(model, 5, 0.6, 50_000, RngStream(77, 0), workers=workers)
    assert got == ref
    grid = np.linspace(0.3, 4.0, 7)
    p0, s0 = normalized_max_ecdf(IID(), UnitFrechet(), 50, 20_000, 50.0, 0.0, grid, RngStream(5, 1), workers=1)
    p1, s1 = normalized_max_ecdf(IID(), UnitFrechet(), 50, 20_000, 50.0, 0.0, grid, RngStream(5, 1), workers=workers)
    assert np.array_equal(p0, p1) and np.array_equal(s0, s1)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tag)
def test_marginal_distribution(model):
    # first components across paths are iid draws from the margin
    margin = Exponential(1.0) if not isinstance(model, BermanEquicorrelated) else StandardNormal()
    first = sample_paths(model, margin, 2, 100_000, RngStream(20240908, 0))[:, 0]
    dist = "expon" if not isinstance(model, BermanEquicorrelated) else "norm"
    assert kstest(first, dist).pvalue > 0.001


FRAILTY_CASES = [("independence", None), ("clayton", 2.0), ("gumbel", 2.0), ("frank", 2.0), ("joe", 2.0), ("amh", 0.5)]


@pytest.mark.parametrize("family,theta", FRAILTY_CASES, ids=[f"{f}({t})" for f, t in FRAILTY_CASES])
def test_frailty_laplace_transform(family, theta):
    g = builtin_generator(family, theta)
    gen = RngStream(31337, 0).block_generator(0)
    v = frailty_sample(family, theta, gen, 100_000)
    for t in (0.1, 1.0, 5.0):
        w = np.exp(-t * v)
        se = w.std(ddof=1) / math.sqrt(w.size)
        if se < 1e-12:  # degenerate frailty (independence)
            assert w.mean() == pytest.approx(float(g.psi(t)), abs=1e-12)
        else:
            z = (w.mean() - float(g.psi(t))) / se
            assert abs(z) < 4.0


def test_frailty_unknown_family():
    gen = RngStream(0, 0).block_generator(0)
    with pytest.raises(ValueError):
        frailty_sample("ballerini", None, gen, 10)


# parameters of every model table entry that has both a sampler and a diagonal
SAMPLED_PARAMS = {
    "independence": {},
    "movingmax": {"k": 1},
    "efgm": {"theta": 0.8},
    "clayton": {"theta": 2.0},
    "frank": {"theta": 3.0},
    "gumbel": {"theta": 2.0},
    "joe": {"theta": 2.0},
    "amh": {"theta": 0.6},
}
DIAGONAL_CASES = [
    (spec.sampler(**SAMPLED_PARAMS[name]), spec.diagonal(**SAMPLED_PARAMS[name]))
    for name, spec in MODEL_TABLE.items()
    if spec.sampler and spec.diagonal
] + [(ArchimaxLogistic("clayton", 2.0, 2.0), make_diagonal("archimax", family="clayton", theta=2.0, theta_stdf=2.0))]


@pytest.mark.parametrize("model,fam", DIAGONAL_CASES, ids=lambda c: getattr(c, "tag", ""))
def test_empirical_diagonal_matches_analytic(model, fam):
    idx = 0
    for n in (2, 5, 20):
        for u in (0.3, 0.6, 0.9):
            est = empirical_diagonal(model, n, u, 20_000, RngStream(4600, idx))
            target = float(fam(n, u))
            # rare-event cells (target ~ 1e-11 for weak dependence at n=20)
            # have zero observed hits; floor the error at the binomial se of
            # the analytic value so z stays meaningful
            se = max(est.std_error, math.sqrt(max(target * (1.0 - target), 0.0) / est.reps), 1e-12)
            z = abs(est.value - target) / se
            assert z < 4.0, (model.tag, n, u, z)
            idx += 1


def test_ar1_independent_case_reduces():
    est = empirical_diagonal(GaussianAR1(0.0), 5, 0.8, 50_000, RngStream(2025, 0))
    assert abs(est.value - 0.8**5) < 4.0 * est.std_error


def test_ar1_pair_matches_bivariate_normal_orthant():
    # at n = 2 the diagonal is the exact bivariate normal orthant probability
    # with correlation phi, which scipy can evaluate directly
    from scipy.stats import multivariate_normal, norm as normal_dist

    phi, u = 0.6, 0.7
    z = normal_dist.ppf(u)
    exact = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, phi], [phi, 1.0]]).cdf([z, z])
    est = empirical_diagonal(GaussianAR1(phi), 2, u, 100_000, RngStream(2026, 0))
    assert abs(est.value - float(exact)) < 4.0 * est.std_error


def test_archimax_frank_logistic_diagonal():
    # second generator/stdf configuration: Frank frailty with a cube-root
    # stable inner sequence
    model = ArchimaxLogistic("frank", 2.0, 3.0)
    fam = make_diagonal("archimax", family="frank", theta=2.0, theta_stdf=3.0)
    for i, (n, u) in enumerate([(4, 0.4), (4, 0.8)]):
        est = empirical_diagonal(model, n, u, 50_000, RngStream(2027, i))
        assert abs(est.value - float(fam(n, u))) < 4.0 * est.std_error, (n, u)


def test_mc_estimates_feed_diagonal_distance():
    from maxdep.diagonals import empirical_diagonal_distance

    fam = make_diagonal("archimedean", family="clayton", theta=2.0)
    model = ArchimedeanFrailty("clayton", 2.0)
    samples = []
    for i, (n, u) in enumerate([(2, 0.5), (5, 0.6), (20, 0.9)]):
        est = empirical_diagonal(model, n, u, 50_000, RngStream(808, i))
        samples.append((n, u, est.value, est.std_error))
    assert empirical_diagonal_distance(fam, samples) < 4.0


def test_normalized_max_ecdf_iid_frechet():
    grid = np.linspace(0.3, 5.0, 11)
    p, se = normalized_max_ecdf(IID(), UnitFrechet(), 100, 50_000, 100.0, 0.0, grid, RngStream(6, 0))
    target = np.exp(-1.0 / grid)
    assert np.max(np.abs(p - target) / se) < 4.0


def test_normalized_max_ecdf_movingmax():
    n = 1024
    grid = np.linspace(0.3, 5.0, 11)
    p, se = normalized_max_ecdf(MovingMax(1), UnitFrechet(), n, 20_000, float(n), 0.0, grid, RngStream(8, 0))
    target = np.exp(-(n + 1.0) / (2.0 * n * grid))
    assert np.max(np.abs(p - target) / se) < 4.0


def test_berman_high_correlation_is_nearly_comonotone():
    est = empirical_diagonal(BermanEquicorrelated(0.99), 5, 0.7, 50_000, RngStream(12, 0))
    assert abs(est.value - 0.7) < 0.05


def test_max_sample_margin_scale():
    m = max_sample(IID(), Uniform01(), 4, 5000, RngStream(3, 0))
    assert m.shape == (5000,)
    assert kstest(m, lambda x: np.clip(x, 0, 1) ** 4).pvalue > 0.001


def test_invalid_inputs():
    with pytest.raises(ValueError):
        empirical_diagonal(IID(), 5, 0.5, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        normalized_max_ecdf(IID(), UnitFrechet(), 5, 5000, -1.0, 0.0, [1.0], RngStream(0, 0))
    with pytest.raises(ValueError):
        GaussianAR1(1.5)
    with pytest.raises(ValueError):
        BermanEquicorrelated(0.0)
    with pytest.raises(ValueError):
        EfgmExchangeable(1.5)
    with pytest.raises(ValueError):
        model_spec("unknown-model")


def test_make_model_specs():
    assert MODEL_TABLE["movingmax"].sampler(k=2).tag == "movingmax(2)"
    assert MODEL_TABLE["clayton"].sampler(theta=2.0).tag.startswith("arch-frailty")
    assert BermanEquicorrelated(0.5).tag == "berman(0.5)"
