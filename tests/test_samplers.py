import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, ndtr, ndtri
from scipy.stats import kstest

from maxdep import samplers
from maxdep.diagonals import archimax_diagonal, logistic_eta
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
    _exponential,
    _normal,
    _slices,
    _unit,
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
    # n = 4 runs on the calling thread at any worker count, n = 64 in a pool
    model = ArchimedeanFrailty("clayton", 2.0)
    berman = BermanEquicorrelated(0.5)
    grid = np.linspace(0.3, 4.0, 7)
    for n in (4, 64):
        ref = empirical_diagonal(model, n, 0.6, 50_000, RngStream(77, 0), workers=1)
        got = empirical_diagonal(model, n, 0.6, 50_000, RngStream(77, 0), workers=workers)
        assert got == ref, n
        # a lone short block (4097) and a partial last slice (5000) as well
        for reps in (20_000, 4097, 5000):
            p0, s0 = normalized_max_ecdf(IID(), UnitFrechet(), n, reps, n, 0.0, grid, RngStream(5, 1), workers=1)
            p1, s1 = normalized_max_ecdf(IID(), UnitFrechet(), n, reps, n, 0.0, grid, RngStream(5, 1), workers=workers)
            assert np.array_equal(p0, p1) and np.array_equal(s0, s1), (n, reps)
            for mod, margin in ((model, Exponential(1.0)), (berman, None)):
                m0 = max_sample(mod, margin, n, reps, RngStream(6, 2), workers=1)
                m1 = max_sample(mod, margin, n, reps, RngStream(6, 2), workers=workers)
                assert m0.shape == (reps,) and np.array_equal(m0, m1), (mod.tag, n, reps)
            # sample_paths draws inline; the driver it uses is checked at this worker count
            paths = sample_paths(model, None, n, reps, RngStream(7, 3))
            assert np.array_equal(paths, _slices(RngStream(7, 3), n, reps, workers, model._native_paths)), (n, reps)


def test_pool_starts_only_for_several_blocks_of_long_paths(monkeypatch):
    # one block, or n < 64, runs on the calling thread at any worker count
    starts = []

    class CountedPool(samplers.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(samplers, "ThreadPoolExecutor", CountedPool)
    for n, reps in ((4, 20_000), (63, 8192), (64, 4096), (512, 100)):
        max_sample(IID(), None, n, reps, RngStream(3, 1), workers=2)
        empirical_diagonal(IID(), n, 0.5, max(reps, 1000), RngStream(3, 2), workers=3)
    assert starts == []
    max_sample(IID(), None, 64, 4097, RngStream(3, 1), workers=1)
    assert starts == []
    max_sample(IID(), None, 64, 4097, RngStream(3, 1), workers=2)
    empirical_diagonal(IID(), 512, 0.5, 8192, RngStream(3, 2), workers=3)
    assert starts == [2, 3]


def test_rows_are_laid_out_in_block_order():
    # rep r always comes from block r // 4096, so adding reps appends rows
    model = ArchimedeanFrailty("clayton", 2.0)
    for workers in (1, 2):
        short = max_sample(model, None, 6, 4096, RngStream(40, 1), workers=workers)
        long = max_sample(model, None, 6, 4097, RngStream(40, 1), workers=workers)
        assert np.array_equal(long[:4096], short)
    paths = sample_paths(model, None, 6, 4097, RngStream(40, 1))
    assert np.array_equal(paths[:4096], sample_paths(model, None, 6, 4096, RngStream(40, 1)))
    assert np.array_equal(paths[4096:], model._native_paths(RngStream(40, 1).block_generator(1), 1, 6))


@pytest.mark.parametrize(
    "model, cdf, quantile",
    [
        (ArchimedeanFrailty("gumbel", 2.0), lambda x: np.clip(x, 0.0, 1.0), lambda u: u),
        (BermanEquicorrelated(0.5), ndtr, ndtri),
    ],
    ids=["gumbel", "berman"],
)
def test_ecdf_counts_every_maximum_at_or_below_each_level(model, cdf, quantile):
    # normalized_max_ecdf sorts the maxima and binary-searches each level;
    # that must count exactly the maxima <= t, ties included, for unsorted
    # levels, infinite levels and levels equal to observed maxima.  With no
    # margin the levels lie on the model's native scale, uniform for gumbel
    # and normal for Berman, and reach the uniform maxima through its cdf
    n, reps = 8, 5000
    umax = max_sample(model, None, n, reps, RngStream(41, 0))
    xmax = sample_paths(model, None, n, reps, RngStream(41, 0)).max(axis=1)
    levels = np.array([quantile(0.7), np.inf, xmax[17], quantile(0.2), -np.inf, xmax[4999], xmax.min(),
                       quantile(0.95), xmax.max(), xmax[0]])
    p, _ = normalized_max_ecdf(model, None, n, reps, 1.0, 0.0, levels, RngStream(41, 0))
    want = (umax[:, None] <= cdf(levels)).sum(axis=0)
    assert np.array_equal(p, want / reps)
    assert p[1] == 1.0 and p[4] == 0.0 and p[6] == 1 / reps


@pytest.mark.parametrize("n", [0, -3, 2.5, True, False, np.float64(4.0), "4"])
def test_every_estimator_rejects_a_bad_n(n):
    stream = RngStream(0, 0)
    calls = [
        lambda: sample_paths(IID(), None, n, 10, stream),
        lambda: max_sample(IID(), None, n, 10, stream),
        lambda: empirical_diagonal(IID(), n, 0.5, 1000, stream),
        lambda: normalized_max_ecdf(IID(), UnitFrechet(), n, 1000, 1.0, 0.0, [1.0], stream),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            call()


@pytest.mark.parametrize("reps", [0, -3, 2.5, 1000.7, True, False, None, np.float64(4096.0), "4096"])
def test_every_estimator_rejects_a_bad_reps(reps):
    # a bool reps drew one repetition, and a float one raised a TypeError
    stream = RngStream(0, 0)
    calls = [
        lambda: sample_paths(IID(), None, 3, reps, stream),
        lambda: max_sample(IID(), None, 3, reps, stream),
        lambda: empirical_diagonal(IID(), 3, 0.5, reps, stream),
        lambda: normalized_max_ecdf(IID(), UnitFrechet(), 3, reps, 1.0, 0.0, [1.0], stream),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="reps must be an integer >= 1"):
            call()


def test_binomial_estimators_reject_fewer_than_1000_reps():
    stream = RngStream(0, 0)
    with pytest.raises(ValueError, match="reps must be an integer >= 1000, got 999"):
        empirical_diagonal(IID(), 3, 0.5, 999, stream)
    with pytest.raises(ValueError, match="reps must be an integer >= 1000, got 999"):
        normalized_max_ecdf(IID(), UnitFrechet(), 3, 999, 1.0, 0.0, [1.0], stream)


def test_ecdf_rejects_a_nan_threshold():
    # searchsorted would count a NaN level above every maximum, and the
    # unit-Frechet cdf maps a NaN threshold to 0: both must raise instead
    for margin in (UnitFrechet(), StandardNormal(), None):
        with pytest.raises(ValueError, match="NaN"):
            normalized_max_ecdf(IID(), margin, 8, 4096, 1.0, 0.0, [np.nan, 1.0], RngStream(0, 0))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tag)
def test_marginal_distribution(model):
    # first components across paths are iid draws from the margin
    margin = Exponential(1.0) if not isinstance(model, BermanEquicorrelated) else StandardNormal()
    first = sample_paths(model, margin, 2, 100_000, RngStream(20240908, 0))[:, 0]
    dist = "expon" if not isinstance(model, BermanEquicorrelated) else "norm"
    assert kstest(first, dist).pvalue > 0.001


FRAILTY_CASES = [("independence", None), ("clayton", 2.0), ("gumbel", 2.0), ("frank", 2.0), ("joe", 2.0), ("amh", 0.5)]
# the Sibuya frailty from near-independence to a tail so heavy that half the
# draws at theta = 1000 lie beyond DBL_MAX
SIBUYA_THETAS = [1.01, 10.0, 100.0, 1000.0]
FRAILTY_CASES += [("joe", theta) for theta in SIBUYA_THETAS]


@pytest.mark.parametrize("family,theta", FRAILTY_CASES, ids=[f"{f}({t})" for f, t in FRAILTY_CASES])
def test_frailty_laplace_transform(family, theta):
    g = builtin_generator(family, theta)
    gen = RngStream(31337, 0).block_generator(0)
    v = frailty_sample(family, theta, gen, 100_000)
    for t in (0.1, 1.0, 5.0):
        # e^(-t*v) is 0 in doubles long before v reaches DBL_MAX/t, so the
        # clip changes no term and keeps t*v finite
        w = np.exp(-t * np.minimum(v, 1e300))
        se = w.std(ddof=1) / math.sqrt(w.size)
        if se < 1e-12:  # degenerate frailty (independence)
            assert w.mean() == pytest.approx(float(g.psi(t)), abs=1e-12)
        else:
            z = (w.mean() - float(g.psi(t))) / se
            assert abs(z) < 4.0


@pytest.mark.parametrize("theta", [2.0] + SIBUYA_THETAS)
def test_sibuya_frailty_law(theta):
    # Joe's frailty is Sibuya(1/theta): integral, >= 1, with
    # P(V > n) = Gamma(n+1-a)/(Gamma(1-a) Gamma(n+1)) for a = 1/theta
    alpha, reps = 1.0 / theta, 400_000
    gen = RngStream(1979, 0).block_generator(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = frailty_sample("joe", theta, gen, reps)
    finite = v[np.isfinite(v)]
    assert np.all(v >= 1.0)
    assert np.array_equal(finite, np.floor(finite))
    for n in (1, 10, 1000):
        p = math.exp(gammaln(n + 1.0 - alpha) - gammaln(1.0 - alpha) - gammaln(n + 1.0))
        z = (np.count_nonzero(v > n) - reps * p) / math.sqrt(reps * p * (1.0 - p))
        assert abs(z) < 4.0, (theta, n, z)
    # +inf only where the draw exceeds DBL_MAX: P(V > x) ~ x^-a / Gamma(1-a)
    # for large x, 8e-4 at theta = 100, 0.49 at theta = 1000 and below 1e-30
    # at theta <= 10, where no draw may be inf
    p_inf = math.exp(-alpha * math.log(sys.float_info.max) - gammaln(1.0 - alpha))
    n_inf = np.count_nonzero(np.isinf(v))
    assert abs(n_inf - reps * p_inf) < 4.0 * math.sqrt(reps * p_inf * (1.0 - p_inf)) + 0.5, (theta, n_inf)


def test_frailty_unknown_family():
    gen = RngStream(0, 0).block_generator(0)
    families = "independence, clayton, gumbel, frank, joe, amh"
    with pytest.raises(ValueError, match=f"^unknown frailty family 'ballerini'; pick from {families}$"):
        frailty_sample("ballerini", None, gen, 10)
    # a family without a frailty draw fails at construction, not at the first draw
    with pytest.raises(ValueError, match="frailty family 'ballerini'; pick from"):
        ArchimedeanFrailty("ballerini")
    with pytest.raises(ValueError, match="frailty family 'ballerini'; pick from"):
        ArchimaxLogistic("ballerini", None, 2.0)


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
] + [(ArchimaxLogistic("clayton", 2.0, 2.0), archimax_diagonal(builtin_generator("clayton", 2.0), logistic_eta(2.0)))]


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


@pytest.mark.parametrize("phi", [-0.99, -0.5, 0.0, 0.5, 0.99])
def test_ar1_recursion_is_what_lfilter_computes(phi):
    # the numpy recursion must round as scipy's lfilter does, which the
    # pinned ar1 bytes were made with; scipy.signal is only the reference here
    from scipy.signal import lfilter

    model = GaussianAR1(phi)
    for block, (n, m) in enumerate((n, m) for n in (1, 2, 33, 256) for m in (5, 256)):
        stream = RngStream(31, 4)
        (y,) = model._draw(stream.block_generator(block), m, n)
        gen = stream.block_generator(block)
        y0 = gen.standard_normal(m) * model.stat_sd
        z = gen.standard_normal((m, n))
        want, _ = lfilter([1.0], [1.0, -phi], z, axis=1, zi=(phi * y0)[:, None])
        assert y.shape == (m, n) and np.array_equal(y, want), (phi, n, m)
        got = model._umax(stream.block_generator(block), m, n)
        paths = model._to_uniform(model._native_paths(stream.block_generator(block), m, n))
        assert np.array_equal(got, paths.max(axis=1)), (phi, n, m)


def test_archimax_frank_logistic_diagonal():
    # second generator/stdf configuration: Frank frailty with a cube-root
    # stable inner sequence
    model = ArchimaxLogistic("frank", 2.0, 3.0)
    fam = archimax_diagonal(builtin_generator("frank", 2.0), logistic_eta(3.0))
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


def test_seed_outside_64_bits_is_rejected():
    # the seed fills the low 64 bits of the Philox key; reducing it mod 2^64
    # would hand 2^64 + 5 the stream of 5, and -5 that of 2^64 - 5
    for seed in (-1, -5, 1 << 64, (1 << 64) + 5):
        with pytest.raises(ValueError, match="seed"):
            RngStream(seed, 0)
    for seed in (0, (1 << 64) - 1):
        assert RngStream(seed, 0).block_generator(0).random(2).shape == (2,)
    # the stream index fills 40 bits of the counter; it is checked at construction too
    for index in (-1, 1 << 40):
        with pytest.raises(ValueError, match="stream index out of range"):
            RngStream(1, index)
    assert RngStream(1, (1 << 40) - 1).block_generator(0).random(2).shape == (2,)


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
    # bools are flags, not parameters
    for build in (lambda: EfgmExchangeable(True), lambda: GaussianAR1(False), lambda: ArchimaxLogistic("clayton", 2.0, True),
                  lambda: ArchimaxLogistic("clayton", True, 2.0), lambda: ArchimedeanFrailty("clayton", True)):
        with pytest.raises(ValueError, match="must be a real number"):
            build()
    for k in (-1, 1.0, True, False):
        with pytest.raises(ValueError, match="window k must be an integer >= 0"):
            MovingMax(k)
    with pytest.raises(ValueError):
        model_spec("unknown-model")


def test_make_model_specs():
    assert MODEL_TABLE["movingmax"].sampler(k=2).tag == "movingmax(2)"
    assert MODEL_TABLE["clayton"].sampler(theta=2.0).tag.startswith("arch-frailty")
    assert BermanEquicorrelated(0.5).tag == "berman(0.5)"


# every model table entry with a sampler, plus the two models it has no entry for
SAMPLER_PARAMS = {**SAMPLED_PARAMS, "ar1": {"phi": 0.6}}
UMAX_MODELS = [spec.sampler(**SAMPLER_PARAMS[name]) for name, spec in MODEL_TABLE.items() if spec.sampler] + [ArchimaxLogistic("clayton", 2.0, 2.0), BermanEquicorrelated(0.5)]


@pytest.mark.parametrize("model", UMAX_MODELS, ids=lambda m: m.tag)
def test_umax_is_the_path_maximum(model):
    # _umax reduces on the draw scale and maps only the row maxima; that must
    # be bitwise the row maximum of the full uniform paths from the same draws;
    # a block's last slice has fewer than 256 rows, and odd widths reach the
    # vector tails of the elementwise maps
    shapes = [(m, n) for m in (256, 100) for n in (1, 3, 4, 64, 512)]
    for block, (m, n) in enumerate(shapes):
        stream = RngStream(2718, 3)
        got = model._umax(stream.block_generator(block), m, n)
        want = model._to_uniform(model._native_paths(stream.block_generator(block), m, n)).max(axis=1)
        assert got.shape == (m,)
        assert np.array_equal(got, want), (model.tag, m, n)


def test_unit_is_the_double_generator_random_makes():
    # the uniform models draw raw Philox words and map them with _unit; that
    # must be the double Generator.random makes of the same word, leaving both
    # generators at the same stream position
    raw, ref = RngStream(99, 5).block_generator(2), RngStream(99, 5).block_generator(2)
    for k in (1, 7, 1000):
        assert np.array_equal(_unit(raw.bit_generator.random_raw(k)), ref.random(k))
    assert raw.random() == ref.random()
    assert raw.standard_exponential() == ref.standard_exponential()


def test_exponential_is_finite_and_increasing_in_the_word():
    # the frailty models reduce a row to its smallest word, so E must not
    # decrease in the word, and the largest word must not give +inf
    w = np.array([0, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    e = _exponential(w)
    assert np.all(np.isfinite(e)) and np.all(np.diff(e) >= 0)
    assert e[0] == e[1] == 0.0 and e[2] > 0.0 and e[-1] == -math.log(2.0**-53)


def _check_normal_map(z):
    """Assert what Berman's _umax needs of a word-to-normal map z."""
    lo, hi = z(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert np.isfinite(lo) and np.isfinite(hi)
    assert lo == -hi
    # 2^20 cells either side of each branch point: ndtri's (u = e^-2, 1 - e^-2),
    # erfinv's (|2u - 1| = 1/2, 3/4, 1 - e^-9, 1 - e^-36) and the sign change
    branches = [math.exp(-2.0), -math.expm1(-2.0), 0.25, 0.75, 0.125, 0.875, 0.5]
    branches += [t / 2.0 for t in (math.exp(-9.0), math.exp(-36.0))]
    branches += [1.0 - t / 2.0 for t in (math.exp(-9.0), math.exp(-36.0))]
    for u in branches:
        cell = int(u * 2**52)
        cells = np.arange(max(cell - 2**20, 0), min(cell + 2**20, 2**52), dtype=np.uint64)
        assert np.all(np.diff(z(cells << np.uint64(12))) >= 0), u


def test_normal_is_finite_odd_and_non_decreasing_in_the_word():
    # Berman's _umax maps only each row's largest word, so Z must not decrease
    # in the word, and the extreme words must give finite, opposite normals
    _check_normal_map(_normal)
    # truncated at the quantile of the outermost cells' midpoint, about 8.2095
    assert _normal(np.uint64(2**64 - 1)) == pytest.approx(-ndtri(2.0**-53), rel=1e-14)
    # the check rejects a 2^-54 offset on the 53-bit uniform, which rounds to 1
    # at the top 2^11 words, and ndtri on the 52-bit cells, which falls by an
    # ulp near u = e^-2
    with pytest.raises(AssertionError):
        _check_normal_map(lambda w: ndtri(_unit(w) + 2.0**-54))
    with pytest.raises(AssertionError):
        _check_normal_map(lambda w: ndtri(((w >> 12) + 0.5) * 2.0**-52))
