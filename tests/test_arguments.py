"""Every public scalar argument goes through one of the ``_numutil`` rules.

Each row is an entry point, the parameter it checks, a call with that
parameter set to a value, and a valid value.  A bool, +-inf and NaN raise
ValueError; the valid value runs.
"""

import functools
import math

import numpy as np
import pytest

from maxdep import (
    BermanEquicorrelated,
    EfgmExchangeable,
    Exponential,
    Frechet,
    GaussianAR1,
    GevParams,
    IID,
    MovingMax,
    Pareto,
    RateFn,
    RngStream,
    StandardNormal,
    ArchimaxLogistic,
    builtin_generator,
    ceil_power_cdf_bound,
    ceil_rate_bound,
    composite_rate_bound,
    cuadras_auge_sup,
    efgm_limit,
    empirical_diagonal,
    empirical_diagonal_distance,
    generator_from_f,
    gev_cdf,
    gev_power,
    large_n_bound,
    max_sample,
    max_stability_defect,
    movingmax_s,
    normalized_max_ecdf,
    polynomial_growth_trajectory,
    rate_scaling_limit,
    rv_index_estimate,
    scale_generator,
    small_gap_bound,
    sup_power_diff,
)
from maxdep import distortions
from maxdep.diagonals import (archimedean_diagonal, cuadras_auge_diagonal, efgm_mixture_diagonal, logistic_eta,
                              moving_max_diagonal)

CLAYTON = builtin_generator("clayton", 2.0)
CLAYTON_DIAGONAL = archimedean_diagonal(CLAYTON)
GUMBEL = GevParams(0.0)
GRID = np.linspace(-3.0, 8.0, 200)


def _composite(**arg):
    kw = dict(beta_star_n=0.1, s_n=0.01, K=1.0, kappa=0.5, r_n=10.5)
    kw.update(arg)
    return composite_rate_bound(**kw)


# (entry point, parameter, call with the parameter set to v, a valid v)
ARGS = [
    ("movingmax_s", "n", lambda v: movingmax_s(v, 1), 5),
    ("movingmax_s", "k", lambda v: movingmax_s(5, v), 2),
    ("cuadras_auge_sup", "n", lambda v: cuadras_auge_sup(v, 0.5), 3),
    ("cuadras_auge_sup", "theta", lambda v: cuadras_auge_sup(3, v), 0.5),
    ("sup_power_diff", "a", lambda v: sup_power_diff(v, 2.0), 0.5),
    ("sup_power_diff", "b", lambda v: sup_power_diff(0.5, v), 2.0),
    ("small_gap_bound", "a", lambda v: small_gap_bound(v, 0.1), 1.0),
    ("small_gap_bound", "b_n", lambda v: small_gap_bound(1.0, v), 0.1),
    ("large_n_bound", "b", lambda v: large_n_bound(v, 9.0), 1.0),
    ("large_n_bound", "a_n", lambda v: large_n_bound(1.0, v), 9.0),
    ("ceil_rate_bound", "r_n", ceil_rate_bound, 7.5),
    ("ceil_power_cdf_bound", "r_n", ceil_power_cdf_bound, 7.5),
    *[("composite_rate_bound", p, lambda v, p=p: _composite(**{p: v}), ok)
      for p, ok in (("beta_star_n", 0.1), ("s_n", 0.01), ("K", 1.0), ("kappa", 0.5), ("r_n", 10.5))],
    ("GevParams", "xi", lambda v: GevParams(v), 0.5),
    ("GevParams", "mu", lambda v: GevParams(0.5, v), 1.0),
    ("GevParams", "sigma", lambda v: GevParams(0.5, 0.0, v), 2.0),
    ("gev_power", "theta", lambda v: gev_power(GUMBEL, v), 2.0),
    ("power", "theta", distortions.power, 2.0),
    ("efgm_limit", "theta", efgm_limit, 0.5),
    ("max_stability_defect", "k", lambda v: max_stability_defect(functools.partial(gev_cdf, GUMBEL), v, GRID), 2),
    *[("builtin_generator", family, lambda v, family=family: builtin_generator(family, v), ok)
      for family, ok in (("amh", 0.5), ("clayton", 2.0), ("frank", 3.0), ("gumbel", 2.0), ("joe", 2.0))],
    ("scale_generator", "c", lambda v: scale_generator(CLAYTON, v), 3.0),
    ("rv_index_estimate", "lam", lambda v: rv_index_estimate(CLAYTON, v, 1e8), 2.0),
    ("rv_index_estimate", "t", lambda v: rv_index_estimate(CLAYTON, 2.0, v), 1e8),
    ("polynomial_growth_trajectory", "rho", lambda v: polynomial_growth_trajectory(CLAYTON, v, [10, 100]), 1.0),
    ("mixture_over_interval", "a", lambda v: distortions.mixture_over_interval(distortions.power, v, 2.0), 0.5),
    ("mixture_over_interval", "b", lambda v: distortions.mixture_over_interval(distortions.power, 0.5, v), 2.0),
    ("logistic_eta", "theta", logistic_eta, 2.0),
    ("moving_max_diagonal", "k", moving_max_diagonal, 2),
    ("cuadras_auge_diagonal", "theta", cuadras_auge_diagonal, 0.5),
    ("efgm_mixture_diagonal", "theta", efgm_mixture_diagonal, 0.5),
    ("DiagonalFamily", "n", lambda v: moving_max_diagonal(1)(v, 0.5), 4),
    ("rate_scaling_limit", "t", lambda v: rate_scaling_limit(RateFn(float), v, [10, 20]), 2.0),
    ("empirical_diagonal_distance", "n",
     lambda v: empirical_diagonal_distance(CLAYTON_DIAGONAL, [(v, 0.5, 0.25, 0.01)]), 2),
    ("empirical_diagonal_distance", "estimate",
     lambda v: empirical_diagonal_distance(CLAYTON_DIAGONAL, [(2, 0.5, v, 0.01)]), 0.25),
    ("generator_from_f", "rho", lambda v: generator_from_f(np.sqrt, lambda t: 0.5 / np.sqrt(t), rho=v), 0.5),
    ("parameter_mixture", "weight",
     lambda v: distortions.parameter_mixture([distortions.power(0.5), distortions.power(2.0)], [v, 0.5]), 0.5),
    ("Frechet", "alpha", Frechet, 2.0),
    ("Exponential", "lam", Exponential, 1.5),
    ("Pareto", "alpha", Pareto, 2.0),
    ("Margin.normalizers", "n", lambda v: Frechet(2.0).normalizers(v), 10),
    ("StandardNormal.hall_constant", "n", lambda v: StandardNormal().hall_constant(v), 10),
    ("RngStream", "seed", RngStream, 1),
    ("RngStream", "index", lambda v: RngStream(1, v), 3),
    ("MovingMax", "k", MovingMax, 2),
    ("GaussianAR1", "phi", GaussianAR1, 0.5),
    ("EfgmExchangeable", "theta", EfgmExchangeable, 0.5),
    ("BermanEquicorrelated", "rho_corr", BermanEquicorrelated, 0.5),
    ("ArchimaxLogistic", "theta_stdf", lambda v: ArchimaxLogistic("clayton", 2.0, v), 2.0),
    ("max_sample", "n", lambda v: max_sample(IID(), None, v, 100, RngStream(1)), 4),
    ("max_sample", "reps", lambda v: max_sample(IID(), None, 4, v, RngStream(1)), 100),
    ("max_sample", "workers", lambda v: max_sample(IID(), None, 4, 100, RngStream(1), workers=v), 2),
    ("empirical_diagonal", "u", lambda v: empirical_diagonal(IID(), 4, v, 1000, RngStream(1)), 0.5),
    ("normalized_max_ecdf", "c_n", lambda v: normalized_max_ecdf(IID(), None, 4, 1000, v, 0.0, [0.5], RngStream(1)),
     1.0),
    ("normalized_max_ecdf", "d_n", lambda v: normalized_max_ecdf(IID(), None, 4, 1000, 1.0, v, [0.5], RngStream(1)),
     0.0),
]


@pytest.mark.parametrize("call, ok", [row[2:] for row in ARGS], ids=[f"{fn}-{p}" for fn, p, _, _ in ARGS])
def test_bools_infinities_and_nan_raise_and_a_valid_value_runs(call, ok):
    for bad in (True, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            call(bad)
    call(ok)


def test_counts_refuse_a_real_and_values_below_their_least():
    # an integer rule: 2.5 workers once ran, and so did 0 and -3
    for workers in (0, -3, 2.5, np.float64(2.0)):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            max_sample(IID(), None, 4, 100, RngStream(1), workers=workers)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got 1.5"):
        RngStream(1.5)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        movingmax_s(0, 1)
    # n = 2.5 once ran as n = 2, and 10.5, 20.5 as 10, 20
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 2.5"):
        empirical_diagonal_distance(CLAYTON_DIAGONAL, [(2.5, 0.5, 0.25, 0.01)])
    with pytest.raises(ValueError, match="n must be an integer array"):
        rate_scaling_limit(RateFn(float), 2.0, [10.5, 20.5])
    # numpy integers are integers
    assert movingmax_s(np.int64(5), np.int32(1)) == movingmax_s(5, 1)


def test_ranges_keep_their_messages():
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        RngStream(-1)
    with pytest.raises(ValueError, match="stream index out of range"):
        RngStream(1, -1)
    with pytest.raises(ValueError, match="b must be positive"):
        large_n_bound(0.0, 1.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        GevParams(0.0, 0.0, -1.0)
    with pytest.raises(ValueError, match="xi must be finite, got inf"):
        GevParams(math.inf)
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\]"):
        _composite(kappa=1.5)


def test_an_infinite_exponent_or_end_is_named():
    # rho = inf once gave [inf, inf], and b = inf a NaN node that no message named
    with pytest.raises(ValueError, match="rho must be finite, got inf"):
        polynomial_growth_trajectory(CLAYTON, math.inf, [10, 100])
    with pytest.raises(ValueError, match="b must be finite, got inf"):
        distortions.mixture_over_interval(distortions.power, 0.5, math.inf)
