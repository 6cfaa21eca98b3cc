"""maxdep: limiting behavior of maxima of dependent identically distributed sequences.

Library layout:

- ``gev``         GEV family and its power (max-stability) algebra
- ``margins``     marginal families, iid normalizers, known uniform rates
- ``generators``  Archimedean generators, constructions, RV diagnostics
- ``diagonals``   copula diagonal families and diagonal power distortions
- ``distortions`` limiting distortions D and composite laws D(H(x))
- ``ratebounds``  exact power-difference suprema and composite rate bounds
- ``samplers``    deterministic Monte Carlo samplers and estimators
- ``models``      the model table: each model's diagonal, limit, sampler and exact gap by name
- ``cli``         the ``maxdep`` command-line harness
"""

__version__ = "0.1.0"  # first, so that modules can read it as they load

from .gev import GevParams, gev_cdf, gev_density, gev_power, gev_quantile, gev_support
from .generators import (
    ArchGenerator,
    builtin_generator,
    generator_from_f,
    polynomial_growth_trajectory,
    rv_index_estimate,
    scale_generator,
)
from .margins import (
    Exponential,
    Frechet,
    Generic,
    Margin,
    Pareto,
    StandardNormal,
    Uniform01,
    UnitFrechet,
    make_margin,
)
from .diagonals import (
    DiagonalFamily,
    RateFn,
    distortion_sup_distance,
    empirical_diagonal_distance,
    mixing_discrepancy,
    power_distortion,
    rate_scaling_limit,
)
from .distortions import (
    Distortion,
    amh_uniform_mixture,
    archimedean_limit,
    efgm_limit,
    limit_law_cdf,
    make_distortion,
    max_stability_defect,
)
from .ratebounds import (
    RateBoundReport,
    ceil_power_cdf_bound,
    ceil_rate_bound,
    composite_rate_bound,
    cuadras_auge_sup,
    large_n_bound,
    movingmax_s,
    small_gap_bound,
    sup_power_diff,
)
from .models import MODELS, ModelSpec, make_diagonal, model_spec
from .samplers import (
    ArchimaxLogistic,
    ArchimedeanFrailty,
    BermanEquicorrelated,
    EfgmExchangeable,
    GaussianAR1,
    IID,
    McEstimate,
    MovingMax,
    RngStream,
    SequenceModel,
    empirical_diagonal,
    max_sample,
    normalized_max_ecdf,
    sample_paths,
)
