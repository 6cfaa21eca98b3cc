"""Monte Carlo verification of the analytic formulas.

Every dependence model ships with a seedable, counter-based sampler, so the
analytic diagonals and limit laws can be checked against simulation.  The
last section reproduces the equicorrelated-normal counterexample: those
maxima converge to a normal law under a centering that is not a subsequence
of the iid normalizing constants.
"""

import math

import numpy as np
from scipy.stats import kstest

from maxdep import (
    ArchimedeanFrailty,
    BermanEquicorrelated,
    GevParams,
    MovingMax,
    RngStream,
    StandardNormal,
    UnitFrechet,
    builtin_generator,
    empirical_diagonal,
    gev_quantile,
    make_diagonal,
    max_sample,
    movingmax_s,
    normalized_max_ecdf,
)

print("Clayton frailty sampler vs the analytic diagonal (theta = 2)")
g = builtin_generator("clayton", 2.0)
model = ArchimedeanFrailty("clayton", 2.0)
for i, (n, u) in enumerate([(2, 0.5), (5, 0.6), (20, 0.9)]):
    est = empirical_diagonal(model, n, u, 100_000, RngStream(1, i))
    ana = float(g.psi(n * float(g.psi_inv(u))))
    print(f"  n={n:2d} u={u}: mc = {est.value:.5f} +- {est.std_error:.5f}, analytic = {ana:.5f}")

print("\nsliding-max maxima vs the square-root limit law (n = 1024, unit Frechet margin)")
n = 1024
limit = GevParams(1.0, 1.0, 1.0)
grid = gev_quantile(limit, np.linspace(0.05, 0.95, 7))
ecdf, se = normalized_max_ecdf(MovingMax(1), UnitFrechet(), n, 50_000, float(n), 0.0, grid, RngStream(2, 0))
target = np.exp(-0.5 / grid)
print(f"  sup |ecdf - limit| = {np.max(np.abs(ecdf - target)):.5f}")
print(f"  analytic distortion distance s(n) = {movingmax_s(n, 1):.2e}, max MC se = {np.max(se):.5f}")

print("\nexchangeable mixture sampler vs its closed-form diagonal (theta = 0.8)")
fam = make_diagonal("efgm", theta=0.8)
from maxdep import EfgmExchangeable

for i, (n, u) in enumerate([(2, 0.6), (4, 0.9)]):
    est = empirical_diagonal(EfgmExchangeable(0.8), n, u, 100_000, RngStream(3, i))
    print(f"  n={n} u={u}: mc = {est.value:.5f} +- {est.std_error:.5f}, exact = {float(fam(n, u)):.5f}")

print("\nequicorrelated normals: maxima -> N(0, rho) under d_n = sqrt(1-rho)*b_n, c_n = 1")
rho = 0.5
norm = StandardNormal()
for i, n in enumerate((100, 1000)):
    d_n = math.sqrt(1.0 - rho) * norm.hall_constant(n)
    m = max_sample(BermanEquicorrelated(rho), norm, n, 50_000, RngStream(4, i))
    ks = kstest(m - d_n, "norm", args=(0.0, math.sqrt(rho))).statistic
    print(f"  n={n:5d}: KS distance to N(0, {rho}) = {ks:.4f}")
