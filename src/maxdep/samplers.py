"""Seedable Monte Carlo samplers for the dependence models with known diagonals.

Streams are counter-based (Philox): a master seed and a stream index fully
determine every draw, and repetitions are partitioned into fixed blocks of
4096 so that results are bitwise independent of how many workers process the
blocks.  Each model samples full paths; estimators never shortcut through the
analytic law of the maximum, so the Monte Carlo route stays an independent
check on the analytic diagonals.

Frailty constructions: Clayton uses a Gamma(1/theta) frailty, Gumbel a
positive alpha-stable (alpha = 1/theta) drawn by the Chambers-Mallows-Stuck
transform, Frank a logarithmic-series variable, Joe a Sibuya(1/theta)
variable drawn by exact inversion of its closed-form survival function, and
AMH a geometric frailty.  Each is validated against its Laplace transform in
the test suite.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import gammaln, ndtr

from .generators import ArchGenerator, builtin_generator
from .margins import Margin

BLOCK_REPS = 4096  # stream-assignment unit; fixed so results ignore worker count
_SLICE_ROWS = 256  # internal memory chunk inside a block (fixed: affects draws)
_U_HI = float(np.nextafter(1.0, 0.0))
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A (seed, index) pair naming an independent Philox substream.

    Distinct indices give statistically independent streams; a stream value
    is meant to be consumed by exactly one operation call.  Operations fan
    out internally to per-block substreams derived from (index, block).
    """

    seed: int
    index: int = 0

    def block_generator(self, block: int = 0) -> np.random.Generator:
        if not 0 <= self.index < (1 << 40):
            raise ValueError("stream index out of range")
        key = (self.seed & _MASK64) | (((self.index << 20) | block) << 64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McEstimate:
    """Probability estimate with its binomial standard error."""

    value: float
    std_error: float
    reps: int


def _clip_unit(u):
    return np.clip(u, 1e-300, _U_HI)


# ---------------------------------------------------------------------------
# frailty draws


def _stable_frailty(gen, m: int, alpha: float):
    """Positive alpha-stable with Laplace transform exp(-t^alpha), alpha in (0, 1]."""
    if alpha == 1.0:
        return np.ones(m)
    # the angle 0 endpoint has probability zero but would produce 0/0
    u = np.maximum(gen.uniform(0.0, math.pi, m), 1e-15)
    e = gen.exponential(1.0, m)
    with np.errstate(divide="ignore", over="ignore"):
        out = (np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)) * (
            np.sin((1.0 - alpha) * u) / e
        ) ** ((1.0 - alpha) / alpha)
    return out


def _logseries_frailty(gen, m: int, theta: float):
    """Logarithmic-series frailty for the Frank generator, p = 1 - e^(-theta)."""
    p = -math.expm1(-theta)
    u1 = _clip_unit(gen.random(m))
    u2 = _clip_unit(gen.random(m))
    q = -np.expm1(u2 * math.log1p(-p))  # 1 - (1-p)^{u2}
    with np.errstate(divide="ignore"):
        v = np.floor(1.0 + np.log(u1) / np.log(q))
    return np.maximum(v, 1.0)


def _sibuya_frailty(gen, m: int, alpha: float):
    """Sibuya(alpha) frailty for the Joe generator, by survival inversion.

    P(V > n) = Gamma(n+1-alpha) / (Gamma(1-alpha) * Gamma(n+1)) extends to a
    strictly decreasing function of real n; the sampler bisects for the root
    in log space and takes the ceiling.  Exact up to float precision of the
    survival function, with no tail truncation (the distribution has infinite
    mean for alpha < 1).
    """
    lu = np.log(_clip_unit(gen.random(m)))
    base = gammaln(1.0 - alpha)

    def log_surv(logx):
        # Stirling regime far out, where exp(logx) would overflow anyway
        exact = gammaln(np.exp(np.minimum(logx, 600.0)) + 1.0 - alpha) - gammaln(
            np.exp(np.minimum(logx, 600.0)) + 1.0
        ) - base
        return np.where(logx > 600.0, -alpha * logx - base, exact)

    lo = np.zeros(m)
    hi = np.full(m, 4.0)
    grow = log_surv(hi) > lu
    while grow.any():
        hi = np.where(grow, hi * 2.0, hi)
        grow = log_surv(hi) > lu
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        take = log_surv(mid) <= lu
        hi = np.where(take, mid, hi)
        lo = np.where(take, lo, mid)
    root = np.exp(hi)
    v = np.ceil(root - 1e-9)
    return np.maximum(v, 1.0)


def _geometric_frailty(gen, m: int, theta: float):
    """Geometric frailty on {1, 2, ...} for AMH: P(V = k) = (1-theta)*theta^(k-1)."""
    u = _clip_unit(gen.random(m))
    return np.maximum(np.ceil(np.log(u) / math.log(theta)), 1.0)


def frailty_sample(family: str, theta: float | None, gen, m: int):
    """Draw m frailty variables whose Laplace transform is the family generator."""
    fam = family.lower().replace("-", "").replace("_", "")
    if fam == "independence":
        return np.ones(m)
    if fam == "clayton":
        return gen.gamma(1.0 / theta, 1.0, m)
    if fam == "gumbel":
        return _stable_frailty(gen, m, 1.0 / theta)
    if fam == "frank":
        return _logseries_frailty(gen, m, theta)
    if fam == "joe":
        return _sibuya_frailty(gen, m, 1.0 / theta)
    if fam == "amh":
        return _geometric_frailty(gen, m, theta)
    raise ValueError(f"no frailty sampler for generator family {family!r}")


# ---------------------------------------------------------------------------
# dependence models


class SequenceModel:
    """Samplable dependence model; subclasses draw native-scale paths."""

    tag = "model"

    def _native_paths(self, gen, m: int, n: int) -> np.ndarray:
        raise NotImplementedError

    def _to_uniform(self, x: np.ndarray) -> np.ndarray:
        return x

    def _native_cdf(self, x: np.ndarray) -> np.ndarray:
        """cdf of the native marginal scale (uniform unless overridden)."""
        return np.clip(x, 0.0, 1.0)

    def _uniform_paths(self, gen, m: int, n: int) -> np.ndarray:
        return self._to_uniform(self._native_paths(gen, m, n))

    def _umax(self, gen, m: int, n: int) -> np.ndarray:
        return self._uniform_paths(gen, m, n).max(axis=1)


class IID(SequenceModel):
    tag = "iid"

    def _native_paths(self, gen, m, n):
        return gen.random((m, n))


class MovingMax(SequenceModel):
    """Y_i = max(Z_{i-k}, ..., Z_i)/(k+1) over iid standard Frechet Z."""

    def __init__(self, k: int):
        if not (isinstance(k, (int, np.integer)) and k >= 0):
            raise ValueError(f"window k must be an integer >= 0, got {k!r}")
        self.k = int(k)
        self.tag = f"movingmax({k})"

    def _frechet_noise(self, gen, m, n):
        return -1.0 / np.log(_clip_unit(gen.random((m, n + self.k))))

    def _native_paths(self, gen, m, n):
        z = self._frechet_noise(gen, m, n)
        y = z[:, self.k :].copy()
        for j in range(self.k):
            np.maximum(y, z[:, j : j + n], out=y)
        return np.exp(-(self.k + 1.0) / y)  # uniform via the Frechet margin of Y

    def _umax(self, gen, m, n):
        # every noise variable lands in some window, so max Y = max Z/(k+1)
        z = self._frechet_noise(gen, m, n)
        return np.exp(-(self.k + 1.0) / z.max(axis=1))


class ArchimedeanFrailty(SequenceModel):
    """U_i = psi(E_i / V) for iid unit exponentials E and frailty V."""

    def __init__(self, family: str, theta: float | None = None):
        self.family = family
        self.theta = theta
        self.generator: ArchGenerator = builtin_generator(family, theta)
        self.tag = f"arch-frailty[{self.generator.tag}]"

    def _native_paths(self, gen, m, n):
        v = frailty_sample(self.family, self.theta, gen, m)
        e = gen.exponential(1.0, (m, n))
        return np.asarray(self.generator.psi(e / v[:, None]), dtype=float)

    def _umax(self, gen, m, n):
        v = frailty_sample(self.family, self.theta, gen, m)
        e = gen.exponential(1.0, (m, n))
        return np.asarray(self.generator.psi(e.min(axis=1) / v), dtype=float)


class ArchimaxLogistic(SequenceModel):
    """Y_i = V * Z_i with logistic-dependent unit Frechet Z and frailty V.

    The inner sequence Z is drawn through its own stable frailty S:
    Z_i = (S/E_i)^(1/theta_stdf) has the Gumbel-Hougaard dependence with
    extremal coefficient n^(1/theta_stdf).  The margin of Y is psi(1/y).
    """

    def __init__(self, family: str, theta_gen: float | None, theta_stdf: float):
        if not theta_stdf >= 1.0:
            raise ValueError(f"theta_stdf must be >= 1, got {theta_stdf}")
        self.family = family
        self.theta_gen = theta_gen
        self.theta_stdf = float(theta_stdf)
        self.generator = builtin_generator(family, theta_gen)
        self.tag = f"archimax[{self.generator.tag},logistic({theta_stdf})]"

    def _draw(self, gen, m, n):
        v = frailty_sample(self.family, self.theta_gen, gen, m)
        s = _stable_frailty(gen, m, 1.0 / self.theta_stdf)
        e = gen.exponential(1.0, (m, n))
        return v, s, e

    def _native_paths(self, gen, m, n):
        v, s, e = self._draw(gen, m, n)
        y = v[:, None] * (s[:, None] / e) ** (1.0 / self.theta_stdf)
        return np.asarray(self.generator.psi(1.0 / y), dtype=float)

    def _umax(self, gen, m, n):
        v, s, e = self._draw(gen, m, n)
        ymax = v * (s / e.min(axis=1)) ** (1.0 / self.theta_stdf)
        return np.asarray(self.generator.psi(1.0 / ymax), dtype=float)


class GaussianAR1(SequenceModel):
    """Y_t = phi*Y_{t-1} + Z_t with a stationary start; margins N(0, s^2/(1-phi^2))."""

    def __init__(self, phi: float, sigma: float = 1.0):
        if not -1.0 < phi < 1.0:
            raise ValueError(f"phi must lie in (-1, 1), got {phi}")
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.phi = float(phi)
        self.sigma = float(sigma)
        self.tag = f"ar1({phi})"

    def _native_paths(self, gen, m, n):
        stat_sd = self.sigma / math.sqrt(1.0 - self.phi**2)
        y0 = gen.standard_normal(m) * stat_sd
        z = gen.standard_normal((m, n)) * self.sigma
        y, _ = lfilter([1.0], [1.0, -self.phi], z, axis=1, zi=(self.phi * y0)[:, None])
        return ndtr(y / stat_sd)


class EfgmExchangeable(SequenceModel):
    """Conditionally iid sequence mixing over W with a one-parameter link copula.

    Given W = w, each component is drawn by inverting the conditional cdf
    a*u^2 + (1-a)*u with a = theta*(2w - 1); the solve uses the rationalized
    quadratic root u = 2v / (1 - a + sqrt((1-a)^2 + 4av)), stable as a -> 0.
    """

    def __init__(self, theta: float):
        if not -1.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [-1, 1], got {theta}")
        self.theta = float(theta)
        self.tag = f"efgm({theta})"

    def _native_paths(self, gen, m, n):
        w = gen.random(m)
        v = gen.random((m, n))
        a = (self.theta * (2.0 * w - 1.0))[:, None]
        small = np.abs(a) < 1e-12
        den = (1.0 - a) + np.sqrt((1.0 - a) ** 2 + 4.0 * a * v)
        return np.where(small, v, 2.0 * v / den)


class BermanEquicorrelated(SequenceModel):
    """X_i = sqrt(rho)*Z_0 + sqrt(1-rho)*Z_i; equicorrelated standard normals."""

    def __init__(self, rho_corr: float):
        if not 0.0 < rho_corr < 1.0:
            raise ValueError(f"correlation must lie in (0, 1), got {rho_corr}")
        self.rho = float(rho_corr)
        self.tag = f"berman({rho_corr})"

    def _native_paths(self, gen, m, n):
        z0 = gen.standard_normal(m)
        z = gen.standard_normal((m, n))
        return math.sqrt(self.rho) * z0[:, None] + math.sqrt(1.0 - self.rho) * z

    def _to_uniform(self, x):
        return ndtr(x)

    def _native_cdf(self, x):
        return ndtr(x)

    def _umax(self, gen, m, n):
        z0 = gen.standard_normal(m)
        z = gen.standard_normal((m, n))
        return ndtr(math.sqrt(self.rho) * z0 + math.sqrt(1.0 - self.rho) * z.max(axis=1))


# ---------------------------------------------------------------------------
# block-partitioned estimators


def _block_sizes(reps: int):
    full, rem = divmod(reps, BLOCK_REPS)
    sizes = [BLOCK_REPS] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _run_blocks(rng: RngStream, reps: int, workers: int, block_fn):
    """Sum block_fn(generator, block_size) over fixed 4096-rep blocks.

    Block j always uses substream (rng.index, j); the reduction is an integer
    sum, so the result is identical for any worker count.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    jobs = _block_sizes(reps)

    def one(job):
        j, size = job
        return block_fn(rng.block_generator(j), size)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, jobs))
    else:
        parts = [one(job) for job in jobs]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def _sliced_umax_counts(model, n, counter, gen, size):
    """Accumulate counts over fixed 256-row slices of one block."""
    out = None
    for off in range(0, size, _SLICE_ROWS):
        m = min(_SLICE_ROWS, size - off)
        c = counter(model._umax(gen, m, n))
        out = c if out is None else out + c
    return out


def sample_paths(model: SequenceModel, margin: Margin | None, n: int, reps: int, rng: RngStream) -> np.ndarray:
    """(reps, n) array of paths with the model's copula and the given margin.

    margin=None returns the model's native scale: uniform margins for the
    copula-built models, standard normal for the equicorrelated model.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")

    def block(gen, size):
        rows = []
        for off in range(0, size, _SLICE_ROWS):
            m = min(_SLICE_ROWS, size - off)
            if margin is None:
                rows.append(model._native_paths(gen, m, n))
            else:
                u = _clip_unit(model._uniform_paths(gen, m, n))
                rows.append(np.asarray(margin.quantile(u), dtype=float))
        return [np.vstack(rows)]

    parts = _run_blocks(rng, reps, 1, block)
    return np.vstack(parts)


def max_sample(
    model: SequenceModel, margin: Margin | None, n: int, reps: int, rng: RngStream, workers: int = 1
) -> np.ndarray:
    """Vector of reps path maxima M_n on the margin scale (uniform if None)."""

    def block(gen, size):
        parts = []
        for off in range(0, size, _SLICE_ROWS):
            m = min(_SLICE_ROWS, size - off)
            parts.append(model._umax(gen, m, n))
        return [np.concatenate(parts)]

    umax = np.concatenate(_run_blocks(rng, reps, workers, block))
    if margin is None:
        return umax
    return np.asarray(margin.quantile(_clip_unit(umax)), dtype=float)


def empirical_diagonal(
    model: SequenceModel, n: int, u: float, reps: int, rng: RngStream, workers: int = 1
) -> McEstimate:
    """MC estimate of P(max of n uniform-margin components <= u).

    This is the diagonal delta_n(u) of the model's copula; the binomial
    standard error sqrt(p*(1-p)/reps) is attached.
    """
    if reps < 1000:
        raise ValueError("use at least 1000 repetitions")
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")

    def block(gen, size):
        return _sliced_umax_counts(model, n, lambda mx: int(np.count_nonzero(mx <= u)), gen, size)

    hits = _run_blocks(rng, reps, workers, block)
    p = hits / reps
    return McEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / reps), reps)


def normalized_max_ecdf(
    model: SequenceModel,
    margin: Margin | None,
    n: int,
    reps: int,
    c_n: float,
    d_n: float,
    x_grid,
    rng: RngStream,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical cdf of (M_n - d_n)/c_n on x_grid, with binomial standard errors.

    The comparison happens on the uniform scale (thresholds are pushed through
    the margin cdf), so only one cdf evaluation per grid point is needed.
    """
    if reps < 1000:
        raise ValueError("use at least 1000 repetitions")
    if not c_n > 0:
        raise ValueError("c_n must be positive")
    x = np.asarray(x_grid, dtype=float)
    raw_thresholds = c_n * x + d_n
    if margin is None:
        uthresh = np.asarray(model._native_cdf(raw_thresholds), dtype=float)
    else:
        uthresh = np.asarray(margin.cdf(raw_thresholds), dtype=float)

    def block(gen, size):
        return _sliced_umax_counts(
            model, n, lambda mx: (mx[:, None] <= uthresh[None, :]).sum(axis=0, dtype=np.int64), gen, size
        )

    counts = _run_blocks(rng, reps, workers, block)
    p = counts / reps
    se = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / reps)
    return p, se
