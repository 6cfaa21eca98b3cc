"""Seedable Monte Carlo samplers for the dependence models with known diagonals.

Streams are counter-based (Philox): a master seed and a stream index fully
determine every draw, and repetitions are partitioned into fixed blocks of
4096 so that results are bitwise independent of how many workers process the
blocks.  Each model samples full paths; estimators never shortcut through the
analytic law of the maximum, so the Monte Carlo route stays an independent
check on the analytic diagonals.

One driver, ``_slices``, draws every estimator's rows in 256-row slices of
each block and concatenates them in block order.  ``sample_paths`` returns
that array of paths; the other estimators each reduce one block-ordered
array of row maxima: ``max_sample`` maps it through the margin,
``empirical_diagonal`` counts the maxima at or below u, and
``normalized_max_ecdf`` sorts them once and counts against every threshold
by binary search.  Blocks go to a pool of ``workers`` threads only where
threads pay: more than one block and n >= 64 (see ``_slices``).

Reduce on the draw scale: a model is one ``_draw``, which returns its
per-row variables and then the (m, n') array x of raw draws, and one map
``_native(*rows, x)`` to the native scale, monotone in x.  ``SequenceModel``
derives both reductions from that pair, so they see the same variates in the
same order: ``_native_paths`` maps every element, and ``_umax`` takes each
row's maximum of x (its minimum where the map decreases, ``_decreasing``)
and pushes only those m values through the map and ``_to_uniform``, in place
of mapping all m*n path elements first.  Every variate is still drawn, and
the result is bitwise the row maximum of the uniform paths (tested for every
sampled model).

Bulk paths are drawn as raw Philox words (``bit_generator.random_raw``) and
reduced on the word scale.  A uniform is ``_unit(w)``, the top 53 bits of the
word scaled by 2^-53: exactly the double ``Generator.random`` makes of the
same word, so the uniform-driven models (IID, MovingMax, EFGM) draw the same
doubles they would through ``Generator.random``.  A unit exponential is drawn
by inversion, E = -log1p(-U) (Devroye 1986, ch. 2), which is finite and
increasing in the word, so the frailty models reduce a row to its smallest
word and map that one.  Berman's normals Z_i are drawn by inversion too,
``_normal(w)``: the word's top 52 bits pick the midpoint u of one of 2^52
equal cells of (0, 1), and Z = sqrt(2) erfinv(2u - 1), which is finite,
odd in the cell and non-decreasing in the word, so ``_umax`` maps one word
per row.  The normal is thereby truncated at |Z| <= 8.2095, the value at
the extreme words; the standard normal puts about 2.2e-16 of its mass past
that, per draw.  Frailty variables, Berman's common factor Z_0 (one draw
per row) and the AR(1) noise still come from the ``Generator`` methods.
An AR(1) level sums every earlier noise element, so its row maximum cannot
be taken on the word scale; the recursion Y_t = phi Y_{t-1} + Z_t runs in
numpy with the roundings of scipy's ``lfilter``, whose output it equals bit
for bit, so the signal-processing package is never loaded.

Frailty constructions: Clayton uses a Gamma(1/theta) frailty, Gumbel a
positive alpha-stable (alpha = 1/theta) drawn by the Chambers-Mallows-Stuck
transform, Frank a logarithmic-series variable, Joe a Sibuya(1/theta)
variable drawn exactly as a geometric variable whose success probability is
Beta(1/theta, 1 - 1/theta) (Sibuya 1979; Hofert 2011), and AMH a geometric
frailty.  Each is validated against its Laplace transform in the test suite.
Family names resolve through ``_numutil.lookup``, as model and margin names
do, and ``ArchimaxLogistic`` is the frailty model over a logistic inner
sequence, drawing V the same way.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._numutil import check_count, check_positive, check_real, lookup
from .generators import ArchGenerator, builtin_generator
from .margins import Margin, _normal_cdf

BLOCK_REPS = 4096  # stream-assignment unit; fixed so results ignore worker count
_SLICE_ROWS = 256  # internal memory chunk inside a block (fixed: affects draws)
_POOL_MIN_N = 64  # a pool pays only from 256 x 64 = 2^14 words a slice
_U_HI = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class RngStream:
    """A (seed, index) pair naming an independent Philox substream.

    Distinct indices give statistically independent streams; a stream value
    is meant to be consumed by exactly one operation call.  Operations fan
    out internally to per-block substreams derived from (index, block).
    """

    seed: int
    index: int = 0

    def __post_init__(self):
        # the seed is the low 64 bits of the Philox key; reducing a wider or
        # negative seed would give it the stream of another seed.  The ranges
        # are tested first, for their messages
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not 0 <= self.index < (1 << 40):
            raise ValueError("stream index out of range")
        check_count("seed", self.seed, 0)
        check_count("stream index", self.index, 0)

    def block_generator(self, block: int = 0) -> np.random.Generator:
        key = self.seed | (((self.index << 20) | block) << 64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McEstimate:
    """Probability estimate with its binomial standard error."""

    value: float
    std_error: float
    reps: int


def _clip_unit(u):
    return np.clip(u, 1e-300, _U_HI)


def _unit(w):
    """Uniforms in [0, 1) from Philox words: the map ``Generator.random`` applies."""
    return (w >> 11) * 2.0**-53


def _exponential(w):
    """Unit exponentials from Philox words by inversion; increasing in the word."""
    return -np.log1p(-_unit(w))


def _normal(w):
    """Standard normals from Philox words by inversion; non-decreasing in the word.

    2u - 1 = ((w >> 12) + 1/2) * 2^-51 - 1 is exact, so the extreme words give
    exactly opposite values, -+8.2095.  sqrt(2) erfinv(2u - 1) is used rather
    than ndtri(u), which falls by an ulp at some neighbouring words near
    u = e^-2, where its approximation switches branch.
    """
    from scipy.special import erfinv

    return math.sqrt(2.0) * erfinv(((w >> 12) + 0.5) * 2.0**-51 - 1.0)


# ---------------------------------------------------------------------------
# frailty draws


def _stable_frailty(gen, m: int, alpha: float):
    """Positive alpha-stable with Laplace transform exp(-t^alpha), alpha in (0, 1]."""
    if alpha == 1.0:
        return np.ones(m)
    # the angle 0 endpoint has probability zero but would produce 0/0
    u = np.maximum(gen.uniform(0.0, math.pi, m), 1e-15)
    e = gen.standard_exponential(m)
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
    """Sibuya(alpha) frailty for the Joe generator, as a Beta-geometric draw.

    P(V > n) = Gamma(n+1-alpha) / (Gamma(1-alpha) * Gamma(n+1)) equals
    E[(1-W)^n] for W ~ Beta(alpha, 1-alpha), so V is geometric on {1, 2, ...}
    with success probability W (Sibuya 1979, AISM 31; Hofert 2011, CSDA 55):
    V = ceil(E / -log(1-W)) for E ~ Exp(1).  W = Ga/(Ga+Gb) is never formed:
    its gamma variates stay in log space, a shape a < 1 drawn as
    log G(a) = log G(a+1) + log(U)/a, and -log(1-W) = log(1 + Ga/Gb) keeps its
    relative digits for W near 0 and near 1, where W itself would round.  V
    is +inf exactly where the draw exceeds DBL_MAX, which is common for large
    theta (the tail is ~ n^-alpha).  Five arrays of m draws per call.
    """
    la = np.log(gen.standard_gamma(alpha + 1.0, m)) + np.log(_clip_unit(gen.random(m))) / alpha
    lb = np.log(gen.standard_gamma(2.0 - alpha, m)) + np.log(_clip_unit(gen.random(m))) / (1.0 - alpha)
    e = gen.standard_exponential(m)
    with np.errstate(divide="ignore", over="ignore"):
        v = np.ceil(e / np.logaddexp(0.0, la - lb))
    return np.maximum(v, 1.0)


def _geometric_frailty(gen, m: int, theta: float):
    """Geometric frailty on {1, 2, ...} for AMH: P(V = k) = (1-theta)*theta^(k-1)."""
    u = _clip_unit(gen.random(m))
    return np.maximum(np.ceil(np.log(u) / math.log(theta)), 1.0)


_FRAILTIES = {
    "independence": lambda gen, m, theta: np.ones(m),
    "clayton": lambda gen, m, theta: gen.gamma(1.0 / theta, 1.0, m),
    "gumbel": lambda gen, m, theta: _stable_frailty(gen, m, 1.0 / theta),
    "frank": _logseries_frailty,
    "joe": lambda gen, m, theta: _sibuya_frailty(gen, m, 1.0 / theta),
    "amh": _geometric_frailty,
}


def frailty_sample(family: str, theta: float | None, gen, m: int):
    """Draw m frailty variables whose Laplace transform is the family generator.

    An unknown family, or one without a frailty draw, raises
    ``UnknownNameError`` listing the families that have one.
    """
    return lookup("frailty family", _FRAILTIES, {}, family)(gen, m, theta)


# ---------------------------------------------------------------------------
# dependence models


class SequenceModel:
    """Samplable dependence model: one draw and one monotone map.

    ``_draw(gen, m, n)`` returns the model's per-row variables (arrays of m)
    and then the (m, n') array x of its raw draws; ``_native(*rows, x)`` maps
    x to the native scale, monotone in x (decreasing where ``_decreasing``),
    with the rows broadcast against it; ``_to_uniform`` maps the native
    scale to the uniform one.  The paths and the row maxima both derive from
    that pair.
    """

    tag = "model"
    _decreasing = False

    def _draw(self, gen, m: int, n: int) -> tuple:
        raise NotImplementedError

    def _native(self, *rows_and_x) -> np.ndarray:
        raise NotImplementedError

    def _to_uniform(self, x: np.ndarray) -> np.ndarray:
        """cdf of the native marginal scale (uniform unless overridden)."""
        # the method, not np.clip, whose dispatch costs a few microseconds a slice
        return x.clip(0.0, 1.0)

    def _native_paths(self, gen, m: int, n: int) -> np.ndarray:
        *rows, x = self._draw(gen, m, n)
        return self._native(*(r[:, None] for r in rows), x)

    def _umax(self, gen, m: int, n: int) -> np.ndarray:
        # the map is monotone in x, so the row's largest uniform comes from
        # its largest raw draw (its smallest, where the map decreases)
        *rows, x = self._draw(gen, m, n)
        return self._to_uniform(self._native(*rows, x.min(axis=1) if self._decreasing else x.max(axis=1)))


class IID(SequenceModel):
    tag = "iid"

    def _draw(self, gen, m, n):
        return (gen.bit_generator.random_raw((m, n)),)

    def _native(self, w):
        return _unit(w)


class MovingMax(SequenceModel):
    """Y_i = max(Z_{i-k}, ..., Z_i)/(k+1) over iid standard Frechet Z."""

    def __init__(self, k: int):
        self.k = check_count("window k", k, 0)
        self.tag = f"movingmax({k})"

    def _draw(self, gen, m, n):
        """Words of the uniforms behind the Frechet noise, n + k per path."""
        return (gen.bit_generator.random_raw((m, n + self.k)),)

    def _native(self, w):
        # Y of the largest word in its window, which the row maximum may take
        # as well: every noise variable lands in some window, so max Y =
        # max Z/(k+1), and Z is increasing in its word
        z = -1.0 / np.log(_clip_unit(_unit(w)))
        return np.exp(-(self.k + 1.0) / z)  # uniform via the Frechet margin of Y

    def _native_paths(self, gen, m, n):
        (w,) = self._draw(gen, m, n)
        y = w[:, self.k :].copy()
        for j in range(self.k):
            np.maximum(y, w[:, j : j + n], out=y)
        return self._native(y)


class ArchimedeanFrailty(SequenceModel):
    """U_i = psi(E_i / V) for iid unit exponentials E and frailty V."""

    _decreasing = True  # psi decreases and E increases in its word

    def __init__(self, family: str, theta: float | None = None):
        self.family = family
        self.theta = theta
        self.generator: ArchGenerator = builtin_generator(family, theta)
        # fail here, not at the first draw in some pool thread
        lookup("frailty family", _FRAILTIES, {}, family)
        self.tag = f"arch-frailty[{self.generator.tag}]"

    def _draw(self, gen, m, n):
        """Frailty V per row and the (m, n) words of the exponentials E."""
        return frailty_sample(self.family, self.theta, gen, m), gen.bit_generator.random_raw((m, n))

    def _native(self, v, w):
        return self.generator.psi(_exponential(w) / v)


class ArchimaxLogistic(ArchimedeanFrailty):
    """Y_i = V * Z_i with logistic-dependent unit Frechet Z and frailty V.

    The frailty model with a logistic inner sequence in place of the iid
    exponentials: family, theta (the generator's parameter) and V are the
    base class's.  Z is drawn through its own stable frailty S:
    Z_i = (S/E_i)^(1/theta_stdf) has the Gumbel-Hougaard dependence with
    extremal coefficient n^(1/theta_stdf).  The margin of Y is psi(1/y),
    which decreases in E as the base class's map does.
    """

    def __init__(self, family: str, theta: float | None, theta_stdf: float):
        check_real("theta_stdf", theta_stdf)
        if not theta_stdf >= 1.0:
            raise ValueError(f"theta_stdf must be >= 1, got {theta_stdf}")
        super().__init__(family, theta)
        self.theta_stdf = float(theta_stdf)
        self.tag = f"archimax[{self.generator.tag},logistic({theta_stdf})]"

    def _draw(self, gen, m, n):
        v = frailty_sample(self.family, self.theta, gen, m)
        s = _stable_frailty(gen, m, 1.0 / self.theta_stdf)
        return v, s, gen.bit_generator.random_raw((m, n))

    def _native(self, v, s, w):
        y = v * (s / _exponential(w)) ** (1.0 / self.theta_stdf)
        return self.generator.psi(1.0 / y)


class GaussianAR1(SequenceModel):
    """Y_t = phi*Y_{t-1} + Z_t, Z_t standard normal, with a stationary start; margins N(0, 1/(1-phi^2))."""

    _STEPS = 32  # time steps a recursion block: a (32, 256) buffer is 64 KiB

    def __init__(self, phi: float):
        check_real("phi", phi)
        if not -1.0 < phi < 1.0:
            raise ValueError(f"phi must lie in (-1, 1), got {phi}")
        self.phi = float(phi)
        self.stat_sd = 1.0 / math.sqrt(1.0 - self.phi**2)
        self.tag = f"ar1({phi})"

    def _draw(self, gen, m, n):
        """(m, n) levels Y_t of the stationary recursion."""
        y0 = gen.standard_normal(m) * self.stat_sd
        y = gen.standard_normal((m, n))  # the noise Z_t, overwritten by Y_t
        # Y_t = fl(fl(phi*Y_{t-1}) + Z_t), the two roundings of scipy's
        # lfilter([1], [1, -phi], zi=phi*Y_{-1}), so its levels bit for bit,
        # one step for all m rows at a time.  Blocks of _STEPS steps go
        # through a small buffer whose rows are contiguous: a whole (n, m)
        # transposed copy made the allocator fault its pages back in at every
        # 256 x 256 slice.  A step is two ufunc calls on m values, mostly
        # dispatch, so the ufuncs are bound locally and phi is a 0-d array
        mul, add, phi, tmp = np.multiply, np.add, np.array(self.phi), np.empty(m)
        buf = np.empty((min(n, self._STEPS), m))
        prev = y0
        for t in range(0, n, self._STEPS):
            cols = y[:, t : t + self._STEPS]
            steps = buf[: cols.shape[1]]
            np.copyto(steps, cols.T)
            for row in steps:
                mul(prev, phi, tmp)
                add(tmp, row, row)
                prev = row
            np.copyto(cols, steps.T)
            prev = cols[:, -1]  # the buffer is refilled next
        return (y,)

    def _native(self, y):
        return _normal_cdf(y / self.stat_sd)


class EfgmExchangeable(SequenceModel):
    """Conditionally iid sequence mixing over W with a one-parameter link copula.

    Given W = w, each component is drawn by inverting the conditional cdf
    a*u^2 + (1-a)*u with a = theta*(2w - 1); the solve uses the rationalized
    quadratic root u = 2v / (1 - a + sqrt((1-a)^2 + 4av)), stable as a -> 0,
    and increasing in v for every a in [-1, 1].
    """

    def __init__(self, theta: float):
        check_real("theta", theta)
        if not -1.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [-1, 1], got {theta}")
        self.theta = float(theta)
        self.tag = f"efgm({theta})"

    def _draw(self, gen, m, n):
        """Link a = theta*(2W - 1) per row and the (m, n) words of the uniforms V it inverts."""
        a = self.theta * (2.0 * gen.random(m) - 1.0)
        return a, gen.bit_generator.random_raw((m, n))

    def _native(self, a, w):
        v = _unit(w)
        den = (1.0 - a) + np.sqrt((1.0 - a) ** 2 + 4.0 * a * v)
        return np.where(np.abs(a) < 1e-12, v, 2.0 * v / den)


class BermanEquicorrelated(SequenceModel):
    """X_i = sqrt(rho)*Z_0 + sqrt(1-rho)*Z_i; equicorrelated standard normals."""

    def __init__(self, rho_corr: float):
        if not 0.0 < check_real("correlation", rho_corr) < 1.0:
            raise ValueError(f"correlation must lie in (0, 1), got {rho_corr}")
        self.rho = float(rho_corr)
        self.tag = f"berman({rho_corr})"

    def _draw(self, gen, m, n):
        """Common factor Z_0 per row and the (m, n) words of the normals Z_i."""
        return gen.standard_normal(m), gen.bit_generator.random_raw((m, n))

    def _native(self, z0, w):
        # Z_i is non-decreasing in its word
        return math.sqrt(self.rho) * z0 + math.sqrt(1.0 - self.rho) * _normal(w)

    def _to_uniform(self, x):
        return _normal_cdf(x)


# ---------------------------------------------------------------------------
# block-partitioned estimators


def _slices(rng: RngStream, n: int, reps: int, workers: int, draw) -> np.ndarray:
    """draw(gen, m, n) on each 256-row slice of fixed 4096-rep blocks, in block order.

    Block j always uses substream (rng.index, j) and fills rows
    [4096 j, 4096 (j + 1)) of the result, so the array is identical for any
    worker count.  A pool of ``workers`` threads starts only for more than
    one block and n >= 64; other calls run on the calling thread.  Their
    slices are too short for threads to pay: the per-slice Python and numpy
    work holds the interpreter lock, which changes hands at every draw that
    releases it; on a 2-vCPU host two workers ran n = 4 and n = 16 calls
    0.5-0.9 times as fast as one.
    """
    check_count("n", n)
    check_count("reps", reps)
    check_count("workers", workers)

    def block(start):
        gen = rng.block_generator(start // BLOCK_REPS)
        size = min(BLOCK_REPS, reps - start)
        # one array per block, not per slice: holding hundreds of 256-row
        # arrays until the last block ends raised converge's peak resident size
        return np.concatenate([draw(gen, min(_SLICE_ROWS, size - off), n) for off in range(0, size, _SLICE_ROWS)])

    blocks = range(0, reps, BLOCK_REPS)
    if workers > 1 and len(blocks) > 1 and n >= _POOL_MIN_N:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(block, blocks))
    else:
        parts = [block(start) for start in blocks]
    return np.concatenate(parts)


def sample_paths(model: SequenceModel, margin: Margin | None, n: int, reps: int, rng: RngStream) -> np.ndarray:
    """(reps, n) array of paths with the model's copula and the given margin.

    margin=None returns the model's native scale: uniform margins for the
    copula-built models, standard normal for the equicorrelated model.
    """
    paths = _slices(rng, n, reps, 1, model._native_paths)
    if margin is None:
        return paths
    return margin.quantile(_clip_unit(model._to_uniform(paths)))


def max_sample(
    model: SequenceModel, margin: Margin | None, n: int, reps: int, rng: RngStream, workers: int = 1
) -> np.ndarray:
    """Vector of reps path maxima M_n on the margin scale (uniform if None)."""
    umax = _slices(rng, n, reps, workers, model._umax)
    if margin is None:
        return umax
    return margin.quantile(_clip_unit(umax))


def empirical_diagonal(
    model: SequenceModel, n: int, u: float, reps: int, rng: RngStream, workers: int = 1
) -> McEstimate:
    """MC estimate of P(max of n uniform-margin components <= u).

    This is the diagonal delta_n(u) of the model's copula; the binomial
    standard error sqrt(p*(1-p)/reps) is attached.
    """
    check_count("reps", reps, 1000)
    if not 0.0 <= check_real("u", u) <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    hits = int(np.count_nonzero(_slices(rng, n, reps, workers, model._umax) <= u))
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
    the margin cdf), so only one cdf evaluation per grid point is needed; the
    sorted row maxima are counted against every threshold by binary search.
    """
    check_count("reps", reps, 1000)
    check_positive("c_n", c_n)
    check_real("d_n", d_n)
    x = np.asarray(x_grid, dtype=float)
    raw_thresholds = c_n * x + d_n
    if margin is None:
        uthresh = np.asarray(model._to_uniform(raw_thresholds), dtype=float)
    else:
        uthresh = margin.cdf(raw_thresholds)
    # the binary search would count a NaN level above every maximum, and
    # some margin cdfs map a NaN threshold to 0
    if np.isnan(raw_thresholds).any() or np.isnan(uthresh).any():
        raise ValueError("x_grid gives a NaN threshold")
    umax = _slices(rng, n, reps, workers, model._umax)
    umax.sort()
    p = np.searchsorted(umax, uthresh, side="right") / reps
    se = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / reps)
    return p, se
