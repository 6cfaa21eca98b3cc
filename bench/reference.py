"""Reference values computed apart from maxdep, in mpmath.

Every formula here is written out from its textbook form: Archimedean
generators and their inverses, the diagonals psi(n psi^-1(u)), the closed
form of the exchangeable EFGM mixture diagonal, the limit distortions, the
iid normalizing constants and the exact law of the equicorrelated Gaussian
maximum.  Nothing is imported from maxdep.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40
DBL_MIN = 2.2250738585072014e-308


# ---------------------------------------------------------------------------
# Archimedean generators: (psi, psi_inv, rho)


def _ballerini_f(t):
    # -log psi(t) for psi(t) = 1 / (t (1 + 1/t)^(1 + t)); f'(t) = log(1 + 1/t)
    return mp.log(t) + (1 + t) * mp.log1p(1 / t)


def _ballerini_psi(t):
    return mp.exp(-_ballerini_f(t))


def _ballerini_inv(u):
    # f is increasing: grow a bracket in s = log t until it holds the root of
    # f(e^s) = -log u, then Newton steps that fall back to bisection
    target = -mp.log(u)
    h = lambda s: _ballerini_f(mp.exp(s)) - target
    lo, hi = mp.mpf(-1), mp.mpf(1)
    while h(lo) > 0:
        lo *= 2
    while h(hi) < 0:
        hi *= 2
    s = (lo + hi) / 2
    for _ in range(200):
        hs = h(s)
        if hs > 0:
            hi = s
        else:
            lo = s
        t = mp.exp(s)
        step = hs / (t * mp.log1p(1 / t))
        s_new = s - step
        if not lo < s_new < hi:
            s_new = (lo + hi) / 2
        if abs(s_new - s) < mp.mpf(10) ** (-30) * max(1, abs(s)):
            return mp.exp(s_new)
        s = s_new
    raise ArithmeticError(f"no Ballerini inverse at u = {u}")


def generator(family: str, theta=None):
    th = None if theta is None else mp.mpf(theta)
    if family == "independence":
        return (lambda t: mp.exp(-t)), (lambda u: -mp.log(u)), 1
    if family == "clayton":
        return (lambda t: (1 + t) ** (-1 / th)), (lambda u: u ** (-th) - 1), 1
    if family == "gumbel":
        return (lambda t: mp.exp(-(t ** (1 / th)))), (lambda u: (-mp.log(u)) ** th), 1 / th
    # Joe and Frank take log1p/expm1 where 1 - tiny would lose every digit
    if family == "joe":
        return (
            (lambda t: -mp.expm1(mp.log1p(-mp.exp(-t)) / th)),
            (lambda u: -mp.log1p(-((1 - u) ** th))),
            1 / th,
        )
    if family == "frank":
        return (
            (lambda t: -mp.log1p(-(1 - mp.exp(-th)) * mp.exp(-t)) / th),
            (lambda u: -mp.log((1 - mp.exp(-th * u)) / (1 - mp.exp(-th)))),
            1,
        )
    if family == "amh":
        return (lambda t: (1 - th) / (mp.exp(t) - th)), (lambda u: mp.log((1 - th * (1 - u)) / u)), 1
    if family == "ballerini":
        return _ballerini_psi, _ballerini_inv, 1
    raise ValueError(f"no reference generator {family!r}")


# ---------------------------------------------------------------------------
# diagonal families: delta_n(u), canonical rate r_n, limit distortion D(u)


class Family:
    """delta, rate and limit distortion of one diagonal family."""

    def delta(self, n, u):
        raise NotImplementedError

    def rate(self, n):
        return mp.mpf(n)

    def D(self, u):
        return mp.mpf(u)

    def dist_col(self, n, u):
        """delta_n(u^(1/r_n)), the printed distortion column."""
        u = mp.mpf(u)
        if u <= 0 or u >= 1:
            return u
        return self.delta(n, mp.exp(mp.log(u) / self.rate(n)))

    def draw_u(self, n, p):
        """A level u with delta_n(u) = p, found by bisection."""
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(80):
            mid = (lo + hi) / 2
            if self.delta(n, mid) < p:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


class Arch(Family):
    def __init__(self, family, theta=None):
        self.psi, self.inv, self.rho = generator(family, theta)
        self._inv_cache = {}

    def psi_inv(self, u):
        key = u
        if key not in self._inv_cache:
            self._inv_cache[key] = self.inv(u)
        return self._inv_cache[key]

    def delta(self, n, u):
        u = mp.mpf(u)
        if u <= 0:
            return mp.mpf(0)
        if u >= 1:
            return mp.mpf(1)
        return self.psi(n * self.psi_inv(u))

    def rate(self, n):
        return 1 / (1 - self.psi(mp.mpf(1) / n))

    def D(self, u):
        u = mp.mpf(u)
        if u <= 0:
            return mp.mpf(0)
        if u >= 1:
            return mp.mpf(1)
        return self.psi((-mp.log(u)) ** (1 / mp.mpf(self.rho)))

    def draw_u(self, n, p):
        return float(self.psi(self.inv(mp.mpf(p)) / n))


class Archimax(Arch):
    """psi(eta_n psi^-1(u)) with the logistic schedule eta_n = n^(1/theta_stdf)."""

    def __init__(self, family, theta, theta_stdf):
        super().__init__(family, theta)
        self.eta = lambda n: mp.mpf(n) ** (1 / mp.mpf(theta_stdf))

    def delta(self, n, u):
        return super().delta(self.eta(n), u)

    def draw_u(self, n, p):
        return float(self.psi(self.inv(mp.mpf(p)) / self.eta(n)))


class Efgm(Family):
    """int_0^1 (u + theta u (u-1)(2t-1))^n dt = (hi^(n+1) - lo^(n+1)) / (2c(n+1))."""

    def __init__(self, theta):
        self.theta = mp.mpf(theta)

    def delta(self, n, u):
        u = mp.mpf(u)
        if u <= 0 or u >= 1:
            return mp.mpf(0) if u <= 0 else mp.mpf(1)
        c = abs(self.theta) * u * (1 - u)
        if c == 0:
            return u**n
        lo, hi = u - c, u + c
        return (hi ** (n + 1) - lo ** (n + 1)) / (2 * c * (n + 1))

    def D(self, u):
        u = mp.mpf(u)
        if u <= 0 or u >= 1:
            return mp.mpf(0) if u <= 0 else mp.mpf(1)
        t = self.theta
        return (u ** (1 + t) - u ** (1 - t)) / (2 * t * mp.log(u))


class PowerSchedule(Family):
    """delta_n(u) = u^eta_n with rate eta_n and limit distortion u^kappa."""

    def __init__(self, eta, kappa=1):
        self.eta = eta
        self.kappa = mp.mpf(kappa)

    def delta(self, n, u):
        u = mp.mpf(u)
        return u ** self.eta(n) if u > 0 else mp.mpf(0)

    def rate(self, n):
        return self.eta(n)

    def D(self, u):
        u = mp.mpf(u)
        return u**self.kappa if u > 0 else mp.mpf(0)


def moving_max(k):
    k = mp.mpf(k)
    fam = PowerSchedule(lambda n: (n + k) / (k + 1), 1 / (k + 1))
    fam.rate = lambda n: mp.mpf(n)
    return fam


def cuadras_auge(theta):
    th = mp.mpf(theta)
    return PowerSchedule(lambda n: (1 - (1 - th) ** n) / th)


def logistic(theta):
    return PowerSchedule(lambda n: mp.mpf(n) ** (1 / mp.mpf(theta)))


def independence():
    return PowerSchedule(lambda n: mp.mpf(n))


class AmhMixture(Family):
    """Uniform mixture of AMH limit distortions: 1 - ((u-1)/u) log(1-u)."""

    def D(self, u):
        u = mp.mpf(u)
        if u <= 0 or u >= 1:
            return mp.mpf(0) if u <= 0 else mp.mpf(1)
        return 1 - ((u - 1) / u) * mp.log1p(-u)


def family(spec):
    """Reference family from a spec list, as the workloads write them."""
    kind, *args = spec
    if kind == "arch":
        return Arch(*args)
    if kind == "archimax":
        return Archimax(*args)
    if kind == "efgm":
        return Efgm(*args)
    if kind == "movingmax":
        return moving_max(*args)
    if kind == "cuadras-auge":
        return cuadras_auge(*args)
    if kind == "logistic":
        return logistic(*args)
    if kind == "independence":
        return independence()
    if kind == "amh-mixture":
        return AmhMixture()
    raise ValueError(f"no reference family {spec!r}")


# ---------------------------------------------------------------------------
# suprema


def _golden_max(f, a, b, steps=90):
    g = (mp.sqrt(5) - 1) / 2
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return max(fc, fd)


def grid_sup(f, xs):
    """sup of f over the points xs, then golden-section refinement around the
    two largest local maxima."""
    ys = [f(x) for x in xs]
    last = len(xs) - 1
    peaks = [i for i in range(len(xs)) if (i == 0 or ys[i] >= ys[i - 1]) and (i == last or ys[i] >= ys[i + 1])]
    peaks.sort(key=lambda i: ys[i], reverse=True)
    best = max(ys)
    for i in peaks[:2]:
        best = max(best, _golden_max(f, xs[max(i - 1, 0)], xs[min(i + 1, last)]))
    return best


def unit_sup(f, points=1500):
    """sup of f(u) over (0, 1), scanned in log(-log u) from u = 1 - 1e-8 down
    to u = exp(-1e5), so maxima pressed against either end are found."""
    lo, hi = mp.log(mp.mpf("1e-8")), mp.log(mp.mpf("1e5"))
    ts = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    return grid_sup(lambda t: f(mp.exp(-mp.exp(t))), ts)


def power_gap_sup(a, gap):
    """sup_u |u^a - u^(a + gap)| for a, gap > 0, scanned in s = -log u.

    Callers pass the gap itself, so gaps far below a keep every digit.
    """
    a, gap = mp.mpf(a), mp.mpf(gap)
    f = lambda s: mp.exp(-a * s) * (-mp.expm1(-gap * s))
    s_hi = 60 / a
    return grid_sup(f, [s_hi * i / 199 for i in range(200)])


# ---------------------------------------------------------------------------
# iid normalizing constants and the quantile of the limit H, per margin


def hall_b(N):
    """Root b of 2 pi b^2 exp(b^2) = N^2."""
    N2 = mp.mpf(N) ** 2
    return mp.findroot(lambda b: 2 * mp.pi * b * b * mp.exp(b * b) - N2, mp.sqrt(2 * mp.log(N)))


def normalizers(margin, N, alpha=None):
    """(c_N, d_N, F, H^-1) for a margin: F^N(c_N x + d_N) -> H(x)."""
    if margin == "unit-frechet":
        return mp.mpf(N), mp.mpf(0), lambda x: mp.exp(-1 / x) if x > 0 else mp.mpf(0), lambda p: -1 / mp.log(p)
    if margin == "pareto":
        a = mp.mpf(alpha)
        return (mp.mpf(N) ** (1 / a), mp.mpf(0), lambda x: 1 - x ** (-a) if x >= 1 else mp.mpf(0),
                lambda p: (-mp.log(p)) ** (-1 / a))
    gumbel_q = lambda p: -mp.log(-mp.log(p))
    if margin == "exponential":
        return mp.mpf(1), mp.log(N), lambda x: -mp.expm1(-x) if x > 0 else mp.mpf(0), gumbel_q
    if margin == "normal":
        b = hall_b(N)
        return 1 / b, b, mp.ncdf, gumbel_q
    raise ValueError(f"no reference normalizers for margin {margin!r}")


# ---------------------------------------------------------------------------
# equicorrelated Gaussian maximum


_GH_T, _GH_W = np.polynomial.hermite.hermgauss(160)


def berman_cdf(rho, n, x):
    """P(max_i sqrt(rho) Z0 + sqrt(1-rho) Z_i <= x) = E[Phi((x - sqrt(rho) Z)/sqrt(1-rho))^n],
    by 160-node Gauss-Hermite quadrature."""
    z = math.sqrt(2.0) * _GH_T
    arg = (x - math.sqrt(rho) * z) / math.sqrt(1.0 - rho)
    phi = 0.5 * np.array([math.erfc(-a / math.sqrt(2.0)) for a in arg])
    return float(np.dot(_GH_W, phi**n) / math.sqrt(math.pi))


def berman_level(rho, n, p):
    """x with berman_cdf(rho, n, x) = p, by bisection."""
    lo, hi = -10.0, 12.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if berman_cdf(rho, n, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ncdf(x):
    return float(mp.ncdf(x))
