"""Small numeric helpers shared across modules, the one scalar rule of checked
functions (``elementwise``) and the name lookup of the model, margin and frailty tables.

The only copy of each argument rule: every public scalar argument is an
integer (``check_count``: n, k, reps, workers, a seed), a finite real
(``check_real``), a finite real > 0 (``check_positive``) or a name
(``name_key``: any case, '_' read as '-').  The first three raise ValueError
for a bool, +-inf and NaN; a narrower domain keeps its own comparison after.
"""

from __future__ import annotations

import math

import numpy as np


def check_count(name: str, value, least: int = 1) -> int:
    """value as an int; raises unless it is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """value as a float; raises unless it is a finite real number.

    A bool is refused: True and False are flags, not parameters.  So are
    +-inf and NaN, which no parameter takes as its value.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def check_positive(name: str, value) -> float:
    """value as a float; raises unless it is a finite real number > 0."""
    x = check_real(name, value)
    if not x > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return x


class UnknownNameError(ValueError):
    """A name that no entry of a model, margin or frailty table answers to."""


def name_key(name: str) -> str:
    """The key a name is looked up by: any case, '_' read as '-'."""
    return name.lower().replace("_", "-")


def lookup(kind: str, table: dict, aliases: dict, name: str, role: str | None = None):
    """The entry of table under a name or alias, by its ``name_key``.

    With ``role``, an attribute name, the entry must have that attribute set.
    A name that is unknown or lacks it raises ``UnknownNameError`` listing
    the names that have it.
    """
    key = name_key(name)
    entry = table.get(aliases.get(key, key))
    if entry is None or (role and getattr(entry, role) is None):
        names = ", ".join(k for k, e in table.items() if not role or getattr(e, role) is not None)
        problem = f"unknown {kind} {name!r}" if entry is None else f"{kind} {name!r} has no {role}"
        raise UnknownNameError(f"{problem}; pick from {names}")
    return entry


def check_level(q):
    """q as a float array; raises unless every level lies in (0, 1), NaN included."""
    q = np.asarray(q, dtype=float)
    if not ((q > 0.0) & (q < 1.0)).all():
        raise ValueError("quantile level must lie strictly in (0, 1)")
    return q


def elementwise(f, x, *args):
    """f(x, *args), f given x as a float array of at least one dimension, on
    which it checks its own domain; a float when x and every arg are scalars.

    A scalar x is evaluated as [x]: numpy takes its scalar routines (libm pow,
    say) on 0-d operands and its SIMD loops on arrays, which may differ in the
    last digit, so this way a scalar call has the bits of the array call.
    An arg that is not a numpy array counts as a scalar (the test costs less
    than ``np.ndim``), so a caller converts a sequence arg to an array first.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim:
        return scalar_or_array(f(x, *args))
    out = scalar_or_array(f(x.reshape(1), *args))
    return out if any(isinstance(a, np.ndarray) and a.ndim for a in args) else float(out[0])


def on_unit(message: str, f, ends):
    """A formula f on the open interval (0, 1) as a function on [0, 1].

    The function, called as (u, *args), raises ValueError(message) for a u
    outside [0, 1], NaN included, and is evaluated by ``elementwise``.
    f(u, *args) sees the interior points only, each endpoint read as 0.5;
    ends() gives the pair of values at 0 and 1 and is called only when u
    holds an endpoint.
    """

    def on_closed(u, *args):
        if not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError(message)
        interior = (u > 0.0) & (u < 1.0)
        out = f(np.where(interior, u, 0.5), *args)
        if not interior.all():
            at0, at1 = ends()
            out = np.where(interior, out, np.where(u <= 0.0, at0, at1))
        return out

    return lambda u, *args: elementwise(on_closed, u, *args)


# points of each refine_max pass.  A pass costs one call overhead of f plus a
# little per point, so fewer, wider passes pay up to a point: of 65, 129, 257,
# 513 and 1025, 513 made distortion_sup_distance fastest (BENCH_20.json)
_REFINE_POINTS = 513


def refine_max(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Maximization of f on [a, b] by bracketed array scans.

    f maps an array of points to an array of values.  Each pass evaluates f
    on 513 equally spaced points of the bracket and narrows it to the two
    cells around the argmax, until it is within tol: a pass shrinks it
    256-fold, so 5 calls of f take a bracket of 0.1 to 1e-12.
    Returns (x, f(x)) of the largest value seen.  Assumes a single interior
    maximum on the bracket; used as a refinement step around a grid argmax,
    where that holds.
    """
    a, b = (a, b) if a <= b else (b, a)
    best_x, best = a, -np.inf
    while True:
        xs = np.linspace(a, b, _REFINE_POINTS)
        ys = np.asarray(f(xs), dtype=float)
        i = int(np.argmax(ys))
        if ys[i] > best:
            best_x, best = float(xs[i]), float(ys[i])
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, _REFINE_POINTS - 1)]
        # stop within tol, or where the doubles between a and b run out
        if hi - lo <= tol or hi - lo >= b - a:
            return best_x, best
        a, b = lo, hi


def solve_increasing(f, target, lo, hi, tol: float = 1e-12):
    """Solve f(x) = target for nondecreasing f, elementwise over arrays.

    target, lo and hi broadcast to one shape, and every element needs
    f(lo) <= target <= f(hi).  f maps an array of x values to f(x), or to a
    pair (f(x), f'(x)).

    With a slope each step is a Newton step from the last iterate.  Where
    that step would leave the bracket, or is not below half of the step two
    before it, a regula falsi step is taken, and where that fails the same
    test, a bisection.  An element stops once the Newton step it would take
    next is within tol, after taking that step (near a simple root its error
    is about the square of the step).  Without a slope every step bisects,
    and an element stops once its bracket is within tol.  Every element
    keeps its bracket, and tol never goes below a few ulps of x.

    f is called once on both ends together and then once per step, on the
    elements still moving only.  Floating-point warnings inside f are
    silenced: the ends of a wide bracket may overflow or underflow it, and
    a non-finite step falls back to bisection.  Returns a float for scalar
    input and an empty array for an empty target.
    """
    eps4 = 4.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, target)))
        shape, n = y.shape, y.size
        a, b, y = a.ravel(), b.ravel(), y.ravel()
        ends, slopes = _value_slope(f(np.concatenate((a, b))))
        fa, fb = ends[:n] - y, ends[n:] - y
        if not ((fa <= 0.0).all() and (fb >= 0.0).all()):
            raise ValueError("target not bracketed by [f(lo), f(hi)]")
        newton = slopes is not None

        def settle(x, fx, dx):
            # the one stop rule, at the start and after each step: f(x) is the
            # target or the bracket is within tol, or, with a slope, the next
            # Newton step is within tol, and is then taken without a check
            # (near a simple root its error is about its square); an infinite
            # slope never stops an element.  Returns the stops, the next steps
            # (x, unused, without a slope) and x moved by each step taken
            floor = tol + eps4 * np.abs(x)
            stop = (fx == 0.0) | (b - a <= floor)
            if not newton:
                return stop, x, x
            step = -fx / dx
            small = (np.abs(step) <= floor) & (dx < np.inf)
            return stop | small, step, np.where(small, x + step, x)

        start_lo = np.abs(fa) <= np.abs(fb)
        dx = np.where(start_lo, slopes[:n], slopes[n:]) if newton else None
        stop, step, x = settle(np.where(start_lo, a, b), np.where(start_lo, fa, fb), dx)
        out = x.copy()
        before = last = np.full(n, np.inf)  # the step length two and one steps back
        idx = np.arange(n)
        # the state arrays hold the elements still moving, idx their places in out
        while True:
            if np.count_nonzero(stop):
                keep = ~stop
                idx, a, b, fa, fb, y, x, step, before, last = (
                    v[keep] for v in (idx, a, b, fa, fb, y, x, step, before, last))
            if not idx.size:
                break
            if newton:
                c = x + step
                measure = np.abs(step)
                bad = ~((c > a) & (c < b)) | (measure > 0.5 * before)
                if np.count_nonzero(bad):
                    # regula falsi where the Newton step fails, bisection where that fails too
                    c = np.where(bad, (a * fb - b * fa) / (fb - fa), c)
                    bad &= ~((c > a) & (c < b)) | (np.abs(c - x) > 0.5 * before)
                    c = np.where(bad, 0.5 * (a + b), c)
                    measure = np.abs(c - x)
                before, last = last, measure
            else:
                c = 0.5 * (a + b)
            fc, dc = _value_slope(f(c))
            fc = fc - y
            low, high = fc < 0.0, fc > 0.0
            a, fa = np.where(high, a, c), np.where(low, fc, fa)
            b, fb = np.where(low, b, c), np.where(high, fc, fb)
            stop, step, x = settle(c, fc, dc)
            out[idx] = x
    return scalar_or_array(out.reshape(shape))


def scalar_exponent_power(x, e):
    """x ** e, broadcast, with one scalar-exponent power per distinct e.

    numpy takes exact fast paths for some scalar exponents (x ** 2.0 is a
    square) that an array exponent skips, so each element gets the double
    x ** float(e) gives on its own.  A scalar e is plain x ** e.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(e) == 0:
        return x ** e
    # the distinct exponents from a set, not np.unique, whose first call
    # imports numpy.ma (about 1.4 MB of resident memory)
    distinct = set(np.ravel(e).tolist())
    x, e = np.broadcast_arrays(x, e)
    out = np.empty(x.shape)
    for v in distinct:
        at = e == v
        out[at] = x[at] ** v
    return out


def scalar_or_array(out):
    """out as a float where it is 0-d, else as a float array: a scalar in, a float out."""
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def _value_slope(out):
    if isinstance(out, tuple):
        return np.asarray(out[0], dtype=float), np.asarray(out[1], dtype=float)
    return np.asarray(out, dtype=float), None
