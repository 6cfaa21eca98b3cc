"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b].

    Returns (x, f(x)).  Assumes a single interior maximum on the bracket;
    used as a refinement step around a grid argmax, where that holds.
    """
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    steps = max(1, int(math.ceil(math.log(tol / h) / math.log(INV_PHI))))
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(steps):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= INV_PHI
            c = a + INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= INV_PHI
            d = a + INV_PHI * h
            yd = f(d)
    x = c if yc > yd else d
    return x, max(yc, yd)


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
    input.
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
        start_lo = np.abs(fa) <= np.abs(fb)
        x = np.where(start_lo, a, b)
        fx = np.where(start_lo, fa, fb)
        floor = tol + eps4 * np.abs(x)
        stop = (fx == 0.0) | (b - a <= floor)
        if newton:
            # the Newton step each element would take next; a step within tol
            # is taken without a check (near a simple root its error is about
            # its square), and an infinite slope never stops an element
            dx = np.where(start_lo, slopes[:n], slopes[n:])
            step = -fx / dx
            small = (np.abs(step) <= floor) & (dx < np.inf)
            stop |= small
            x = np.where(small, x + step, x)
        else:
            step = np.zeros(n)  # unused without a slope
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
            x = c
            floor = tol + eps4 * np.abs(c)
            stop = (fc == 0.0) | (b - a <= floor)
            if newton:
                step = -fc / dc
                small = (np.abs(step) <= floor) & (dc < np.inf)
                stop |= small
                out[idx] = np.where(small, c + step, c)
            else:
                out[idx] = c
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _value_slope(out):
    if isinstance(out, tuple):
        return np.asarray(out[0], dtype=float), np.asarray(out[1], dtype=float)
    return np.asarray(out, dtype=float), None
