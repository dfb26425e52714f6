"""Adaptive Gauss-Kronrod quadrature with endpoint clustering.

The radial-length integrands of extremal maps grow like (1 - rho)^{-3}
toward the upper endpoint, so the driver accepts a list of pre-split points
to seed geometric refinement there before the error-driven subdivision
takes over.  Integrands must be vectorized (array in, array out).

``adaptive_quads`` integrates many integrals of one integrand together:
their first GK15 pass is one call of the integrand over the nodes of every
initial interval, and each later bisection one call over both halves.
Batching moves no bit: every interval sees the same nodes and the same
floating-point operations.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss weights sit on the odd Kronrod nodes
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


# subintervals one integral may use before it stops unconverged
MAX_INTERVALS = 4000


class QuadResult(NamedTuple):
    value: float
    error: float
    converged: bool
    intervals: int


def _gk15(f: Callable, a, b):
    """GK15 value and error estimate on each interval [a, b], as two arrays,
    from one call of f over the 15 nodes of every interval.  The weighted
    sums are taken row by row with ``np.dot``: one matrix-vector product
    over all rows rounds differently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    rows = np.asarray(f(nodes.ravel()), dtype=float).reshape(-1, _XK.size)
    values, errors = [], []
    for h, vals in zip(half.tolist(), rows):
        k = h * float(np.dot(_WK, vals))
        g = h * float(np.dot(_WG, vals[1::2]))
        diff = abs(k - g)
        values.append(k)
        # (200 diff)^1.5 < diff only when diff < 200^-3 = 1.25e-7, so the
        # power is taken only below 1e-6, where it cannot overflow
        errors.append(min(diff, (200.0 * diff) ** 1.5) if diff < 1e-6 else diff)
    return np.array(values), np.array(errors)


def _sum_in_order(x) -> float:
    """0.0 + x[0] + x[1] + ... added left to right, as Python 3.11's
    ``sum()`` adds floats (``np.sum`` adds pairwise, and Python 3.12's
    ``sum()`` compensates)."""
    return 0.0 + float(np.cumsum(x)[-1])


def cut_list(a: float, b: float, presplit=None) -> list:
    """The cuts [a, *sorted presplit points inside (a, b), b] that
    ``adaptive_quads`` starts from; [a] alone when a == b."""
    if b == a:
        return [a]
    inner = sorted(p for p in presplit if a < p < b) if presplit is not None else []
    return [a, *inner, b]


def adaptive_quads(f: Callable, cuts, abs_tol: float = 1e-12,
                   rel_tol: float = 1e-9) -> list:
    """Integrate f over [c[0], c[-1]] for each non-decreasing cut list c,
    starting from the intervals between consecutive cuts; one
    ``QuadResult`` per cut list.  A one-point cut list is an empty integral.

    The first GK15 pass over every initial interval of every integral is
    one call of f.  Then each integral, in turn, bisects its worst interval
    (the first one of largest error estimate, both halves in one call of f)
    until the summed error estimate drops below
    max(abs_tol, rel_tol * |integral|).  On budget exhaustion
    (``MAX_INTERVALS`` subintervals) the best value is returned with
    ``converged=False`` rather than raising.

    Sums run over the intervals in the order they were made (a bisection
    retires the worst interval and appends its two halves), left to right,
    so they are Python 3.11's float ``sum()`` over a list kept in that
    order, bit for bit.
    A NaN error estimate, where a GK15 sum overflowed, ends an integral
    at once, NaN and unconverged: bisection would spend the whole budget.
    """
    cuts = [[float(x) for x in c] for c in cuts]
    for c in cuts:
        if not c or any(hi < lo for lo, hi in zip(c, c[1:])):
            raise ValueError("each cut list must be non-empty and non-decreasing")
    los = [lo for c in cuts for lo in c[:-1]]
    his = [hi for c in cuts for hi in c[1:]]
    val, err = _gk15(f, los, his) if los else (None, None)
    results = []
    start = 0
    for c in cuts:
        stop = start + len(c) - 1
        if stop == start:
            results.append(QuadResult(0.0, 0.0, True, 0))
        else:
            results.append(_bisect(f, list(zip(c[:-1], c[1:])), val[start:stop],
                                   err[start:stop], abs_tol, rel_tol))
        start = stop
    return results


def _bisect(f, ends, val, err, abs_tol, rel_tol) -> QuadResult:
    """The bisection loop of one integral from its first-pass intervals
    ``ends`` with values ``val`` and error estimates ``err``.  A retired
    interval keeps its slot with value and error 0.0, which adds nothing
    to a sum and is never the worst while some live error is positive."""
    live = used = len(ends)
    while True:
        total = _sum_in_order(val[:used])
        err_total = _sum_in_order(err[:used])
        if err_total <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(total, err_total, True, live)
        if live >= MAX_INTERVALS or math.isnan(err_total):
            return QuadResult(total, err_total, False, live)
        if used == len(val):
            # room for every bisection the budget allows; copies the
            # first-pass slice, so the batch arrays are never written
            room = np.empty(2 * (MAX_INTERVALS - live))
            val = np.concatenate((val, room))
            err = np.concatenate((err, room))
        worst = int(np.argmax(err[:used]))
        lo, hi = ends[worst]
        mid = 0.5 * (lo + hi)
        val[worst] = err[worst] = 0.0
        val[used:used + 2], err[used:used + 2] = _gk15(f, [lo, mid], [mid, hi])
        ends += [(lo, mid), (mid, hi)]
        used += 2
        live += 1


def endpoint_cluster(a: float, b: float) -> list:
    """Eight geometric pre-split points accumulating at b, from coarse scale
    (b - a)/10 down to a tenth of the distance from b to 1, the natural
    scale for boundary-singular integrands."""
    inner = max(0.1 * (1.0 - b), 1e-12)
    outer = 0.1 * (b - a)
    if outer <= inner:
        return []
    gaps = np.geomspace(outer, inner, 8)
    return [b - gap for gap in gaps]


def golden_max(fun: Callable, a: float, b: float):
    """Golden-section maximizer for a scalar function on [a, b], stopped
    when the bracket is narrower than 1e-12 or after 80 steps.

    Returns (argmax, max).  Assumes unimodality on the bracket; callers pass
    brackets around detected grid maxima.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = float(a), float(b)
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(80):
        if hi - lo < 1e-12:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fun(d)
    x = 0.5 * (lo + hi)
    return x, fun(x)
