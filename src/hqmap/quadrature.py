"""Adaptive Gauss-Kronrod quadrature with endpoint clustering.

The radial-length integrands of extremal maps grow like (1 - rho)^{-3}
toward the upper endpoint, so the driver accepts a list of pre-split points
to seed geometric refinement there before the error-driven subdivision
takes over.  Integrands must be vectorized (array in, array out).

``adaptive_quads`` integrates many integrals of one integrand together:
their first GK15 pass is one call of the integrand over the nodes of every
initial interval, and each later round one call over both halves of the
worst interval of every integral still open.  Batching moves no bit: every
interval sees the same nodes and the same floating-point operations.
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
    """GK15 values and error estimates of the intervals [a, b], as the rows
    of one (2, n) array, from one call of f over the 15 nodes of each.
    ``np.vecdot`` has ``np.dot``'s bits and ``np.float_power`` Python's
    ``**`` bits; ``rows @ _WK`` and ``np.power`` round differently."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    rows = np.asarray(f(nodes.ravel()), dtype=float).reshape(-1, _XK.size)
    values = half * np.vecdot(rows, _WK)
    errors = np.abs(values - half * np.vecdot(rows[:, 1::2], _WG))
    # (200 diff)^1.5 < diff only when diff < 200^-3 = 1.25e-7, so the power
    # is taken only below 1e-6, where it cannot overflow
    small = errors < 1e-6
    diff = errors[small]
    errors[small] = np.minimum(diff, np.float_power(200.0 * diff, 1.5))
    return np.array((values, errors))


def cut_list(a: float, b: float, presplit=None) -> list:
    """The cuts [a, *sorted presplit points inside (a, b), b] that
    ``adaptive_quads`` starts from; [a] alone when a == b."""
    if b == a:
        return [a]
    inner = sorted(p for p in presplit if a < p < b) if presplit is not None else []
    return [a, *inner, b]


def adaptive_quads(f: Callable, cuts, abs_tol: float = 1e-12,
                   rel_tol: float = 1e-9) -> list:
    """Integrate f over [c[0], c[-1]] for each finite, non-decreasing cut
    list c, starting from the intervals between consecutive cuts; one
    ``QuadResult`` per cut list.  A one-point cut list is an empty integral.

    The first GK15 pass over every initial interval of every integral is
    one call of f; each round then makes one more, over the halves of the
    worst interval (the first one of largest error estimate) of every
    integral whose summed error estimate is above max(abs_tol, rel_tol *
    |integral|).  An integral that reaches ``MAX_INTERVALS`` subintervals
    returns its best value with ``converged=False``; a NaN error estimate,
    where a GK15 sum overflowed, ends it at once, NaN and unconverged.
    Sums run over the intervals in the order they were made (a bisection
    retires the worst interval and appends its two halves), left to right:
    Python 3.11's float ``sum()`` over that list, bit for bit.
    """
    cuts = [[float(x) for x in c] for c in cuts]
    # written as "not (good)" so that a NaN cut or tolerance fails too
    for c in cuts:
        if not (c and all(map(math.isfinite, c)) and c == sorted(c)):
            raise ValueError("each cut list must be non-empty, finite and non-decreasing")
    if not (abs_tol >= 0 and rel_tol >= 0):
        raise ValueError(f"quadrature tolerances must be non-negative: {abs_tol!r}, {rel_tol!r}")
    results = [QuadResult(0.0, 0.0, True, 0)] * len(cuts)
    index = np.array([i for i, c in enumerate(cuts) if len(c) > 1], dtype=int)
    if not index.size:
        return results
    live = np.array([len(cuts[i]) - 1 for i in index])
    # Row r is integral index[r]; its slots hold, in the order they were
    # made, a zero slot, the first-pass intervals, zero slots up to the widest
    # first pass and two halves per round: ends (lo, hi), ve (value, error)
    # and acc the running sums of ve, so from 0.0 as Python's sum() starts.
    # A retired interval, like a zero slot, has value and error 0.0: it adds
    # nothing to a sum and is never the worst while some error is positive.
    used = int(live.max()) + 1
    ends, ve, acc = (np.zeros((2, index.size, 2 * used)) for _ in range(3))
    first = np.arange(1, used) <= live[:, None]
    # one-point cut lists add no interval, so these are the rows' in order
    lo = [x for c in cuts for x in c[:-1]]
    hi = [x for c in cuts for x in c[1:]]
    ends[:, :, 1:used][:, first] = lo, hi
    ve[:, :, 1:used][:, first] = _gk15(f, lo, hi)
    acc[:, :, :used] = np.cumsum(ve[:, :, :used], axis=2)
    while True:
        total, err_total = acc[:, :, used - 1]
        bound = np.fmax(abs_tol, rel_tol * np.abs(total))
        # a NaN error total is neither above nor below the bound: it ends at once
        bisect = (err_total > bound) & (live < MAX_INTERVALS)
        if not bisect.all():
            converged = err_total <= bound
            for r in np.flatnonzero(~bisect):
                results[index[r]] = QuadResult(float(total[r]), float(err_total[r]),
                                               bool(converged[r]), int(live[r]))
            if not bisect.any():
                return results
            index, live = index[bisect], live[bisect]
            ends, ve, acc = (x[:, bisect] for x in (ends, ve, acc))
        if used + 2 > ve.shape[2]:
            ends, ve, acc = (np.concatenate((x, np.zeros_like(x)), axis=2)
                             for x in (ends, ve, acc))
        rows = np.arange(index.size)
        worst = np.argmax(ve[1, :, :used], axis=1)
        lo_hi = ends[:, rows, worst]
        ve[:, rows, worst] = 0.0
        # the halves (lo, mid) and (mid, hi) go into slots used and used + 1
        halves = slice(used, used + 2)
        ends[:, :, halves] = lo_hi[:, :, None]
        ends[1, :, used] = ends[0, :, used + 1] = 0.5 * (lo_hi[0] + lo_hi[1])
        ve[:, :, halves] = _gk15(f, *ends[:, :, halves].reshape(2, -1)).reshape(2, -1, 2)
        # the sums before the leftmost retired slot stand: add on from there
        start = int(worst.min())
        used += 2
        tail = np.concatenate((acc[:, :, start - 1:start], ve[:, :, start:used]), axis=2)
        acc[:, :, start - 1:used] = np.cumsum(tail, axis=2)
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
