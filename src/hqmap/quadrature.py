"""Adaptive Gauss-Kronrod quadrature with endpoint clustering.

The radial-length integrands of extremal maps grow like (1 - rho)^{-3}
toward the upper endpoint, so the driver accepts a list of pre-split points
to seed geometric refinement there before the error-driven subdivision
takes over.  Integrands must be vectorized (array in, array out).
"""

from __future__ import annotations

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


class QuadResult(NamedTuple):
    value: float
    error: float
    converged: bool
    intervals: int


def _gk15(f: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * _XK
    vals = np.asarray(f(nodes), dtype=float)
    k = half * float(np.dot(_WK, vals))
    g = half * float(np.dot(_WG, vals[1::2]))
    diff = abs(k - g)
    return k, min(diff, (200.0 * diff) ** 1.5)


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-9,
    max_intervals: int = 4000,
    presplit=None,
) -> QuadResult:
    """Integrate f over [a, b]; stop when the summed error estimate drops
    below max(abs_tol, rel_tol * |integral|).  On budget exhaustion the best
    value is returned with ``converged=False`` rather than raising.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return QuadResult(0.0, 0.0, True, 0)
    cuts = [a]
    if presplit is not None:
        cuts.extend(p for p in sorted(presplit) if a < p < b)
    cuts.append(b)
    segs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = _gk15(f, lo, hi)
        segs.append((err, lo, hi, val))
    while True:
        total = sum(s[3] for s in segs)
        err_total = sum(s[0] for s in segs)
        if err_total <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(total, err_total, True, len(segs))
        if len(segs) >= max_intervals:
            return QuadResult(total, err_total, False, len(segs))
        worst = max(range(len(segs)), key=lambda i: segs[i][0])
        _, lo, hi, _ = segs.pop(worst)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        segs.append((e1, lo, mid, v1))
        segs.append((e2, mid, hi, v2))


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
