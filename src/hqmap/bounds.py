"""Inequality predicates with margin reports, plus the two closed-form
constants (the derivative-vs-value constant and the Harnack comparison
constant).

Every predicate evaluates its inequality on a deterministic sample and
reports the worst margin (RHS - LHS) / max(1, |RHS|) together with the
witness point attaining it; ``check_derivative_bounds`` and
``check_harnack_box`` evaluate two inequalities on one sample and report
one line for each.  Margins are relative wherever the two sides blow up
like (1 - |z|)^{-3} near the circle, so the reports stay readable.
Every check line, in every module, is built by ``_report`` under one pass
rule: the line passes when its worst margin is at least minus its declared
numerical slack and no input estimate it rests on failed to converge.

For the analytic subfamily (g identically zero) with order 2 and K = 1 all
predicates reduce to classical sharp distortion and growth theorems and
must pass; for genuinely harmonic maps the order parameter is configured
and the reports are advisory.

This module owns every predicate's default sample: the pairs, the two disk
grids and the triples are module arrays built once at import, read-only,
and the Harnack point and the arc anchors are argument defaults.  A caller
that passes no sample reads these, so the suites pass none.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .maps import HarmonicMap, ParameterError, check_sense_preserving, finite_dnorm
from .quadrature import golden_max


@dataclass(eq=False)
class CheckReport:
    """Outcome of one inequality predicate over a sample."""

    predicate: str
    alpha: float
    qc_k: float | None    # None for predicates that take no K
    samples: int
    worst_margin: float
    witness: complex
    passed: bool
    slack: float
    notes: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "predicate": self.predicate,
                "alpha": float(self.alpha),
                "K": None if self.qc_k is None else float(self.qc_k),
                "samples": int(self.samples),
                "worst_margin": float(self.worst_margin),
                "witness": [float(self.witness.real), float(self.witness.imag)],
                "pass": bool(self.passed),
                "slack": float(self.slack),
                "notes": self.notes,
            },
            sort_keys=True,
        )


def rel_margin(lhs, rhs):
    """Margin of LHS <= RHS, normalized by max(1, |RHS|).  An overflowing
    side gives a NaN or infinite margin, which ``_report`` rejects."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (rhs - lhs) / np.maximum(1.0, np.abs(rhs))


# numerical slack of the predicates below, and the box parameters
# (a1, a2, a3) of the Harnack comparison and the displacement bound
_SLACK = 1e-9
_HARNACK_A = (1.0, 2.0, math.pi)

# the default samples: the (z0, z1) pairs of the two-point growth line, with
# the sharpness pairs through the origin along the real axis; the 48 x 64
# derivative grid (both derivative lines are worst at z = 0 or on the cap at
# angle 0, points that a denser grid only repeats); the 24 x 32 grid of the
# boundary-distance line, also harmonic-advisory's K sample; and the
# (xi, rho, r) columns of the triples, 0 <= rho <= r on 10 radii, 55 pairs
# along each of 8 directions
_PAIRS = np.array([(a, b) for a in (0.0, 0.3, 0.5j, -0.4, 0.2 - 0.3j, 0.7, 0.6j, -0.1 - 0.6j)
                   for b in (0.5, -0.5, 0.8j, -0.7j, 0.3 + 0.4j, -0.2 + 0.2j, 0.9, -0.9)]
                  + [(0.0, 0.5), (0.0, -0.5), (0.0, 0.9), (0.0, -0.9), (0.3, 0.3)],
                  dtype=complex)
_DERIV_GRID = geometry.disk_grid()
_DIST_GRID = geometry.disk_grid(24, 32)
_TRIPLES = (np.repeat(geometry.circle_nodes(8), 55),
            *np.tile(np.linspace(0.0, 0.95, 10)[np.array(np.triu_indices(10))], 8))
for _sample in (_PAIRS, _DERIV_GRID, _DIST_GRID, *_TRIPLES):
    _sample.flags.writeable = False


def _report(predicate, alpha, qc_k, margins, witnesses, slack, notes="",
            unconverged=None, samples=None) -> CheckReport:
    """One check line: the worst margin and its witness.  ``unconverged``
    names an input estimate that did not converge, which fails the line and
    is noted; ``samples`` overrides the margin count.  A NaN or infinite
    margin is an input error naming its witness, and an empty sample one
    naming the predicate, never a line."""
    margins = np.asarray(margins, dtype=float)
    witnesses = np.asarray(witnesses, dtype=complex).ravel()
    if margins.size == 0:
        raise ParameterError(f"{predicate}: the sample is empty")
    bad = ~np.isfinite(margins)
    if np.any(bad):
        raise ParameterError(f"{predicate}: margin is not finite at "
                             f"z = {complex(witnesses[np.argmax(bad)])}")
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    if unconverged:
        notes = " ".join(filter(None, (notes, f"{unconverged} did not converge")))
    return CheckReport(
        predicate=predicate,
        alpha=alpha,
        qc_k=qc_k,
        samples=int(margins.size if samples is None else samples),
        worst_margin=worst,
        witness=complex(witnesses[idx]),
        passed=worst >= -slack and not unconverged,
        slack=slack,
        notes=notes,
    )


def _columns(rows, *dtypes) -> list:
    """The columns of an explicit sample of rows, one array per dtype.  An
    empty sample gives empty columns, which ``_report`` rejects."""
    return [np.array([row[k] for row in rows], dtype=dt) for k, dt in enumerate(dtypes)]


def _exp2alpha(t, alpha):
    """exp(2 alpha arctanh t) = ((1+t)/(1-t))^alpha, computed stably."""
    t = np.asarray(t, dtype=float)
    return ((1.0 + t) / (1.0 - t)) ** alpha


# ---------------------------------------------------------------------------
# two-point growth


def check_two_point_growth(m: HarmonicMap, alpha: float, qc_k: float,
                           pairs=None) -> CheckReport:
    """Two-sided bound on |f(z1)-f(z0)| / ((1-|z0|^2)|f_z(z0)|) between
    (1 - e^{-2 a lambda})/(a(1+K)) and K(e^{2 a lambda} - 1)/(a(1+K)),
    where lambda is the hyperbolic distance of the pair, on ``pairs`` or
    else ``_PAIRS``."""
    z0, z1 = _PAIRS.T if pairs is None else _columns(pairs, complex, complex)
    fz0 = check_sense_preserving(m, z0).abs_fz
    q = np.abs(m.value(z1) - m.value(z0)) / ((1.0 - np.abs(z0) ** 2) * fz0)
    t = np.abs((z1 - z0) / (1.0 - np.conjugate(z0) * z1))
    big_e = _exp2alpha(t, alpha)
    upper = qc_k / (alpha * (1.0 + qc_k)) * (big_e - 1.0)
    lower = (1.0 - 1.0 / big_e) / (alpha * (1.0 + qc_k))
    margins = np.minimum(rel_margin(q, upper), rel_margin(lower, q))
    return _report("two_point_growth", alpha, qc_k, margins, z1, _SLACK)


# ---------------------------------------------------------------------------
# derivative distortion and the derivative-vs-value bound with its explicit constant


@functools.lru_cache(maxsize=None)
def _phi_sup(alpha: float) -> float:
    """sup_{t in (0,1)} t (1+t)^{a-1} / ((1+t)^a - (1-t)^a), by grid scan
    plus golden-section polish.  It depends on alpha alone, so it is
    computed once per alpha for the life of the process."""

    def phi(t):
        t = np.asarray(t, dtype=float)
        return t * (1.0 + t) ** (alpha - 1.0) / ((1.0 + t) ** alpha - (1.0 - t) ** alpha)

    ts = np.linspace(1e-6, 1.0, 2001)
    vals = phi(ts)
    i = int(np.argmax(vals))
    best = float(vals[i])
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    _, polished = golden_max(lambda t: float(phi(t)), lo, hi)
    return max(best, polished)


def derivative_bound_constant(alpha: float, qc_k: float) -> float:
    """2 a K sup_{t in (0,1)} t (1+t)^{a-1} / ((1+t)^a - (1-t)^a), with the
    supremum from ``_phi_sup``.  Always at least K (it is at least
    a K >= 2 K, since the expression equals 1/2 at t = 1)."""
    # "not (inside)", so NaN fails it too
    if not (2.0 <= alpha < math.inf and 1.0 <= qc_k < math.inf):
        raise ParameterError("need finite alpha >= 2 and K >= 1")
    sup = _phi_sup(alpha)
    c = 2.0 * alpha * qc_k * sup
    if c < qc_k:
        raise ArithmeticError("scan produced a constant below K; refine the grid")
    return c


def check_derivative_bounds(m: HarmonicMap, alpha: float, qc_k: float,
                            points=None) -> tuple:
    """The lines ``deriv_distortion``, the two-sided distortion of the
    analytic part
    (1-|z|)^{a-1}/(1+|z|)^{a+1} <= |h'(z)| <= (1+|z|)^{a-1}/(1-|z|)^{a+1},
    and ``deriv_value_bound``, |z| dnorm(z) <= C |f(z)| / (1 - |z|) with the
    closed-form constant, on ``points`` or else ``_DERIV_GRID``.  |h'| =
    |f_z| and the norm come from one checked read of the sample, and f from
    one ``value`` call."""
    pts = _DERIV_GRID if points is None else np.asarray(points, dtype=complex).ravel()
    c = derivative_bound_constant(alpha, qc_k)
    t = np.abs(pts)
    w = check_sense_preserving(m, pts)
    hp = w.abs_fz
    lower = (1.0 - t) ** (alpha - 1.0) / (1.0 + t) ** (alpha + 1.0)
    upper = (1.0 + t) ** (alpha - 1.0) / (1.0 - t) ** (alpha + 1.0)
    margins = np.minimum(rel_margin(hp, upper), rel_margin(lower, hp))
    distortion = _report("deriv_distortion", alpha, None, margins, pts, _SLACK)
    with np.errstate(over="ignore"):  # an infinite side is rejected by _report
        rhs = c * np.abs(m.value(pts)) / (1.0 - t)
    value_bound = _report("deriv_value_bound", alpha, qc_k, rel_margin(t * w.dnorm, rhs),
                          pts, _SLACK, notes=f"C={c!r}")
    return distortion, value_bound


# ---------------------------------------------------------------------------
# radial quasi-monotonicity of the weighted derivative norm


def check_weighted_deriv_growth(m: HarmonicMap, alpha: float, triples=None) -> CheckReport:
    """(1-rho^2) dnorm(rho xi) <= e^{2 a lambda(rho, r)} (1-r^2) dnorm(r xi)
    for 0 <= rho <= r < 1 and |xi| = 1, on the (xi, rho, r) ``triples`` or
    else the columns ``_TRIPLES``."""
    xi, rho, r = _TRIPLES if triples is None else _columns(triples, complex, float, float)
    lhs = (1.0 - rho ** 2) * finite_dnorm(m, rho * xi)
    t = (r - rho) / (1.0 - rho * r)
    rhs = _exp2alpha(t, alpha) * (1.0 - r ** 2) * finite_dnorm(m, r * xi)
    margins = rel_margin(lhs, rhs)
    return _report("weighted_deriv_growth", alpha, None, margins, rho * xi, _SLACK)


# ---------------------------------------------------------------------------
# lower bound for the distance to the image boundary


def check_boundary_dist_lower(m: HarmonicMap, qc_k: float, points=None,
                              eps: float = 1e-4) -> CheckReport:
    """d(f(z), image boundary) >= dnorm(z) (1 - |z|^2) / (16 K), with the
    distance estimated from the image of the circle of radius 1 - eps.  The
    line is unconverged when the bound fails at value - drift, that is when
    one more ring halving that moved each distance as far as the last one
    did would break it (a 5 % rule fails near-boundary distances that clear
    the bound several times over).  Only the points with |z| <= 1 - 2 eps
    are sampled, the separation ``poisson_functional`` asks of its kernel
    point: a point on or outside the ring has no distance the ring resolves.
    The sample is ``points`` or else ``_DIST_GRID``."""
    pts = _DIST_GRID if points is None else np.asarray(points, dtype=complex).ravel()
    pts = pts[np.abs(pts) <= 1.0 - 2.0 * eps]
    if pts.size == 0:
        raise ParameterError(f"boundary_dist_lower: no sample point has |z| <= 1 - 2 eps "
                             f"at eps = {eps!r}")
    dist = geometry.boundary_distance(m, m.value(pts), eps=eps, n=geometry._RING_N)
    lhs = finite_dnorm(m, pts) * (1.0 - np.abs(pts) ** 2) / (16.0 * qc_k)
    settled = np.min(rel_margin(lhs, dist.value - dist.drift)) >= -_SLACK
    return _report("boundary_dist_lower", 0.0, qc_k, rel_margin(lhs, dist.value), pts,
                   _SLACK, notes=f"eps={eps!r} n={geometry._RING_N}",
                   unconverged=None if settled else "boundary distance")


# ---------------------------------------------------------------------------
# Harnack-type comparison of derivative norms and the local displacement bound


def harnack_constant(a1: float, a2: float, a3: float, alpha: float) -> float:
    """2 exp((1+alpha)(a3 + log((2 a2 - a1)/a1) / 2))."""
    # "not (inside)", so NaN fails it too
    if not (0.0 < a1 <= a2 < math.inf and 0.0 <= a3 < math.inf and 2.0 <= alpha < math.inf):
        raise ParameterError("need finite 0 < a1 <= a2, a3 >= 0 and alpha >= 2")
    return 2.0 * math.exp((1.0 + alpha) * (a3 + 0.5 * math.log((2.0 * a2 - a1) / a1)))


def _harnack_box(z0: complex) -> np.ndarray:
    """Qualifying test points, 12 radii by 13 angles: 1 - a2 d <= |z| <=
    1 - a1 d within angular half-width a3 d of z0, where d = 1 - |z0|."""
    a1, a2, a3 = _HARNACK_A
    delta = 1.0 - abs(z0)
    lo = max(1.0 - a2 * delta, 0.0)
    hi = 1.0 - a1 * delta
    if hi <= 0:
        raise ParameterError("box is empty: a1 too large for this z0")
    radii = np.linspace(lo, hi, 12)
    angles = float(np.angle(z0)) + np.linspace(-a3 * delta, a3 * delta, 13)
    pts = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    return pts[np.abs(pts) < 1.0]


def check_harnack_box(m: HarmonicMap, qc_k: float, alpha: float,
                      z0: complex = 0.9 + 0.0j) -> tuple:
    """The lines ``harnack_comparison``,
    dnorm(z0)/M <= dnorm(z) <= M dnorm(z0), and ``local_displacement``,
    |f(z) - f(z0)| <= K/(a(1+K)) ((M/2)^{2a/(1+a)} - 1) (1-|z0|^2)|f_z(z0)|,
    on one qualifying boundary box with one M.  The box norms are read
    before z0, so a bad point in both is named in the box."""
    z0 = complex(z0)
    big_m = harnack_constant(*_HARNACK_A, alpha)
    pts = _harnack_box(z0)
    norms = finite_dnorm(m, pts)
    w0 = check_sense_preserving(m, z0)
    ratio = norms / float(w0.dnorm)
    margins = np.minimum(rel_margin(ratio, big_m), rel_margin(1.0 / big_m, ratio))
    notes = f"z0={z0!r} M={big_m!r}"
    harnack = _report("harnack_comparison", alpha, None, margins, pts, _SLACK, notes=notes)
    fz0 = abs(complex(w0.fz))
    factor = (big_m / 2.0) ** (2.0 * alpha / (1.0 + alpha)) - 1.0
    rhs = qc_k / (alpha * (1.0 + qc_k)) * factor * (1.0 - abs(z0) ** 2) * fz0
    lhs = np.abs(m.value(pts) - complex(m.value(z0)))
    displacement = _report("local_displacement", alpha, qc_k,
                           rel_margin(lhs, np.full_like(lhs, rhs)), pts, _SLACK, notes=notes)
    return harnack, displacement


# ---------------------------------------------------------------------------
# diameter of boundary-arc images


def check_arc_image_diameter(m: HarmonicMap, qc_k: float, alpha: float, decay,
                             a_points=(0.9 + 0.0j, 0.7j), eps: float = 1e-4) -> CheckReport:
    """diam f((1-eps) I(a)) <= 32 K C d(f(a), image boundary) at each anchor
    a in ``a_points``, with
    C = 2 pi e^{(1+a) pi} + (2 C35 e^{(1+a) pi} + C35)/delta from the fitted
    decay pair (C35, delta).  Requires a bounded image and delta in (0, 1]."""
    c35, delta = decay
    if not 0.0 < delta <= 1.0 or c35 <= 0:
        raise ParameterError("decay hypothesis needs C > 0 and delta in (0, 1]")
    if "bounded" not in m.flags:
        raise ParameterError(f"{m.label}: arc-diameter check needs a bounded image")
    boost = math.exp((1.0 + alpha) * math.pi)
    c36 = 2.0 * math.pi * boost + (2.0 * c35 * boost + c35) / delta
    a_arr = np.atleast_1d(np.asarray(a_points, dtype=complex))
    # boundary_distance checks eps before any ring or arc is evaluated
    dist = geometry.boundary_distance(m, m.value(a_arr), eps)
    diam = [geometry.set_diameter(m.value((1.0 - eps) * geometry.boundary_arc(a)))
            for a in a_arr]
    margins = rel_margin(diam, 32.0 * qc_k * c36 * dist.value)
    return _report("arc_image_diameter", alpha, qc_k, margins, a_arr, _SLACK,
                   notes=f"C36={c36!r} C35={c35!r} delta={delta!r}",
                   unconverged=None if dist.converged else "boundary distance")
