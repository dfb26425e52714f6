"""Inequality predicates with margin reports, plus the two closed-form
constants (the derivative-vs-value constant and the Harnack comparison
constant).

Every predicate evaluates its inequality on a deterministic sample and
reports the worst margin (RHS - LHS) / max(1, |RHS|) together with the
witness point attaining it.  Margins are relative wherever the two sides
blow up like (1 - |z|)^{-3} near the circle, so the reports stay readable.
Every check line, in every module, is built by ``_report`` under one pass
rule: the line passes when its worst margin is at least minus its declared
numerical slack and no input estimate it rests on failed to converge.

For the analytic subfamily (g identically zero) with order 2 and K = 1 all
predicates reduce to classical sharp distortion and growth theorems and
must pass; for genuinely harmonic maps the order parameter is configured
and the reports are advisory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .maps import DegenerateMapError, HarmonicMap, ParameterError, finite_dnorm
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


def _report(predicate, alpha, qc_k, margins, witnesses, slack, notes="",
            unconverged=None, samples=None) -> CheckReport:
    """One check line: the worst margin and its witness.  ``unconverged``
    names an input estimate that did not converge, which fails the line and
    is noted; ``samples`` overrides the margin count.  A NaN or infinite
    margin is an input error naming its witness, never a line."""
    margins = np.asarray(margins, dtype=float)
    witnesses = np.asarray(witnesses, dtype=complex).ravel()
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


def _exp2alpha(t, alpha):
    """exp(2 alpha arctanh t) = ((1+t)/(1-t))^alpha, computed stably."""
    t = np.asarray(t, dtype=float)
    return ((1.0 + t) / (1.0 - t)) ** alpha


# ---------------------------------------------------------------------------
# derivative distortion


def check_distortion(m: HarmonicMap, alpha: float, points=None) -> CheckReport:
    """Two-sided distortion of the analytic part:
    (1-|z|)^{a-1}/(1+|z|)^{a+1} <= |h'(z)| <= (1+|z|)^{a-1}/(1-|z|)^{a+1}.
    """
    pts = np.asarray(points if points is not None else geometry.disk_grid(),
                     dtype=complex).ravel()
    t = np.abs(pts)
    hp = np.abs(m.h.d1(pts))
    lower = (1.0 - t) ** (alpha - 1.0) / (1.0 + t) ** (alpha + 1.0)
    upper = (1.0 + t) ** (alpha - 1.0) / (1.0 - t) ** (alpha + 1.0)
    margins = np.minimum(rel_margin(hp, upper), rel_margin(lower, hp))
    return _report("deriv_distortion", alpha, None, margins, pts, _SLACK)


# ---------------------------------------------------------------------------
# two-point growth


def default_pairs() -> np.ndarray:
    """Deterministic (z0, z1) pairs, including the sharpness pairs through
    the origin along the real axis."""
    z0s = np.array([0.0, 0.3, 0.5j, -0.4, 0.2 - 0.3j, 0.7, 0.6j, -0.1 - 0.6j])
    z1s = np.array([0.5, -0.5, 0.8j, -0.7j, 0.3 + 0.4j, -0.2 + 0.2j, 0.9, -0.9])
    pairs = [(a, b) for a in z0s for b in z1s]
    pairs += [(0.0, 0.5), (0.0, -0.5), (0.0, 0.9), (0.0, -0.9), (0.3, 0.3)]
    return np.asarray(pairs, dtype=complex)


def check_two_point_growth(m: HarmonicMap, alpha: float, qc_k: float,
                           pairs=None) -> CheckReport:
    """Two-sided bound on |f(z1)-f(z0)| / ((1-|z0|^2)|f_z(z0)|) between
    (1 - e^{-2 a lambda})/(a(1+K)) and K(e^{2 a lambda} - 1)/(a(1+K)),
    where lambda is the hyperbolic distance of the pair."""
    pairs = np.asarray(pairs if pairs is not None else default_pairs(), dtype=complex)
    z0 = pairs[:, 0]
    z1 = pairs[:, 1]
    fz0 = np.abs(m.h.d1(z0))
    if np.any(fz0 == 0):
        bad = z0[int(np.argmin(fz0))]
        raise DegenerateMapError(f"{m.label}: f_z vanishes at {bad}")
    q = np.abs(m.value(z1) - m.value(z0)) / ((1.0 - np.abs(z0) ** 2) * fz0)
    t = np.abs((z1 - z0) / (1.0 - np.conjugate(z0) * z1))
    big_e = _exp2alpha(t, alpha)
    upper = qc_k / (alpha * (1.0 + qc_k)) * (big_e - 1.0)
    lower = (1.0 - 1.0 / big_e) / (alpha * (1.0 + qc_k))
    margins = np.minimum(rel_margin(q, upper), rel_margin(lower, q))
    return _report("two_point_growth", alpha, qc_k, margins, z1, _SLACK)


# ---------------------------------------------------------------------------
# derivative-vs-value bound with its explicit constant


def derivative_bound_constant(alpha: float, qc_k: float) -> float:
    """2 a K sup_{t in (0,1)} t (1+t)^{a-1} / ((1+t)^a - (1-t)^a), by grid
    scan plus golden-section polish.  Always at least K (it is at least
    a K >= 2 K, since the expression equals 1/2 at t = 1)."""
    if alpha < 2.0 or qc_k < 1.0:
        raise ParameterError("need alpha >= 2 and K >= 1")

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
    sup = max(best, polished)
    c = 2.0 * alpha * qc_k * sup
    if c < qc_k:
        raise ArithmeticError("scan produced a constant below K; refine the grid")
    return c


def check_derivative_value_bound(m: HarmonicMap, alpha: float, qc_k: float,
                                 points=None) -> CheckReport:
    """|z| * dnorm(z) <= C |f(z)| / (1 - |z|) with the closed-form constant."""
    pts = np.asarray(points if points is not None else geometry.disk_grid(),
                     dtype=complex).ravel()
    c = derivative_bound_constant(alpha, qc_k)
    w = m.wirtinger(pts)
    lhs = np.abs(pts) * w.dnorm
    with np.errstate(over="ignore"):  # an infinite side is rejected by _report
        rhs = c * np.abs(m.value(pts)) / (1.0 - np.abs(pts))
    margins = rel_margin(lhs, rhs)
    return _report("deriv_value_bound", alpha, qc_k, margins, pts, _SLACK,
                   notes=f"C={c!r}")


# ---------------------------------------------------------------------------
# radial quasi-monotonicity of the weighted derivative norm


def default_triples() -> list:
    radii = np.linspace(0.0, 0.95, 10)
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    triples = []
    for a in angles:
        xi = complex(np.exp(1j * a))
        for i in range(len(radii)):
            for j in range(i, len(radii)):
                triples.append((xi, float(radii[i]), float(radii[j])))
    return triples


def check_weighted_deriv_growth(m: HarmonicMap, alpha: float, triples=None) -> CheckReport:
    """(1-rho^2) dnorm(rho xi) <= e^{2 a lambda(rho, r)} (1-r^2) dnorm(r xi)
    for 0 <= rho <= r < 1 and |xi| = 1."""
    triples = triples if triples is not None else default_triples()
    xi = np.array([t[0] for t in triples], dtype=complex)
    rho = np.array([t[1] for t in triples], dtype=float)
    r = np.array([t[2] for t in triples], dtype=float)
    lhs = (1.0 - rho ** 2) * m.wirtinger(rho * xi).dnorm
    t = (r - rho) / (1.0 - rho * r)
    rhs = _exp2alpha(t, alpha) * (1.0 - r ** 2) * m.wirtinger(r * xi).dnorm
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
    point: a point on or outside the ring has no distance the ring resolves."""
    pts = np.asarray(points if points is not None else geometry.disk_grid(24, 32),
                     dtype=complex).ravel()
    pts = pts[np.abs(pts) <= 1.0 - 2.0 * eps]
    if pts.size == 0:
        raise ParameterError(f"boundary_dist_lower: no sample point has |z| <= 1 - 2 eps "
                             f"at eps = {eps!r}")
    dist = geometry.boundary_distance(m, m.value(pts), eps=eps, n=geometry._RING_N)
    lhs = m.wirtinger(pts).dnorm * (1.0 - np.abs(pts) ** 2) / (16.0 * qc_k)
    settled = np.min(rel_margin(lhs, dist.value - dist.drift)) >= -_SLACK
    return _report("boundary_dist_lower", 0.0, qc_k, rel_margin(lhs, dist.value), pts,
                   _SLACK, notes=f"eps={eps!r} n={geometry._RING_N}",
                   unconverged=None if settled else "boundary distance")


# ---------------------------------------------------------------------------
# Harnack-type comparison of derivative norms near the boundary


def harnack_constant(a1: float, a2: float, a3: float, alpha: float) -> float:
    """2 exp((1+alpha)(a3 + log((2 a2 - a1)/a1) / 2))."""
    if min(a1, a2, a3) < 0 or a1 <= 0 or a1 > a2:
        raise ParameterError("need 0 < a1 <= a2 and a3 >= 0")
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


def check_harnack(m: HarmonicMap, z0: complex, alpha: float) -> CheckReport:
    """Two-sided comparison dnorm(z0)/M <= dnorm(z) <= M dnorm(z0) on the
    qualifying boundary box."""
    z0 = complex(z0)
    big_m = harnack_constant(*_HARNACK_A, alpha)
    pts = _harnack_box(z0)
    ratio = m.wirtinger(pts).dnorm / float(finite_dnorm(m, z0))
    margins = np.minimum(rel_margin(ratio, big_m), rel_margin(1.0 / big_m, ratio))
    return _report("harnack_comparison", alpha, None, margins, pts, _SLACK,
                   notes=f"z0={z0!r} M={big_m!r}")


def check_displacement(m: HarmonicMap, qc_k: float, alpha: float,
                       z0: complex) -> CheckReport:
    """|f(z) - f(z0)| <= K/(a(1+K)) ((M/2)^{2a/(1+a)} - 1) (1-|z0|^2)|f_z(z0)|
    on the qualifying boundary box."""
    z0 = complex(z0)
    big_m = harnack_constant(*_HARNACK_A, alpha)
    pts = _harnack_box(z0)
    fz0 = abs(complex(m.h.d1(z0)))
    if fz0 == 0:
        raise DegenerateMapError(f"{m.label}: f_z vanishes at {z0}")
    factor = (big_m / 2.0) ** (2.0 * alpha / (1.0 + alpha)) - 1.0
    rhs = qc_k / (alpha * (1.0 + qc_k)) * factor * (1.0 - abs(z0) ** 2) * fz0
    lhs = np.abs(m.value(pts) - complex(m.value(z0)))
    margins = rel_margin(lhs, np.full_like(lhs, rhs))
    return _report("local_displacement", alpha, qc_k, margins, pts, _SLACK,
                   notes=f"z0={z0!r} M={big_m!r}")


# ---------------------------------------------------------------------------
# diameter of boundary-arc images


def check_arc_image_diameter(m: HarmonicMap, qc_k: float, alpha: float,
                             a_points, decay, eps: float = 1e-4) -> CheckReport:
    """diam f((1-eps) I(a)) <= 32 K C d(f(a), image boundary), with
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
    diam = [geometry.set_diameter(m.value((1.0 - eps) * geometry.boundary_arc(a)))
            for a in a_arr]
    dist = geometry.boundary_distance(m, m.value(a_arr), eps)
    margins = rel_margin(diam, 32.0 * qc_k * c36 * dist.value)
    return _report("arc_image_diameter", alpha, qc_k, margins, a_arr, _SLACK,
                   notes=f"C36={c36!r} C35={c35!r} delta={delta!r}",
                   unconverged=None if dist.converged else "boundary distance")
