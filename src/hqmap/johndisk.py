"""Numerical estimators for the three equivalent radial-John-disk criteria,
the boundary decay-exponent fit, and the diameter-ratio / Hoelder checks
for maps onto John disks.

A finite computation cannot certify that a supremum is finite, so the
verdict machinery is deliberately three-valued: stability of the criterion
suprema under refinement is the operational proxy for finiteness, and a
trace that keeps growing by half again per level is the proxy for
divergence.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import bounds, geometry
from .maps import R_CAP, HarmonicMap, ParameterError, finite_dnorm

# refinement ladder for the box reach: the z quantities stay capped at
# R_CAP, while the sampled boxes extend their radial reach toward the
# circle by a factor 1.6 in (1 - reach) per level.  That realizes the
# divergence of slit-type maps (growth factor >= 1.5 per level) while
# perturbing reach-sensitive stable suprema by well under 0.1 percent.
_REACH0 = 1e-3
_REACH_FACTOR = 1.6
_STABLE_TOL = 0.05
_GROW_FACTOR = 1.5


def _reach(level: int) -> float:
    return 1.0 - _REACH0 / _REACH_FACTOR ** (level + 1)


def _trace_stable(trace) -> bool:
    """The refinement rule of every traced estimate (criterion (iii), the
    Poisson sup): the last refinement moves the trace by less than
    _STABLE_TOL of its previous value.  A one-level trace has not moved."""
    drift = abs(trace[-1] - trace[-2]) / trace[-2] if len(trace) > 1 else 0.0
    return drift < _STABLE_TOL


# ---------------------------------------------------------------------------
# criterion (ii): contraction of the weighted derivative norm along rays


def criterion_ii(m: HarmonicMap, x: float, n_zeta: int = 48, n_r: int = 48) -> float:
    """Supremum over boundary directions zeta and radii r of
    (1-rho^2) dnorm(rho zeta) / ((1-r^2) dnorm(r zeta)) at
    rho = (x + r)/(1 + x r)."""
    if not 0.0 < x < 1.0:
        raise ParameterError("criterion parameter x must lie in (0, 1)")
    zeta = geometry.circle_nodes(n_zeta)
    r = 1.0 - np.geomspace(1.0, 1.0 - R_CAP, n_r)
    rho = (x + r) / (1.0 + x * r)
    zr = zeta[:, None] * r[None, :]
    zrho = zeta[:, None] * rho[None, :]
    den = (1.0 - r[None, :] ** 2) * finite_dnorm(m, zr)
    num = (1.0 - rho[None, :] ** 2) * finite_dnorm(m, zrho)
    return _ratio_sup(m, num, den, zr)


# ---------------------------------------------------------------------------
# criterion (iii): displacement over the boundary box


@dataclass(frozen=True)
class CriterionTrace:
    sup: float
    trace: tuple
    reaches: tuple
    stable: bool
    increasing: bool


def _level_density(base: int, level: int) -> int:
    return round(base * 1.5 ** level)


def _z_radii(level: int) -> np.ndarray:
    """Radius sample for the outer supremum: a coarse core and a
    boundary-clustered band where the stable suprema peak."""
    n_band = _level_density(24, level)
    core = np.array([0.15, 0.3, 0.45, 0.6, 0.7, 0.8])
    band = 1.0 - np.geomspace(0.15, 1.0 - R_CAP, n_band)
    return np.concatenate([core, band])


# rotated-box points evaluated per call: as many consecutive z-radii of a
# level as fit in 2^15 points (512 KB of complex128, poisson._RING_BLOCK)
_BOX_BLOCK = 1 << 15
# radial side of the level-0 box sample, and the rotated boxes per z-radius
_BOX_SIDE = 20
_N_ROT = 32


@geometry._built_once
def _level_boxes(level: int) -> tuple:
    """A level's map-independent sample, built once per process and
    read-only: the box reach, the z-radii, and the edge points of the boxes
    from one ``geometry.boundary_boxes`` call (row 0 is the origin's box,
    row 1 + i the box of radii[i])."""
    reach = _reach(level)
    nb = _level_density(_BOX_SIDE, level)
    box_shape = (nb, nb | 1)  # odd angular count keeps the mid ray
    edges = np.zeros(box_shape, dtype=bool)
    edges[[0, -1], :] = True
    edges[:, [0, -1]] = True
    radii = _z_radii(level)
    boxes = geometry.boundary_boxes([0.0, *radii], *box_shape, reach)[:, edges.ravel()]
    radii.flags.writeable = False
    boxes.flags.writeable = False
    return reach, radii, boxes


def _ratio_sup(m: HarmonicMap, nums, dens, zs) -> float:
    """Largest of nums / dens, where dens[i] is the weighted derivative norm
    at zs[i], read through ``finite_dnorm``.  A non-finite ratio (a NaN or
    infinite map value, or a weighted norm that underflowed) is an input
    error rather than a ratio the supremum could silently skip."""
    nums, dens, zs = (np.asarray(a).ravel() for a in (nums, dens, zs))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = nums / dens
    bad = ~np.isfinite(ratios)
    if np.any(bad):
        raise ParameterError(f"{m.label}: criterion ratio is not finite at "
                             f"z = {complex(zs[np.argmax(bad)])}")
    return float(np.max(ratios))


def _box_blocks(level: int):
    """A level's rotated boxes in blocks of at most ``_BOX_BLOCK`` points:
    per run of consecutive z-radii r, the points zs[i, k] = r[i] rots[k] and
    the boxes rotated to them, box i rotated to zs[i, k] being row (i, k)."""
    _, radii, boxes = _level_boxes(level)
    rots = geometry.circle_nodes(_N_ROT)
    per_block = max(1, _BOX_BLOCK // (_N_ROT * boxes.shape[1]))
    for lo in range(0, len(radii), per_block):
        r = radii[lo:lo + per_block]
        yield (r, r[:, None] * rots[None, :],
               rots[None, :, None] * boxes[1 + lo:1 + lo + per_block, None, :])


def criterion_iii(maps, levels: int = 3) -> tuple:
    """One ``CriterionTrace`` per map of ``maps``: the grid supremum of
    |f(z) - f(w)| / ((1-|z|^2) dnorm(z)) over w in B(z), traced across
    refinement levels (denser radial grid and box sample, deeper box
    reach).

    The z-angle lattice is held fixed across levels: the box for |z| = r is
    built once per radius and rotated with z, so angular discretization
    error is identical at every level and cancels out of the trace drift.
    The origin (where the box degenerates to the whole disk) is always
    included.  ``_level_boxes`` builds a level's boxes once per process.

    Only the four edges of each box grid are evaluated.  f = h + conj(g) is
    harmonic, so w -> |f(w) - f(z)| is subharmonic and its maximum over the
    closed box lies on the box boundary; the tensor grid of
    ``geometry.boundary_box`` contains that boundary's grid points (first and
    last radius, first and last angle).  An nb x (nb|1) box therefore costs
    2 (nb|1) + 2 (nb - 2) points instead of nb (nb|1): 176 instead of 2,025
    at level 2, for each of the 32 rotated boxes of a radius.

    Each level is one pass over all the maps: the origin's box for every
    map, then blocks of at most ``_BOX_BLOCK`` = 2^15 rotated-box points
    (13, 8 and 5 z-radii at levels 0, 1 and 2), each formed once by
    ``_box_blocks`` and evaluated for every map in turn.  Each point and its
    arithmetic are those of a one-map pass, so no trace moves by a bit.

    A z point where |f_zb| < |f_z| fails raises ``SenseReversalError``
    with that z as witness (see ``finite_dnorm``); a non-finite ratio raises
    ``ParameterError``.  The first failure in pass order (level, block,
    then map) is raised.
    """
    traces = [[] for _ in maps]
    reaches = []
    for level in range(levels):
        reach, _, boxes = _level_boxes(level)
        sups = []
        for m in maps:
            f0 = complex(m.value(0.0 + 0.0j))
            sups.append(_ratio_sup(m, np.max(np.abs(m.value(boxes[0]) - f0)),
                                   finite_dnorm(m, 0.0 + 0.0j), 0.0 + 0.0j))
        for r, zs, rotated in _box_blocks(level):
            for i, m in enumerate(maps):
                dens = (1.0 - r * r)[:, None] * finite_dnorm(m, zs)
                fzs = m.value(zs)
                nums = np.max(np.abs(m.value(rotated) - fzs[:, :, None]), axis=2)
                sups[i] = max(sups[i], _ratio_sup(m, nums, dens, zs))
        for trace, sup in zip(traces, sups):
            trace.append(sup)
        reaches.append(reach)
    return tuple(CriterionTrace(
        sup=trace[-1],
        trace=tuple(trace),
        reaches=tuple(reaches),
        stable=_trace_stable(trace),
        increasing=all(b >= _GROW_FACTOR * a for a, b in zip(trace[:-1], trace[1:])),
    ) for trace in traces)


# ---------------------------------------------------------------------------
# decay-exponent fit on boundary rays


@dataclass(frozen=True)
class DecayFit:
    c: float
    delta: float
    residual: float
    slopes: tuple

    @property
    def min_slope(self) -> float:
        return min(self.slopes)

    def hypothesis_holds(self) -> bool:
        return 0.0 < self.delta <= 1.0


def decay_fit(m: HarmonicMap, window=(0.6, 0.99)) -> DecayFit:
    """Per-ray least-squares fit of log dnorm(rho zeta) against log(1-rho) on
    16 rays, with 48 samples of log(1-rho) clustered toward the boundary end
    of the window (the decay hypothesis is an asymptotic boundary property, so
    boundary weighting recovers the exponent with less bias from interior
    curvature of the profile).

    delta = 1 + min slope over rays (the worst ray governs the John
    property); the constant is the empirical maximum over same-ray sample
    pairs of dnorm(rho)/(dnorm(r) ((1-rho)/(1-r))^{delta-1}).
    """
    lo, hi = window
    if not 0.5 <= lo < hi <= 0.999:
        raise ParameterError("fit window must sit inside [0.5, 0.999]")
    u = np.linspace(0.0, 1.0, 48) ** 0.5
    a, b = math.log(1.0 - lo), math.log(1.0 - hi)
    big_l = a + (b - a) * u
    rho = 1.0 - np.exp(big_l)
    zetas = geometry.circle_nodes(16)
    # row k is the ray at angle 2 pi k / 16; one call over the whole lattice
    # reports a bad norm at the first bad point of the first ray with one
    norms = finite_dnorm(m, zetas[:, None] * rho[None, :])
    slopes = []
    residual = 0.0
    for vals in norms:
        y = np.log(vals)
        slope, intercept = np.polyfit(big_l, y, 1)
        slopes.append(float(slope))
        residual = max(residual, float(np.max(np.abs(slope * big_l + intercept - y))))
    delta = 1.0 + min(slopes)
    # same-ray pairs with the row point at least as deep as the column
    ratio = norms[:, :, None] / norms[:, None, :]
    scale = ((1.0 - rho[:, None]) / (1.0 - rho[None, :])) ** (delta - 1.0)
    mask = rho[:, None] >= rho[None, :]
    c_emp = float(np.max(np.where(mask, ratio / scale, 0.0)))
    return DecayFit(c=c_emp, delta=float(delta), residual=residual, slopes=tuple(slopes))


@functools.partial(geometry._built_once, store=weakref.WeakKeyDictionary)
def _default_fit(m: HarmonicMap) -> DecayFit:
    """``decay_fit(m)`` on the default window, fitted once per map and kept
    while the map lives (equal maps share it): the inequality suites and
    ``john_estimate`` read the same fit."""
    return decay_fit(m)


# ---------------------------------------------------------------------------
# assembled estimate


@dataclass(frozen=True)
class JohnEstimate:
    criterion_ii: tuple       # tuple of (x, sup)
    criterion_iii: CriterionTrace
    decay: DecayFit
    verdict: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "criterion_ii": [
                    {"x": float(x), "sup": float(s)} for x, s in self.criterion_ii
                ],
                "criterion_iii": {
                    "sup": float(self.criterion_iii.sup),
                    "trace": [float(t) for t in self.criterion_iii.trace],
                },
                "decay": {
                    "C": float(self.decay.c),
                    "delta": float(self.decay.delta),
                    "residual": float(self.decay.residual),
                },
                "verdict": self.verdict,
            },
            sort_keys=True,
        )


def john_estimate(maps) -> tuple:
    """One ``JohnEstimate`` per map of ``maps``: all three criteria,
    criterion (ii) at x = 0.3, 0.5, 0.7 and 0.9, combined into a
    three-valued verdict.  Criterion (ii) runs map by map, then criterion
    (iii) as one pass over all the maps, then the decay fits.

    john-positive: some tested x has criterion (ii) supremum below one AND
    the criterion (iii) trace is refinement-stable.  john-negative: the
    criterion (iii) trace keeps growing by a factor of at least 1.5 per
    level.  Anything else is inconclusive.
    """
    sups = [tuple((x, criterion_ii(m, x)) for x in (0.3, 0.5, 0.7, 0.9)) for m in maps]
    out = []
    for m, ii, trace in zip(maps, sups, criterion_iii(maps)):
        if any(s < 1.0 for _, s in ii) and trace.stable:
            verdict = "john-positive"
        elif trace.increasing:
            verdict = "john-negative"
        else:
            verdict = "inconclusive"
        out.append(JohnEstimate(ii, trace, _default_fit(m), verdict))
    return tuple(out)


# ---------------------------------------------------------------------------
# diameter-ratio distortion for John images


def _box_nested(a1: complex, a2: complex) -> bool:
    """B(a1) is contained in B(a2) iff a1 is at least as deep and its angular
    window fits inside the window of a2."""
    if abs(a1) < abs(a2):
        return False
    if a2 == 0:
        return True
    if a1 == 0:
        return abs(a2) == 0
    shift = abs(geometry.wrap_angle(float(np.angle(a1)) - float(np.angle(a2))))
    return shift + math.pi * (1.0 - abs(a1)) <= math.pi * (1.0 - abs(a2)) + 1e-12


def diam_ratio_check(m: HarmonicMap, a1: complex, a2: complex,
                     alpha: float) -> bounds.CheckReport:
    """Empirical constant in
    diam f(B(a1)) / diam f(B(a2)) <= C (arc(a1)/arc(a2))^alpha,
    where arc(a) = 2 pi (1 - |a|) is the boundary-arc length of the box.

    The check asserts stability of the constant under doubling of the
    40 x 41 box sample; the constant itself is reported in the notes.
    """
    a1 = complex(a1)
    a2 = complex(a2)
    if not _box_nested(a1, a2):
        raise ParameterError("need B(a1) contained in B(a2)")
    arc_ratio = (1.0 - abs(a1)) / (1.0 - abs(a2))

    def ratio_at(n):
        d1 = geometry.set_diameter(m.value(geometry.boundary_box(a1, n, n + 1)))
        d2 = geometry.set_diameter(m.value(geometry.boundary_box(a2, n, n + 1)))
        return d1 / d2

    r_coarse = ratio_at(40)
    r_fine = ratio_at(80)
    c3 = r_fine / arc_ratio ** alpha
    drift = abs(r_fine - r_coarse) / max(r_fine, 1e-300)
    # stable when refinement moves the ratio < 1%
    return bounds._report("diam_ratio", alpha, None, [0.01 - drift], a1, bounds._SLACK,
                          notes=f"C3={c3!r} diam_ratio={r_fine!r} arc_ratio={arc_ratio!r}",
                          samples=2 * 40 * 41)


# ---------------------------------------------------------------------------
# Hoelder continuity inside boundary boxes


@dataclass(frozen=True)
class HolderFit:
    c4: float
    delta1: float
    pairs: int


def holder_check(m: HarmonicMap, z: complex) -> HolderFit:
    """Fit |f(w1) - f(w2)| / d(f(z)) ~ C (|w1 - w2|/(1-|z|))^{delta} over
    pairs from the 8 x 9 sample of B(z); the constant is inflated to the
    worst residual, so every sampled pair sits under the fitted envelope."""
    z = complex(z)
    if abs(z) < 0.5:
        raise ParameterError("Hoelder check applies for |z| >= 1/2")
    d = geometry.boundary_distance(m, complex(m.value(z))).value
    if d <= 0:
        raise ParameterError("boundary distance estimate vanished")
    pts = geometry.boundary_box(z, 8, 9)
    vals = m.value(pts)
    # every ordered pair (w1, w2) of distinct box points, row by row
    sep = np.abs(pts[:, None] - pts[None, :]).ravel()
    keep = sep > 1e-12
    t = sep[keep] / (1.0 - abs(z))
    y = np.abs(vals[:, None] - vals[None, :]).ravel()[keep] / d
    lt = np.log(t)
    ly = np.log(np.maximum(y, 1e-300))
    delta1 = np.polyfit(lt, ly, 1)[0]
    c4 = float(np.exp(np.max(ly - delta1 * lt)))
    return HolderFit(c4=c4, delta1=float(delta1), pairs=int(len(t)))
