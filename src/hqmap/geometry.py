"""Hyperbolic metric, sampling regions, and boundary-distance estimation.

The inequality checks all run over deterministic discretizations of a few
disk regions: the boundary-anchored box B(z), the boundary arc I(a), a
Stolz-type convex hull and near-boundary rings.  A region sample is the
complex array of its points; membership predicates use closed regions so
that corner extremes (where suprema tend to live) are included.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .maps import EPS_MIN, R_CAP, DiskDomainError, HarmonicMap, ParameterError, _check_in_disk

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# hyperbolic metric


def hyp_dist(z1, z2):
    """Poincare distance arctanh |(z1 - z2) / (1 - conj(z1) z2)| on the disk.

    Accepts scalars or arrays; raises ``DiskDomainError`` if an argument is
    on or outside the circle.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    _check_in_disk(z1)
    _check_in_disk(z2)
    t = np.abs((z1 - z2) / (1.0 - np.conjugate(z1) * z2))
    out = np.arctanh(t)
    return float(out) if out.ndim == 0 else out


def mobius_shift(z, a):
    """The disk automorphism (z + a) / (1 + conj(a) z)."""
    z = np.asarray(z, dtype=complex)
    return (z + a) / (1.0 + np.conjugate(a) * z)


def wrap_angle(t):
    """Reduce an angle difference to (-pi, pi]."""
    t = np.asarray(t, dtype=float)
    out = np.mod(t + math.pi, TWO_PI) - math.pi
    out = np.where(out == -math.pi, math.pi, out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# region samples


def boundary_boxes(anchors, n_radial: int, n_angular: int, reach: float) -> np.ndarray:
    """Tensor samples of the boundary-anchored boxes B(z), one row per
    anchor z, each flattened radius by radius.

    The radial coordinate runs from |z| to ``reach``, with 1 - r
    geometrically clustered toward the circle; the angular one spans
    arg z +- pi (1 - |z|).  Corner extremes are included exactly.  For
    z = 0 the angular condition is vacuous and a full annulus grid is
    returned.

    |z| and arg z are taken per anchor as Python scalars (numpy's complex
    ``abs`` can differ from ``abs`` in the last bit), and every row is the
    one-anchor box bit for bit: the lattices of all rows come from one
    ``geomspace``, one ``linspace`` and one grid product.
    """
    anchors = [complex(z) for z in np.ravel(anchors)]
    r0 = np.array([abs(z) for z in anchors])
    if not np.all(r0 < reach):  # "not (inside)", so a NaN anchor fails too
        raise ParameterError("box anchor must satisfy |z| < reach")
    half_width = math.pi * (1.0 - r0)
    base_angle = np.array([float(np.angle(z)) if z else 0.0 for z in anchors])
    if n_radial == 1:
        radii = r0[:, None]
    else:
        radii = 1.0 - np.geomspace(1.0 - r0, 1.0 - reach, n_radial, axis=1)
    angles = base_angle[:, None] + np.linspace(-half_width, half_width, n_angular, axis=1)
    return (radii[:, :, None] * np.exp(1j * angles[:, None, :])).reshape(len(anchors), -1)


def boundary_box(z: complex, n_radial: int = 24, n_angular: int = 25,
                 reach: float = 0.999) -> np.ndarray:
    """Tensor sample of the boundary-anchored box B(z), flattened radius by
    radius: the one-anchor case of ``boundary_boxes``."""
    return boundary_boxes([z], n_radial, n_angular, reach)[0]


def boundary_arc(a: complex, n: int = 512) -> np.ndarray:
    """Unit-circle arc I(a) = {|arg z - arg a| <= pi (1 - |a|)}."""
    a = complex(a)
    if not 0.0 <= abs(a) < 1.0:
        raise DiskDomainError("arc anchor must lie in the disk")
    half_width = math.pi * (1.0 - abs(a))
    base = float(np.angle(a)) if a != 0 else 0.0
    angles = base + np.linspace(-half_width, half_width, n)
    return np.exp(1j * angles)


def _built_once(build):
    """Cache of a map-independent sample keyed by one argument, built once
    per key for the life of the process.  A miss builds under the cache's
    own lock, so a thread that misses while another builds the same key
    waits and reads that build, and no build holds a lock another cache's
    build needs; a hit takes no lock.  ``cache_clear`` empties the cache."""
    built = {}
    lock = threading.Lock()

    @functools.wraps(build)
    def sample(key):
        try:
            return built[key]
        except KeyError:
            with lock:
                if key not in built:
                    built[key] = build(key)
                return built[key]

    sample.cache_clear = built.clear
    return sample


@_built_once
def circle_nodes(n: int) -> np.ndarray:
    """The n unit-circle nodes e^{i 2 pi k / n}.  They depend on n alone, so
    each ring is built once per process and shared read-only by every
    caller; the largest, 2^18 nodes, is 4 MiB."""
    nodes = np.exp(1j * np.linspace(0.0, TWO_PI, n, endpoint=False))
    nodes.flags.writeable = False
    return nodes


def disk_grid(n_radial: int = 48, n_angular: int = 64, r_cap: float = R_CAP) -> np.ndarray:
    """Polar grid over the disk, radially clustered toward the cap."""
    radii = np.minimum(1.0 - np.geomspace(1.0, 1.0 - r_cap, n_radial), r_cap)
    pts = (radii[:, None] * circle_nodes(n_angular)[None, :]).ravel()
    pts = pts[np.abs(pts) > 0]
    return np.concatenate(([0.0 + 0.0j], pts))


# ---------------------------------------------------------------------------
# Stolz-type domain: convex hull of the point r and the disk of radius r/4


def stolz_contains(r: float, z) -> np.ndarray:
    """Membership in the closed convex hull of {r} and the closed disk of
    radius r/4 centered at the origin.

    A point p belongs to the hull iff p is in the disk or the ray from the
    apex r through p meets the disk; the nearest ray point is a closed-form
    projection.
    """
    c = r / 4.0
    p = np.asarray(z, dtype=complex)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    inside = np.abs(p) <= c + 1e-15
    d = p - r
    nd = np.abs(d)
    apex = nd == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        u = -np.real(p * np.conjugate(d)) / np.where(nd == 0, 1.0, nd) ** 2
    u = np.maximum(u, 0.0)
    dist = np.abs(p + u * d)
    on_ray = dist <= c + 1e-15
    out = inside | apex | on_ray
    return bool(out[0]) if scalar else out


def stolz_sample(r: float, n_rho: int = 160, n_eta: int = 160) -> np.ndarray:
    """Deterministic lattice over the hull minus the core disk."""
    if not 0.0 < r < 1.0:
        raise ParameterError("Stolz parameter r must lie in (0, 1)")
    eta_max = math.acos(0.25) + 1e-3  # tangent-line angle plus margin
    rho = np.linspace(r / 4.0 * (1.0 + 1e-9), r, n_rho)
    eta = np.linspace(-eta_max, eta_max, n_eta)
    pts = (rho[:, None] * np.exp(1j * eta[None, :])).ravel()
    return pts[stolz_contains(r, pts) & (np.abs(pts) > r / 4.0)]


# ---------------------------------------------------------------------------
# Euclidean distance to the image boundary


@dataclass(frozen=True)
class DistanceEstimate:
    value: float | np.ndarray
    drift: float | np.ndarray
    converged: bool


# ring-image samples of a boundary distance
_RING_N = 4096

# The pruned search cuts points into blocks of consecutive samples: _BLOCK
# per block of a ring image, whose blocks face single targets, and
# _DIAMETER_BLOCK per block of a diameter's points, whose blocks face blocks
# (8 x 8 distances a pair; 32 x 32 kept too many pairs on the box grids).  A
# step of the search holds at most _CHUNK distances, and a block is skipped
# only when its bound misses by more than _GUARD relative to the sizes
# compared (rounding moves each of them by a few ulps).
_BLOCK = 32
_DIAMETER_BLOCK = 8
_CHUNK = 1 << 16
_GUARD = 1e-12


def _gaps(a, b) -> np.ndarray:
    """|a - b| for a bound of the pruned search.  inf - inf gives NaN there,
    which only keeps a block, so it is not warned about."""
    with np.errstate(invalid="ignore"):
        return np.abs(a - b)


def _blocks(pts: np.ndarray, size: int):
    """Blocks of ``size`` consecutive points, as the columns of a
    (size, blocks) array, the last one padded with copies of the last point
    (a copy moves no min or max); with each block's centre sample c and
    radius max |p - c|.  A non-finite point makes its block's radius inf or
    NaN, so no bound skips that block."""
    idx = np.minimum(np.arange(-(-pts.size // size) * size), pts.size - 1)
    blocks = pts[idx.reshape(-1, size).T]
    centre = blocks[size // 2]
    return blocks, centre, _gaps(blocks, centre).max(axis=0)


def _pruned_extreme(rows, cols, largest: bool):
    """The exact extremes of |p - q| over p in the row blocks and q in the
    column blocks (both from ``_blocks``): the minimum per row when the rows
    are single points, or with ``largest`` the maximum over all pairs, rows
    and columns being the same blocks.

    A block pair is skipped only when the triangle inequality shows that
    none of its distances can be the extreme: for a minimum, when
    |w - c| - rho exceeds the row's distance to its nearest centre; for the
    maximum, when |c1 - c2| + rho1 + rho2 falls short of the largest
    centre-to-centre distance.  Both references are distances the search
    itself evaluates, a NaN comparison skips nothing, and the kept pairs are
    evaluated as ``np.abs(p - q)``, so the result is the full distance
    matrix's min or max bit for bit.  Rows go in steps of _CHUNK centre
    distances and kept pairs in steps of _CHUNK point distances, so scratch
    memory does not grow with the row count.
    """
    rpts, rcen, rrad = rows
    cpts, ccen, crad = cols
    step = max(1, _CHUNK // len(ccen))
    pair_step = max(1, _CHUNK // (len(rpts) * len(cpts)))
    if largest:
        bound = np.max([_gaps(rcen[i:i + step, None], ccen).max()
                        for i in range(0, len(rcen), step)])
    out = []
    for i0 in range(0, len(rcen), step):
        dc = _gaps(rcen[i0:i0 + step, None], ccen)
        if largest:
            skip = (dc + rrad[i0:i0 + step, None] + crad) * (1.0 + _GUARD) < bound
            # each unordered pair once: |p - q| and |q - p| are the same bits
            skip |= np.arange(len(ccen)) < np.arange(i0, i0 + len(dc))[:, None]
        else:
            skip = dc > (dc.min(axis=1, keepdims=True) + crad) * (1.0 + _GUARD)
        i, j = np.nonzero(~skip)
        vals = np.empty(len(i))
        for k in range(0, len(i), pair_step):
            pair = slice(k, k + pair_step)
            d = np.abs(np.take(rpts, i0 + i[pair], axis=1)[:, None]
                       - np.take(cpts, j[pair], axis=1)[None, :])
            vals[k:k + pair_step] = d.max(axis=(0, 1)) if largest else d.min(axis=(0, 1))
        if largest:
            out.append(vals.max(initial=0.0))
        else:
            # every row keeps its nearest centre's block, so each row has a segment
            out.append(np.minimum.reduceat(vals, np.flatnonzero(np.diff(i, prepend=-1))))
    if largest:
        return np.max(out)
    return np.concatenate(out) if out else np.empty(0)


def boundary_distance(m: HarmonicMap, w, eps: float = 1e-4,
                      n: int = 2 * _RING_N) -> DistanceEstimate:
    """Distance from w (a point or an array of any shape) to the image of
    the circle of radius 1 - eps, estimated as a min over n uniform ring
    samples; converges to the distance to the image boundary as eps -> 0,
    n -> infinity for maps extending continuously to the closed disk.

    The ring is evaluated once.  Its even-indexed half is the n/2-sample
    ring bit for bit (halving a float step is exact), so the pruned search
    takes the minimum over each half: ``value`` is the smaller of the two
    and ``drift`` the even half's excess over it.  Both take the shape of
    w, and the estimate is converged when every drift is at most 5 % of its
    value.
    """
    if n < 128 or n % 2:
        raise ParameterError("boundary distance needs an even ring of at least 128 samples")
    if not EPS_MIN <= eps < 1.0:
        raise ParameterError(f"ring offset eps must lie in [{EPS_MIN:g}, 1)")
    ws = np.asarray(w, dtype=complex)
    img = m.value((1.0 - eps) * circle_nodes(n))
    targets = _blocks(ws.ravel(), 1)
    halves = np.stack([_pruned_extreme(targets, _blocks(img[k::2], _BLOCK), False)
                       for k in (0, 1)], axis=1)
    value = np.min(halves, axis=1)
    drift = halves[:, 0] - value
    converged = bool(np.all(drift <= 0.05 * np.maximum(value, 1e-300)))
    return DistanceEstimate(value.reshape(ws.shape)[()], drift.reshape(ws.shape)[()], converged)


# ---------------------------------------------------------------------------
# diameters


def set_diameter(points: np.ndarray) -> float:
    """Max pairwise distance, by the pruned search over blocks of
    consecutive points."""
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) < 2:
        return 0.0
    blocks = _blocks(pts, _DIAMETER_BLOCK)
    return float(_pruned_extreme(blocks, blocks, True))
