"""Hyperbolic metric, sampling regions, and boundary-distance estimation.

The inequality checks all run over deterministic discretizations of a few
disk regions: the boundary-anchored box B(z), the boundary arc I(a), a
Stolz-type convex hull and near-boundary rings.  A region sample is the
complex array of its points; membership predicates use closed regions so
that corner extremes (where suprema tend to live) are included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import R_CAP, DiskDomainError, HarmonicMap, ParameterError

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
    if np.any(np.abs(z1) >= 1.0) or np.any(np.abs(z2) >= 1.0):
        raise DiskDomainError("hyperbolic distance needs both points inside the disk")
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


def _geom_radii(r_lo: float, r_hi: float, n: int) -> np.ndarray:
    """Radii from r_lo to r_hi with 1 - r geometrically clustered toward 1."""
    if n == 1 or r_hi == r_lo:
        return np.array([r_lo])
    return 1.0 - np.geomspace(1.0 - r_lo, 1.0 - r_hi, n)


def box_contains(z: complex, zeta) -> np.ndarray:
    """Membership in B(z) = {w : |z| <= |w| < 1, |arg z - arg w| <= pi(1-|z|)}."""
    zeta = np.asarray(zeta, dtype=complex)
    rad_ok = (np.abs(zeta) >= abs(z) - 1e-12) & (np.abs(zeta) < 1.0)
    if z == 0:
        return rad_ok
    ang = np.abs(wrap_angle(np.angle(zeta) - np.angle(complex(z))))
    return rad_ok & (ang <= math.pi * (1.0 - abs(z)) + 1e-12)


def boundary_box(z: complex, n_radial: int = 24, n_angular: int = 25,
                 reach: float = 0.999) -> np.ndarray:
    """Tensor sample of the boundary-anchored box B(z), flattened radius by
    radius.

    The radial coordinate is geometrically clustered toward the circle and
    stops at ``reach``; corner extremes are included exactly.  For z = 0 the
    angular condition is vacuous and a full annulus grid is returned.
    """
    z = complex(z)
    r0 = abs(z)
    if r0 >= reach:
        raise ParameterError("box anchor must satisfy |z| < reach")
    if z == 0:
        half_width = math.pi
        base_angle = 0.0
    else:
        half_width = math.pi * (1.0 - r0)
        base_angle = float(np.angle(z))
    radii = _geom_radii(r0, reach, n_radial)
    angles = base_angle + np.linspace(-half_width, half_width, n_angular)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def boundary_arc(a: complex, n: int = 512) -> np.ndarray:
    """Unit-circle arc I(a) = {|arg z - arg a| <= pi (1 - |a|)}."""
    a = complex(a)
    if not 0.0 <= abs(a) < 1.0:
        raise DiskDomainError("arc anchor must lie in the disk")
    half_width = math.pi * (1.0 - abs(a))
    base = float(np.angle(a)) if a != 0 else 0.0
    angles = base + np.linspace(-half_width, half_width, n)
    return np.exp(1j * angles)


def disk_grid(n_radial: int = 48, n_angular: int = 64, r_cap: float = R_CAP) -> np.ndarray:
    """Polar grid over the disk, radially clustered toward the cap."""
    radii = np.minimum(1.0 - np.geomspace(1.0, 1.0 - r_cap, n_radial), r_cap)
    angles = np.linspace(0.0, TWO_PI, n_angular, endpoint=False)
    pts = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
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


def _row_reduce(rows: np.ndarray, cols: np.ndarray, reduce) -> np.ndarray:
    """reduce(|rows[i] - cols|, axis=1) for each row i of the distance
    matrix: one value per row, or one row of values.  No rows still make
    one empty block, so the result keeps the width ``reduce`` gives.

    Rows go in blocks of (1 << 18) // len(cols): a 4 MB complex block stays
    in cache, scratch memory does not grow with the row count, and each
    row is reduced over the same contiguous row whatever the block size.
    """
    chunk = max(1, (1 << 18) // max(len(cols), 1))
    return np.concatenate([reduce(np.abs(rows[i:i + chunk, None] - cols[None, :]), axis=1)
                           for i in range(0, max(len(rows), 1), chunk)])


def boundary_distance(m: HarmonicMap, w, eps: float = 1e-4,
                      n: int = 2 * _RING_N) -> DistanceEstimate:
    """Distance from w (a point or an array of any shape) to the image of
    the circle of radius 1 - eps, estimated as a min over n uniform ring
    samples; converges to the distance to the image boundary as eps -> 0,
    n -> infinity for maps extending continuously to the closed disk.

    The ring is evaluated once.  Its even-indexed half is the n/2-sample
    ring bit for bit (halving a float step is exact), so one pass over the
    ring, reordered even half first, gives ``value`` and the even half's
    min.  ``drift`` is their difference; both take the shape of w, and the
    estimate is converged when every drift is at most 5 % of its value.
    """
    if n < 128 or n % 2:
        raise ParameterError("boundary distance needs an even ring of at least 128 samples")
    if not 0.0 < eps < 1.0:
        raise ParameterError("ring offset must lie in (0, 1)")
    ws = np.asarray(w, dtype=complex)
    img = m.value((1.0 - eps) * np.exp(1j * np.linspace(0.0, TWO_PI, n, endpoint=False)))
    halves = _row_reduce(ws.ravel(), np.concatenate([img[0::2], img[1::2]]),
                         lambda d, axis: np.minimum.reduceat(d, [0, n // 2], axis=axis))
    value = np.min(halves, axis=1)
    drift = halves[:, 0] - value
    converged = bool(np.all(drift <= 0.05 * np.maximum(value, 1e-300)))
    return DistanceEstimate(value.reshape(ws.shape)[()], drift.reshape(ws.shape)[()], converged)


# ---------------------------------------------------------------------------
# diameters


def set_diameter(points: np.ndarray) -> float:
    """Max pairwise distance, in row blocks of the distance matrix."""
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) < 2:
        return 0.0
    return float(np.max(_row_reduce(pts, pts, np.max)))
