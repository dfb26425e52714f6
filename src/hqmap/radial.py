"""Radial image length, the logarithmic growth gauge, running maxima along
rays, and the growth-ratio harness.

The length ell(r) of the image of the segment [0, r e^{i theta}] is the
integral over rho of |f_z(rho e^{i theta}) + e^{-2 i theta} f_zb(rho e^{i theta})|.
``radial_profile`` is its one quadrature: every radial-length number (the
``radial`` CSV and all radial-growth check lines) is ``radial_profile(...).ell``.
For the catalog maps this integrand grows like (1 - rho)^{-3} near the
circle, so the quadrature pre-splits geometrically toward the endpoint of
each segment that ends beyond 0.9.  A profile integrates all its segments
in one ``adaptive_quads`` call, evaluates f once, on the 24-point max-scan
grids of all segments, and takes every other number by array reductions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .maps import (R_CAP, Config, DiskDomainError, HarmonicMap, ParameterError,
                   check_sense_preserving)
from .quadrature import adaptive_quads, cut_list, endpoint_cluster, golden_max


def growth_gauge(r) -> float:
    """sqrt(log(1/(1-r))), the gauge the radial-length growth is measured
    against.  Domain [0, 1)."""
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r < 1.0)):  # "not (inside)", so NaN fails too
        raise DiskDomainError("growth gauge is defined for 0 <= r < 1")
    out = np.sqrt(np.log1p(r / (1.0 - r)))
    return float(out) if out.ndim == 0 else out


def _ray_speed(m: HarmonicMap, theta: float):
    """Vectorized integrand |f_z(rho e^{i t}) + e^{-2 i t} f_zb(rho e^{i t})|."""
    e = np.exp(1j * theta)
    e2 = np.exp(-2j * theta)

    def speed(rho):
        w = check_sense_preserving(m, np.asarray(rho, dtype=float) * e)
        return np.abs(w.fz + e2 * w.fzb)

    return speed


@dataclass(eq=False)
class RadialProfile:
    """Per-radius record of length, modulus, running max, gauge and ratio."""

    theta: float
    r: np.ndarray
    ell: np.ndarray
    abs_f: np.ndarray
    m_f: np.ndarray
    psi: np.ndarray
    ratio: np.ndarray
    quad_err: np.ndarray
    converged: bool

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["theta", "r", "ell", "abs_f", "m_f", "psi", "ratio", "quad_err"])
        for k in range(len(self.r)):
            writer.writerow([
                repr(float(self.theta)), repr(float(self.r[k])),
                repr(float(self.ell[k])), repr(float(self.abs_f[k])),
                repr(float(self.m_f[k])), repr(float(self.psi[k])),
                repr(float(self.ratio[k])), repr(float(self.quad_err[k])),
            ])


def radial_profile(m: HarmonicMap, theta: float, r_grid,
                   config: Config = None) -> RadialProfile:
    """Build the radial profile over an increasing r grid.

    The segments between consecutive radii (the first from 0) are each
    integrated to relative tolerance ``config.tol / 4``, all by one
    ``adaptive_quads`` call (one speed call for their first GK15 pass, one
    per round of bisections), and ``ell`` is their running sum.  ``converged`` is
    false if any segment's quadrature did not converge.  |f| is evaluated
    by one ``value`` call on a 24-point grid per segment: each row's last
    point is its radius, which gives ``abs_f``, and the running maximum
    ``m_f`` accumulates the row maxima, each interior grid maximum polished
    by golden-section search.  A NaN of |f| stays in ``m_f`` from its
    segment on.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    # written as "not (good)" so that an empty, NaN or infinite grid fails too
    if not (r_grid.ndim == 1 and r_grid.size and np.all(np.isfinite(r_grid))
            and np.all(np.diff(r_grid) > 0) and r_grid[0] > 0 and r_grid[-1] < 1):
        raise ParameterError("radial profile needs a non-empty, finite, strictly "
                             "increasing grid in (0, 1)")
    if not math.isfinite(theta):
        raise ParameterError(f"radial profile needs a finite angle, got theta = {theta!r}")
    rel_tol = (config or Config()).tol / 4
    e = np.exp(1j * theta)
    los = np.concatenate(([0.0], r_grid[:-1]))
    cuts = [cut_list(lo, hi, endpoint_cluster(lo, hi) if hi > 0.9 else None)
            for lo, hi in zip(los, r_grid)]
    quads = adaptive_quads(_ray_speed(m, theta), cuts, abs_tol=0.0, rel_tol=rel_tol)
    ell = np.cumsum([q.value for q in quads])
    err = np.cumsum([q.error for q in quads])
    grids = np.linspace(los, r_grid, 24, axis=1)
    scans = np.abs(m.value(grids * e))
    best = scans.max(axis=1)

    def f(x):
        return float(np.abs(m.value(x * e)))

    mid = scans[:, 1:-1]
    for k, j in zip(*np.nonzero((mid >= scans[:, :-2]) & (mid >= scans[:, 2:]))):
        _, v = golden_max(f, grids[k, j], grids[k, j + 2])
        best[k] = np.maximum(best[k], v)  # np.maximum keeps a NaN
    m_f = np.maximum.accumulate(best)
    abs_f = scans[:, -1]  # linspace ends each row exactly at its radius
    psi = growth_gauge(r_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(psi * m_f > 0, ell / (m_f * psi), np.inf)
    ok = all(q.converged for q in quads)
    return RadialProfile(theta, r_grid, ell, abs_f, m_f, psi, ratio, err, ok)


def _median(x) -> float:
    """``np.median`` of a 1-D array, bit for bit (NaN if any entry is NaN),
    without the ``numpy.ma`` import that ``np.median`` makes on first use."""
    s = np.sort(x)  # NaN sorts last
    h = s.size // 2
    if np.isnan(s[-1]):
        return math.nan
    return float(s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2)


@dataclass(eq=False)
class GrowthResult:
    profile: RadialProfile
    max_ratio: float
    median_ratio: float


def growth_ratio(m: HarmonicMap, theta: float, config: Config = None) -> GrowthResult:
    """Series of ell / (m_f * psi) over an r grid in (0.5, 1), with its
    maximum and median.  The boundedness verdict (the maximum stays within
    ten medians as the grid extends toward the R_CAP cap, so no monotone
    blow-up) is the ``growth_bounded`` line's rule in ``suites``.
    """
    r_grid = 1.0 - np.geomspace(0.49, 1.0 - R_CAP, 40)
    profile = radial_profile(m, theta, r_grid, config)
    return GrowthResult(profile, float(np.max(profile.ratio)), _median(profile.ratio))
