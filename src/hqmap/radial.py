"""Radial image length, the logarithmic growth gauge, running maxima along
rays, and the growth-ratio / classical-bound harnesses.

The length of the image of the segment [0, r e^{i theta}] is the integral
over rho of |f_z(rho e^{i theta}) + e^{-2 i theta} f_zb(rho e^{i theta})|.
For the catalog maps this integrand grows like (1 - rho)^{-3} near the
circle, so the quadrature pre-splits geometrically toward the endpoint
whenever r > 0.9.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .maps import R_CAP, Config, DiskDomainError, HarmonicMap, ParameterError
from .quadrature import QuadResult, adaptive_quad, endpoint_cluster, golden_max


def growth_gauge(r) -> float:
    """sqrt(log(1/(1-r))), the gauge the radial-length growth is measured
    against.  Domain [0, 1)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise DiskDomainError("growth gauge is defined for 0 <= r < 1")
    out = np.sqrt(np.log1p(r / (1.0 - r)))
    return float(out) if out.ndim == 0 else out


def _ray_speed(m: HarmonicMap, theta: float):
    """Vectorized integrand |h'(rho e^{i t}) + e^{-2 i t} conj(g'(rho e^{i t}))|."""
    e = np.exp(1j * theta)
    e2 = np.exp(-2j * theta)

    def speed(rho):
        z = np.asarray(rho, dtype=float) * e
        return np.abs(m.h.d1(z) + e2 * np.conjugate(m.g.d1(z)))

    return speed


def radial_length(m: HarmonicMap, theta: float, r: float,
                  abs_tol: float = 1e-12, rel_tol: float = 1e-9,
                  max_intervals: int = 4000) -> QuadResult:
    """Arclength of the image of the radius [0, r e^{i theta}].

    Returns the quadrature result (value, error estimate, convergence flag,
    interval count); on budget exhaustion the best value carries
    ``converged=False`` instead of raising.
    """
    if not 0.0 < r < 1.0:
        raise DiskDomainError("radial length needs r in (0, 1)")
    presplit = endpoint_cluster(0.0, r) if r > 0.9 else None
    return adaptive_quad(_ray_speed(m, theta), 0.0, r, abs_tol=abs_tol,
                         rel_tol=rel_tol, max_intervals=max_intervals,
                         presplit=presplit)


def _polished_max(m: HarmonicMap, e: complex, rho) -> float:
    """Maximum of |f(rho e)| over the grid rho, with every interior local
    grid maximum polished by golden-section search."""
    vals = np.abs(m.value(rho * e))
    best = float(vals.max())

    def f(x):
        return float(np.abs(m.value(x * e)))

    interior = np.nonzero(
        (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    )[0] + 1
    for i in interior:
        _, v = golden_max(f, rho[i - 1], rho[i + 1])
        best = max(best, v)
    return best


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
                   rel_tol: float = 1e-10) -> RadialProfile:
    """Build the radial profile incrementally over an increasing r grid.

    Lengths accumulate segment by segment; the running maximum refines local
    maxima inside each new segment, so both are consistent across the grid.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    # written as "not (good)" so that an empty, NaN or infinite grid fails too
    if not (r_grid.ndim == 1 and r_grid.size and np.all(np.isfinite(r_grid))
            and np.all(np.diff(r_grid) > 0) and r_grid[0] > 0 and r_grid[-1] < 1):
        raise ParameterError("radial profile needs a non-empty, finite, strictly "
                             "increasing grid in (0, 1)")
    if not math.isfinite(theta):
        raise ParameterError(f"radial profile needs a finite angle, got theta = {theta!r}")
    speed = _ray_speed(m, theta)
    e = np.exp(1j * theta)
    ell = np.empty_like(r_grid)
    err = np.empty_like(r_grid)
    m_f = np.empty_like(r_grid)
    total = 0.0
    total_err = 0.0
    running = abs(complex(m.value(0.0 + 0.0j)))
    lo = 0.0
    ok = True
    for k, hi in enumerate(r_grid):
        presplit = endpoint_cluster(lo, hi) if hi > 0.9 else None
        q = adaptive_quad(speed, lo, hi, abs_tol=0.0, rel_tol=rel_tol,
                          presplit=presplit)
        ok = ok and q.converged
        total += q.value
        total_err += q.error
        ell[k] = total
        err[k] = total_err
        running = max(running, _polished_max(m, e, np.linspace(lo, hi, 24)))
        m_f[k] = running
        lo = hi
    abs_f = np.abs(m.value(r_grid * e))
    psi = growth_gauge(r_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(psi * m_f > 0, ell / (m_f * psi), np.inf)
    return RadialProfile(theta, r_grid, ell, abs_f, m_f, psi, ratio, err, ok)


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
    config = config or Config()
    r_grid = 1.0 - np.geomspace(0.49, 1.0 - R_CAP, 40)
    profile = radial_profile(m, theta, r_grid, rel_tol=config.tol / 4)
    return GrowthResult(profile, float(np.max(profile.ratio)), float(np.median(profile.ratio)))


@dataclass(frozen=True)
class ClassicalBoundCheck:
    """Radial length against the sharp starlike / convex bounds."""

    ratio: float                # ell / |f(r e^{i theta})|
    starlike_bound: float       # 1 + r
    convex_bound: float         # arcsin(r) / r
    converged: bool             # the radial-length quadrature converged


def classical_bounds(m: HarmonicMap, theta: float, r: float) -> ClassicalBoundCheck:
    """The ratio ell / |f| and the sharp bounds it meets: 1 + r for starlike
    maps and arcsin(r)/r for convex maps.  Which bound applies, and the pass
    rule, are the caller's (the radial-growth suite reads the corpus flags)."""
    q = radial_length(m, theta, r, rel_tol=1e-10)
    fval = abs(complex(m.value(r * np.exp(1j * theta))))
    return ClassicalBoundCheck(
        ratio=q.value / fval,
        starlike_bound=1.0 + r,
        convex_bound=math.asin(r) / r,
        converged=q.converged,
    )
