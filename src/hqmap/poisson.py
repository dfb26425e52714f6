"""Boundary sampling of the derivative norm, the Poisson-kernel functional
and the circle-image arc/diameter ratio bracket.

Boundary values of the derivative norm are approximated on the ring of
radius 1 - eps (their existence at the circle is part of the hypothesis
chain being probed), while the Poisson kernel itself is evaluated at the
unit-circle nodes e^{i t_k}, so the functional of the identity map is the
plain Poisson integral and equals one at every interior point.  Circle
averages use the trapezoidal rule, which is spectrally accurate for these
periodic integrands.  A map's sup trace and its per-point CSV come from one
scan per ring level; a scan streams its ring and holds no array of ring
size (see ``poisson_scan``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .maps import EPS_MIN, HarmonicMap, ParameterError, check_sense_preserving, finite_dnorm
from .quadrature import adaptive_quads


@dataclass(eq=False)
class BoundaryProfile:
    """Derivative norms dnorm((1-eps) e^{i t_k}) at the n uniform angles
    t_k = 2 pi k / n."""

    eps: float
    n: int
    nodes: np.ndarray     # geometry.circle_nodes(n), read-only, shared by both rings and the kernel
    values: np.ndarray
    drift: float          # relative change when resampled at eps/2
    converged: bool


# nodes per ring block: 2^15 complex nodes are 512 KB
_RING_BLOCK = 1 << 15

# the largest ring: 2^22 complex nodes are 64 MiB, asked for by eps down to
# 8 pi / 2^22, about 6e-6
_RING_CAP = 1 << 22

# a profile has converged when its drift is at most this
_DRIFT_TOL = 0.1

# scan grid: radii reaching |zeta| = 1 - 2 eps, and angles per nonzero radius
_N_RAD = 5
_N_ANG = 8


def _check_eps(eps) -> None:
    # written as "not inside", so a NaN eps fails it too
    if not EPS_MIN <= eps < 0.5:
        raise ParameterError(f"ring offset eps must lie in [{EPS_MIN:g}, 0.5)")


def _ring_pass(m: HarmonicMap, eps: float, nodes: np.ndarray):
    """One pass over the ring of radius 1 - eps at the unit-circle nodes,
    in column blocks of 2^15 nodes (512 KB of complex points) of the nodes
    reshaped to (_N_ANG, n / _N_ANG).  For each it yields ``(cols, block,
    values, drift)``: the column slice, the node block, dnorm((1 - eps)
    block) and the running maximum, over the blocks so far, of the relative
    change of dnorm at 1 - eps/2.  Every value is pointwise, so the blocks
    do not move a bit, and the last drift is the whole ring's.  A ring that
    fails the sense check at several points names the first of the first
    block to fail.
    """
    grid = nodes.reshape(_N_ANG, -1)
    step = _RING_BLOCK // _N_ANG
    drift = 0.0
    for lo in range(0, grid.shape[1], step):
        cols = slice(lo, lo + step)
        block = grid[:, cols]
        values, rel = _ring_block(m, eps, block)
        drift = float(np.maximum(drift, rel))  # np.maximum keeps a NaN
        yield cols, block, values, drift


def _ring_block(m: HarmonicMap, eps: float, block: np.ndarray):
    """dnorm((1 - eps) block) and its largest relative change at 1 - eps/2;
    the half-offset ring's temporaries are freed on return, before the
    pass's consumer folds the block."""
    values = finite_dnorm(m, (1.0 - eps) * block)
    half = finite_dnorm(m, (1.0 - eps / 2.0) * block)
    return values, np.max(np.abs(half - values) / np.maximum(values, 1e-300))


def boundary_profile(m: HarmonicMap, eps: float = 1e-3, n: int = 2048) -> BoundaryProfile:
    """Sample the derivative norm on the ring of radius 1 - eps.

    n must be a power of two from 256 to 2^22; the profile is compared with a
    half-offset ring (eps/2) to flag convergence of the ring surrogate.
    The values are those of ``_ring_pass``, which ``poisson_scan`` folds as
    it goes, collected into one n-entry array; the nodes are the shared,
    read-only ``geometry.circle_nodes(n)``.
    """
    if not 256 <= n <= _RING_CAP or n & (n - 1):
        raise ParameterError("profile size must be a power of two from 256 to 2^22")
    _check_eps(eps)
    nodes = geometry.circle_nodes(n)
    values = np.empty((_N_ANG, n // _N_ANG))
    drift = 0.0
    for cols, _, vals, drift in _ring_pass(m, eps, nodes):
        values[:, cols] = vals
    return BoundaryProfile(eps, n, nodes, values.reshape(n), drift, drift <= _DRIFT_TOL)


def poisson_functional(m: HarmonicMap, zeta: complex, profile: BoundaryProfile) -> float:
    """(1/2 pi) integral of [dnorm(xi)/dnorm(zeta)] (1-|zeta|^2)/|xi - zeta|^2
    over the circle, with dnorm ring-sampled per the profile.

    Requires |zeta| <= 1 - 2 eps so the kernel stays separated from the
    sampling ring.
    """
    zeta = complex(zeta)
    if abs(zeta) > 1.0 - 2.0 * profile.eps:
        raise ParameterError("kernel point too close to the sampling ring")
    nodes = profile.nodes
    kernel = _kernel(nodes.real, (nodes.imag - zeta.imag) ** 2, zeta)
    return float(np.mean(profile.values * kernel) / finite_dnorm(m, zeta))


def _kernel(x: np.ndarray, dy2: np.ndarray, zeta: complex) -> np.ndarray:
    """Poisson kernel (1-|zeta|^2)/|xi - zeta|^2 at the nodes xi = x + i y,
    given x and dy2 = (y - Im zeta)^2: |xi - zeta|^2 is the sum of the two
    squared differences, with no complex modulus taken only to be squared."""
    return (1.0 - abs(zeta) ** 2) / ((x - zeta.real) ** 2 + dy2)


@dataclass(frozen=True)
class PoissonScan:
    records: tuple        # (zeta, value, eps, n) per grid point
    drift: float          # the ring profile's BoundaryProfile.drift
    converged: bool       # and its convergence flag


@dataclass(frozen=True)
class PoissonTrace:
    sup: float
    trace: tuple          # sup per ring level
    eps_levels: tuple
    stable: bool
    scans: tuple          # PoissonScan per ring level


def _profile_size(eps: float) -> int:
    """Ring resolution fine enough for peaked integrands: at least ~8 pi/eps.

    eps is checked first, and a ring above _RING_CAP nodes is an input error
    raised before any ring is built."""
    _check_eps(eps)
    need = max(2048, int(8.0 * math.pi / eps))
    bits = math.ceil(math.log2(need))
    if 1 << bits > _RING_CAP:
        cap = _RING_CAP.bit_length() - 1
        raise ParameterError(f"ring offset eps = {eps:g} needs a 2^{bits}-node ring, above "
                             f"the 2^{cap}-node cap: eps must be at least "
                             f"{8.0 * math.pi / _RING_CAP:.3g}")
    return 1 << bits


def poisson_scan(m: HarmonicMap, eps: float) -> PoissonScan:
    """Functional values over the interior grid of _N_RAD radii reaching
    |zeta| = 1 - 2 eps and n_ang = _N_ANG angles (the origin once); the
    records are (zeta, value, eps, n) for reporting.

    The kernel is built once per radius r, at zeta = r.  n_ang = 8 divides
    the profile size n (a power of two, at least 2048), so rotating zeta by
    2 pi k / n_ang is a shift of the nodes by k s, s = n / n_ang: the kernel
    at angle k is K_k[i] = K_0[i - k s].  With V = values and K = K_0 both
    reshaped to (n_ang, s), the n_ang x n_ang product M = V K^T gives every
    numerator at once, S_k = sum_b M[b, (b - k) mod n_ang], and the
    functional is S_k / n / dnorm(zeta_k), with dnorm(zeta_k) evaluated at
    zeta_k itself.

    The scan is one streamed pass over its ring (``_ring_pass``, shared
    with ``boundary_profile``): each (n_ang, 2^15 / n_ang) column block of
    values is folded into all five radii's products V K^T while it is in
    cache, so no array of n entries is held.  The kernel at zeta = r is
    (1 - r^2) / ((x - r)^2 + y^2) at the nodes x + i y, with y^2 taken once
    per block for all radii.  A scan evaluates 5 n kernel points, not one
    n-point kernel for each of its 33 grid points, and its 33 grid norms in
    one ``finite_dnorm`` call, in record order, so the first bad point is
    the one named.

    Values agree with ``poisson_functional`` at the same zeta to about
    1e-12 relative, not bit for bit: zeta_k = r e^{i a_k} is rounded, while
    the shifted kernel is exact for the rotated point, and the kernel
    amplifies a rounding error delta in zeta by about 2 delta / |xi - zeta|,
    which is ~1e-12 at eps = 1e-4.  Neither value is the more accurate.
    """
    n = _profile_size(eps)
    radii = np.linspace(0.0, (1.0 - 2.0 * eps) * (1.0 - 1e-9), _N_RAD)
    prods = np.zeros((_N_RAD, _N_ANG, _N_ANG))
    drift = 0.0
    for _, block, values, drift in _ring_pass(m, eps, geometry.circle_nodes(n)):
        x, y2 = block.real, block.imag ** 2
        for prod, r in zip(prods, radii):
            prod += values @ _kernel(x, y2, complex(r)).T
    b = np.arange(_N_ANG)
    shift = (b[None, :] - b[:, None]) % _N_ANG      # row k: (b - k) mod n_ang
    sums = prods[:, b, shift].sum(axis=2)
    angles = np.linspace(0.0, 2.0 * math.pi, _N_ANG, endpoint=False)
    grid = [(i, k, complex(r * np.exp(1j * a))) for i, r in enumerate(radii)
            for k, a in enumerate(angles if r > 0.0 else angles[:1])]
    norms = finite_dnorm(m, np.array([zeta for _, _, zeta in grid]))
    out = tuple((zeta, float(sums[i, k] / n / norm), eps, n)
                for (i, k, zeta), norm in zip(grid, norms))
    return PoissonScan(out, drift, drift <= _DRIFT_TOL)


def poisson_sup(m: HarmonicMap, eps_levels=(1e-2, 1e-3, 1e-4)) -> PoissonTrace:
    """Supremum of the functional over an interior grid, traced across a
    ladder of ring offsets; the grid extends to |zeta| = 1 - 2 eps as the
    ring approaches the circle.  Trace stability is the boundedness proxy,
    and it also needs every level's ring profile to have converged.
    Each level is scanned once, and the trace keeps the scans: the records
    that ``poisson_csv`` writes out and each profile's drift and flag.
    """
    scans = tuple(poisson_scan(m, eps) for eps in eps_levels)
    trace = [max(v for _, v, _, _ in sc.records) for sc in scans]
    drift = abs(trace[-1] - trace[-2]) / trace[-2] if len(trace) > 1 else 0.0
    stable = drift < 0.05 and all(sc.converged for sc in scans)
    return PoissonTrace(trace[-1], tuple(trace), tuple(eps_levels), stable, scans)


def poisson_csv(pt: PoissonTrace, fileobj) -> None:
    """Per-point CSV of the functional across the ring ladder, written from
    the scans the trace was computed from."""
    import csv

    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["zeta_re", "zeta_im", "functional", "eps", "n"])
    for sc in pt.scans:
        for zeta, val, e, n in sc.records:
            writer.writerow([repr(float(zeta.real)), repr(float(zeta.imag)),
                             repr(float(val)), repr(float(e)), int(n)])


def poisson_trace_json(m: HarmonicMap, pt: PoissonTrace) -> str:
    return json.dumps(
        {
            "label": m.label,
            "sup": float(pt.sup),
            "trace": [float(t) for t in pt.trace],
            "eps": [float(e) for e in pt.eps_levels],
            "stable": bool(pt.stable),
            "profile_drift": [float(sc.drift) for sc in pt.scans],
            "profile_converged": [bool(sc.converged) for sc in pt.scans],
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# circle-image arc length versus connecting-diameter bracket


@dataclass(frozen=True)
class RatioBracket:
    lower: float          # arc length / upper distance bound
    upper: float          # arc length / lower distance bound (the chord)
    arc_length: float
    chord: float
    path_diam: float


def pommerenke_bracket(m: HarmonicMap, r: float, theta1: float,
                       theta2: float) -> RatioBracket:
    """Bracket the ratio of the image arc length between w1 = f(r e^{i t1})
    and w2 = f(r e^{i t2}) to the connecting-arc diameter distance.

    The smaller parameter arc resolves the branch ambiguity.  The distance
    (infimum over connecting arcs of their diameter) is bracketed below by
    the chord |w1 - w2| and above by the diameter of the image of the
    straight segment between the preimages, which lies in the image of the
    closed disk of radius r by convexity of the preimage segment.
    """
    if not 0.0 < r < 1.0:
        raise ParameterError("bracket needs r in (0, 1)")
    z1 = r * np.exp(1j * theta1)
    z2 = r * np.exp(1j * theta2)
    w1 = complex(m.value(z1))
    w2 = complex(m.value(z2))
    dtheta = float(np.mod(theta2 - theta1 + math.pi, 2.0 * math.pi) - math.pi)

    def speed(t):
        z = r * np.exp(1j * (theta1 + t))
        w = check_sense_preserving(m, z)
        return np.abs(1j * z * w.fz - 1j * np.conjugate(z) * w.fzb)

    if dtheta == 0.0:
        return RatioBracket(0.0, 0.0, 0.0, 0.0, 0.0)
    lo, hi = sorted((0.0, dtheta))
    arc = adaptive_quads(speed, [[lo, hi]])[0].value
    chord = abs(w1 - w2)
    ts = np.linspace(0.0, 1.0, 512)
    seg = z1 + ts * (z2 - z1)
    path_diam = geometry.set_diameter(m.value(seg))
    if chord == 0.0:
        return RatioBracket(0.0, 0.0, arc, 0.0, path_diam)
    return RatioBracket(arc / path_diam, arc / chord, arc, chord, path_diam)
