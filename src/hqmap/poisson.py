"""Boundary sampling of the derivative norm, the Poisson-kernel functional
and the circle-image arc/diameter ratio bracket.

Boundary values of the derivative norm are approximated on the ring of
radius 1 - eps (their existence at the circle is part of the hypothesis
chain being probed), while the Poisson kernel itself is evaluated at the
unit-circle nodes e^{i t_k}, so the functional of the identity map is the
plain Poisson integral and equals one at every interior point.  Circle
averages use the trapezoidal rule, which is spectrally accurate for these
periodic integrands.  A map's sup trace and its per-point CSV come from one
scan per ring level; a scan streams its ring for all maps at once and
holds no array of ring size (see ``poisson_scan``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .johndisk import _trace_stable
from .maps import HarmonicMap, ParameterError, check_eps, check_sense_preserving, finite_dnorm
from .quadrature import adaptive_quads


# nodes per ring block: 2^15 complex nodes are 512 KB
_RING_BLOCK = 1 << 15

# the largest ring: 2^22 complex nodes are 64 MiB, asked for by eps down to
# 8 pi / 2^22, about 6e-6
_RING_CAP = 1 << 22

# a ring has converged when its drift is at most this
_DRIFT_TOL = 0.1

# scan grid: radii reaching |zeta| = 1 - 2 eps, and angles per nonzero radius
_N_RAD = 5
_N_ANG = 8


def _ring_blocks(n: int):
    """The n ring nodes as (_N_ANG, n / _N_ANG), in column blocks of
    _RING_BLOCK nodes, each built as a pass reaches it and then dropped."""
    return geometry.circle_node_blocks(n, _N_ANG, _RING_BLOCK // _N_ANG)


def _ring_block(m: HarmonicMap, eps: float, block: np.ndarray):
    """dnorm((1 - eps) block) and its largest relative change at 1 - eps/2,
    whose running maximum over a pass is the ring's drift; the half-offset
    ring's temporaries are freed on return.  Every value is pointwise, so
    the blocks do not move a bit."""
    values = finite_dnorm(m, (1.0 - eps) * block)
    half = finite_dnorm(m, (1.0 - eps / 2.0) * block)
    return values, np.max(np.abs(half - values) / np.maximum(values, 1e-300))


def _kernel(x: np.ndarray, dy2: np.ndarray, zeta: complex) -> np.ndarray:
    """Poisson kernel (1-|zeta|^2)/|xi - zeta|^2 at the nodes xi = x + i y,
    given x and dy2 = (y - Im zeta)^2: |xi - zeta|^2 is the sum of the two
    squared differences, with no complex modulus taken only to be squared."""
    return (1.0 - abs(zeta) ** 2) / ((x - zeta.real) ** 2 + dy2)


@dataclass(frozen=True)
class PoissonScan:
    records: tuple        # (zeta, value, eps, n) per grid point
    drift: float          # the ring's drift, the largest of its blocks' changes
    converged: bool       # drift <= _DRIFT_TOL


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
    check_eps(eps)
    need = max(2048, int(8.0 * math.pi / eps))
    bits = math.ceil(math.log2(need))
    if 1 << bits > _RING_CAP:
        cap = _RING_CAP.bit_length() - 1
        raise ParameterError(f"ring offset eps = {eps:g} needs a 2^{bits}-node ring, above "
                             f"the 2^{cap}-node cap: eps must be at least "
                             f"{8.0 * math.pi / _RING_CAP:.3g}")
    return 1 << bits


def poisson_functional(m: HarmonicMap, zetas, eps: float):
    """(1/2 pi) integral of [dnorm(xi)/dnorm(zeta)] (1-|zeta|^2)/|xi - zeta|^2
    over the circle at every zeta of ``zetas`` (a point or an array of any
    shape, whose shape the result takes), with dnorm sampled on the ring of
    radius 1 - eps that ``poisson_scan`` reads.

    One streamed pass over ``_profile_size(eps)`` nodes folds each block
    into every zeta's kernel sum, and each zeta gets the bits of a call
    with that zeta alone.  Each denominator is dnorm at the complex scalar
    zeta (an array evaluation can move its last bit), checked after the pass.

    Requires |zeta| <= 1 - 2 eps so the kernel stays separated from the
    sampling ring.
    """
    points = np.asarray(zetas, dtype=complex)
    flat = [complex(zeta) for zeta in points.ravel()]
    n = _profile_size(eps)
    if any(abs(zeta) > 1.0 - 2.0 * eps for zeta in flat):
        raise ParameterError("kernel point too close to the sampling ring")
    totals = np.zeros(len(flat))
    for block in _ring_blocks(n):
        values, _ = _ring_block(m, eps, block)
        for j, zeta in enumerate(flat):
            totals[j] += np.sum(values * _kernel(block.real, (block.imag - zeta.imag) ** 2, zeta))
    norms = np.array([finite_dnorm(m, zeta) for zeta in flat])
    return (totals / n / norms).reshape(points.shape)[()]


def poisson_scan(maps, eps: float) -> tuple:
    """One ``PoissonScan`` per map of ``maps``: functional values over the
    interior grid of _N_RAD radii reaching |zeta| = 1 - 2 eps and n_ang =
    _N_ANG angles (the origin once); the records are (zeta, value, eps, n)
    for reporting.  At eps = 0.5 every radius is 0, and the scan is an
    input error raised before any ring block is built.

    The kernel is built once per radius r, at zeta = r.  n_ang = 8 divides
    the profile size n (a power of two, at least 2048), so rotating zeta by
    2 pi k / n_ang is a shift of the nodes by k s, s = n / n_ang: the kernel
    at angle k is K_k[i] = K_0[i - k s].  With V = values and K = K_0 both
    reshaped to (n_ang, s), the n_ang x n_ang product M = V K^T gives every
    numerator at once, S_k = sum_b M[b, (b - k) mod n_ang], and the
    functional is S_k / n / dnorm(zeta_k), with dnorm(zeta_k) evaluated at
    zeta_k itself.

    All maps share one streamed pass (``_ring_blocks``): each
    (n_ang, 2^15 / n_ang) block of nodes is built once, and every map in
    turn folds its ring values on it into its five radii's products V K^T,
    with kernels of its own, so no array of n entries is held.  A map's
    records are those of a pass over it alone, bit for bit: 5 n kernel
    points, and its 33 grid norms in one ``finite_dnorm`` call after the
    pass, in record order, so the first bad point is the one named.

    Values agree with ``poisson_functional`` at the same zeta to about
    1e-12 relative, not bit for bit: zeta_k = r e^{i a_k} is rounded, while
    the shifted kernel is exact for the rotated point, and the kernel
    amplifies a rounding error delta in zeta by about 2 delta / |xi - zeta|,
    which is ~1e-12 at eps = 1e-4.  Neither value is the more accurate.
    """
    n = _profile_size(eps)
    radii = np.linspace(0.0, (1.0 - 2.0 * eps) * (1.0 - 1e-9), _N_RAD)
    if not np.all(np.diff(radii) > 0.0):
        raise ParameterError(f"ring offset eps = {eps:g} collapses the scan grid onto "
                             f"zeta = 0: a scan needs eps below 0.5")
    prods = np.zeros((len(maps), _N_RAD, _N_ANG, _N_ANG))
    drifts = np.zeros(len(maps))
    for block in _ring_blocks(n):
        x, y2 = block.real, block.imag ** 2
        for i, m in enumerate(maps):
            values, rel = _ring_block(m, eps, block)
            drifts[i] = np.maximum(drifts[i], rel)  # np.maximum keeps a NaN
            for prod, r in zip(prods[i], radii):
                prod += values @ _kernel(x, y2, complex(r)).T
    b = np.arange(_N_ANG)
    shift = (b[None, :] - b[:, None]) % _N_ANG      # row k: (b - k) mod n_ang
    angles = np.linspace(0.0, 2.0 * math.pi, _N_ANG, endpoint=False)
    grid = [(i, k, complex(r * np.exp(1j * a))) for i, r in enumerate(radii)
            for k, a in enumerate(angles if r > 0.0 else angles[:1])]
    zetas = np.array([zeta for _, _, zeta in grid])
    scans = []
    for m, prod, drift in zip(maps, prods, drifts):
        sums = prod[:, b, shift].sum(axis=2)
        norms = finite_dnorm(m, zetas)
        records = tuple((zeta, float(sums[i, k] / n / norm), eps, n)
                        for (i, k, zeta), norm in zip(grid, norms))
        scans.append(PoissonScan(records, float(drift), bool(drift <= _DRIFT_TOL)))
    return tuple(scans)


def poisson_sup(maps, eps_levels=(1e-2, 1e-3, 1e-4)) -> tuple:
    """One ``PoissonTrace`` per map of ``maps``: the supremum of the
    functional over the scan grid, traced across a ladder of ring offsets,
    one ``poisson_scan`` pass over all the maps per level.  Trace stability
    is the boundedness proxy, and it also needs every level's ring profile
    to have converged.  Each trace keeps its map's scans, which
    ``poisson_csv`` writes out.
    """
    levels = [poisson_scan(maps, eps) for eps in eps_levels]
    traces = []
    for scans in zip(*levels):
        trace = [max(v for _, v, _, _ in sc.records) for sc in scans]
        stable = _trace_stable(trace) and all(sc.converged for sc in scans)
        traces.append(PoissonTrace(trace[-1], tuple(trace), tuple(eps_levels), stable, scans))
    return tuple(traces)


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
