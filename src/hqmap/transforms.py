"""Map constructions: renormalized disk-automorphism composition, the
affine family, quasiconformal shears, rotations, and the pre-Schwarzian
supremum used to gate the small-pre-Schwarzian class.

Transforms are lazy compositions; re-expanding a composed power series would
lose accuracy near the boundary where all the interesting suprema live, so
evaluation and both derivatives go through the exact chain rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import disk_grid
from .maps import (
    AnalyticPart,
    CatalogPart,
    ComboPart,
    DegenerateMapError,
    HarmonicMap,
    MobiusPart,
    ParameterError,
    SenseReversalError,
    SeriesPart,
    check_sense_preserving,
)

_TOL = 1e-12


def koebe_transform(m: HarmonicMap, zeta: complex) -> HarmonicMap:
    """Precompose with the automorphism sending 0 to zeta, recenter, and
    rescale by h'(zeta)(1 - |zeta|^2).

    The result stays normalized; the dilatation modulus (hence the
    quasiconformality constant) is unchanged because the automorphism is
    conformal.
    """
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise ParameterError("transform center must lie in the open disk")
    hp = complex(m.h.d1(zeta))
    if hp == 0:
        raise DegenerateMapError(f"{m.label}: h'({zeta}) = 0, normalization is singular")
    c = hp * (1.0 - abs(zeta) ** 2)
    h_new = MobiusPart(m.h, zeta, c)
    g_new = MobiusPart(m.g, zeta, np.conjugate(c))
    flags = {"SH"} if "SH" in m.flags else set()
    if "SH" in m.flags and abs(complex(g_new.d1(0.0 + 0.0j))) <= _TOL:
        flags.add("SH0")
    for tag in ("analytic", "bounded"):
        if tag in m.flags:
            flags.add(tag)
    return HarmonicMap(h_new, g_new, label=f"koebe[{zeta:g}]({m.label})",
                       flags=frozenset(flags))


def affine(m: HarmonicMap, mu: complex) -> HarmonicMap:
    """Affine map with analytic parts (h + mu g, g + mu h).

    Requires |mu| < 1 and verifies sense preservation on a 16 x 24 disk
    grid; a non-positive Jacobian raises with the witness point.
    """
    mu = complex(mu)
    if abs(mu) >= 1.0:
        raise ParameterError("affine parameter must satisfy |mu| < 1")
    h_new = ComboPart(((1.0 + 0.0j, m.h), (mu, m.g)))
    g_new = ComboPart(((1.0 + 0.0j, m.g), (mu, m.h)))
    flags = set()
    zero = 0.0 + 0.0j
    if ("SH" in m.flags and abs(complex(h_new.value(zero))) <= _TOL
            and abs(complex(g_new.value(zero))) <= _TOL
            and abs(complex(h_new.d1(zero)) - 1.0) <= _TOL):
        flags.add("SH")
        if abs(complex(g_new.d1(zero))) <= _TOL:
            flags.add("SH0")
    if "bounded" in m.flags:
        flags.add("bounded")
    if "analytic" in m.flags and mu == 0:
        flags.add("analytic")
    out = HarmonicMap(h_new, g_new, label=f"affine[{mu:g}]({m.label})",
                      flags=frozenset(flags))
    check_sense_preserving(out, disk_grid(16, 24))
    return out


def shear_qc(h: AnalyticPart, big_k: float) -> HarmonicMap:
    """Shear f = h + mu conj(h) with mu = (K-1)/(K+1).

    The dilatation modulus is the constant mu, so the quasiconformality
    constant equals K exactly at every point.  Univalence of the analytic
    part is trusted catalog metadata, not verified.
    """
    if big_k < 1.0:
        raise ParameterError("shear parameter K must be >= 1")
    mu = (big_k - 1.0) / (big_k + 1.0)
    base = h.name if isinstance(h, CatalogPart) else "series"
    g = ComboPart(((mu + 0.0j, h),)) if mu != 0 else SeriesPart((0.0j,))
    flags = set()
    zero = 0.0 + 0.0j
    if abs(complex(h.value(zero))) <= _TOL and abs(complex(h.d1(zero)) - 1.0) <= _TOL:
        flags.add("SH")
        if mu == 0:
            flags.update({"SH0", "analytic"})
    return HarmonicMap(h, g, label=f"shear[{big_k:g}]({base})", flags=frozenset(flags))


def _rotate_part(p: AnalyticPart, sigma: complex) -> AnalyticPart:
    """conj(sigma) * p(sigma z), exactly, staying within the part algebra."""
    if isinstance(p, CatalogPart):
        return CatalogPart(p.name, rotation=complex(p.rotation) * sigma)
    if isinstance(p, SeriesPart):
        return SeriesPart(tuple(c * sigma ** (k - 1) for k, c in enumerate(p.coeffs)))
    if isinstance(p, ComboPart):
        return ComboPart(tuple((w, _rotate_part(q, sigma)) for w, q in p.terms),
                         shift=np.conjugate(sigma) * p.shift)
    raise ParameterError(f"rotation of {type(p).__name__} parts is not supported")


def rotate(m: HarmonicMap, sigma: complex) -> HarmonicMap:
    """Rotation conjugation conj(sigma) f(sigma z), preserving normalization
    and every geometric flag."""
    sigma = complex(sigma)
    if abs(abs(sigma) - 1.0) > 1e-12:
        raise ParameterError("rotation factor must have modulus one")
    h_rot = _rotate_part(m.h, sigma)
    if isinstance(m.g, SeriesPart):
        g_rot = SeriesPart(tuple(c * sigma ** (k + 1) for k, c in enumerate(m.g.coeffs)))
    else:
        g_rot = ComboPart(((sigma * sigma, _rotate_part(m.g, sigma)),))
    return HarmonicMap(h_rot, g_rot, label=f"rot[{sigma:g}]({m.label})", flags=m.flags)


# ---------------------------------------------------------------------------
# pre-Schwarzian supremum


def preschwarzian(m: HarmonicMap, z):
    """|(1 - |z|^2) h''(z)/h'(z) - 2 conj(z)| at the given points."""
    z = np.asarray(z, dtype=complex)
    hp = m.h.d1(z)
    if np.any(hp == 0):
        bad = z.ravel()[int(np.argmin(np.abs(hp).ravel()))]
        raise SenseReversalError(f"{m.label}: h' vanishes on the grid", complex(bad))
    return np.abs((1.0 - np.abs(z) ** 2) * m.h.d2(z) / hp - 2.0 * np.conjugate(z))


@dataclass(frozen=True)
class SupLimit:
    value: float       # extrapolated boundary limit
    circle_sups: tuple
    radii: tuple


def preschwarzian_sup(m: HarmonicMap) -> SupLimit:
    """Boundary-limit estimate of sup over the disk of the pre-Schwarzian
    expression.

    Circle suprema over 512 angles are computed on the ladder of radii
    0.99, 0.993, 0.996 and 0.999 (the cap) and extrapolated linearly in
    (1 - r); the capped grid alone would understate limits attained only at
    the circle (the sup for the identity is 2|z|, for instance).
    """
    radii = (0.99, 0.993, 0.996, 0.999)
    angles = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    sups = []
    for r in radii:
        sups.append(float(np.max(preschwarzian(m, r * np.exp(1j * angles)))))
    r1, r2 = radii[-2], radii[-1]
    s1, s2 = sups[-2], sups[-1]
    value = s2 + (s2 - s1) * (1.0 - r2) / (r2 - r1)
    return SupLimit(value, tuple(sups), tuple(radii))
