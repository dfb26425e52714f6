"""Harmonic mappings of the unit disk and their pointwise derivative data.

A planar harmonic mapping is written f = h + conj(g) with h and g analytic
on the unit disk D = {|z| < 1}.  Everything downstream (derivative norms,
Jacobian, dilatation, quasiconformality) is computed from the pair (h, g),
so analytic parts carry exact closed-form first and second derivatives;
finite differences are never used for the inequality checks.

Derivative conventions (Wirtinger): f_z = (f_x - i f_y)/2 and
f_zb = (f_x + i f_y)/2, so that f_z = h'(z) and f_zb = conj(g'(z)).
The derivative-matrix norm is |f_z| + |f_zb|, the minimum stretch is
||f_z| - |f_zb||, and the Jacobian is |f_z|^2 - |f_zb|^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# outermost radius of the interior grids and radius ladders
R_CAP = 0.999

# tolerance used when validating normalization flags at construction
_FLAG_TOL = 1e-9


class HqmapError(Exception):
    """Base class for all toolkit errors."""


class DiskDomainError(HqmapError, ValueError):
    """An argument lies on or outside the unit circle."""


class ParameterError(HqmapError, ValueError):
    """A parameter is outside its admissible range."""


class SenseReversalError(HqmapError, ValueError):
    """|f_zb| < |f_z| fails at a sampled point."""

    def __init__(self, message: str, witness: complex):
        super().__init__(f"{message} (witness z = {witness})")
        self.witness = witness


def _check_in_disk(z) -> None:
    # written as "not all inside" so that NaN points are rejected too
    if not np.all(np.abs(z) < 1.0):
        bad = np.asarray(z, dtype=complex).ravel()
        bad = bad[~(np.abs(bad) < 1.0)][0] if np.ndim(z) else complex(z)
        raise DiskDomainError(f"point {bad} is not in the open unit disk")


# ---------------------------------------------------------------------------
# analytic parts


class AnalyticPart:
    """An analytic function on the disk with exact derivatives up to order two.

    Subclasses implement ``derivative(order, z)`` for order 0, 1 and 2; it
    accepts a complex scalar or a numpy array and broadcasts elementwise.
    """

    def derivative(self, order: int, z):
        raise NotImplementedError

    def value(self, z):
        return self.derivative(0, z)

    def d1(self, z):
        return self.derivative(1, z)

    def d2(self, z):
        return self.derivative(2, z)


def _identity_forms():
    return (lambda z: z,
            lambda z: np.ones_like(np.asarray(z, dtype=complex)),
            lambda z: np.zeros_like(np.asarray(z, dtype=complex)))


def _koebe_forms():
    return (lambda z: z / (1.0 - z) ** 2,
            lambda z: (1.0 + z) / (1.0 - z) ** 3,
            lambda z: (4.0 + 2.0 * z) / (1.0 - z) ** 4)


def _halfplane_forms():
    return (lambda z: z / (1.0 - z),
            lambda z: 1.0 / (1.0 - z) ** 2,
            lambda z: 2.0 / (1.0 - z) ** 3)


_CATALOG = {
    "identity": _identity_forms(),
    "koebe": _koebe_forms(),
    "halfplane": _halfplane_forms(),
}


@dataclass(frozen=True)
class CatalogPart(AnalyticPart):
    """Closed-form catalog entry, optionally precomposed with a rotation.

    With unit-modulus ``rotation`` s the part evaluates conj(s) * base(s z),
    which keeps the value and first derivative of a normalized base at the
    origin unchanged.
    """

    name: str
    rotation: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in _CATALOG:
            raise ParameterError(f"unknown catalog entry {self.name!r}")
        if not abs(abs(complex(self.rotation)) - 1.0) <= 1e-12:
            raise ParameterError("rotation factor must have modulus one")

    def derivative(self, order: int, z):
        """Derivative ``order`` of conj(s) base(s z), i.e. s^(order-1) base^(order)(s z).
        The d1 path applies no factor: multiplying by 1 can flip the sign of
        a zero imaginary part."""
        base = _CATALOG[self.name][order]
        s = complex(self.rotation)
        if s == 1.0:
            return base(z)
        w = base(s * np.asarray(z, dtype=complex))
        return w if order == 1 else (np.conjugate(s) if order == 0 else s) * w


@dataclass(frozen=True)
class SeriesPart(AnalyticPart):
    """The polynomial sum a_k z^k (coefficients ascending from z^0)."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ParameterError("a power series needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        # k c and k (k - 1) c can overflow where c does not
        for order in (1, 2):
            for k, c in enumerate(self._coeffs[order], start=order):
                if not cmath.isfinite(c):
                    raise ParameterError(f"series coefficient {k} gives a non-finite "
                                         f"d{order} coefficient {c!r}")

    @cached_property
    def _coeffs(self):
        """Coefficients of derivative 0, 1 and 2: a_k, k a_k and k (k - 1) a_k."""
        c = self.coeffs
        return (c,
                tuple(k * a for k, a in enumerate(c))[1:] or (0.0j,),
                tuple(k * (k - 1) * a for k, a in enumerate(c))[2:] or (0.0j,))

    @cached_property
    def _is_zero(self) -> bool:
        """All coefficients are +0.0 + 0.0j (no sign bit set), so ``value``,
        ``d1`` and ``d2`` are exactly +0.0 + 0.0j at every finite point.  A
        -0.0 coefficient can carry its sign into the result, so it does not
        count as zero here."""
        return not np.asarray(self.coeffs).view(np.uint64).any()

    @staticmethod
    def _horner(coeffs, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        if z.ndim == 0:
            # numpy's scalar arithmetic rounds differently from its array
            # loops, so 0-d inputs keep the plain expression
            for c in reversed(coeffs):
                acc = acc * z + c
            return acc
        for c in reversed(coeffs):
            np.multiply(acc, z, out=acc)
            np.add(acc, c, out=acc)
        return acc

    def derivative(self, order: int, z):
        """Horner's rule on the termwise derivative coefficients.  A series
        part is the polynomial it lists, not a truncation of some other
        function, so it is evaluated exactly (up to rounding) anywhere in the
        disk, near the circle included."""
        return self._horner(self._coeffs[order], z)


@dataclass(frozen=True)
class ComboPart(AnalyticPart):
    """Linear combination sum w_i * p_i(z) of analytic parts."""

    terms: tuple  # tuple of (complex weight, AnalyticPart)

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((complex(w), p) for w, p in self.terms)
        )

    def derivative(self, order: int, z):
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for w, p in self.terms:
            acc = acc + w * p.derivative(order, z)
        return acc


# conj(+0.0 + 0.0j): what a zero anti-analytic part contributes to f and f_zb
_CONJ_ZERO = np.complex128(complex(0.0, -0.0))


# ---------------------------------------------------------------------------
# Wirtinger data


@dataclass(frozen=True)
class WirtingerPair:
    """The pair (f_z, f_zb) at a point; fields may be scalars or arrays."""

    fz: object
    fzb: object

    @property
    def dnorm(self):
        """Matrix norm of the formal derivative, |f_z| + |f_zb|."""
        return np.abs(self.fz) + np.abs(self.fzb)

    @property
    def dmin(self):
        """Minimum stretch, | |f_z| - |f_zb| |."""
        return np.abs(np.abs(self.fz) - np.abs(self.fzb))

    @property
    def jacobian(self):
        """|f_z|^2 - |f_zb|^2, as (|f_z| - |f_zb|)(|f_z| + |f_zb|): an overflow
        gives an infinity of the right sign, and two huge norms of one order
        give no inf - inf = NaN."""
        fz = np.abs(self.fz)
        fzb = np.abs(self.fzb)
        with np.errstate(over="ignore"):
            return (fz - fzb) * (fz + fzb)

    @property
    def dilatation(self):
        """|f_zb| / |f_z|, with an infinite sentinel where f_z = 0."""
        fz = np.abs(self.fz)
        fzb = np.abs(self.fzb)
        if np.ndim(fz) == 0:
            return math.inf if fz == 0 else float(fzb) / float(fz)
        out = np.full(np.shape(fz), np.inf)
        np.divide(fzb, fz, out=out, where=fz != 0)
        return out


# ---------------------------------------------------------------------------
# harmonic maps


@dataclass(frozen=True)
class HarmonicMap:
    """Harmonic mapping f = h + conj(g) with optional corpus metadata flags.

    Recognized flags: ``SH`` (normalized sense-preserving univalent),
    ``SH0`` (additionally g'(0) = 0), ``analytic`` (g identically zero),
    ``starlike``, ``convex``, ``bounded``.  The SH/SH0 normalizations are
    verified at construction; geometric flags are trusted corpus metadata.
    """

    h: AnalyticPart
    g: AnalyticPart
    label: str
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        if "SH0" in self.flags and "SH" not in self.flags:
            object.__setattr__(self, "flags", self.flags | {"SH"})
        # each test reads "not (close)", so a NaN value fails it too
        if "SH" in self.flags:
            if not abs(complex(self.h.value(0.0 + 0.0j))) <= _FLAG_TOL:
                raise ParameterError(f"{self.label}: SH flag requires h(0) = 0")
            if not abs(complex(self.g.value(0.0 + 0.0j))) <= _FLAG_TOL:
                raise ParameterError(f"{self.label}: SH flag requires g(0) = 0")
            if not abs(complex(self.h.d1(0.0 + 0.0j)) - 1.0) <= _FLAG_TOL:
                raise ParameterError(f"{self.label}: SH flag requires h'(0) = 1")
        if "SH0" in self.flags:
            if not abs(complex(self.g.d1(0.0 + 0.0j))) <= _FLAG_TOL:
                raise ParameterError(f"{self.label}: SH0 flag requires g'(0) = 0")

    # -- evaluation ---------------------------------------------------------

    # A zero g (see ``SeriesPart._is_zero``) is never evaluated: adding or
    # filling in the constant conj(+0.0 + 0.0j) gives the same bits, signed
    # zeros and scalar/array type included, without the Horner passes.

    @cached_property
    def _g_is_zero(self) -> bool:
        return isinstance(self.g, SeriesPart) and self.g._is_zero

    def value(self, z):
        """f(z) = h(z) + conj(g(z)), for |z| < 1."""
        _check_in_disk(z)
        if self._g_is_zero:
            return self.h.value(z) + _CONJ_ZERO
        return self.h.value(z) + np.conjugate(self.g.value(z))

    def wirtinger(self, z) -> WirtingerPair:
        """Exact Wirtinger pair (h'(z), conj(g'(z)))."""
        _check_in_disk(z)
        if self._g_is_zero:
            return WirtingerPair(self.h.d1(z), np.full(np.shape(z), _CONJ_ZERO)[()])
        return WirtingerPair(self.h.d1(z), np.conjugate(self.g.d1(z)))

    def is_analytic(self) -> bool:
        return "analytic" in self.flags


def check_sense_preserving(m: HarmonicMap, points) -> WirtingerPair:
    """Wirtinger data of ``m`` at the points, after checking the one
    sense-preservation rule there: |f_zb| < |f_z| and a finite norm.

    At the first point, in the array's order, where the norm is NaN or
    infinite it raises ``ParameterError``, and where |f_zb| < |f_z| fails
    ``SenseReversalError``, each naming the map and that point.  The moduli
    are compared, not the Jacobian, which underflows to 0 at f_z = 1e-170.
    """
    w = m.wirtinger(points)
    fz = np.abs(w.fz)
    fzb = np.abs(w.fzb)
    norm = np.ravel(fz + fzb)
    bad = ~np.isfinite(norm) | ~np.ravel(fzb < fz)
    if np.any(bad):
        idx = int(np.argmax(bad))
        where = complex(np.ravel(points)[idx])
        if not np.isfinite(norm[idx]):
            raise ParameterError(f"{m.label}: derivative norm is not finite at z = {where}")
        raise SenseReversalError(f"{m.label}: sense-reversing, |f_zb| >= |f_z|", where)
    return w


def finite_dnorm(m: HarmonicMap, z) -> np.ndarray:
    """Derivative norms of ``m`` at z, as floats of z's shape, read from
    ``check_sense_preserving``'s one pass.  So no supremum, fit or trace
    downstream can skip a bad norm, carry it as a number, or divide by zero
    or take its log.
    """
    return np.asarray(check_sense_preserving(m, z).dnorm, dtype=float)


def qc_constant(m: HarmonicMap, points) -> float:
    """Supremum over the sample of dnorm/dmin, i.e. the quasiconformality
    constant witnessed by the grid.  Nondecreasing under grid refinement.

    Raises ``SenseReversalError`` with a witness point where ``m`` reverses
    sense on the sample (see ``check_sense_preserving``).
    """
    w = check_sense_preserving(m, points)
    return float(np.max(w.dnorm / w.dmin))


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Config:
    """Run parameters a user can set, each by the command-line flag and the
    config-file key of its name (``grid_level`` is ``--grid-level``).

    ``alpha`` is the order parameter used for genuinely harmonic maps (the
    sharp order of the normalized family is unknown, so harmonic reports are
    advisory); the analytic subfamily always uses the classical value 2.
    """

    alpha: float = 3.0
    bigk: float = 1.0
    tol: float = 1e-9
    eps: float = 1e-4
    grid_level: int = 1
    seed: int = 0

    def __post_init__(self):
        # each test reads "not (value in range)", so NaN fails it too
        if not 2.0 <= self.alpha < math.inf:
            raise ParameterError("alpha must be finite and >= 2")
        if not 1.0 <= self.bigk < math.inf:
            raise ParameterError("K must be finite and >= 1")
        if not 0.0 < self.eps <= 0.5:
            raise ParameterError("boundary offset must lie in (0, 0.5]")
        if not 0.0 < self.tol < math.inf:
            raise ParameterError("quadrature tolerance must be finite and > 0")
        # each level doubles both axes of the suite grids, so a check's
        # memory grows 4x per level: level 6 peaks near 2 GB, 7 would need 8
        if not 0 <= self.grid_level <= 6:
            raise ParameterError("grid level must lie in [0, 6]")
        if not self.seed >= 0:
            raise ParameterError("seed must be >= 0")

