"""The built-in map corpus and its JSON serialization.

Corpus files hold a list of map descriptors, one per label:

    {"label": str,
     "h": {"kind": "catalog" | "series", "name"?: str, "coeffs"?: [[re, im], ...]},
     "g": {...},
     "flags": ["SH", "SH0", ...]}

Catalog parts may carry a unit-modulus "rotation"; when present it must be
an [re, im] pair.  Corpus files are read as UTF-8 (``read_json``).
The built-in corpus covers both sides of the John dichotomy: the identity,
a K = 3 shear of it, and two bounded convex polynomials map onto John
disks; the Koebe map (slit plane) and the half-plane map do not.
"""

from __future__ import annotations

import cmath
import json
import math

from .geometry import disk_grid
from .maps import (
    AnalyticPart,
    CatalogPart,
    HarmonicMap,
    ParameterError,
    SeriesPart,
    check_sense_preserving,
)


# the flags HarmonicMap recognizes
_FLAGS = frozenset({"SH", "SH0", "analytic", "starlike", "convex", "bounded"})


def default_corpus() -> dict:
    """Label -> map for the shipped test family."""
    identity = CatalogPart("identity")
    zero = SeriesPart((0.0j,))
    maps = [
        HarmonicMap(identity, zero, "identity",
                    frozenset({"SH", "SH0", "analytic", "starlike", "convex", "bounded"})),
        HarmonicMap(CatalogPart("koebe"), zero, "koebe",
                    frozenset({"SH", "SH0", "analytic", "starlike"})),
        HarmonicMap(CatalogPart("halfplane"), zero, "halfplane",
                    frozenset({"SH", "SH0", "analytic", "convex"})),
        HarmonicMap(identity, SeriesPart((0.0j, 0.5 + 0.0j)), "shear-k3",
                    frozenset({"SH", "bounded"})),
        HarmonicMap(SeriesPart((0.0j, 1.0 + 0.0j, 0.125 + 0.0j)), zero, "convex-poly2",
                    frozenset({"SH", "SH0", "analytic", "convex", "bounded"})),
        HarmonicMap(SeriesPart((0.0j, 1.0 + 0.0j, 0.0j, 1.0 / 9.0 + 0.0j)), zero,
                    "convex-poly3",
                    frozenset({"SH", "SH0", "analytic", "convex", "bounded"})),
    ]
    return {m.label: m for m in maps}


# ---------------------------------------------------------------------------
# serialization


def _c2pair(c: complex):
    return [float(c.real), float(c.imag)]


def part_to_json(p: AnalyticPart) -> dict:
    if isinstance(p, CatalogPart):
        out = {"kind": "catalog", "name": p.name}
        if complex(p.rotation) != 1.0 + 0.0j:
            out["rotation"] = _c2pair(complex(p.rotation))
        return out
    if isinstance(p, SeriesPart):
        return {"kind": "series", "coeffs": [_c2pair(c) for c in p.coeffs]}
    raise ParameterError(
        f"{type(p).__name__} parts are in-memory compositions and do not serialize"
    )


def _pair2c(pair, what: str) -> complex:
    """A finite complex number from its [re, im] pair."""
    if (not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in pair)):
        raise ParameterError(f"{what} must be a [re, im] pair of numbers, got {pair!r}")
    try:
        c = complex(pair[0], pair[1])
    except OverflowError:  # an integer too large for a float
        c = complex(math.inf)
    if not cmath.isfinite(c):
        raise ParameterError(f"{what} must be finite, got {pair!r}")
    return c


def part_from_json(d: dict) -> AnalyticPart:
    if not isinstance(d, dict):
        raise ParameterError(f"a map part must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "catalog":
        # a rotation that is present must be a pair, so 0 or [] is an error
        rotation = _pair2c(d["rotation"], "catalog rotation") if "rotation" in d else 1.0 + 0.0j
        return CatalogPart(d["name"], rotation=rotation)
    if kind == "series":
        coeffs = d["coeffs"]
        if not isinstance(coeffs, list):
            raise ParameterError(f"series coeffs must be a list of [re, im] pairs, got {coeffs!r}")
        return SeriesPart(tuple(_pair2c(c, "series coefficient") for c in coeffs))
    raise ParameterError(f"unknown part kind {kind!r}")


def map_to_json(m: HarmonicMap) -> dict:
    return {
        "label": m.label,
        "h": part_to_json(m.h),
        "g": part_to_json(m.g),
        "flags": sorted(m.flags),
    }


def _flags_from_json(flags) -> frozenset:
    """The flag set of a descriptor: a list of recognized flag names.  A
    bare string would otherwise split into one-letter flags."""
    if (not isinstance(flags, list)
            or not all(isinstance(f, str) and f in _FLAGS for f in flags)):
        raise ParameterError(
            f"flags must be a list drawn from {sorted(_FLAGS)}, got {flags!r}")
    return frozenset(flags)


def map_from_json(d: dict) -> HarmonicMap:
    if not isinstance(d, dict):
        raise ParameterError(f"a map descriptor must be a JSON object, got {d!r}")
    label = d["label"]
    if not isinstance(label, str):
        raise ParameterError(f"a map label must be a string, got {label!r}")
    return HarmonicMap(
        part_from_json(d["h"]),
        part_from_json(d["g"]),
        label,
        _flags_from_json(d.get("flags", [])),
    )


def dump_corpus(maps: dict) -> str:
    docs = [map_to_json(maps[label]) for label in sorted(maps)]
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"


def save_corpus(maps: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_corpus(maps))


def read_json(path):
    """The JSON document of a UTF-8 file.  A file that is not UTF-8, not
    JSON, or nested too deep to parse is a ``ParameterError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, and so is an
    # integer literal past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"cannot read {path} as UTF-8 JSON: {exc}") from None


def load_corpus(path) -> dict:
    docs = read_json(path)
    if not isinstance(docs, list):
        raise ParameterError("a corpus file must hold a JSON list of map descriptors")
    maps = {}
    for d in docs:
        m = map_from_json(d)
        if m.label in maps:
            raise ParameterError(f"map label {m.label!r} appears more than once in the corpus")
        maps[m.label] = m
    return maps


def validate_corpus(maps: dict) -> None:
    """Verify sense preservation of every corpus entry on a 12 x 16 disk
    grid (see ``check_sense_preserving``).  Every command also checks each
    point where it reads a derivative."""
    pts = disk_grid(12, 16)
    for label in sorted(maps):
        check_sense_preserving(maps[label], pts)
