"""Seeded corpus generator for the benchmark workloads.

Every generated map has the form f = h + conj(g) with

    h(z) = z + sum_{k=2..d} a_k z^k,    g(z) = sum_{k=2..d} b_k z^k,

random phases, and a coefficient budget sum_k k (|a_k| + |b_k|) drawn from
[0.3, 0.95].  A budget of at most one makes the map sense-preserving,
univalent and starlike (Silverman 1998; Jahangiri 1999; with g = 0 it is
the classical coefficient condition for starlike analytic maps).  Since
|h'| - |g'| >= 1 - budget > 0 on the closed disk, each polynomial is a
diffeomorphism of the closed disk, hence bi-Lipschitz, so its image is a
John disk.  The benchmark's output checks rely on exactly these facts.

The six built-in maps are always prepended: the output checks need the
identity, Koebe and half-plane entries, and ``check radial-growth`` needs a
``koebe`` entry (see README.md).
"""

from __future__ import annotations

import cmath
import json
import math
import random

from hqmap.corpus import default_corpus, map_to_json

BUDGET_RANGE = (0.3, 0.95)


def _coeff_budget(h, g) -> float:
    return sum(k * (abs(a) + abs(b)) for k, (a, b) in enumerate(zip(h, g)) if k >= 2)


def _random_map(rng: random.Random, label: str, degree: int, analytic: bool) -> dict:
    budget = rng.uniform(*BUDGET_RANGE)
    ks = range(2, degree + 1)
    weights_h = [rng.random() for _ in ks]
    weights_g = [0.0 if analytic else rng.random() for _ in ks]
    total = sum(weights_h) + sum(weights_g)
    h = [0j, 1 + 0j] + [0j] * (degree - 1)
    g = [0j] * (degree + 1)
    for k, wh, wg in zip(ks, weights_h, weights_g):
        # |a_k| = budget * share / k, so that sum k |a_k| + k |b_k| = budget
        h[k] = budget * wh / total / k * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if not analytic:
            g[k] = budget * wg / total / k * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if not _coeff_budget(h, g) < 1.0:
        raise ValueError(f"{label}: coefficient budget reached one")
    flags = ["SH", "SH0", "bounded"] + (["analytic", "starlike"] if analytic else [])
    return {
        "label": label,
        "h": {"kind": "series", "coeffs": [[c.real, c.imag] for c in h]},
        "g": {"kind": "series", "coeffs": [[c.real, c.imag] for c in (g[:1] if analytic else g)]},
        "flags": sorted(flags),
    }


def builtin_docs() -> list:
    """The built-in corpus as corpus-file descriptors."""
    builtins = default_corpus()
    return [map_to_json(builtins[label]) for label in sorted(builtins)]


def generate(seed: int, n_analytic: int, n_harmonic: int, degree: int) -> list:
    """Built-ins followed by n_analytic maps with g = 0 and n_harmonic maps
    with g != 0, all of the given polynomial degree."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    rng = random.Random(f"hqmap-corpus:{seed}:{n_analytic}:{n_harmonic}:{degree}")
    docs = builtin_docs()
    docs += [_random_map(rng, f"gen-a{i:02d}", degree, True) for i in range(n_analytic)]
    docs += [_random_map(rng, f"gen-h{i:02d}", degree, False) for i in range(n_harmonic)]
    return docs


def corpus_text(seed: int, n_analytic: int, n_harmonic: int, degree: int) -> str:
    """The corpus file contents; one seed always gives the same bytes."""
    return json.dumps(generate(seed, n_analytic, n_harmonic, degree),
                      indent=2, sort_keys=True) + "\n"

