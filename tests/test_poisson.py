import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from hqmap import (
    ParameterError,
    boundary_profile,
    decay_fit,
    john_estimate,
    poisson_functional,
    poisson_sup,
    pommerenke_bracket,
    preschwarzian_sup,
)
from hqmap import poisson
from hqmap.maps import (CatalogPart, ComboPart, HarmonicMap, SenseReversalError,
                        SeriesPart, WirtingerPair)
from hqmap.poisson import poisson_scan, poisson_trace_json


def scaled(m, c):
    """Multiply a harmonic map by a positive constant."""
    return HarmonicMap(ComboPart(((c + 0j, m.h),)), ComboPart(((c + 0j, m.g),)),
                       label=f"{c}x {m.label}")


# ---------------------------------------------------------------------------
# boundary profiles


def test_profile_validation(corpus):
    with pytest.raises(ParameterError):
        boundary_profile(corpus["identity"], n=1000)  # not a power of two
    with pytest.raises(ParameterError):
        boundary_profile(corpus["identity"], n=128)  # too small
    with pytest.raises(ParameterError):
        boundary_profile(corpus["identity"], eps=0.7)


def test_profile_values_positive_and_converged(corpus):
    prof = boundary_profile(corpus["shear-k3"], eps=1e-3, n=512)
    assert np.all(prof.values > 0)
    assert prof.values == pytest.approx(np.full(512, 1.5), abs=1e-12)
    assert prof.converged


def _unblocked_profile(m, eps, n):
    """Both rings evaluated whole: (values, drift)."""
    nodes = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    values = np.asarray(m.wirtinger((1.0 - eps) * nodes).dnorm, dtype=float)
    half = np.asarray(m.wirtinger((1.0 - eps / 2.0) * nodes).dnorm, dtype=float)
    return values, float(np.max(np.abs(half - values) / np.maximum(values, 1e-300)))


@pytest.mark.parametrize("eps, n", [(1e-2, 1 << 11), (1e-4, 1 << 18)])
def test_profile_blocks_match_whole_rings_bitwise(eps, n, corpus):
    k = np.arange(2, 13)
    series = HarmonicMap(SeriesPart((0j, 1 + 0j) + tuple(0.05 / k * np.exp(1j * k))),
                         SeriesPart((0j, 0j) + tuple(0.03 / k * np.exp(-2j * k))),
                         "series12")
    for m in (corpus["koebe"], corpus["convex-poly3"], series):
        prof = boundary_profile(m, eps=eps, n=n)
        values, drift = _unblocked_profile(m, eps, n)
        assert prof.values.tobytes() == values.tobytes(), m.label
        assert prof.drift == drift and prof.converged == (drift <= 0.1), m.label


class _RingMap:
    """Unit derivative norm, except zero on the arc -pi/4 < arg z < 0, which
    a 2^18-node profile reaches only in its last 2^15-node block."""

    label = "ring-zero"

    def __init__(self):
        self.calls = 0

    def wirtinger(self, z):
        self.calls += 1
        arg = np.angle(z)
        return SimpleNamespace(dnorm=np.where((arg > -math.pi / 4) & (arg < 0.0), 0.0, 1.0))


def test_profile_nan_norm_raises(nan_norm_map):
    # a NaN norm is neither <= 0 nor a drift the profile may carry
    angles = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    where = complex((1.0 - 1e-3) * np.exp(1j * angles[256]))
    with pytest.raises(ParameterError, match=re.escape(f"nan-norm: derivative norm is "
                                                       f"not finite at z = {where}")):
        boundary_profile(nan_norm_map, eps=1e-3, n=512)


@pytest.mark.parametrize("fz, error, message", [
    (np.nan, ParameterError, "convex-poly2: derivative norm is not finite at z = {}"),
    (0.0, SenseReversalError, "convex-poly2: derivative norm vanishes (witness z = {})"),
], ids=["nan", "zero"])
def test_functional_denominator_checked(fz, error, message, norm_at_point):
    # a NaN norm at one scan point used to be skipped by the trace maximum
    # ("stable": true) and written to the CSV as nan
    eps = 1e-2
    r = np.linspace(0.0, (1.0 - 2.0 * eps) * (1.0 - 1e-9), 5)[2]
    zeta = complex(r * np.exp(1j * math.pi / 4))
    m = norm_at_point(zeta, fz)
    with pytest.raises(error, match=re.escape(message.format(zeta))):
        poisson_scan(m, eps)
    with pytest.raises(error, match=re.escape(message.format(zeta))):
        poisson_functional(m, zeta, boundary_profile(m, eps=eps, n=2048))


def test_profile_zero_norm_in_last_block_raises():
    m = _RingMap()
    n = 1 << 18
    ring = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    arg = np.angle(ring)
    where = complex(ring[np.argmax((arg > -math.pi / 4) & (arg < 0.0))])
    with pytest.raises(SenseReversalError) as info:
        boundary_profile(m, eps=1e-4, n=n)
    assert info.value.witness == where
    assert "ring-zero: derivative norm vanishes" in str(info.value)
    assert m.calls == 2 * 7 + 1  # seven full blocks of both rings, then the last


# ---------------------------------------------------------------------------
# the Poisson functional


def test_functional_identity_normalization(corpus):
    # the kernel integrates to one at every interior point
    prof = boundary_profile(corpus["identity"], eps=1e-3, n=2048)
    for zeta in (0.0, 0.5, 0.3 + 0.4j, -0.85, 0.9j):
        got = poisson_functional(corpus["identity"], zeta, prof)
        assert got == pytest.approx(1.0, abs=1e-6), zeta


def test_functional_shear_constant_norm(corpus):
    # constant derivative norm cancels: the functional is again the kernel
    prof = boundary_profile(corpus["shear-k3"], eps=1e-3, n=2048)
    for zeta in (0.0, 0.4, -0.2 + 0.6j):
        assert poisson_functional(corpus["shear-k3"], zeta, prof) == pytest.approx(1.0, abs=1e-6)


def test_functional_scale_invariance(corpus):
    for label in ("identity", "convex-poly2"):
        m = corpus[label]
        big = scaled(m, 2.5)
        prof_m = boundary_profile(m, eps=1e-3, n=1024)
        prof_b = boundary_profile(big, eps=1e-3, n=1024)
        for zeta in (0.3, -0.5j, 0.2 + 0.4j):
            a = poisson_functional(m, zeta, prof_m)
            b = poisson_functional(big, zeta, prof_b)
            assert abs(a - b) < 1e-12


def test_profile_nodes_are_the_unit_circle_nodes(corpus):
    prof = boundary_profile(corpus["koebe"], eps=1e-3, n=1024)
    assert np.array_equal(prof.nodes, np.exp(1j * prof.angles))


def test_functional_matches_fresh_nodes_bitwise(corpus):
    # the kernel on the profile's stored nodes equals the kernel on freshly
    # exponentiated angles, bit for bit
    for label in ("koebe", "shear-k3", "convex-poly3"):
        m = corpus[label]
        prof = boundary_profile(m, eps=1e-3, n=2048)
        for zeta in (0.0, 0.5, 0.3 + 0.4j, -0.85, 0.9j):
            xi = np.exp(1j * prof.angles)
            kernel = (1.0 - abs(zeta) ** 2) / np.abs(xi - zeta) ** 2
            fresh = float(np.mean(prof.values * kernel) / float(m.wirtinger(zeta).dnorm))
            assert poisson_functional(m, zeta, prof) == fresh, (label, zeta)


def test_functional_separation_guard(corpus):
    prof = boundary_profile(corpus["identity"], eps=1e-2, n=512)
    with pytest.raises(ParameterError):
        poisson_functional(corpus["identity"], 0.99, prof)


# ---------------------------------------------------------------------------
# scans: one kernel per radius, every angle from one block-circulant product


def _seeded_series12(seed, harmonic):
    """Degree-12 map h = z + sum a_k z^k (and g = sum b_k z^k if harmonic)
    with random phases and sum_k k (|a_k| + |b_k|) < 1."""
    rng = np.random.default_rng(seed)
    k = np.arange(2, 13)
    w = rng.uniform(0.0, 1.0, (2, k.size))
    w[1] *= harmonic
    w *= rng.uniform(0.3, 0.95) / w.sum()
    coef = w / k * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, w.shape))
    return HarmonicMap(SeriesPart((0j, 1 + 0j) + tuple(coef[0])),
                       SeriesPart((0j, 0j) + tuple(coef[1])), f"series12-seed{seed}")


def _scan_maps(corpus):
    # the rotated and seeded maps have no mirror symmetry, so a scan that
    # rotates the wrong way cannot agree with them by accident
    return (*(corpus[label] for label in sorted(corpus)),
            HarmonicMap(CatalogPart("halfplane", rotation=np.exp(0.7j)),
                        SeriesPart((0j, 0j, 0.1 + 0.05j)), "halfplane-rot"),
            _seeded_series12(5, harmonic=False), _seeded_series12(6, harmonic=True))


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_scan_matches_functional(eps, corpus):
    n = 4096 if eps == 1e-2 else 1 << 18
    for m in _scan_maps(corpus):
        scan = poisson_scan(m, eps)
        prof = boundary_profile(m, eps=eps, n=n)
        assert len(scan.records) == 1 + 4 * 8, m.label
        for zeta, val, e, size in scan.records:
            assert (e, size) == (eps, n)
            ref = poisson_functional(m, zeta, prof)
            assert abs(val - ref) <= 1e-11 * abs(ref), (m.label, zeta)
        assert (scan.drift, scan.converged) == (prof.drift, prof.converged)


def _rel_close(a, b, tol):
    return all(abs(x - y) <= tol * abs(y) for x, y in zip(a, b))


@pytest.mark.parametrize("block, eps_levels", [(8, (1e-2,)), (1 << 22, (1e-2, 1e-4))])
def test_scan_blocks_do_not_matter(block, eps_levels, corpus, monkeypatch):
    maps = (corpus["koebe"], corpus["convex-poly3"], _seeded_series12(6, harmonic=True))
    default = [[v for _, v, _, _ in poisson_scan(m, eps).records]
               for m in maps for eps in eps_levels]
    monkeypatch.setattr(poisson, "_RING_BLOCK", block)
    patched = [[v for _, v, _, _ in poisson_scan(m, eps).records]
               for m in maps for eps in eps_levels]
    for a, b in zip(patched, default):
        assert _rel_close(a, b, 1e-13)


def test_scan_builds_one_kernel_per_radius(corpus, monkeypatch):
    counted = []
    kernel = poisson._kernel

    def counting(nodes, zeta):
        counted.append(np.size(nodes))
        return kernel(nodes, zeta)

    monkeypatch.setattr(poisson, "_kernel", counting)
    for eps, n in ((1e-2, 4096), (1e-3, 1 << 15)):
        counted.clear()
        poisson_scan(corpus["convex-poly3"], eps)
        assert sum(counted) == 5 * n
    counted.clear()
    prof = boundary_profile(corpus["koebe"], eps=1e-3, n=2048)
    poisson_functional(corpus["koebe"], 0.5, prof)
    assert counted == [2048]  # the single-point functional shares the formula


# ---------------------------------------------------------------------------
# sup traces


def test_sup_identity_stable(corpus):
    tr = poisson_sup(corpus["identity"])
    assert tr.stable
    assert all(t == pytest.approx(1.0, abs=1e-6) for t in tr.trace)


def test_sup_koebe_diverges(corpus):
    tr = poisson_sup(corpus["koebe"])
    assert not tr.stable
    assert all(b > 1.5 * a for a, b in zip(tr.trace[:-1], tr.trace[1:]))


def test_sup_convex_stable(corpus):
    for label in ("convex-poly2", "convex-poly3"):
        tr = poisson_sup(corpus[label])
        assert tr.stable, (label, tr.trace)


def test_boundedness_property_on_corpus(corpus):
    # maps passing the decay fit with a bounded image have a stable sup;
    # the slit-plane map fails the hypothesis and shows a growing trace
    for label, m in corpus.items():
        fit = decay_fit(m)
        if 0.0 < fit.delta < 1.0 and "bounded" in m.flags:
            assert poisson_sup(m).stable, label
    assert not poisson_sup(corpus["koebe"]).stable


def test_corollary_gate_on_corpus(corpus):
    # John-positive + small pre-Schwarzian + bounded image gives a stable sup
    for label in ("identity", "convex-poly2", "convex-poly3"):
        m = corpus[label]
        assert john_estimate(m).verdict == "john-positive"
        assert preschwarzian_sup(m).value < 4.0 - 1e-3
        assert "bounded" in m.flags
        assert poisson_sup(m).stable


def test_trace_json(corpus):
    import json

    tr = poisson_sup(corpus["identity"])
    doc = json.loads(poisson_trace_json(corpus["identity"], tr))
    assert set(doc) == {"label", "sup", "trace", "eps", "stable",
                        "profile_drift", "profile_converged"}


def test_trace_carries_profile_convergence(corpus):
    import json

    tr = poisson_sup(corpus["koebe"])
    doc = json.loads(poisson_trace_json(corpus["koebe"], tr))
    for eps, sc, drift, conv in zip(tr.eps_levels, tr.scans, doc["profile_drift"],
                                    doc["profile_converged"]):
        prof = boundary_profile(corpus["koebe"], eps=eps, n=poisson._profile_size(eps))
        assert (sc.drift, sc.converged) == (drift, conv) == (prof.drift, prof.converged)
    assert doc["profile_converged"] == [False] * 3  # drift 7: the ring surrogate fails


def test_unconverged_profile_makes_the_trace_unstable(corpus, monkeypatch):
    import dataclasses

    profile = poisson.boundary_profile

    def unconverged(m, eps, n):
        return dataclasses.replace(profile(m, eps=eps, n=n), converged=False)

    assert poisson_sup(corpus["identity"]).stable
    monkeypatch.setattr(poisson, "boundary_profile", unconverged)
    tr = poisson_sup(corpus["identity"])
    assert all(t == pytest.approx(1.0, abs=1e-6) for t in tr.trace)
    assert not tr.stable


# ---------------------------------------------------------------------------
# arc / distance ratio bracket


def test_bracket_identity_small_arc(corpus):
    r, t1, t2 = 0.8, 0.2, 0.9
    br = pommerenke_bracket(corpus["identity"], r, t1, t2)
    arc = r * (t2 - t1)
    chord = abs(r * np.exp(1j * t1) - r * np.exp(1j * t2))
    assert br.arc_length == pytest.approx(arc, rel=1e-9)
    assert br.upper == pytest.approx(arc / chord, rel=1e-9)
    assert br.lower <= arc / chord <= br.upper + 1e-12
    assert br.upper <= math.pi / 2 + 1e-9


def test_bracket_identity_antipodal(corpus):
    br = pommerenke_bracket(corpus["identity"], 0.9, 0.0, math.pi)
    assert br.arc_length == pytest.approx(0.9 * math.pi, rel=1e-9)
    assert br.chord == pytest.approx(1.8, rel=1e-12)
    assert br.upper == pytest.approx(math.pi / 2, rel=1e-9)


def test_bracket_same_point(corpus):
    br = pommerenke_bracket(corpus["identity"], 0.5, 0.3, 0.3)
    assert br.lower == 0.0 and br.upper == 0.0


def test_bracket_picks_smaller_arc(corpus):
    # crossing the branch cut: the parameter arc from 0.1 to 2 pi - 0.1
    # wraps to length 0.2 r
    br = pommerenke_bracket(corpus["identity"], 0.5, 0.1, 2 * math.pi - 0.1)
    assert br.arc_length == pytest.approx(0.5 * 0.2, rel=1e-9)


def test_bracket_shear(corpus):
    # sheared circle: the bracket still sandwiches arc/chord-type ratios
    br = pommerenke_bracket(corpus["shear-k3"], 0.7, 0.3, 1.1)
    assert 0.0 < br.lower <= br.upper
    assert br.arc_length >= br.chord - 1e-12
