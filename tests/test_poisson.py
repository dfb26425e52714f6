import math
import re
import tracemalloc

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
                        SeriesPart, WirtingerPair, finite_dnorm)
from hqmap.poisson import poisson_scan, poisson_trace_json
from hqmap.quadrature import adaptive_quads, cut_list

from conftest import seeded_harmonic


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
    with pytest.raises(ParameterError, match=r"from 256 to 2\^22"):
        boundary_profile(corpus["identity"], n=1 << 35)  # 512 GiB of nodes, never built
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


def _contiguous_block_profile(m, eps, n):
    """Both rings read through ``finite_dnorm`` on contiguous blocks of 2^15
    nodes, in ring order: (values, drift)."""
    nodes = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    values = np.empty(n)
    drift = 0.0
    for lo in range(0, n, 1 << 15):
        block = nodes[lo:lo + (1 << 15)]
        vals = values[lo:lo + (1 << 15)]
        vals[:] = finite_dnorm(m, (1.0 - eps) * block)
        half = finite_dnorm(m, (1.0 - eps / 2.0) * block)
        drift = float(np.maximum(drift, np.max(np.abs(half - vals) / np.maximum(vals, 1e-300))))
    return values, drift


@pytest.mark.parametrize("eps, n", [(1e-2, 1 << 11), (1e-3, 1 << 15), (1e-4, 1 << 18)])
def test_profile_from_the_ring_pass_keeps_the_contiguous_block_bits(eps, n, corpus):
    # the ring pass walks (8, 2^12) column blocks of the ring reshaped to 8
    # rows; the values and drift are those of contiguous 2^15-node blocks
    maps = (corpus["koebe"], _seeded_series12(5, harmonic=False), seeded_harmonic(5, 16))
    for m in maps:
        prof = boundary_profile(m, eps=eps, n=n)
        values, drift = _contiguous_block_profile(m, eps, n)
        assert prof.values.tobytes() == values.tobytes(), m.label
        assert prof.drift == drift, m.label


class _RingMap:
    """Unit derivative norm, except zero on the arc -pi/32 < arg z < 0, the
    last 2^12 columns of the last of the ring's 8 rows, which a 2^18-node
    profile reaches only in its last (8, 2^12) column block."""

    label = "ring-zero"

    def __init__(self):
        self.calls = 0

    def wirtinger(self, z):
        self.calls += 1
        arg = np.angle(z)
        fz = np.where((arg > -math.pi / 32) & (arg < 0.0), 0.0, 1.0) + 0.0j
        return WirtingerPair(fz, np.zeros_like(fz))


def test_profile_nan_norm_raises(nan_norm_map):
    # a NaN norm is neither <= 0 nor a drift the profile may carry
    angles = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    where = complex((1.0 - 1e-3) * np.exp(1j * angles[256]))
    with pytest.raises(ParameterError, match=re.escape(f"nan-norm: derivative norm is "
                                                       f"not finite at z = {where}")):
        boundary_profile(nan_norm_map, eps=1e-3, n=512)


@pytest.mark.parametrize("fz, error, message", [
    (np.nan, ParameterError, "convex-poly2: derivative norm is not finite at z = {}"),
    (0.0, SenseReversalError, "convex-poly2: sense-reversing, |f_zb| >= |f_z| (witness z = {})"),
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
    where = complex(ring[np.argmax((arg > -math.pi / 32) & (arg < 0.0))])
    with pytest.raises(SenseReversalError) as info:
        boundary_profile(m, eps=1e-4, n=n)
    assert info.value.witness == where
    assert "ring-zero: sense-reversing, |f_zb| >= |f_z|" in str(info.value)
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
    angles = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    assert np.array_equal(prof.nodes, np.exp(1j * angles))


def test_functional_matches_fresh_nodes_bitwise(corpus):
    # the kernel on the profile's stored nodes equals the kernel on freshly
    # exponentiated angles, bit for bit
    for label in ("koebe", "shear-k3", "convex-poly3"):
        m = corpus[label]
        prof = boundary_profile(m, eps=1e-3, n=2048)
        angles = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        for zeta in (0.0, 0.5, 0.3 + 0.4j, -0.85, 0.9j):
            xi = np.exp(1j * angles)
            zeta = complex(zeta)
            dist2 = (xi.real - zeta.real) ** 2 + (xi.imag - zeta.imag) ** 2
            kernel = (1.0 - abs(zeta) ** 2) / dist2
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
    # one ring pass per scan, each block folded into the five radii's
    # products as it arrives; the scan reads no boundary profile
    counted, blocks = [], []
    kernel, ring_pass = poisson._kernel, poisson._ring_pass

    def counting(x, dy2, zeta):
        counted.append(np.size(x))
        return kernel(x, dy2, zeta)

    def passing(m, eps, nodes):
        blocks.append([])
        for item in ring_pass(m, eps, nodes):
            blocks[-1].append(item[1].shape)
            yield item

    def no_profile(*args, **kwargs):
        raise AssertionError("the scan built a boundary profile")

    monkeypatch.setattr(poisson, "_kernel", counting)
    monkeypatch.setattr(poisson, "_ring_pass", passing)
    monkeypatch.setattr(poisson, "boundary_profile", no_profile)
    for eps, n in ((1e-2, 4096), (1e-3, 1 << 15), (1e-4, 1 << 18)):
        counted.clear()
        blocks.clear()
        poisson_scan(corpus["convex-poly3"], eps)
        width = min(n, 1 << 15) // 8
        assert blocks == [[(8, width)] * (n // 8 // width)]
        assert counted == [8 * width] * (5 * len(blocks[0]))
        assert sum(counted) == 5 * n
    counted.clear()
    monkeypatch.undo()
    monkeypatch.setattr(poisson, "_kernel", counting)
    prof = boundary_profile(corpus["koebe"], eps=1e-3, n=2048)
    poisson_functional(corpus["koebe"], 0.5, prof)
    assert counted == [2048]  # the single-point functional shares the formula


def test_a_warm_scan_holds_no_ring_sized_array(corpus):
    # a 2^18-node profile array alone is 2 MiB; the scan streams its ring
    m = corpus["koebe"]
    poisson_scan(m, 1e-4)  # builds the shared 2^18-node ring, kept for later scans
    tracemalloc.start()
    try:
        poisson_scan(m, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("eps, message", [
    (0.0, r"ring offset eps must lie in \[1e-15, 0.5\)"),
    (-1e-4, r"ring offset eps must lie in \[1e-15, 0.5\)"),
    (math.nan, r"ring offset eps must lie in \[1e-15, 0.5\)"),
    (0.5, r"ring offset eps must lie in \[1e-15, 0.5\)"),
    (1e-9, r"ring offset eps = 1e-09 needs a 2\^35-node ring, above the 2\^22-node cap"),
    (5.9e-6, r"ring offset eps = 5.9e-06 needs a 2\^23-node ring, above the 2\^22-node cap"),
], ids=["zero", "negative", "nan", "half", "1e-9", "below-cap"])
def test_a_bad_scan_eps_is_an_input_error_before_any_ring(eps, message, corpus, monkeypatch):
    # eps = 0 divided by zero, NaN failed to convert to an int, and 1e-9
    # asked for a 2^35-node ring (512 GiB) before any check
    def no_ring(n):
        raise AssertionError(f"a {n}-node ring was asked for")

    monkeypatch.setattr(poisson.geometry, "circle_nodes", no_ring)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=message):
            poisson_scan(corpus["identity"], eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_the_ring_cap_is_reached_at_eps_6e_6():
    # sizes only: no ring near the cap is built
    assert poisson._profile_size(1e-4) == 1 << 18
    assert poisson._profile_size(6e-6) == 1 << 22
    assert poisson._profile_size(8.0 * math.pi / (1 << 22)) == 1 << 22
    with pytest.raises(ParameterError, match="eps must be at least 5.99e-06"):
        poisson._profile_size(5.99e-6)


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
    ring_pass = poisson._ring_pass

    def drifting(m, eps, nodes):
        # the same values, but the ring drifts by 0.2 > 0.1 at every block
        for cols, block, values, drift in ring_pass(m, eps, nodes):
            yield cols, block, values, max(drift, 0.2)

    assert poisson_sup(corpus["identity"]).stable
    monkeypatch.setattr(poisson, "_ring_pass", drifting)
    tr = poisson_sup(corpus["identity"])
    assert [sc.converged for sc in tr.scans] == [False] * 3
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


@pytest.mark.parametrize("t1, t2", [(0.3, 1.1), (2.5, 0.4)], ids=["forward", "backward"])
def test_bracket_arc_is_the_old_tangential_speed_bit_for_bit(t1, t2, corpus):
    # the tangential speed reads f_z and f_zb through HarmonicMap.wirtinger;
    # the arc is the one it gave when it read the parts' derivatives itself
    r = 0.7
    maps = [corpus["identity"], corpus["koebe"], corpus["shear-k3"],
            seeded_harmonic(3, 12), seeded_harmonic(5, 16)]
    for m in maps:
        def speed(t):
            z = r * np.exp(1j * (t1 + t))
            return np.abs(1j * z * m.h.d1(z) - 1j * np.conjugate(z * m.g.d1(z)))

        dtheta = float(np.mod(t2 - t1 + math.pi, 2.0 * math.pi) - math.pi)
        want = adaptive_quads(speed, [cut_list(*sorted((0.0, dtheta)))], rel_tol=1e-9)[0].value
        got = pommerenke_bracket(m, r, t1, t2).arc_length
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), m.label


def test_bracket_shear(corpus):
    # sheared circle: the bracket still sandwiches arc/chord-type ratios
    br = pommerenke_bracket(corpus["shear-k3"], 0.7, 0.3, 1.1)
    assert 0.0 < br.lower <= br.upper
    assert br.arc_length >= br.chord - 1e-12
