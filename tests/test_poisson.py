import math
import re
import tracemalloc

import numpy as np
import pytest

from hqmap import (
    ParameterError,
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
# the ring pass that the functional and the scans read


def _ring(m, eps, n):
    """The n-node ring's blocks as a pass builds them, each read through
    ``_ring_block`` and put back in ring order: (nodes, values, drift), the
    drift being the largest of the blocks' changes."""
    blocks = list(poisson._ring_blocks(n))
    read = [poisson._ring_block(m, eps, block) for block in blocks]
    nodes = np.concatenate(blocks, axis=1).reshape(n)
    values = np.concatenate([values for values, _ in read], axis=1).reshape(n)
    drift = 0.0
    for _, rel in read:
        drift = float(np.maximum(drift, rel))
    return nodes, values, drift


def test_profile_validation(corpus):
    # the ring is sized by eps alone, which must not exceed one half
    with pytest.raises(ParameterError, match=r"ring offset eps must lie in \[1e-15, 0.5\]"):
        poisson_functional(corpus["identity"], 0.0, 0.7)


def test_profile_values_positive_and_converged(corpus):
    _, values, drift = _ring(corpus["shear-k3"], 1e-3, 512)
    assert np.all(values > 0)
    assert values == pytest.approx(np.full(512, 1.5), abs=1e-12)
    assert drift <= poisson._DRIFT_TOL


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
        _, got, got_drift = _ring(m, eps, n)
        values, drift = _unblocked_profile(m, eps, n)
        assert got.tobytes() == values.tobytes(), m.label
        assert got_drift == drift, m.label


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
        _, got, got_drift = _ring(m, eps, n)
        values, drift = _contiguous_block_profile(m, eps, n)
        assert got.tobytes() == values.tobytes(), m.label
        assert got_drift == drift, m.label


class _RingMap:
    """Unit derivative norm, except zero on the arc -pi/32 < arg z < 0, the
    last 2^12 columns of the last of the ring's 8 rows, which a pass over a
    2^18-node ring reaches only in its last (8, 2^12) column block."""

    label = "ring-zero"

    def __init__(self):
        self.calls = 0

    def wirtinger(self, z):
        self.calls += 1
        arg = np.angle(z)
        fz = np.where((arg > -math.pi / 32) & (arg < 0.0), 0.0, 1.0) + 0.0j
        return WirtingerPair(fz, np.zeros_like(fz))


def test_profile_nan_norm_raises(nan_norm_map):
    # a NaN norm is neither <= 0 nor a drift the ring may carry; the middle
    # point of the one (8, 4096) block of the 2^15-node ring is at angle pi
    angles = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    where = complex((1.0 - 1e-3) * np.exp(1j * angles[256]))
    with pytest.raises(ParameterError, match=re.escape(f"nan-norm: derivative norm is "
                                                       f"not finite at z = {where}")):
        poisson_functional(nan_norm_map, 0.0, 1e-3)


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
        poisson_scan([m], eps)
    with pytest.raises(error, match=re.escape(message.format(zeta))):
        poisson_functional(m, zeta, eps)


def test_profile_zero_norm_in_last_block_raises():
    m = _RingMap()
    n = 1 << 18
    ring = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    arg = np.angle(ring)
    where = complex(ring[np.argmax((arg > -math.pi / 32) & (arg < 0.0))])
    with pytest.raises(SenseReversalError) as info:
        poisson_functional(m, 0.0, 1e-4)  # a 2^18-node ring
    assert info.value.witness == where
    assert "ring-zero: sense-reversing, |f_zb| >= |f_z|" in str(info.value)
    assert m.calls == 2 * 7 + 1  # seven full blocks of both rings, then the last


# ---------------------------------------------------------------------------
# the Poisson functional


def test_functional_identity_normalization(corpus):
    # the kernel integrates to one at every interior point
    for zeta in (0.0, 0.5, 0.3 + 0.4j, -0.85, 0.9j):
        got = poisson_functional(corpus["identity"], zeta, 1e-3)
        assert got == pytest.approx(1.0, abs=1e-6), zeta


def test_functional_shear_constant_norm(corpus):
    # constant derivative norm cancels: the functional is again the kernel
    for zeta in (0.0, 0.4, -0.2 + 0.6j):
        assert poisson_functional(corpus["shear-k3"], zeta, 1e-3) == pytest.approx(1.0, abs=1e-6)


def test_functional_scale_invariance(corpus):
    for label in ("identity", "convex-poly2"):
        m = corpus[label]
        big = scaled(m, 2.5)
        for zeta in (0.3, -0.5j, 0.2 + 0.4j):
            a = poisson_functional(m, zeta, 1e-3)
            b = poisson_functional(big, zeta, 1e-3)
            assert abs(a - b) < 1e-12


def test_profile_nodes_are_the_unit_circle_nodes(corpus):
    nodes, _, _ = _ring(corpus["koebe"], 1e-3, 1024)
    angles = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    assert np.array_equal(nodes, np.exp(1j * angles))


def test_functional_matches_fresh_nodes_bitwise(corpus):
    # the kernel on the shared ring nodes equals the kernel on freshly
    # exponentiated angles, bit for bit, summed per (8, 4096) column block
    # in ring order as the functional folds its ring pass
    for eps in (1e-3, 1e-4):
        n = poisson._profile_size(eps)
        xi = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)).reshape(8, -1)
        for label in ("koebe", "shear-k3", "convex-poly3"):
            m = corpus[label]
            values = _ring(m, eps, n)[1].reshape(8, -1)
            for zeta in (0.0, 0.5, 0.3 + 0.4j, -0.85, 0.9j):
                zeta = complex(zeta)
                total = 0.0
                for lo in range(0, n // 8, 4096):
                    x, y = xi[:, lo:lo + 4096].real, xi[:, lo:lo + 4096].imag
                    kernel = (1.0 - abs(zeta) ** 2) / ((x - zeta.real) ** 2 + (y - zeta.imag) ** 2)
                    total += np.sum(values[:, lo:lo + 4096] * kernel)
                fresh = float(total / n / float(m.wirtinger(zeta).dnorm))
                assert poisson_functional(m, zeta, eps) == fresh, (label, eps, zeta)


def test_functional_separation_guard(corpus):
    with pytest.raises(ParameterError, match="kernel point too close to the sampling ring"):
        poisson_functional(corpus["identity"], 0.99, 1e-2)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_the_functional_makes_one_ring_pass_of_the_profile_size(eps, corpus, monkeypatch):
    # one pass over the ring that eps sizes, however many points are asked for
    passes = []
    ring_blocks = poisson._ring_blocks

    def passing(n):
        passes.append(n)
        return ring_blocks(n)

    monkeypatch.setattr(poisson, "_ring_blocks", passing)
    zetas = np.array([[0.5, -0.3j], [0.2 + 0.1j, 0.0]])
    got = poisson_functional(corpus["koebe"], zetas, eps)
    assert passes == [poisson._profile_size(eps)]
    assert got.shape == zetas.shape


def test_the_batched_functional_keeps_each_points_bits(corpus):
    # a batch folds every kernel into one pass; each zeta gets the bits of a
    # call with that zeta alone
    zetas = [0.0, 0.5, 0.3 + 0.4j, -0.85, 0.9j, 0.05 - 0.6j]
    for eps in (1e-2, 1e-3):
        for m in (corpus["koebe"], corpus["convex-poly3"], seeded_harmonic(5, 16)):
            batch = poisson_functional(m, zetas, eps)
            alone = [poisson_functional(m, zeta, eps) for zeta in zetas]
            assert batch.tobytes() == np.array(alone).tobytes(), (m.label, eps)


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
    # one scan pass over all the maps, and one functional pass per map for
    # all 33 grid points
    maps = _scan_maps(corpus)
    for m, scan in zip(maps, poisson_scan(maps, eps)):
        drift = _ring(m, eps, n)[2]
        assert len(scan.records) == 1 + 4 * 8, m.label
        assert all((e, size) == (eps, n) for _, _, e, size in scan.records)
        refs = poisson_functional(m, [zeta for zeta, _, _, _ in scan.records], eps)
        for (zeta, val, _, _), ref in zip(scan.records, refs):
            assert abs(val - ref) <= 1e-11 * abs(ref), (m.label, zeta)
        assert (scan.drift, scan.converged) == (drift, drift <= poisson._DRIFT_TOL)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_a_pass_over_many_maps_gives_each_map_its_own_bits(eps, corpus):
    maps = _scan_maps(corpus)
    together = poisson_scan(maps, eps)
    assert len(together) == len(maps)
    for m, scan in zip(maps, together):
        assert scan == poisson_scan([m], eps)[0], m.label


def test_a_six_map_pass_holds_no_ring_sized_array(corpus):
    # each map builds its own kernels on the shared block, so the pass holds
    # the temporaries of one map and one block, not six maps' or a ring's
    maps = [corpus[label] for label in sorted(corpus)]
    poisson_scan(maps, 1e-4)
    tracemalloc.start()
    try:
        poisson_scan(maps, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


class _ArcZeroMap:
    """Unit derivative norm, except zero on the arc lo < arg z < hi beyond
    the radius ``beyond``."""

    def __init__(self, label, lo, hi, beyond=0.0):
        self.label, self.lo, self.hi, self.beyond = label, lo, hi, beyond

    def wirtinger(self, z):
        arg = np.angle(z)
        zero = (arg > self.lo) & (arg < self.hi) & (np.abs(z) > self.beyond)
        fz = np.where(zero, 0.0, 1.0) + 0.0j
        return WirtingerPair(fz, np.zeros_like(fz))


def _in_block(k):
    """An arc inside the k-th (8, 4096) column block of the 2^18-node ring:
    column block k of the ring's 8 rows spans the angles
    (k + [0, 1)) pi / 32 of each octant."""
    return (k + 0.25) * math.pi / 32, (k + 0.75) * math.pi / 32


@pytest.mark.parametrize("maps, eps_levels, named", [
    # one block: the first map in order
    ([("a", *_in_block(2)), ("b", *_in_block(2))], (1e-4,), "a"),
    # an earlier block beats an earlier map
    ([("a", *_in_block(5)), ("b", *_in_block(2))], (1e-4,), "b"),
    # an earlier eps beats an earlier block: "a" fails on the 1e-4 ring
    # only, "b" on the one block of the 2^15-node ring of 1e-3 already
    ([("a", *_in_block(0), 0.9997), ("b", *_in_block(7))], (1e-3, 1e-4), "b"),
], ids=["label", "block", "eps"])
def test_a_pass_names_the_first_failure_in_pass_order(maps, eps_levels, named):
    # the passes go eps by eps, block by block, and map by map within a
    # block; the first failure met is the one raised
    maps = [_ArcZeroMap(*spec) for spec in maps]
    with pytest.raises(SenseReversalError, match=f"^{named}: sense-reversing"):
        poisson_sup(maps, eps_levels)


def test_a_scan_at_eps_one_half_is_an_input_error_before_any_ring_block(corpus, monkeypatch):
    # every radius of the grid is 0 at eps = 0.5: the scan used to return
    # five identical records at zeta = 0
    def no_ring(n, *args):
        raise AssertionError(f"a {n}-node ring was asked for")

    monkeypatch.setattr(poisson.geometry, "circle_node_blocks", no_ring)
    with pytest.raises(ParameterError, match=r"ring offset eps = 0.5 collapses the scan grid"):
        poisson_scan([corpus["koebe"]], 0.5)


def _rel_close(a, b, tol):
    return all(abs(x - y) <= tol * abs(y) for x, y in zip(a, b))


@pytest.mark.parametrize("block, eps_levels", [(8, (1e-2,)), (1 << 22, (1e-2, 1e-4))])
def test_scan_blocks_do_not_matter(block, eps_levels, corpus, monkeypatch):
    maps = (corpus["koebe"], corpus["convex-poly3"], _seeded_series12(6, harmonic=True))
    default = [[v for _, v, _, _ in poisson_scan([m], eps)[0].records]
               for m in maps for eps in eps_levels]
    monkeypatch.setattr(poisson, "_RING_BLOCK", block)
    patched = [[v for _, v, _, _ in poisson_scan([m], eps)[0].records]
               for m in maps for eps in eps_levels]
    for a, b in zip(patched, default):
        assert _rel_close(a, b, 1e-13)


def test_scan_builds_one_kernel_per_radius(corpus, monkeypatch):
    # one ring pass per scan, each block built once and folded into every
    # map's five radii's products as it arrives; each map builds its own
    # kernels
    counted, blocks = [], []
    kernel, ring_blocks = poisson._kernel, poisson._ring_blocks

    def counting(x, dy2, zeta):
        counted.append(np.size(x))
        return kernel(x, dy2, zeta)

    def passing(n):
        blocks.append([])
        for block in ring_blocks(n):
            blocks[-1].append(block.shape)
            yield block

    monkeypatch.setattr(poisson, "_kernel", counting)
    monkeypatch.setattr(poisson, "_ring_blocks", passing)
    maps = [corpus["convex-poly3"], corpus["koebe"]]
    for eps, n in ((1e-2, 4096), (1e-3, 1 << 15), (1e-4, 1 << 18)):
        counted.clear()
        blocks.clear()
        poisson_scan(maps, eps)
        width = min(n, 1 << 15) // 8
        assert blocks == [[(8, width)] * (n // 8 // width)]
        assert counted == [8 * width] * (2 * 5 * len(blocks[0]))
        assert sum(counted) == 2 * 5 * n
    counted.clear()
    monkeypatch.undo()
    monkeypatch.setattr(poisson, "_kernel", counting)
    poisson_functional(corpus["koebe"], 0.5, 1e-3)
    assert counted == [1 << 15]  # the single-point functional shares the formula
    counted.clear()
    poisson_functional(corpus["koebe"], [0.5, 0.2j, -0.1], 1e-3)
    assert counted == [1 << 15] * 3  # one kernel per point and block


def test_a_warm_scan_holds_no_ring_sized_array(corpus):
    # a 2^18-node array of ring values alone is 2 MiB; the scan streams its ring
    m = corpus["koebe"]
    poisson_scan([m], 1e-4)  # builds the shared small samples and warms the imports
    tracemalloc.start()
    try:
        poisson_scan([m], 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("eps, message", [
    (0.0, r"ring offset eps must lie in \[1e-15, 0.5\]"),
    (-1e-4, r"ring offset eps must lie in \[1e-15, 0.5\]"),
    (math.nan, r"ring offset eps must lie in \[1e-15, 0.5\]"),
    # the next float above one half; 0.5 itself is accepted
    (np.nextafter(0.5, 1.0), r"ring offset eps must lie in \[1e-15, 0.5\]"),
    (1e-9, r"ring offset eps = 1e-09 needs a 2\^35-node ring, above the 2\^22-node cap"),
    (5.9e-6, r"ring offset eps = 5.9e-06 needs a 2\^23-node ring, above the 2\^22-node cap"),
], ids=["zero", "negative", "nan", "half", "1e-9", "below-cap"])
def test_a_bad_scan_eps_is_an_input_error_before_any_ring(eps, message, corpus, monkeypatch):
    # eps = 0 divided by zero, NaN failed to convert to an int, and 1e-9
    # asked for a 2^35-node ring (512 GiB) before any check
    def no_ring(n, *args):
        raise AssertionError(f"a {n}-node ring was asked for")

    monkeypatch.setattr(poisson.geometry, "circle_node_blocks", no_ring)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=message):
            poisson_scan([corpus["identity"]], eps)
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
    tr = poisson_sup([corpus["identity"]])[0]
    assert tr.stable
    assert all(t == pytest.approx(1.0, abs=1e-6) for t in tr.trace)


def test_sup_koebe_diverges(corpus):
    tr = poisson_sup([corpus["koebe"]])[0]
    assert not tr.stable
    assert all(b > 1.5 * a for a, b in zip(tr.trace[:-1], tr.trace[1:]))


def test_sup_convex_stable(corpus):
    for label in ("convex-poly2", "convex-poly3"):
        tr = poisson_sup([corpus[label]])[0]
        assert tr.stable, (label, tr.trace)


def test_boundedness_property_on_corpus(corpus):
    # maps passing the decay fit with a bounded image have a stable sup;
    # the slit-plane map fails the hypothesis and shows a growing trace
    for label, m in corpus.items():
        fit = decay_fit(m)
        if 0.0 < fit.delta < 1.0 and "bounded" in m.flags:
            assert poisson_sup([m])[0].stable, label
    assert not poisson_sup([corpus["koebe"]])[0].stable


def test_corollary_gate_on_corpus(corpus):
    # John-positive + small pre-Schwarzian + bounded image gives a stable sup
    for label in ("identity", "convex-poly2", "convex-poly3"):
        m = corpus[label]
        assert john_estimate([m])[0].verdict == "john-positive"
        assert preschwarzian_sup(m).value < 4.0 - 1e-3
        assert "bounded" in m.flags
        assert poisson_sup([m])[0].stable


def test_trace_json(corpus):
    import json

    tr = poisson_sup([corpus["identity"]])[0]
    doc = json.loads(poisson_trace_json(corpus["identity"], tr))
    assert set(doc) == {"label", "sup", "trace", "eps", "stable",
                        "profile_drift", "profile_converged"}


def test_trace_carries_profile_convergence(corpus):
    import json

    tr = poisson_sup([corpus["koebe"]])[0]
    doc = json.loads(poisson_trace_json(corpus["koebe"], tr))
    for eps, sc, drift, conv in zip(tr.eps_levels, tr.scans, doc["profile_drift"],
                                    doc["profile_converged"]):
        ring_drift = _ring(corpus["koebe"], eps, poisson._profile_size(eps))[2]
        assert (sc.drift, sc.converged) == (drift, conv) == (ring_drift, ring_drift <= 0.1)
    assert doc["profile_converged"] == [False] * 3  # drift 7: the ring surrogate fails


def test_unconverged_profile_makes_the_trace_unstable(corpus, monkeypatch):
    ring_block = poisson._ring_block

    def drifting(m, eps, block):
        # the same values, but the ring drifts by 0.2 > 0.1 at every block
        values, rel = ring_block(m, eps, block)
        return values, max(rel, 0.2)

    assert poisson_sup([corpus["identity"]])[0].stable
    monkeypatch.setattr(poisson, "_ring_block", drifting)
    tr = poisson_sup([corpus["identity"]])[0]
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
