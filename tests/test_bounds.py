import json
import math
import re

import numpy as np
import pytest

from hqmap import (
    check_arc_image_diameter,
    check_boundary_dist_lower,
    check_derivative_bounds,
    check_harnack_box,
    check_two_point_growth,
    check_weighted_deriv_growth,
    decay_fit,
    default_corpus,
    derivative_bound_constant,
    disk_grid,
    harnack_constant,
)
from hqmap import bounds, geometry, suites
from hqmap.bounds import _HARNACK_A, _SLACK, _harnack_box, _report, rel_margin
from hqmap.maps import (
    AnalyticPart,
    Config,
    HarmonicMap,
    ParameterError,
    SenseReversalError,
    SeriesPart,
    check_sense_preserving,
    finite_dnorm,
)

from conftest import seeded_harmonic

ANALYTIC = ("identity", "koebe", "halfplane", "convex-poly2", "convex-poly3")


# ---------------------------------------------------------------------------
# closed-form constants


def test_derivative_constant_order_two():
    # at order 2 the scanned expression reduces to (1+t)/4, sup 1/2
    assert derivative_bound_constant(2.0, 1.0) == pytest.approx(2.0, abs=1e-9)
    assert derivative_bound_constant(2.0, 2.0) == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("qc_k", [1.0, 2.0, 10.0])
def test_derivative_constant_at_least_k(alpha, qc_k):
    assert derivative_bound_constant(alpha, qc_k) >= qc_k


def test_derivative_constant_refinement_stable():
    # a brute-force dense scan of the expression is the oracle
    alpha = 3.0
    t = np.linspace(1e-9, 1.0, 400_001)
    phi = t * (1 + t) ** (alpha - 1) / ((1 + t) ** alpha - (1 - t) ** alpha)
    brute = 2.0 * alpha * float(phi.max())
    assert derivative_bound_constant(alpha, 1.0) == pytest.approx(brute, abs=1e-9)


def _phi_sup_reference(alpha):
    """The scan and polish as ``derivative_bound_constant`` ran them on
    every call before the supremum was cached: the reference."""
    from hqmap.quadrature import golden_max

    def phi(t):
        t = np.asarray(t, dtype=float)
        return t * (1.0 + t) ** (alpha - 1.0) / ((1.0 + t) ** alpha - (1.0 - t) ** alpha)

    ts = np.linspace(1e-6, 1.0, 2001)
    vals = phi(ts)
    i = int(np.argmax(vals))
    _, polished = golden_max(lambda t: float(phi(t)), ts[max(i - 1, 0)],
                             ts[min(i + 1, len(ts) - 1)])
    return max(float(vals[i]), polished)


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.5, 7.0])
def test_derivative_constant_cached_supremum_is_the_per_call_one(alpha):
    from hqmap import bounds

    bounds._phi_sup.cache_clear()
    sup = _phi_sup_reference(alpha)
    for qc_k in (1.0, 1.25, 3.0, 10.0):
        assert derivative_bound_constant(alpha, qc_k) == 2.0 * alpha * qc_k * sup
    # one scan per alpha, whatever K
    assert bounds._phi_sup.cache_info().misses == 1


def test_derivative_constant_checks_k_on_every_call(monkeypatch):
    from hqmap import bounds

    monkeypatch.setattr(bounds, "_phi_sup", lambda alpha: 0.1)
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            derivative_bound_constant(2.0, 1.0)


def test_derivative_constant_rejects_bad_params():
    # NaN in each argument too, which "alpha < 2 or K < 1" let through
    for args in [(1.0, 1.0), (2.0, 0.0), (math.nan, 1.0), (2.0, math.nan)]:
        with pytest.raises(ParameterError):
            derivative_bound_constant(*args)


def test_harnack_constant_collapse():
    for a in (0.5, 1.0, 2.0):
        assert harnack_constant(a, a, 0.0, 3.7) == 2.0  # log term vanishes exactly


def test_harnack_constant_direct():
    direct = 2.0 * math.exp(3.0 * (math.pi + 0.5 * math.log(3.0)))
    assert harnack_constant(1.0, 2.0, math.pi, 2.0) == pytest.approx(direct, rel=1e-12)


def test_harnack_constant_bad_params():
    with pytest.raises(ParameterError):
        harnack_constant(2.0, 1.0, 0.0, 2.0)  # a1 > a2
    # NaN in each argument, which the old range test let through
    for at in range(4):
        args = [1.0, 2.0, math.pi, 2.0]
        args[at] = math.nan
        with pytest.raises(ParameterError):
            harnack_constant(*args)




# ---------------------------------------------------------------------------
# the classical-sharp family (analytic subfamily, order 2, K = 1)


@pytest.mark.parametrize("label", ANALYTIC)
def test_distortion_analytic(label, corpus):
    rep, _ = check_derivative_bounds(corpus[label], 2.0, 1.0)
    assert rep.passed, rep.notes


def test_distortion_koebe_attains_bound(corpus):
    # |k'(r)| equals the upper bound on the positive axis: margin ~ 0
    pts = np.array([0.3, 0.6, 0.9, 0.999], dtype=complex)
    rep, _ = check_derivative_bounds(corpus["koebe"], 2.0, 1.0, pts)
    assert rep.passed
    assert abs(rep.worst_margin) < 1e-12


@pytest.mark.parametrize("label", ANALYTIC)
def test_two_point_growth_analytic(label, corpus):
    rep = check_two_point_growth(corpus[label], 2.0, 1.0)
    assert rep.passed, (label, rep.worst_margin)


def test_two_point_growth_koebe_sharp(corpus):
    # upper bound attained at (0, r); lower bound attained at (0, -r)
    rep_up = check_two_point_growth(corpus["koebe"], 2.0, 1.0,
                                    pairs=[(0.0, 0.5)])
    assert rep_up.passed and abs(rep_up.worst_margin) <= 1e-6
    rep_lo = check_two_point_growth(corpus["koebe"], 2.0, 1.0,
                                    pairs=[(0.0, -0.5)])
    assert rep_lo.passed and abs(rep_lo.worst_margin) <= 1e-6


def test_two_point_growth_degenerate_pair(corpus):
    rep = check_two_point_growth(corpus["identity"], 2.0, 1.0, pairs=[(0.3, 0.3)])
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("read", [
    lambda m: check_two_point_growth(m, 2.0, 1.0),
    lambda m: check_harnack_box(m, 1.0, 2.0, 0.3),
], ids=["two-point-growth", "displacement"])
def test_vanishing_f_z_is_a_sense_reversal(read):
    # h = z - z^2/0.6 has h'(0.3) = 0, and 0.3 is a z0 of the default pairs;
    # the f_z divisor comes from check_sense_preserving, which names that point
    m = HarmonicMap(SeriesPart((0j, 1.0, -1.0 / 0.6)), SeriesPart((0j,)), "fold")
    with pytest.raises(SenseReversalError,
                       match=re.escape("fold: sense-reversing, |f_zb| >= |f_z|")) as info:
        read(m)
    assert info.value.witness == 0.3


@pytest.mark.parametrize("at, read", [
    (0.3 + 0j, lambda m: check_two_point_growth(m, 2.0, 1.0)),
    (0.9 + 0j, lambda m: check_harnack_box(m, 1.0, 2.0, 0.9 + 0j)),
], ids=["two-point-growth", "displacement"])
def test_equal_moduli_at_z0_is_a_sense_reversal(at, read, norm_at_point):
    # f_z = f_zb = 1 at z0: the divisor is not zero, so both checks used to
    # return a margin there
    with pytest.raises(SenseReversalError) as info:
        read(norm_at_point(at, 1.0))
    assert info.value.witness == at
    assert str(info.value) == ("convex-poly2: sense-reversing, |f_zb| >= |f_z| "
                               f"(witness z = {at})")


class _SpikePart(AnalyticPart):
    """The identity, but with an infinite derivative at the one point ``at``."""

    def __init__(self, at):
        self.at = at

    def derivative(self, order, z):
        z = np.asarray(z, dtype=complex)
        if order == 1:
            return np.where(z == self.at, complex(math.inf, 0.0), 1.0 + 0.0j)
        return z if order == 0 else np.zeros_like(z)


def test_norm_error_in_a_suite_names_its_map_once():
    # the Harnack box's norm goes through finite_dnorm, whose error names the
    # map; the suite prefixes the label only to errors that lack it (this
    # one used to be a non-finite harnack_comparison margin)
    at = complex(_harnack_box(0.9 + 0j)[7])
    m = HarmonicMap(_SpikePart(at), SeriesPart((0j,)), "spike")
    with pytest.raises(ParameterError) as info:
        suites._inequality_family(m, 2.0, 1.0, Config(grid_level=0), "spike")
    assert str(info.value) == f"spike: derivative norm is not finite at z = {at}"


@pytest.mark.parametrize("label", ANALYTIC)
def test_derivative_value_bound_analytic(label, corpus):
    _, rep = check_derivative_bounds(corpus[label], 2.0, 1.0)
    assert rep.passed, (label, rep.worst_margin)


def test_derivative_value_bound_koebe_margin(corpus):
    # the margin (2 - (1+r))/2 shrinks like (1-r)/2 toward the circle
    pts = np.array([0.999], dtype=complex)
    _, rep = check_derivative_bounds(corpus["koebe"], 2.0, 1.0, pts)
    assert rep.worst_margin == pytest.approx(0.0005, rel=1e-6)


@pytest.mark.parametrize("label", ANALYTIC)
def test_weighted_deriv_growth_analytic(label, corpus):
    rep = check_weighted_deriv_growth(corpus[label], 2.0)
    assert rep.passed, (label, rep.worst_margin)


def _reference_pairs() -> np.ndarray:
    # the (z0, z1) pairs as a list of numpy-scalar tuples, the way the
    # default was once rebuilt on every call
    z0s = np.array([0.0, 0.3, 0.5j, -0.4, 0.2 - 0.3j, 0.7, 0.6j, -0.1 - 0.6j])
    z1s = np.array([0.5, -0.5, 0.8j, -0.7j, 0.3 + 0.4j, -0.2 + 0.2j, 0.9, -0.9])
    pairs = [(a, b) for a in z0s for b in z1s]
    pairs += [(0.0, 0.5), (0.0, -0.5), (0.0, 0.9), (0.0, -0.9), (0.3, 0.3)]
    return np.asarray(pairs, dtype=complex)


def _reference_triples() -> list:
    # the (xi, rho, r) triples as a list of Python tuples, one loop per
    # direction and radius
    radii = np.linspace(0.0, 0.95, 10)
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    return [(complex(np.exp(1j * a)), float(radii[i]), float(radii[j]))
            for a in angles for i in range(len(radii)) for j in range(i, len(radii))]


def test_weighted_deriv_growth_default_arrays_are_built_once(corpus):
    # the default pairs and triple columns are read-only module arrays,
    # equal bit for bit to the list constructions above, and the lines they
    # give are the lines of those lists passed explicitly
    triples = _reference_triples()
    refs = [(bounds._PAIRS, _reference_pairs())]
    refs += [(col, np.array(ref, dtype=dtype))
             for col, ref, dtype in zip(bounds._TRIPLES, zip(*triples), (complex, float, float))]
    for got, ref in refs:
        assert not got.flags.writeable
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()
    for label in ("koebe", "shear-k3", "convex-poly3"):
        m = corpus[label]
        for alpha in (2.0, 3.0):
            assert (check_weighted_deriv_growth(m, alpha).to_json()
                    == check_weighted_deriv_growth(m, alpha, triples=triples).to_json())
            assert (check_two_point_growth(m, alpha, 3.0).to_json()
                    == check_two_point_growth(m, alpha, 3.0, _reference_pairs()).to_json())


def test_weighted_deriv_growth_identity_closed_form(corpus):
    # LHS/RHS has the closed form ((1-rho^2)/(1-r^2)) / e^{4 lambda}; spot
    # check one triple against direct arithmetic
    rho, r = 0.3, 0.8
    rep = check_weighted_deriv_growth(corpus["identity"], 2.0,
                                      triples=[(1.0 + 0j, rho, r)])
    lhs = 1.0 - rho**2
    rhs = ((1 + r) * (1 - rho) / ((1 - r) * (1 + rho))) ** 2 * (1 - r**2)
    assert rep.worst_margin == pytest.approx(float(rel_margin(lhs, rhs)), abs=1e-14)
    assert rep.passed


def test_weighted_deriv_growth_degenerate_triple(corpus):
    rep = check_weighted_deriv_growth(corpus["koebe"], 2.0,
                                      triples=[(1.0 + 0j, 0.5, 0.5)])
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("label", ANALYTIC)
def test_boundary_dist_lower_analytic(label, corpus):
    rep = check_boundary_dist_lower(corpus[label], 1.0)
    assert rep.passed, (label, rep.worst_margin)


def test_boundary_dist_lower_shear(corpus):
    rep = check_boundary_dist_lower(corpus["shear-k3"], 3.0)
    assert rep.passed


def test_boundary_dist_lower_identity_origin(corpus):
    rep = check_boundary_dist_lower(corpus["identity"], 1.0,
                                    points=np.array([0.0 + 0j]))
    # 1 >= 1/16 with the ring estimate of the distance
    assert rep.passed and rep.worst_margin > 0.9


def test_boundary_dist_lower_samples_inside_twice_the_offset(corpus):
    # |z| <= 1 - 2 eps keeps 0.5 and drops 0.9; with no point left the
    # call is an input error, not an empty reduction
    rep = check_boundary_dist_lower(corpus["identity"], 1.0, points=np.array([0.5, 0.9]),
                                    eps=0.1)
    assert rep.samples == 1 and rep.witness == 0.5
    with pytest.raises(ParameterError, match="no sample point"):
        check_boundary_dist_lower(corpus["identity"], 1.0, points=np.array([0.9]), eps=0.1)


@pytest.mark.parametrize("drift, passed", [(0.99, False), (0.5, True)])
def test_boundary_dist_lower_reads_drift(drift, passed, corpus, monkeypatch):
    # at z = 0 the identity's bound is d >= 1/16: a drift that puts
    # value - drift below it fails the line, while a drift of 50 %, far
    # outside the 5 % convergence rule, leaves room and passes
    from hqmap import geometry

    def estimate(m, w, eps, n):
        assert n == geometry._RING_N
        return geometry.DistanceEstimate(np.ones(np.shape(w)), np.full(np.shape(w), drift),
                                         False)

    monkeypatch.setattr(geometry, "boundary_distance", estimate)
    rep = check_boundary_dist_lower(corpus["identity"], 1.0, points=np.array([0.0 + 0j]))
    assert rep.passed == passed
    assert ("boundary distance did not converge" in rep.notes) != passed
    assert rep.notes.startswith("eps=0.0001 n=4096")


@pytest.mark.parametrize("label", ANALYTIC)
def test_harnack_analytic(label, corpus):
    rep, _ = check_harnack_box(corpus[label], 1.0, 2.0, 0.9 + 0.0j)
    assert rep.passed, (label, rep.worst_margin)


def test_harnack_identity_ratio_one(corpus):
    rep, _ = check_harnack_box(corpus["identity"], 1.0, 2.0, 0.7j)
    # ratio is identically 1, so the worst margin is 1/M - something tiny
    assert rep.passed and rep.worst_margin > 0.0


@pytest.mark.parametrize("label", ANALYTIC)
def test_displacement_analytic(label, corpus):
    _, rep = check_harnack_box(corpus[label], 1.0, 2.0, 0.9 + 0.0j)
    assert rep.passed, (label, rep.worst_margin)


# ---------------------------------------------------------------------------
# check_derivative_bounds and check_harnack_box against the four separate
# predicates they replace, kept here as references


def _ref_distortion(m, alpha, pts):
    t = np.abs(pts)
    hp = np.abs(m.h.d1(pts))
    lower = (1.0 - t) ** (alpha - 1.0) / (1.0 + t) ** (alpha + 1.0)
    upper = (1.0 + t) ** (alpha - 1.0) / (1.0 - t) ** (alpha + 1.0)
    margins = np.minimum(rel_margin(hp, upper), rel_margin(lower, hp))
    return _report("deriv_distortion", alpha, None, margins, pts, _SLACK)


def _ref_value_bound(m, alpha, qc_k, pts):
    c = derivative_bound_constant(alpha, qc_k)
    lhs = np.abs(pts) * finite_dnorm(m, pts)
    with np.errstate(over="ignore"):
        rhs = c * np.abs(m.value(pts)) / (1.0 - np.abs(pts))
    return _report("deriv_value_bound", alpha, qc_k, rel_margin(lhs, rhs), pts, _SLACK,
                   notes=f"C={c!r}")


def _ref_harnack(m, z0, alpha):
    big_m = harnack_constant(*_HARNACK_A, alpha)
    pts = _harnack_box(z0)
    ratio = finite_dnorm(m, pts) / float(finite_dnorm(m, z0))
    margins = np.minimum(rel_margin(ratio, big_m), rel_margin(1.0 / big_m, ratio))
    return _report("harnack_comparison", alpha, None, margins, pts, _SLACK,
                   notes=f"z0={z0!r} M={big_m!r}")


def _ref_displacement(m, qc_k, alpha, z0):
    big_m = harnack_constant(*_HARNACK_A, alpha)
    pts = _harnack_box(z0)
    fz0 = abs(complex(check_sense_preserving(m, z0).fz))
    factor = (big_m / 2.0) ** (2.0 * alpha / (1.0 + alpha)) - 1.0
    rhs = qc_k / (alpha * (1.0 + qc_k)) * factor * (1.0 - abs(z0) ** 2) * fz0
    lhs = np.abs(m.value(pts) - complex(m.value(z0)))
    return _report("local_displacement", alpha, qc_k, rel_margin(lhs, np.full_like(lhs, rhs)),
                   pts, _SLACK, notes=f"z0={z0!r} M={big_m!r}")


# the six built-ins and two seeded series maps, by (seed, degree)
_SERIES = {"series12-seed3": (3, 12), "series16-seed5": (5, 16)}
_MERGED_LABELS = (*sorted(default_corpus()), *_SERIES)


def _merged_map(label):
    return seeded_harmonic(*_SERIES[label]) if label in _SERIES else default_corpus()[label]


@pytest.mark.parametrize("label", _MERGED_LABELS)
@pytest.mark.parametrize("grid", ["default", "level-3"])
def test_derivative_bounds_are_the_two_separate_lines(label, grid):
    # to_json writes every field, each float by its shortest round-trip
    # repr, so equal lines are equal bit for bit
    m = _merged_map(label)
    # level-3: a 48,897-point grid, 16 times the default
    pts = disk_grid() if grid == "default" else disk_grid(192, 256)
    for alpha, qc_k in ((2.0, 1.0), (3.0, 2.5)):
        distortion, value_bound = check_derivative_bounds(m, alpha, qc_k, pts)
        assert distortion.to_json() == _ref_distortion(m, alpha, pts).to_json()
        assert value_bound.to_json() == _ref_value_bound(m, alpha, qc_k, pts).to_json()
    assert [r.to_json() for r in check_derivative_bounds(m, 2.0, 1.0)] == \
        [r.to_json() for r in check_derivative_bounds(m, 2.0, 1.0, disk_grid())]


@pytest.mark.parametrize("label", _MERGED_LABELS)
@pytest.mark.parametrize("z0", [0.9 + 0j, 0.7j, 0.3 + 0j])
def test_harnack_box_is_the_two_separate_lines(label, z0):
    m = _merged_map(label)
    for alpha, qc_k in ((2.0, 1.0), (3.0, 2.5)):
        harnack, displacement = check_harnack_box(m, qc_k, alpha, z0)
        assert harnack.to_json() == _ref_harnack(m, z0, alpha).to_json()
        assert displacement.to_json() == _ref_displacement(m, qc_k, alpha, z0).to_json()


class _CountingMap:
    """Forwards ``value`` and ``wirtinger`` to a map and logs each call with
    its number of points; it has no parts, so a direct part read fails."""

    def __init__(self, m):
        self.m, self.label, self.flags, self.calls = m, m.label, m.flags, []

    def value(self, z):
        self.calls.append(("value", np.size(z)))
        return self.m.value(z)

    def wirtinger(self, z):
        self.calls.append(("wirtinger", np.size(z)))
        return self.m.wirtinger(z)


def test_each_merged_predicate_reads_its_sample_once(corpus):
    m = _CountingMap(corpus["shear-k3"])
    pts = disk_grid()
    check_derivative_bounds(m, 3.0, 3.0, pts)
    assert m.calls == [("wirtinger", pts.size), ("value", pts.size)]
    m.calls.clear()
    check_harnack_box(m, 3.0, 3.0, 0.9 + 0j)
    box = _harnack_box(0.9 + 0j).size
    # the box norms, the one checked read at z0, then the values
    assert m.calls == [("wirtinger", box), ("wirtinger", 1), ("value", box), ("value", 1)]


def test_a_suite_reads_its_grid_once_per_map(corpus):
    # the derivative grid's 3,009 points match no other sample's count, at
    # every level
    size = disk_grid().size
    for level in (0, 3):
        for label in ("koebe", "shear-k3", "convex-poly2"):
            m = _CountingMap(corpus[label])
            suites._inequality_family(m, 3.0, 3.0, Config(grid_level=level), label)
            on_grid = [c for c in m.calls if c[1] == size]
            assert on_grid == [("wirtinger", size), ("value", size)], (level, label)
            assert m.calls.count(("wirtinger", 1)) == 1, (level, label)


def test_derivative_bounds_raise_where_the_distortion_line_did_not():
    # |g'| = 1.2 |z| reaches |h'| = 1 at |z| = 1/1.2 inside the grid; the
    # distortion line alone, which read h' only, wrote a line there
    m = HarmonicMap(SeriesPart((0j, 1.0)), SeriesPart((0j, 0j, 0.6)), "fold")
    pts = disk_grid()
    w = m.wirtinger(pts)
    first = complex(pts[np.argmax(np.abs(w.fzb) >= np.abs(w.fz))])
    assert 0.8 < abs(first) < 0.9
    with pytest.raises(SenseReversalError,
                       match=re.escape("fold: sense-reversing, |f_zb| >= |f_z|")) as info:
        check_derivative_bounds(m, 2.0, 1.0, pts)
    assert info.value.witness == first
    assert _ref_distortion(m, 2.0, np.array([first])).samples == 1
    assert _ref_distortion(m, 2.0, pts).samples == pts.size


@pytest.mark.parametrize("name", ["analytic-classical", "harmonic-advisory"])
def test_an_inequality_suite_builds_at_most_two_disk_grids(name, monkeypatch):
    # every map's boundary_dist_lower sample and K sample is one shared
    # array, not a grid per map, and the derivative grid is built at most
    # once per process
    built = []
    real = geometry.disk_grid
    monkeypatch.setattr(geometry, "disk_grid", lambda *a, **k: built.append(a) or real(*a, **k))
    corpus = dict(default_corpus(), **{
        f"series{s}": seeded_harmonic(s, 12) for s in (3, 5, 7)})
    reports, _ = suites.run_suite(name, corpus, Config(grid_level=0))
    assert len(reports) >= 7 * 3
    assert len(built) <= 1


def test_the_default_derivative_grid_is_one_read_only_array(monkeypatch, corpus):
    # the derivative grid and the distance grid are read-only module arrays,
    # equal bit for bit to disk_grid(); both inequality suites, at every
    # level, and direct calls read them and the pairs, and nothing builds
    # another grid after import
    grids = ((bounds._DERIV_GRID, disk_grid()), (bounds._DIST_GRID, disk_grid(24, 32)))
    for grid, ref in grids:
        assert not grid.flags.writeable
        assert (grid.dtype, grid.shape) == (ref.dtype, ref.shape)
        assert grid.tobytes() == ref.tobytes()
    read, norms, ks, built = [], [], [], []
    real_check, real_norm = bounds.check_sense_preserving, bounds.finite_dnorm
    real_qc, real_grid = suites.qc_constant, geometry.disk_grid
    monkeypatch.setattr(bounds, "check_sense_preserving",
                        lambda m, pts: read.append(pts) or real_check(m, pts))
    monkeypatch.setattr(bounds, "finite_dnorm",
                        lambda m, pts: norms.append(pts) or real_norm(m, pts))
    monkeypatch.setattr(suites, "qc_constant",
                        lambda m, pts: ks.append(pts) or real_qc(m, pts))
    monkeypatch.setattr(geometry, "disk_grid",
                        lambda *a, **k: built.append(a) or real_grid(*a, **k))
    for level in (0, 3):
        for name in ("analytic-classical", "harmonic-advisory"):
            suites.run_suite(name, corpus, Config(grid_level=level))
    check_derivative_bounds(corpus["koebe"], 2.0, 1.0)
    check_two_point_growth(corpus["koebe"], 2.0, 1.0)
    check_boundary_dist_lower(corpus["koebe"], 1.0)
    calls = 2 * len(corpus) + 1
    assert [pts is bounds._DERIV_GRID for pts in read].count(True) == calls
    # the z0 column of the pairs is a view of the one pair array
    assert [np.shares_memory(pts, bounds._PAIRS) for pts in read].count(True) == calls
    # the default eps keeps every distance-grid point, |z| <= 0.999
    on_dist = [pts for pts in norms if pts.size == bounds._DIST_GRID.size]
    assert len(on_dist) == calls
    assert all(pts.tobytes() == bounds._DIST_GRID.tobytes() for pts in on_dist)
    assert len(ks) == 2 and all(pts is bounds._DIST_GRID for pts in ks)
    assert built == []


def test_every_suite_writes_the_same_lines_at_every_level():
    # no check sample grows with the level: the derivative lines read 3,009
    # points and the Stolz lines 4,850 per radius at every level
    corpus = dict(default_corpus(), **{f"series{s}": seeded_harmonic(s, 12) for s in (3, 5)})
    for name in suites.SUITES:
        lines = {level: [r.to_json() for r in suites.run_suite(name, corpus,
                                                                Config(grid_level=level))[0]]
                 for level in (0, 1, 3, 6)}
        assert bool(lines[1]) == (name != "none"), name
        for level in (0, 3, 6):
            assert lines[level] == lines[1], (name, level)


# ---------------------------------------------------------------------------
# arc-image diameter


def test_arc_diameter_identity_chord(corpus):
    ident = corpus["identity"]
    fit = decay_fit(ident)
    rep = check_arc_image_diameter(ident, 1.0, 2.0, (fit.c, fit.delta), [0.9 + 0j])
    assert rep.passed
    # the arc image is a circular arc of half-angle pi/10 at radius ~1:
    # its diameter is the chord 2 sin(pi/10)
    assert rep.worst_margin > 0.9  # bound exceeds the chord by orders


def test_arc_diameter_full_circle(corpus):
    ident = corpus["identity"]
    fit = decay_fit(ident)
    rep = check_arc_image_diameter(ident, 1.0, 2.0, (fit.c, fit.delta), [1e-9 + 0j])
    assert rep.passed  # diam 2 versus a huge right-hand side


def test_arc_diameter_convex_poly(corpus):
    m = corpus["convex-poly2"]
    fit = decay_fit(m)
    rep = check_arc_image_diameter(m, 1.0, 2.0, (fit.c, fit.delta), [0.9 + 0j, 0.5j])
    assert rep.passed
    # the default anchors are 0.9 and 0.7i
    assert (check_arc_image_diameter(m, 1.0, 2.0, (fit.c, fit.delta)).to_json()
            == check_arc_image_diameter(m, 1.0, 2.0, (fit.c, fit.delta),
                                        [0.9 + 0j, 0.7j]).to_json())


def test_arc_diameter_fails_on_unconverged_distance(corpus):
    # f(a) of the second anchor is a node of the 8192-point ring but not of
    # the 4096-point one, so the n and 2n distances disagree
    ident = corpus["identity"]
    a_points = [0.9 + 0j, (1.0 - 1e-4) * np.exp(2j * math.pi / 8192)]
    rep = check_arc_image_diameter(ident, 1.0, 2.0, (1.0, 1.0), a_points)
    assert not rep.passed
    assert rep.notes.endswith("boundary distance did not converge")


def test_arc_diameter_requires_bounded(corpus):
    with pytest.raises(ParameterError):
        check_arc_image_diameter(corpus["koebe"], 1.0, 2.0, (1.0, 0.5), [0.9 + 0j])


def test_arc_diameter_requires_decay(corpus):
    with pytest.raises(ParameterError):
        check_arc_image_diameter(corpus["identity"], 1.0, 2.0, (1.0, -2.0), [0.9 + 0j])


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_schema(corpus):
    rep, _ = check_derivative_bounds(corpus["identity"], 2.0, 1.0)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"predicate", "alpha", "K", "samples", "worst_margin",
                        "witness", "pass", "slack", "notes"}
    assert doc["pass"] is True
    assert isinstance(doc["witness"], list) and len(doc["witness"]) == 2


def test_report_unconverged_input_fails_the_line():
    # a positive margin does not pass a line whose input estimate did not converge
    ok = _report("p", 0.0, None, [0.5, 0.25], [0.1, 0.2], 1e-9, notes="x=1")
    assert ok.passed and ok.notes == "x=1"
    rep = _report("p", 0.0, None, [0.5, 0.25], [0.1, 0.2], 1e-9, notes="x=1",
                  unconverged="ring estimate")
    assert not rep.passed
    assert rep.worst_margin == 0.25 and rep.witness == 0.2
    assert rep.notes == "x=1 ring estimate did not converge"
    bare = _report("p", 0.0, None, [1.0], [0.1], 1e-9, unconverged="ring estimate")
    assert bare.notes == "ring estimate did not converge"


def test_report_samples_override():
    assert _report("p", 0.0, None, [1.0, 2.0], [0.1, 0.2], 0.0).samples == 2
    assert _report("p", 0.0, None, [1.0], [0.1], 0.0, samples=400).samples == 400


def test_monotone_stability_under_refinement(corpus):
    # doubling grid density never flips a pass beyond the declared slack
    for label in ("koebe", "halfplane"):
        m = corpus[label]
        coarse, dvb_c = check_derivative_bounds(m, 2.0, 1.0, disk_grid(16, 16))
        fine, dvb_f = check_derivative_bounds(m, 2.0, 1.0, disk_grid(32, 32))
        assert coarse.passed and fine.passed
        assert dvb_c.passed and dvb_f.passed


# ---------------------------------------------------------------------------
# an explicit sample with no point is an input error, never a line


@pytest.mark.parametrize("label, call, predicate", [
    ("koebe", lambda m: check_two_point_growth(m, 2.0, 1.0, pairs=[]), "two_point_growth"),
    ("koebe", lambda m: check_derivative_bounds(m, 2.0, 1.0, points=[]), "deriv_distortion"),
    ("koebe", lambda m: check_weighted_deriv_growth(m, 2.0, triples=[]),
     "weighted_deriv_growth"),
    ("identity", lambda m: check_arc_image_diameter(m, 1.0, 2.0, (1.0, 0.5), a_points=[]),
     "arc_image_diameter"),
], ids=["pairs", "points", "triples", "a_points"])
def test_an_empty_explicit_sample_is_an_input_error(corpus, label, call, predicate):
    with pytest.raises(ParameterError, match=f"^{predicate}: the sample is empty$"):
        call(corpus[label])
