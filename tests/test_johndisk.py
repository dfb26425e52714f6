import gc
import json
import math
import weakref

import numpy as np
import pytest

from hqmap import (
    CatalogPart,
    ComboPart,
    DecayFit,
    HarmonicMap,
    ParameterError,
    SenseReversalError,
    SeriesPart,
    boundary_box,
    boundary_distance,
    criterion_ii,
    criterion_iii,
    decay_fit,
    diam_ratio_check,
    holder_check,
    john_estimate,
    rotate,
)
from hqmap import johndisk
from hqmap.johndisk import HolderFit
from hqmap.maps import WirtingerPair, finite_dnorm

from conftest import seeded_harmonic

EXPECTED_JOHN = {
    "identity": True,
    "shear-k3": True,
    "convex-poly2": True,
    "convex-poly3": True,
    "koebe": False,
    "halfplane": False,
}


# ---------------------------------------------------------------------------
# criterion (ii)


def test_criterion_ii_identity_closed_form(corpus):
    # the ratio is (1-x^2)/(1+xr)^2: the sup over the same radius grid is
    # the oracle
    n_r = 48
    r = 1.0 - np.geomspace(1.0, 1.0 - 0.999, n_r)
    for x in (0.3, 0.5, 0.9):
        oracle = float(np.max((1 - x**2) / (1 + x * r) ** 2))
        got = criterion_ii(corpus["identity"], x, n_r=n_r)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got < 1.0


def test_criterion_ii_degenerate_x(corpus):
    # x -> 0 collapses rho to r and the ratio to 1 for every map
    for label in ("identity", "koebe"):
        assert criterion_ii(corpus[label], 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_criterion_ii_parameter_range(corpus):
    with pytest.raises(ParameterError):
        criterion_ii(corpus["identity"], 0.0)
    with pytest.raises(ParameterError):
        criterion_ii(corpus["identity"], 1.0)


def test_criterion_ii_koebe_always_large(corpus):
    for x in (0.3, 0.5, 0.7, 0.9):
        assert criterion_ii(corpus["koebe"], x) >= 1.0


def test_criterion_ii_convex_small(corpus):
    assert any(criterion_ii(corpus["convex-poly2"], x) < 1.0
               for x in (0.3, 0.5, 0.7, 0.9))


def test_criterion_ii_rotation_invariant(corpus):
    # rotations aligned with the angular lattice permute the samples
    n_zeta = 48
    sigma = np.exp(2j * math.pi * 5 / n_zeta)
    for label in ("shear-k3", "convex-poly2"):
        base = criterion_ii(corpus[label], 0.5, n_zeta=n_zeta)
        rotated = criterion_ii(rotate(corpus[label], sigma), 0.5, n_zeta=n_zeta)
        assert abs(base - rotated) < 1e-9


def test_criterion_ii_nan_norm_is_an_error(nan_norm_map):
    # np.max returned the NaN, which the John JSON wrote as a bare NaN token
    with pytest.raises(ParameterError, match="nan-norm: derivative norm is not finite at z = "):
        criterion_ii(nan_norm_map, 0.5)


def test_criterion_ii_overflowing_ratio_is_an_error(tiny_norm_map):
    # a subnormal norm below the ratio made the supremum inf, which the
    # John JSON wrote as a bare Infinity token
    with pytest.raises(ParameterError) as info:
        criterion_ii(tiny_norm_map, 0.3)
    assert str(info.value) == f"convex-poly2: criterion ratio is not finite at z = {tiny_norm_map.at}"


# ---------------------------------------------------------------------------
# criterion (iii)


def test_criterion_iii_identity_value_and_stability(corpus):
    tr = criterion_iii([corpus["identity"]])[0]
    # the supremum tends to sqrt(1 + pi^2)/2 at the angular corner
    assert tr.sup == pytest.approx(math.sqrt(1 + math.pi**2) / 2, abs=0.01)
    assert tr.stable and not tr.increasing
    drifts = [abs(b - a) / a for a, b in zip(tr.trace[:-1], tr.trace[1:])]
    assert max(drifts) < 1e-3


def test_criterion_iii_identity_origin_slice(corpus):
    # at z = 0 the box is the whole disk and the ratio is |w|: the slice
    # supremum approaches 1 with the reach of the sample
    from hqmap.geometry import boundary_box
    from hqmap.johndisk import _reach

    reach = _reach(0)
    box = boundary_box(0.0, 20, 21, reach=reach)
    ident = corpus["identity"]
    slice_sup = float(np.max(np.abs(ident.value(box))))
    assert slice_sup == pytest.approx(reach, abs=1e-12)
    assert slice_sup == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("trace, stable", [
    ([1.0, 1.049], True), ([1.0, 1.05], False), ([1.0, 0.951], True), ([1.0, 0.95], False),
    ([3.0, 1.0, 1.049], True), ([2.0], True),
])
def test_the_trace_rule_reads_the_last_refinement_step(trace, stable):
    # the one rule of criterion (iii) and the Poisson sup trace: the last
    # step moves the trace by less than 5 % of its previous value
    assert johndisk._trace_stable(trace) is stable


def test_criterion_iii_shear_stability(corpus):
    tr = criterion_iii([corpus["shear-k3"]])[0]
    drifts = [abs(b - a) / a for a, b in zip(tr.trace[:-1], tr.trace[1:])]
    assert tr.stable
    assert max(drifts) < 1e-3


def test_criterion_iii_koebe_diverges(corpus):
    tr = criterion_iii([corpus["koebe"]])[0]
    assert tr.increasing and not tr.stable
    assert all(b >= 1.5 * a for a, b in zip(tr.trace[:-1], tr.trace[1:]))


def test_criterion_iii_halfplane_diverges(corpus):
    tr = criterion_iii([corpus["halfplane"]])[0]
    assert tr.increasing and not tr.stable


def _criterion_iii_per_rotation(m, levels=3, n_box=20, n_ang=32):
    """Reference trace: one evaluation per rotated box, the sup folded in
    rotation order."""
    from hqmap.geometry import boundary_box
    from hqmap.johndisk import _level_density, _reach, _z_radii

    trace = []
    rots = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False))
    for level in range(levels):
        reach = _reach(level)
        nb = _level_density(n_box, level)
        f0 = complex(m.value(0.0 + 0.0j))
        box0 = boundary_box(0.0 + 0.0j, nb, nb | 1, reach=reach)
        sup = float(np.max(np.abs(m.value(box0) - f0))
                    / float(m.wirtinger(0.0 + 0.0j).dnorm))
        for r in _z_radii(level):
            box_r = boundary_box(complex(r), nb, nb | 1, reach=reach)
            zs = r * rots
            dens = (1.0 - r * r) * np.asarray(m.wirtinger(zs).dnorm, dtype=float)
            fzs = m.value(zs)
            for k, rot in enumerate(rots):
                num = float(np.max(np.abs(m.value(rot * box_r) - fzs[k])))
                sup = max(sup, num / float(dens[k]))
        trace.append(sup)
    return tuple(trace)


def _series12():
    k = np.arange(2, 13)
    h = [0j, 1 + 0j] + list(0.05 / k * np.exp(1j * k))
    g = [0j, 0j] + list(0.03 / k * np.exp(-2j * k))
    return HarmonicMap(SeriesPart(tuple(h)), SeriesPart(tuple(g)), "series12")


def _seeded_harmonic12(seed):
    """Degree-12 map h = z + sum a_k z^k, g = sum b_k z^k with random phases
    and sum_k k (|a_k| + |b_k|) < 1, so sense-preserving on the closed disk."""
    rng = np.random.default_rng(seed)
    k = np.arange(2, 13)
    w = rng.uniform(0.0, 1.0, (2, k.size))
    w *= rng.uniform(0.3, 0.95) / w.sum()
    coef = w / k * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, w.shape))
    h = (0j, 1 + 0j) + tuple(coef[0])
    g = (0j, 0j) + tuple(coef[1])
    return HarmonicMap(SeriesPart(h), SeriesPart(g), f"series12-seed{seed}")


def test_criterion_iii_batched_boxes_match_per_rotation(corpus):
    # evaluating the box edges of all rotations at once must not move a
    # single bit of the trace the full grids give one rotation at a time
    maps = (_series12(),
            HarmonicMap(CatalogPart("halfplane", rotation=np.exp(0.7j)),
                        SeriesPart((0j, 0j, 0.1 + 0.05j)), "halfplane-rot"),
            *(corpus[label] for label in sorted(corpus)),
            _seeded_harmonic12(3), _seeded_harmonic12(11))
    for m in maps:
        assert criterion_iii([m])[0].trace == _criterion_iii_per_rotation(m), m.label


def _level_boxes_reference(level):
    """Criterion (iii)'s level sample as it was built inline, once per map
    and level, before ``_level_boxes`` cached it: the reference."""
    from hqmap.geometry import boundary_boxes
    from hqmap.johndisk import _level_density, _reach, _z_radii

    reach = _reach(level)
    nb = _level_density(20, level)
    box_shape = (nb, nb | 1)
    edges = np.zeros(box_shape, dtype=bool)
    edges[[0, -1], :] = True
    edges[:, [0, -1]] = True
    edges = edges.ravel()
    radii = _z_radii(level)
    boxes = boundary_boxes([0.0, *radii], *box_shape, reach)[:, edges]
    return reach, radii, boxes


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_level_boxes_are_the_inline_construction(level):
    from hqmap.johndisk import _level_boxes

    sample = _level_boxes(level)
    assert _level_boxes(level) is sample
    reach, radii, boxes = sample
    ref_reach, ref_radii, ref_boxes = _level_boxes_reference(level)
    assert reach == ref_reach
    for got, ref in ((radii, ref_radii), (boxes, ref_boxes)):
        assert not got.flags.writeable
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class _CountingMap:
    """Forwards to a map and counts its ``value`` and ``wirtinger`` calls."""

    def __init__(self, m):
        self.m = m
        self.label = m.label
        self.value_calls = 0
        self.wirtinger_calls = 0

    def value(self, z):
        self.value_calls += 1
        return self.m.value(z)

    def wirtinger(self, z):
        self.wirtinger_calls += 1
        return self.m.wirtinger(z)


def test_criterion_iii_value_calls_per_radius(corpus):
    # two origin calls per level, then one call at the z points and one for
    # the batched boxes per z-radius
    from hqmap.johndisk import _z_radii

    levels = 3
    m = _CountingMap(corpus["convex-poly2"])
    criterion_iii([m], levels=levels)
    radii = sum(len(_z_radii(level)) for level in range(levels))
    assert m.value_calls <= 2 * levels + 2 * radii


# ---------------------------------------------------------------------------
# decay fit


def test_decay_identity(corpus):
    fit = decay_fit(corpus["identity"])
    assert fit.min_slope == pytest.approx(0.0, abs=1e-12)
    assert fit.delta == pytest.approx(1.0, abs=1e-12)
    assert fit.c == pytest.approx(1.0, abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.hypothesis_holds()


def test_decay_nan_norm_is_an_error(nan_norm_map):
    # the fit once came out as C = 0, residual = 0, delta = NaN
    with pytest.raises(ParameterError, match="nan-norm: derivative norm is not finite at z = "):
        decay_fit(nan_norm_map)


def _decay_fit_per_ray(m, window=(0.6, 0.99)):
    """Reference fit: one derivative-norm evaluation per ray, and the
    constant folded ray by ray."""
    lo, hi = window
    u = np.linspace(0.0, 1.0, 48) ** 0.5
    a, b = math.log(1.0 - lo), math.log(1.0 - hi)
    big_l = a + (b - a) * u
    rho = 1.0 - np.exp(big_l)
    slopes = []
    residual = 0.0
    norms = []
    for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        zeta = complex(np.exp(1j * t))
        vals = finite_dnorm(m, rho * zeta)
        y = np.log(vals)
        slope, intercept = np.polyfit(big_l, y, 1)
        slopes.append(float(slope))
        residual = max(residual, float(np.max(np.abs(slope * big_l + intercept - y))))
        norms.append(vals)
    delta = 1.0 + min(slopes)
    c_emp = 0.0
    for vals in norms:
        ratio = vals[:, None] / vals[None, :]
        scale = ((1.0 - rho[:, None]) / (1.0 - rho[None, :])) ** (delta - 1.0)
        mask = rho[:, None] >= rho[None, :]
        c_emp = max(c_emp, float(np.max(np.where(mask, ratio / scale, 0.0))))
    return DecayFit(c=c_emp, delta=float(delta), residual=residual, slopes=tuple(slopes))


def test_decay_fit_matches_per_ray_reference(corpus):
    # the one lattice evaluation gives every slope, residual and constant of
    # the ray-by-ray fit bit for bit
    maps = (*(corpus[label] for label in sorted(corpus)), _series12(),
            *(_seeded_harmonic12(seed) for seed in (1, 2, 3, 11, 19)))
    def bits(fit):
        return np.array([fit.c, fit.delta, fit.residual, *fit.slopes]).tobytes()

    for m in maps:
        for window in ((0.6, 0.99), (0.5, 0.999)):
            assert bits(decay_fit(m, window)) == bits(_decay_fit_per_ray(m, window)), \
                (m.label, window)


def test_decay_fit_makes_one_norm_call(corpus):
    for label in ("identity", "koebe", "shear-k3"):
        m = _CountingMap(corpus[label])
        decay_fit(m)
        assert (m.wirtinger_calls, m.value_calls) == (1, 0), label


class _NanBelowMap(_CountingMap):
    """Its derivative norm is NaN wherever Im z < -0.3."""

    def wirtinger(self, z):
        w = super().wirtinger(z)
        fz = np.array(w.fz, dtype=complex)
        fz[np.imag(np.broadcast_to(z, fz.shape)) < -0.3] = np.nan
        return WirtingerPair(fz, w.fzb)


def test_decay_nan_norm_names_the_first_bad_point_of_the_first_bad_ray(corpus):
    # rays 9 to 15 point below the real axis; ray 9 is the first to cross
    # Im z = -0.3, though ray 10 crosses it at a smaller radius
    m = _NanBelowMap(corpus["convex-poly2"])
    with pytest.raises(ParameterError) as ref:
        _decay_fit_per_ray(m)
    with pytest.raises(ParameterError) as info:
        decay_fit(m)
    assert str(info.value) == str(ref.value)
    where = complex(str(info.value).split("z = ")[1])
    assert math.atan2(where.imag, where.real) == pytest.approx(-7 * math.pi / 8)


def test_decay_koebe_slope(corpus):
    fit = decay_fit(corpus["koebe"])
    assert fit.min_slope == pytest.approx(-3.0, abs=0.05)
    assert not fit.hypothesis_holds()


def test_decay_halfplane_slope(corpus):
    fit = decay_fit(corpus["halfplane"])
    assert fit.min_slope == pytest.approx(-2.0, abs=0.05)
    assert not fit.hypothesis_holds()


def test_decay_convex_in_range(corpus):
    for label in ("convex-poly2", "convex-poly3"):
        fit = decay_fit(corpus[label])
        assert 0.0 < fit.delta <= 1.0


def test_decay_window_validation(corpus):
    with pytest.raises(ParameterError):
        decay_fit(corpus["identity"], window=(0.2, 0.9))


def test_a_map_is_fitted_once_and_kept_while_it_lives(monkeypatch):
    # the suites and john_estimate read one fit per map; the cache does not
    # keep the map alive
    fitted = []
    fit = johndisk.decay_fit

    def counting(m, *args):
        fitted.append(m.label)
        return fit(m, *args)

    monkeypatch.setattr(johndisk, "decay_fit", counting)
    m = HarmonicMap(SeriesPart((0j, 1 + 0j, 0.2 + 0.1j)), SeriesPart((0j,)), "kept")
    first = johndisk._default_fit(m)
    assert johndisk._default_fit(m) is first
    assert first == fit(m)
    assert john_estimate([m])[0].decay is first
    assert fitted == ["kept"]
    kept = weakref.ref(m)
    del m
    gc.collect()
    assert kept() is None


# ---------------------------------------------------------------------------
# assembled verdicts


@pytest.mark.parametrize("label", sorted(EXPECTED_JOHN))
def test_john_verdicts(label, corpus):
    est = john_estimate([corpus[label]])[0]
    expected = "john-positive" if EXPECTED_JOHN[label] else "john-negative"
    assert est.verdict == expected


def test_john_three_criteria_agree(corpus):
    for label, expected in EXPECTED_JOHN.items():
        est = john_estimate([corpus[label]])[0]
        by_ii = any(s < 1.0 for _, s in est.criterion_ii)
        by_iii = est.criterion_iii.stable
        by_decay = 0.0 < est.decay.delta <= 1.0
        assert by_ii == by_iii == by_decay == expected, label


def _scaled(m, c):
    # c f = c h + conj(conj(c) g); the normalization flags no longer hold
    return HarmonicMap(ComboPart(((c, m.h),)), ComboPart(((c.conjugate(), m.g),)),
                       m.label, m.flags - {"SH", "SH0", "analytic"})


@pytest.mark.parametrize("c", [2.0 + 0j, 1j], ids=["2", "i"])
@pytest.mark.parametrize("label", sorted(EXPECTED_JOHN))
def test_john_estimate_is_invariant_under_scaling(label, c, corpus):
    # every criterion is a ratio of |f| differences or of derivative norms,
    # so c f reads the same numbers as f; the decay fit's log sums round
    # apart, by at most 1.6e-15 (C of koebe, c = 2, relative)
    est, scaled = john_estimate([corpus[label]])[0], john_estimate([_scaled(corpus[label], c)])[0]
    assert scaled.criterion_ii == est.criterion_ii
    assert scaled.criterion_iii == est.criterion_iii
    assert scaled.verdict == est.verdict
    assert abs(scaled.decay.delta - est.decay.delta) <= 2e-15
    assert abs(scaled.decay.c - est.decay.c) <= 2e-15 * est.decay.c
    assert abs(scaled.decay.residual - est.decay.residual) <= 2e-15


def test_john_json_shape(corpus):
    doc = json.loads(john_estimate([corpus["identity"]])[0].to_json())
    assert set(doc) == {"criterion_ii", "criterion_iii", "decay", "verdict"}
    assert {d["x"] for d in doc["criterion_ii"]} == {0.3, 0.5, 0.7, 0.9}
    assert len(doc["criterion_iii"]["trace"]) == 3
    assert set(doc["decay"]) == {"C", "delta", "residual"}
    assert doc["verdict"] == "john-positive"


# ---------------------------------------------------------------------------
# diameter-ratio check


def test_diam_ratio_equal_anchors(corpus):
    rep = diam_ratio_check(corpus["identity"], 0.9, 0.9, 2.0)
    assert rep.passed
    assert "diam_ratio=1.0" in rep.notes


def test_diam_ratio_identity_chords(corpus):
    rep = diam_ratio_check(corpus["identity"], 0.9, 0.8, 2.0)
    assert rep.passed
    # boxes are nearly full annular sectors, so the diameters are the corner
    # chords 2 R sin(pi(1-|a|)) and the constant is their ratio over 0.25
    c3 = float(rep.notes.split("C3=")[1].split(" ")[0])
    oracle = (math.sin(0.1 * math.pi) / math.sin(0.2 * math.pi)) / 0.25
    assert c3 == pytest.approx(oracle, rel=2e-3)


def test_diam_ratio_convex(corpus):
    rep = diam_ratio_check(corpus["convex-poly2"], 0.85, 0.7, 2.0)
    assert rep.passed


def test_diam_ratio_takes_no_k(corpus):
    rep = diam_ratio_check(corpus["identity"], 0.9, 0.8, 2.0)
    assert json.loads(rep.to_json())["K"] is None


def test_diam_ratio_nesting_guard(corpus):
    with pytest.raises(ParameterError):
        diam_ratio_check(corpus["identity"], 0.8, 0.9, 2.0)
    with pytest.raises(ParameterError):
        # same radii but disjoint angular windows
        diam_ratio_check(corpus["identity"], 0.9, -0.9, 2.0)


# ---------------------------------------------------------------------------
# Hoelder continuity inside boxes


def test_holder_identity(corpus):
    fit = holder_check(corpus["identity"], 0.8)
    assert fit.delta1 == pytest.approx(1.0, abs=0.05)
    assert fit.c4 == pytest.approx(1.0, abs=0.05)


def test_holder_shear(corpus):
    # the constant derivative matrix stretches directions by factors in
    # [0.5, 1.5]; long pairs in the box are tangential (factor 0.5) while
    # short ones are radial (factor 1.5), which drags the least-squares
    # exponent below 1 even though every pair scales linearly
    fit = holder_check(corpus["shear-k3"], 0.75)
    assert 0.7 <= fit.delta1 <= 1.0 + 1e-9
    assert fit.c4 <= 1.6  # reflects the affine stretch of 1.5


def test_holder_convex(corpus):
    fit = holder_check(corpus["convex-poly2"], 0.6 + 0.3j)
    assert fit.delta1 == pytest.approx(1.0, abs=0.1)


def _holder_by_pairs(m, z):
    # the fit over the repeated pair arrays w1, w2: each box point is
    # evaluated once per pair it is in
    d = boundary_distance(m, complex(m.value(z))).value
    pts = boundary_box(z, 8, 9)
    w1 = pts[:, None].repeat(len(pts), axis=1).ravel()
    w2 = pts[None, :].repeat(len(pts), axis=0).ravel()
    keep = np.abs(w1 - w2) > 1e-12
    w1, w2 = w1[keep], w2[keep]
    lt = np.log(np.abs(w1 - w2) / (1.0 - abs(z)))
    ly = np.log(np.maximum(np.abs(m.value(w1) - m.value(w2)) / d, 1e-300))
    delta1 = np.polyfit(lt, ly, 1)[0]
    return HolderFit(c4=float(np.exp(np.max(ly - delta1 * lt))), delta1=float(delta1),
                     pairs=int(len(w1)))


def test_holder_evaluates_each_box_point_once(corpus):
    # broadcasting over the 72 box values gives the pair-array fit bit for bit
    for m in corpus.values():
        for z in (0.8, 0.6 + 0.3j, -0.75j, 0.95 * np.exp(0.3j)):
            fit = holder_check(m, z)
            assert fit == _holder_by_pairs(m, z), (m.label, z)
            assert fit.pairs == 72 * 71


def test_holder_scope(corpus):
    with pytest.raises(ParameterError):
        holder_check(corpus["identity"], 0.3)


# ---------------------------------------------------------------------------
# criterion (iii) on box edges: w -> |f(w) - f(z)| is subharmonic, so the
# box maximum sits on the box boundary


def _grid_edges(vals, shape):
    """The four edges of the (n_radial, n_angular) grids flattened in the
    last axis of vals: first and last radius, first and last angle."""
    grid = vals.reshape(vals.shape[:-1] + shape)
    return np.concatenate([grid[..., 0, :], grid[..., -1, :],
                           grid[..., 1:-1, 0], grid[..., 1:-1, -1]], axis=-1)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_criterion_iii_edge_maximum_is_grid_maximum(level, corpus):
    # every rotated-box row: the edge maximum is the full-grid maximum, bit
    # for bit, at radii from the core to the cap
    from hqmap.geometry import boundary_box
    from hqmap.johndisk import _level_density, _reach

    reach = _reach(level)
    nb = _level_density(20, level)
    shape = (nb, nb | 1)
    rots = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    for m in (corpus["shear-k3"], corpus["koebe"], _seeded_harmonic12(5)):
        box0 = boundary_box(0.0 + 0.0j, *shape, reach=reach)
        d0 = np.abs(m.value(box0) - complex(m.value(0.0 + 0.0j)))
        assert np.max(_grid_edges(d0, shape)).tobytes() == np.max(d0).tobytes()
        for r in (0.15, 0.6, 0.9, 0.99, 0.999):
            box = boundary_box(complex(r), *shape, reach=reach)
            d = np.abs(m.value(rots[:, None] * box[None, :])
                       - m.value(r * rots)[:, None])
            full = np.max(d, axis=1)
            edge = np.max(_grid_edges(d, shape), axis=1)
            assert edge.tobytes() == full.tobytes(), (m.label, r)


class _SizeRecordingMap(_CountingMap):
    """Also records the point count of every ``value`` call."""

    def __init__(self, m):
        super().__init__(m)
        self.sizes = []

    def value(self, z):
        self.sizes.append(int(np.size(z)))
        return super().value(z)


def test_criterion_iii_box_calls_get_exactly_the_edge_points(corpus):
    # per level: f(0), the origin box, then per block of k consecutive
    # z-radii the 32 k z points and the 32 k rotated boxes; a box is
    # 2 (nb|1) + 2 (nb - 2) edge points, and a block holds as many radii as
    # fit in _BOX_BLOCK points (13, 8 and 5 at levels 0, 1 and 2)
    from hqmap.johndisk import _BOX_BLOCK, _level_density, _z_radii

    levels = 3
    m = _SizeRecordingMap(corpus["convex-poly3"])
    criterion_iii([m], levels=levels)
    expected = []
    blocks = 0
    for level, per_block in zip(range(levels), (13, 8, 5)):
        nb = _level_density(20, level)
        edge = 2 * (nb | 1) + 2 * (nb - 2)
        assert per_block == _BOX_BLOCK // (32 * edge)
        n_radii = len(_z_radii(level))
        expected += [1, edge]
        for lo in range(0, n_radii, per_block):
            k = min(per_block, n_radii - lo)
            expected += [32 * k, 32 * k * edge]
            blocks += 1
    assert m.sizes == expected
    assert blocks == 21 and len(expected) == 48
    assert expected[1:4] == [78, 32 * 13, 32 * 13 * 78] and 32 * 5 * 176 in expected


@pytest.mark.parametrize("block", [1, 1 << 22])
def test_criterion_iii_block_split_does_not_move_the_trace(block, corpus, monkeypatch):
    # one radius per block, and one block per level, give the default trace
    # bit for bit
    from hqmap import johndisk

    maps = (corpus["koebe"], corpus["convex-poly3"], _seeded_harmonic12(7))
    default = [np.array(criterion_iii([m])[0].trace).tobytes() for m in maps]
    monkeypatch.setattr(johndisk, "_BOX_BLOCK", block)
    assert [np.array(criterion_iii([m])[0].trace).tobytes() for m in maps] == default


def test_criterion_iii_pass_over_many_maps_gives_each_map_its_own_bits(corpus):
    maps = (*(corpus[label] for label in sorted(corpus)),
            _seeded_harmonic12(7), seeded_harmonic(5, 16))
    together = criterion_iii(maps)
    assert len(together) == len(maps)
    for m, trace in zip(maps, together):
        assert trace == criterion_iii([m])[0], m.label


def _crit_zero():
    # h'(z) = 1 - (20/3) z vanishes at z = 0.15, a core z-radius
    return HarmonicMap(SeriesPart((0j, 1 + 0j, -10.0 / 3.0 + 0j)), SeriesPart((0j,)),
                       "crit-zero")


def test_criterion_iii_zero_denominator_names_the_witness():
    with pytest.raises(SenseReversalError) as info:
        criterion_iii([_crit_zero()])
    assert info.value.witness == 0.15 + 0j
    assert "crit-zero: sense-reversing, |f_zb| >= |f_z|" in str(info.value)


class _NanBoxMap(_CountingMap):
    """Returns NaN at one point of every rotated-box call."""

    def value(self, z):
        out = super().value(z)
        if np.ndim(z) == 3:
            out = np.array(out)
            out[0, 3, 5] = np.nan
        return out


def test_criterion_iii_nan_value_is_an_error(corpus):
    # a NaN box value must not be skipped by the supremum
    with pytest.raises(ParameterError, match="not finite"):
        criterion_iii([_NanBoxMap(corpus["convex-poly2"])])
