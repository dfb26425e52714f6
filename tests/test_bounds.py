import json
import math

import numpy as np
import pytest

from hqmap import (
    check_arc_image_diameter,
    check_boundary_dist_lower,
    check_derivative_value_bound,
    check_displacement,
    check_distortion,
    check_harnack,
    check_two_point_growth,
    check_weighted_deriv_growth,
    decay_fit,
    derivative_bound_constant,
    disk_grid,
    harnack_constant,
)
from hqmap.bounds import _report, rel_margin
from hqmap.maps import ParameterError

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


def test_derivative_constant_rejects_bad_params():
    with pytest.raises(ParameterError):
        derivative_bound_constant(1.0, 1.0)
    with pytest.raises(ParameterError):
        derivative_bound_constant(2.0, 0.0)


def test_harnack_constant_collapse():
    for a in (0.5, 1.0, 2.0):
        assert harnack_constant(a, a, 0.0, 3.7) == 2.0  # log term vanishes exactly


def test_harnack_constant_direct():
    direct = 2.0 * math.exp(3.0 * (math.pi + 0.5 * math.log(3.0)))
    assert harnack_constant(1.0, 2.0, math.pi, 2.0) == pytest.approx(direct, rel=1e-12)


def test_harnack_constant_bad_params():
    with pytest.raises(ParameterError):
        harnack_constant(2.0, 1.0, 0.0, 2.0)  # a1 > a2


# ---------------------------------------------------------------------------
# the classical-sharp family (analytic subfamily, order 2, K = 1)


@pytest.mark.parametrize("label", ANALYTIC)
def test_distortion_analytic(label, corpus):
    rep = check_distortion(corpus[label], 2.0)
    assert rep.passed, rep.notes


def test_distortion_koebe_attains_bound(corpus):
    # |k'(r)| equals the upper bound on the positive axis: margin ~ 0
    pts = np.array([0.3, 0.6, 0.9, 0.999], dtype=complex)
    rep = check_distortion(corpus["koebe"], 2.0, pts)
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


@pytest.mark.parametrize("label", ANALYTIC)
def test_derivative_value_bound_analytic(label, corpus):
    rep = check_derivative_value_bound(corpus[label], 2.0, 1.0)
    assert rep.passed, (label, rep.worst_margin)


def test_derivative_value_bound_koebe_margin(corpus):
    # the margin (2 - (1+r))/2 shrinks like (1-r)/2 toward the circle
    pts = np.array([0.999], dtype=complex)
    rep = check_derivative_value_bound(corpus["koebe"], 2.0, 1.0, pts)
    assert rep.worst_margin == pytest.approx(0.0005, rel=1e-6)


@pytest.mark.parametrize("label", ANALYTIC)
def test_weighted_deriv_growth_analytic(label, corpus):
    rep = check_weighted_deriv_growth(corpus[label], 2.0)
    assert rep.passed, (label, rep.worst_margin)


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
    rep = check_harnack(corpus[label], 0.9 + 0.0j, 2.0)
    assert rep.passed, (label, rep.worst_margin)


def test_harnack_identity_ratio_one(corpus):
    rep = check_harnack(corpus["identity"], 0.7j, 2.0)
    # ratio is identically 1, so the worst margin is 1/M - something tiny
    assert rep.passed and rep.worst_margin > 0.0


@pytest.mark.parametrize("label", ANALYTIC)
def test_displacement_analytic(label, corpus):
    rep = check_displacement(corpus[label], 1.0, 2.0, 0.9 + 0.0j)
    assert rep.passed, (label, rep.worst_margin)


# ---------------------------------------------------------------------------
# arc-image diameter


def test_arc_diameter_identity_chord(corpus):
    ident = corpus["identity"]
    fit = decay_fit(ident)
    rep = check_arc_image_diameter(ident, 1.0, 2.0, [0.9 + 0j], (fit.c, fit.delta))
    assert rep.passed
    # the arc image is a circular arc of half-angle pi/10 at radius ~1:
    # its diameter is the chord 2 sin(pi/10)
    assert rep.worst_margin > 0.9  # bound exceeds the chord by orders


def test_arc_diameter_full_circle(corpus):
    ident = corpus["identity"]
    fit = decay_fit(ident)
    rep = check_arc_image_diameter(ident, 1.0, 2.0, [1e-9 + 0j], (fit.c, fit.delta))
    assert rep.passed  # diam 2 versus a huge right-hand side


def test_arc_diameter_convex_poly(corpus):
    m = corpus["convex-poly2"]
    fit = decay_fit(m)
    rep = check_arc_image_diameter(m, 1.0, 2.0, [0.9 + 0j, 0.5j], (fit.c, fit.delta))
    assert rep.passed


def test_arc_diameter_fails_on_unconverged_distance(corpus):
    # f(a) of the second anchor is a node of the 8192-point ring but not of
    # the 4096-point one, so the n and 2n distances disagree
    ident = corpus["identity"]
    a_points = [0.9 + 0j, (1.0 - 1e-4) * np.exp(2j * math.pi / 8192)]
    rep = check_arc_image_diameter(ident, 1.0, 2.0, a_points, (1.0, 1.0))
    assert not rep.passed
    assert rep.notes.endswith("boundary distance did not converge")


def test_arc_diameter_requires_bounded(corpus):
    with pytest.raises(ParameterError):
        check_arc_image_diameter(corpus["koebe"], 1.0, 2.0, [0.9 + 0j], (1.0, 0.5))


def test_arc_diameter_requires_decay(corpus):
    with pytest.raises(ParameterError):
        check_arc_image_diameter(corpus["identity"], 1.0, 2.0, [0.9 + 0j], (1.0, -2.0))


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_schema(corpus):
    rep = check_distortion(corpus["identity"], 2.0)
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
        coarse = check_distortion(m, 2.0, disk_grid(16, 16))
        fine = check_distortion(m, 2.0, disk_grid(32, 32))
        assert coarse.passed and fine.passed
        dvb_c = check_derivative_value_bound(m, 2.0, 1.0, disk_grid(16, 16))
        dvb_f = check_derivative_value_bound(m, 2.0, 1.0, disk_grid(32, 32))
        assert dvb_c.passed and dvb_f.passed
