"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers when the assertions hold (run with -s to see them).
"""

import filecmp
import math

import numpy as np
import pytest

from hqmap import (
    CatalogPart,
    boundary_profile,
    check_boundary_dist_lower,
    check_derivative_value_bound,
    check_displacement,
    check_distortion,
    check_harnack,
    check_two_point_growth,
    check_weighted_deriv_growth,
    decay_fit,
    derivative_bound_constant,
    growth_gauge,
    growth_ratio,
    harnack_constant,
    hyp_dist,
    john_estimate,
    poisson_functional,
    preschwarzian_sup,
    radial_length,
    shear_qc,
    stolz_sample,
)
from hqmap.cli import main as cli_main
from hqmap.geometry import mobius_shift
from hqmap.maps import ComboPart, HarmonicMap
from hqmap.poisson import poisson_functional as pf


def report(n, text):
    print(f"ACCEPT {n:02d} PASS: {text}")


def test_c01_closed_form_radial_lengths(corpus):
    got_k = radial_length(corpus["koebe"], 0.0, 0.5).value
    assert got_k == pytest.approx(2.0, rel=1e-8)
    got_h = radial_length(corpus["halfplane"], 0.0, 0.5).value
    assert got_h == pytest.approx(1.0, rel=1e-8)
    worst = 0.0
    for r in np.arange(0.1, 0.95, 0.1):
        for theta in (0.0, 1.1, 2.7):
            dev = abs(radial_length(corpus["identity"], theta, float(r)).value - r)
            worst = max(worst, dev)
    assert worst < 1e-12
    report(1, f"koebe {got_k:.10f}, halfplane {got_h:.10f}, identity dev {worst:.2e}")


def test_c02_shear_sharpness_family(corpus):
    worst = 0.0
    for big_k in (1.0, 2.0, 3.0, 10.0):
        sheared = shear_qc(CatalogPart("koebe"), big_k)
        for r in (0.3, 0.5, 0.9):
            ell_s = radial_length(sheared, 0.0, r).value
            ell_k = radial_length(corpus["koebe"], 0.0, r).value
            target = 2.0 * big_k / (big_k + 1.0) * ell_k
            assert ell_s == pytest.approx(target, rel=1e-8)
            lower = 2.0 / (big_k + 1.0) * ell_k
            assert ell_s - lower >= -1e-12
            worst = max(worst, abs(ell_s / target - 1.0))
    report(2, f"equality factor 2K/(K+1) within rel {worst:.2e}, minorant holds")


def test_c03_growth_ratio_bounded(corpus):
    for label, m in corpus.items():
        res = growth_ratio(m, 0.0)
        assert res.max_ratio < 10.0 * res.median_ratio
    res_k = growth_ratio(corpus["koebe"], 0.0)
    dev = np.max(np.abs(res_k.profile.ratio - 1.0 / growth_gauge(res_k.profile.r)))
    assert dev < 1e-6
    report(3, f"all corpus ratios bounded; koebe ratio = 1/gauge within {dev:.2e}")


def test_c04_classical_sharp_suite(corpus):
    analytic = [m for m in corpus.values() if m.is_analytic()]
    slack = 1e-9
    for m in analytic:
        assert check_distortion(m, 2.0).passed, m.label
        assert check_two_point_growth(m, 2.0, 1.0).passed, m.label
        assert check_derivative_value_bound(m, 2.0, 1.0).passed, m.label
        assert check_weighted_deriv_growth(m, 2.0).passed, m.label
        assert check_boundary_dist_lower(m, 1.0).passed, m.label
        assert check_harnack(m, 0.9 + 0j, 2.0).passed, m.label
        assert check_displacement(m, 1.0, 2.0, 0.9 + 0j).passed, m.label
    sharp = check_two_point_growth(corpus["koebe"], 2.0, 1.0, pairs=[(0.0, 0.5)])
    assert sharp.passed and abs(sharp.worst_margin) <= 1e-6
    report(4, f"{7 * len(analytic)} checks pass at slack 1e-9; "
              f"koebe sharpness margin {sharp.worst_margin:.2e}")


def test_c05_derivative_bound_constant():
    assert derivative_bound_constant(2.0, 1.0) == pytest.approx(2.0, abs=1e-9)
    for alpha in (2.0, 3.0, 5.0):
        for qc_k in (1.0, 2.0, 10.0):
            assert derivative_bound_constant(alpha, qc_k) >= qc_k
    report(5, "C(2,1) = 2 within 1e-9 and C >= K across the parameter sweep")


def test_c06_harnack_constant():
    for a in (0.5, 1.0, 2.0):
        for alpha in (2.0, 3.0, 7.5):
            assert harnack_constant(a, a, 0.0, alpha) == 2.0
    direct = 2.0 * math.exp(3.0 * (math.pi + 0.5 * math.log(3.0)))
    got = harnack_constant(1.0, 2.0, math.pi, 2.0)
    assert got == pytest.approx(direct, rel=1e-6)
    report(6, f"M(a,a,0) = 2 exactly; M(1,2,pi,2) = {got:.6e} matches direct eval")


def test_c07_preschwarzian_limits(corpus):
    ident = preschwarzian_sup(corpus["identity"]).value
    assert ident == pytest.approx(2.0, abs=1e-6)
    koebe = preschwarzian_sup(corpus["koebe"]).value
    assert koebe == pytest.approx(4.0, abs=1e-4)
    report(7, f"identity sup -> {ident:.8f}, koebe sup -> {koebe:.8f}")


def test_c08_poisson_normalization(corpus):
    ident = corpus["identity"]
    prof = boundary_profile(ident, eps=1e-3, n=2048)
    worst = 0.0
    for r in np.linspace(0.0, 0.9, 5):
        for t in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
            zeta = r * np.exp(1j * t)
            worst = max(worst, abs(poisson_functional(ident, zeta, prof) - 1.0))
    assert worst < 1e-6
    big = HarmonicMap(ComboPart(((2.5 + 0j, ident.h),)),
                      ComboPart(((2.5 + 0j, ident.g),)), "2.5x identity")
    prof_b = boundary_profile(big, eps=1e-3, n=2048)
    drift = max(
        abs(pf(ident, z, prof) - pf(big, z, prof_b))
        for z in (0.3, -0.5j, 0.1 + 0.7j)
    )
    assert drift < 1e-12
    report(8, f"25-point normalization err {worst:.2e}; rescale drift {drift:.2e}")


def test_c09_john_equivalence(corpus):
    expected = {
        "identity": True, "shear-k3": True, "convex-poly2": True,
        "convex-poly3": True, "koebe": False, "halfplane": False,
    }
    for label, is_john in expected.items():
        est = john_estimate(corpus[label])
        by_ii = any(s < 1.0 for _, s in est.criterion_ii)
        by_iii = est.criterion_iii.stable
        by_decay = 0.0 < est.decay.delta <= 1.0
        assert by_ii == by_iii == by_decay == is_john, (
            label, by_ii, by_iii, by_decay)
        assert est.verdict == ("john-positive" if is_john else "john-negative")
    report(9, "criterion (ii), criterion (iii) and decay verdicts agree on all six maps")


def test_c10_decay_slope_recovery(corpus):
    window = (0.6, 0.99)
    k = decay_fit(corpus["koebe"], window=window).min_slope
    h = decay_fit(corpus["halfplane"], window=window).min_slope
    i = decay_fit(corpus["identity"], window=window).min_slope
    assert k == pytest.approx(-3.0, abs=0.05)
    assert h == pytest.approx(-2.0, abs=0.05)
    assert i == pytest.approx(0.0, abs=0.01)
    report(10, f"slopes koebe {k:.4f}, halfplane {h:.4f}, identity {i:.2e}")


def test_c11_hyperbolic_metric():
    rng = np.random.default_rng(0)
    z = (np.sqrt(rng.uniform(0, 1, (10_000, 3)))
         * np.exp(1j * rng.uniform(0, 2 * math.pi, (10_000, 3))) * 0.95)
    tri = (hyp_dist(z[:, 0], z[:, 1]) + hyp_dist(z[:, 1], z[:, 2])
           - hyp_dist(z[:, 0], z[:, 2]))
    assert float(tri.min()) >= -1e-12
    a = 0.3 - 0.4j
    drift = np.abs(hyp_dist(mobius_shift(z[:, 0], a), mobius_shift(z[:, 1], a))
                   - hyp_dist(z[:, 0], z[:, 1]))
    assert float(drift.max()) < 1e-10
    assert hyp_dist(0.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-12)
    report(11, f"10^4 triples: worst triangle margin {tri.min():.2e}, "
               f"Moebius drift {drift.max():.2e}")


def test_c12_stolz_angle_bound():
    total = 0
    for r in (0.5, 0.8, 0.95):
        pts = stolz_sample(r, 260, 260)[:10_000]
        assert len(pts) == 10_000
        eta = np.abs(np.angle(pts))
        bound = 4.0 * math.pi * (r - np.abs(pts)) / (r * math.sqrt(15.0))
        assert np.all(eta <= bound)
        assert np.all(eta < 3.0 * math.pi / math.sqrt(15.0))
        total += len(pts)
    report(12, f"{total} sampled points, zero violations of either bound")


def test_c13_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    # run the full suite twice with the same manifest
    code1 = cli_main(["--grid-level", "0", "--seed", "11", "--out", str(out1), "report"])
    code2 = cli_main(["--grid-level", "0", "--seed", "11", "--out", str(out2), "report"])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names1, shallow=False)
    assert not mismatch and not errors
    report(13, f"two runs produced byte-identical outputs ({len(match)} files)")
