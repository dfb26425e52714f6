import io
import math

import numpy as np
import pytest

from hqmap import (
    CatalogPart,
    DiskDomainError,
    classical_bounds,
    growth_gauge,
    growth_ratio,
    radial_length,
    radial_profile,
    shear_qc,
)
from hqmap.maps import Config, HarmonicMap, ParameterError, SeriesPart
from hqmap.suites import suite_radial_growth

ZERO = SeriesPart((0j,))


# ---------------------------------------------------------------------------
# growth gauge


def test_gauge_values():
    assert growth_gauge(0.0) == 0.0
    assert growth_gauge(1.0 - 1.0 / math.e) == pytest.approx(1.0, abs=1e-15)
    assert growth_gauge(0.9) == pytest.approx(math.sqrt(math.log(10.0)), abs=1e-14)


def test_gauge_domain():
    with pytest.raises(DiskDomainError):
        growth_gauge(1.0)
    with pytest.raises(DiskDomainError):
        growth_gauge(-0.1)


# ---------------------------------------------------------------------------
# radial length


def test_length_identity_exact(corpus):
    for r in np.arange(0.1, 0.95, 0.1):
        q = radial_length(corpus["identity"], 0.7, float(r))
        assert q.converged
        assert abs(q.value - r) < 1e-12


def test_length_koebe_closed_form(corpus):
    # antiderivative of (1+rho)/(1-rho)^3 is rho/(1-rho)^2
    q = radial_length(corpus["koebe"], 0.0, 0.5)
    assert q.value == pytest.approx(2.0, rel=1e-8)


def test_length_halfplane_closed_form(corpus):
    # antiderivative of (1-rho)^{-2} is rho/(1-rho)
    q = radial_length(corpus["halfplane"], 0.0, 0.5)
    assert q.value == pytest.approx(1.0, rel=1e-8)


def test_length_sheared_koebe():
    # on the real axis the integrand is (1 + mu) k'(rho) with mu = 1/2
    sheared = shear_qc(CatalogPart("koebe"), 3.0)
    q = radial_length(sheared, 0.0, 0.5)
    assert q.value == pytest.approx(3.0, rel=1e-8)


def test_length_domain():
    from hqmap import default_corpus

    with pytest.raises(DiskDomainError):
        radial_length(default_corpus()["identity"], 0.0, 1.0)


def test_length_budget_flag(corpus):
    q = radial_length(corpus["koebe"], 0.0, 0.999, rel_tol=1e-13, max_intervals=3)
    assert not q.converged
    assert q.value > 0.0


def test_length_tolerance_convergence(corpus):
    # tightening the tolerance halves (or better) the deviation from the
    # closed form, up to a floating floor; bisection converges in jumps,
    # so the ratio is checked across decades
    exact = 0.99 / (1.0 - 0.99) ** 2
    devs = []
    for tol in (1e-4, 1e-5, 1e-6):
        q = radial_length(corpus["koebe"], 0.0, 0.99, abs_tol=0.0, rel_tol=tol)
        devs.append(abs(q.value - exact))
    for a, b in zip(devs[:-1], devs[1:]):
        assert b <= 0.5 * a + 1e-12 * exact


# ---------------------------------------------------------------------------
# profiles and growth ratios


def test_profile_monotonicity(corpus):
    r_grid = np.linspace(0.1, 0.95, 18)
    prof = radial_profile(corpus["shear-k3"], 0.4, r_grid)
    assert np.all(np.diff(prof.ell) > 0)
    assert np.all(np.diff(prof.m_f) >= 0)
    assert np.all(prof.ell >= prof.abs_f - 1e-12)  # curve length >= chord


@pytest.mark.parametrize("r_grid", [[], [0.3, np.nan, 0.7], [0.3, np.inf], [0.5, 0.3],
                                    [0.3, 0.3], [0.0, 0.5], [0.5, 1.0]],
                         ids=["empty", "nan", "inf", "decreasing", "repeated", "zero", "one"])
def test_profile_rejects_bad_grid(r_grid, corpus):
    with pytest.raises(ParameterError, match="radial profile"):
        radial_profile(corpus["identity"], 0.0, np.array(r_grid, dtype=float))


def test_profile_running_max_interior_peak():
    # |f(rho)| = rho|1 - 0.8 rho| peaks at rho = 0.625 with value 0.3125,
    # between grid nodes, so the running maximum must polish it
    m = HarmonicMap(SeriesPart((0j, 1.0, -0.8)), ZERO, "dip")
    prof = radial_profile(m, 0.0, np.array([0.9]))
    assert prof.m_f[0] == pytest.approx(0.3125, abs=1e-10)
    assert prof.abs_f[0] < 0.3125  # the endpoint is not the max


def test_profile_csv(corpus):
    prof = radial_profile(corpus["identity"], 0.0, np.array([0.3, 0.6, 0.9]))
    buf = io.StringIO()
    prof.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,r,ell,abs_f,m_f,psi,ratio,quad_err"
    row = lines[2].split(",")
    assert float(row[1]) == 0.6
    assert float(row[2]) == pytest.approx(0.6, abs=1e-12)


def test_growth_ratio_koebe_equals_inverse_gauge(corpus):
    # on the positive axis ell = |f| = m_f for the koebe map, so the ratio
    # is exactly the inverse gauge
    res = growth_ratio(corpus["koebe"], 0.0)
    expected = 1.0 / growth_gauge(res.profile.r)
    assert np.max(np.abs(res.profile.ratio - expected)) < 1e-6
    assert res.max_ratio < 10.0 * res.median_ratio


def test_growth_ratio_identity(corpus):
    res = growth_ratio(corpus["identity"], 0.0)
    expected = 1.0 / growth_gauge(res.profile.r)
    assert np.max(np.abs(res.profile.ratio - expected)) < 1e-9
    assert res.max_ratio < 10.0 * res.median_ratio


def test_growth_ratio_bounded_all_corpus(corpus):
    for label, m in corpus.items():
        for theta in (0.0, 2.0):
            res = growth_ratio(m, theta)
            assert res.max_ratio < 10.0 * res.median_ratio, f"{label} at theta={theta}"


def test_growth_ratio_sheared_koebe_bounded(corpus):
    sheared = shear_qc(CatalogPart("koebe"), 3.0)
    res = growth_ratio(sheared, 0.0)
    assert res.max_ratio < 10.0 * res.median_ratio
    # on the axis both length and running max carry the same 3/2 factor,
    # so the ratio is again the inverse gauge
    expected = 1.0 / growth_gauge(res.profile.r)
    assert np.max(np.abs(res.profile.ratio - expected)) < 1e-6


def test_growth_chain_lower_bound(corpus):
    # ell >= |f| >= (1 - ((1-r)/(1+r))^2)/4 on the analytic subfamily
    for label in ("identity", "koebe", "halfplane", "convex-poly2", "convex-poly3"):
        m = corpus[label]
        for theta in (0.0, 1.3, math.pi):
            for r in (0.3, 0.6, 0.9):
                ell = radial_length(m, theta, r).value
                fv = abs(complex(m.value(r * np.exp(1j * theta))))
                lower = (1.0 - ((1.0 - r) / (1.0 + r)) ** 2) / 4.0
                assert ell >= fv - 1e-10
                assert fv >= lower - 1e-12, f"{label} {theta} {r}"


def test_shear_sharpness_inequality(corpus):
    for big_k in (1.0, 2.0, 3.0, 10.0):
        sheared = shear_qc(CatalogPart("koebe"), big_k)
        for r in (0.3, 0.5, 0.9):
            ell_s = radial_length(sheared, 0.0, r).value
            ell_k = radial_length(corpus["koebe"], 0.0, r).value
            assert ell_s == pytest.approx(2.0 * big_k / (big_k + 1.0) * ell_k, rel=1e-8)
            assert ell_s >= 2.0 / (big_k + 1.0) * ell_k - 1e-12


# ---------------------------------------------------------------------------
# classical starlike / convex bounds


def test_classical_koebe_starlike(corpus):
    chk = classical_bounds(corpus["koebe"], 0.0, 0.7)
    assert chk.ratio == pytest.approx(1.0, rel=1e-9)  # ell = |f| on the axis
    assert chk.ratio <= chk.starlike_bound + 1e-9


def test_classical_halfplane_convex(corpus):
    chk = classical_bounds(corpus["halfplane"], 0.0, 0.8)
    assert chk.ratio == pytest.approx(1.0, rel=1e-9)
    assert chk.ratio <= chk.convex_bound + 1e-9
    assert chk.convex_bound == pytest.approx(math.asin(0.8) / 0.8)


def test_classical_identity_convex(corpus):
    chk = classical_bounds(corpus["identity"], 1.0, 0.5)
    assert chk.ratio <= chk.convex_bound + 1e-9 and chk.ratio <= chk.starlike_bound + 1e-9
    assert chk.ratio == pytest.approx(1.0, abs=1e-12)


def test_classical_unflagged(corpus):
    # the radial-growth suite writes a classical line only for a flagged map
    labels = ("koebe", "halfplane", "shear-k3")
    reports = suite_radial_growth({k: corpus[k] for k in labels}, Config())
    classical = {r.predicate for r in reports if r.predicate.startswith("classical_")}
    assert classical == {"classical_starlike:koebe", "classical_convex:halfplane"}
