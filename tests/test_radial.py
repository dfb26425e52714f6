import io
import math

import numpy as np
import pytest

from hqmap import (
    CatalogPart,
    DiskDomainError,
    growth_gauge,
    growth_ratio,
    radial_profile,
    shear_qc,
)
from hqmap import cli, quadrature, radial
from hqmap.maps import R_CAP, Config, HarmonicMap, HqmapError, ParameterError, SeriesPart
from hqmap.suites import _CLASSICAL_BOUNDS, suite_radial_growth

from conftest import seeded_harmonic

ZERO = SeriesPart((0j,))


def one_radius(m, theta, r, config=None):
    """The profile of the single segment [0, r e^{i theta}]: one pass from 0,
    with the endpoint pre-split when r > 0.9."""
    return radial_profile(m, theta, [r], config)


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


@pytest.mark.parametrize("r", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
def test_gauge_rejects_nan(r):
    # NaN used to pass "any(r < 0) or any(r >= 1)" and come back as NaN
    with pytest.raises(DiskDomainError):
        growth_gauge(r)


# ---------------------------------------------------------------------------
# radial length


def test_length_identity_exact(corpus):
    prof = radial_profile(corpus["identity"], 0.7, np.arange(0.1, 0.95, 0.1))
    assert prof.converged
    assert np.all(np.abs(prof.ell - prof.r) < 1e-12)


def test_length_koebe_closed_form(corpus):
    # antiderivative of (1+rho)/(1-rho)^3 is rho/(1-rho)^2
    assert one_radius(corpus["koebe"], 0.0, 0.5).ell[0] == pytest.approx(2.0, rel=1e-8)


def test_length_halfplane_closed_form(corpus):
    # antiderivative of (1-rho)^{-2} is rho/(1-rho)
    assert one_radius(corpus["halfplane"], 0.0, 0.5).ell[0] == pytest.approx(1.0, rel=1e-8)


def test_length_sheared_koebe():
    # on the real axis the integrand is (1 + mu) k'(rho) with mu = 1/2
    sheared = shear_qc(CatalogPart("koebe"), 3.0)
    assert one_radius(sheared, 0.0, 0.5).ell[0] == pytest.approx(3.0, rel=1e-8)


def test_length_domain(corpus):
    # the length is defined for 0 < r < 1 only
    for r in (0.0, 1.0):
        with pytest.raises(ParameterError, match="radial profile"):
            one_radius(corpus["identity"], 0.0, r)


def test_length_budget_flag(corpus, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 3)
    prof = one_radius(corpus["koebe"], 0.0, 0.999, Config(tol=4e-13))
    assert not prof.converged
    assert prof.ell[0] > 0.0


def test_length_tolerance_convergence(corpus):
    # tightening the tolerance halves (or better) the deviation from the
    # closed form, up to a floating floor; bisection converges in jumps,
    # so the ratio is checked across decades.  Each segment runs at tol/4.
    exact = 0.99 / (1.0 - 0.99) ** 2
    devs = []
    for tol in (1e-4, 1e-5, 1e-6):
        prof = one_radius(corpus["koebe"], 0.0, 0.99, Config(tol=4.0 * tol))
        devs.append(abs(prof.ell[0] - exact))
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


def test_a_nan_on_the_ray_is_not_hidden_by_the_running_maximum(nan_value_map):
    # the NaN sits inside the second segment's max-scan grid
    radii = np.array([0.2, 0.5, 0.9])
    prof = radial_profile(nan_value_map, 0.0, radii)
    assert np.all(np.isfinite(prof.abs_f)) and np.isfinite(prof.m_f[0])
    assert np.all(np.isnan(prof.m_f[1:]))
    with pytest.raises(HqmapError) as err:
        cli._radial_files(nan_value_map, 0.0, radii, Config())
    assert str(err.value) == "nan-value: radial m_f is not finite on the ray theta = 0.0"


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
    radii = np.array([0.3, 0.6, 0.9])
    lower = (1.0 - ((1.0 - radii) / (1.0 + radii)) ** 2) / 4.0
    for label in ("identity", "koebe", "halfplane", "convex-poly2", "convex-poly3"):
        m = corpus[label]
        for theta in (0.0, 1.3, math.pi):
            prof = radial_profile(m, theta, radii)
            assert np.all(prof.ell >= prof.abs_f - 1e-10)
            assert np.all(prof.abs_f >= lower - 1e-12), f"{label} {theta}"


def test_shear_sharpness_inequality(corpus):
    radii = [0.3, 0.5, 0.9]
    ell_k = radial_profile(corpus["koebe"], 0.0, radii).ell
    for big_k in (1.0, 2.0, 3.0, 10.0):
        ell_s = radial_profile(shear_qc(CatalogPart("koebe"), big_k), 0.0, radii).ell
        np.testing.assert_allclose(ell_s, 2.0 * big_k / (big_k + 1.0) * ell_k, rtol=1e-8)
        assert np.all(ell_s >= 2.0 / (big_k + 1.0) * ell_k - 1e-12)


# ---------------------------------------------------------------------------
# classical starlike / convex bounds: ell(r) / |f(r)| against 1 + r and
# arcsin(r) / r, as the radial-growth suite reads them from one profile


def classical_ratio(m, theta, r):
    prof = one_radius(m, theta, r)
    return prof.ell[0] / prof.abs_f[0]


def test_classical_koebe_starlike(corpus):
    ratio = classical_ratio(corpus["koebe"], 0.0, 0.7)
    assert ratio == pytest.approx(1.0, rel=1e-9)  # ell = |f| on the axis
    assert ratio <= _CLASSICAL_BOUNDS["starlike"](0.7) + 1e-9


def test_classical_halfplane_convex(corpus):
    ratio = classical_ratio(corpus["halfplane"], 0.0, 0.8)
    assert ratio == pytest.approx(1.0, rel=1e-9)
    assert ratio <= _CLASSICAL_BOUNDS["convex"](0.8) + 1e-9
    assert _CLASSICAL_BOUNDS["convex"](0.8) == pytest.approx(math.asin(0.8) / 0.8)


def test_classical_identity_convex(corpus):
    ratio = classical_ratio(corpus["identity"], 1.0, 0.5)
    assert ratio <= _CLASSICAL_BOUNDS["convex"](0.5) + 1e-9
    assert ratio <= _CLASSICAL_BOUNDS["starlike"](0.5) + 1e-9
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_classical_unflagged(corpus):
    # the radial-growth suite writes a classical line only for a flagged map
    labels = ("koebe", "halfplane", "shear-k3")
    reports = suite_radial_growth({k: corpus[k] for k in labels}, Config())
    classical = {r.predicate for r in reports if r.predicate.startswith("classical_")}
    assert classical == {"classical_starlike:koebe", "classical_convex:halfplane"}


# ---------------------------------------------------------------------------
# the growth ratio's median


@pytest.mark.parametrize("values", [
    [0.3], [2.0, 1.0], [3.0, 1.0, 2.0], [0.1, 0.7, 0.3, 0.2],
    [1.0, np.inf, 2.0], [np.inf, 1.0, np.inf, 2.0], [np.inf, np.inf],
    [-np.inf, 1.0, 2.0, 3.0], [1.0, np.nan, 2.0], [np.nan, 1.0], [np.nan],
    [1.0, 2.0, np.inf, np.nan],
], ids=lambda v: ",".join(map(str, v)))
def test_median_is_numpys_bit_for_bit(values):
    from hqmap.radial import _median

    x = np.array(values)
    got = _median(x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.median(x).tobytes()


def test_median_of_seeded_ratios_is_numpys():
    from hqmap.radial import _median

    rng = np.random.default_rng(7)
    for n in (39, 40, 41):
        x = rng.lognormal(0.0, 2.0, n)
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()


def test_radial_growth_check_does_not_import_numpy_ma():
    # np.median imports numpy.ma on first use, about 7 ms and 1.2 MB a process
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hqmap

    code = ("import sys; from hqmap import cli; "
            "code = cli.main(['--grid-level', '0', 'check', 'radial-growth']); "
            "sys.stderr.write(f'{code} {\"numpy.ma\" in sys.modules}')")
    env = dict(os.environ, PYTHONPATH=str(Path(hqmap.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stderr.splitlines()[-1] == "0 False"


# ---------------------------------------------------------------------------
# the ray speed reads f_z and f_zb through HarmonicMap.wirtinger


def _old_ray_speed(m, theta):
    """The ray speed as it was when it read the parts' derivatives itself."""
    e = np.exp(1j * theta)
    e2 = np.exp(-2j * theta)

    def speed(rho):
        z = np.asarray(rho, dtype=float) * e
        return np.abs(m.h.d1(z) + e2 * np.conjugate(m.g.d1(z)))

    return speed


@pytest.mark.parametrize("theta", [0.0, 0.37, 2.5])
def test_ray_speed_is_the_old_expression_bit_for_bit(theta, corpus):
    rho = np.concatenate((np.linspace(0.0, R_CAP, 257), 1.0 - np.geomspace(1e-2, 1e-3, 64)))
    maps = [*(corpus[label] for label in sorted(corpus)),
            seeded_harmonic(3, 12), seeded_harmonic(11, 12),
            seeded_harmonic(5, 16), seeded_harmonic(23, 16)]
    for m in maps:
        got = radial._ray_speed(m, theta)(rho)
        assert got.tobytes() == _old_ray_speed(m, theta)(rho).tobytes(), m.label


def test_radial_profile_never_evaluates_a_zero_g(corpus, monkeypatch):
    # HarmonicMap.wirtinger skips an all-zero g; the ray speed used to call
    # g.d1 at every quadrature node of an analytic map
    real = SeriesPart.derivative
    evaluated = []

    def counting(self, order, z):
        evaluated.append(self)
        return real(self, order, z)

    monkeypatch.setattr(SeriesPart, "derivative", counting)
    m = corpus["convex-poly2"]
    radial_profile(m, 0.37, [0.05, 0.5, 0.93, 0.99])
    assert any(p is m.h for p in evaluated)
    assert not any(p is m.g for p in evaluated)
