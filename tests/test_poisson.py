import math
from types import SimpleNamespace

import numpy as np
import pytest

from hqmap import (
    ParameterError,
    boundary_profile,
    decay_fit,
    hardy_mean,
    john_estimate,
    poisson_functional,
    poisson_sup,
    pommerenke_bracket,
    small_preschwarzian,
)
from hqmap.maps import ComboPart, HarmonicMap, SeriesPart
from hqmap.poisson import poisson_trace_json


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


def test_profile_zero_norm_in_last_block_raises():
    m = _RingMap()
    with pytest.raises(ParameterError, match="derivative norm vanishes on the ring"):
        boundary_profile(m, eps=1e-4, n=1 << 18)
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
        assert small_preschwarzian(m)
        assert "bounded" in m.flags
        assert poisson_sup(m).stable


def test_trace_json(corpus):
    import json

    tr = poisson_sup(corpus["identity"])
    doc = json.loads(poisson_trace_json(corpus["identity"], tr))
    assert set(doc) == {"label", "sup", "trace", "eps", "stable"}


# ---------------------------------------------------------------------------
# Hardy means


def test_hardy_identity(corpus):
    for p in (0.5, 1.0, 2.0):
        for r in (0.2, 0.7):
            assert hardy_mean(corpus["identity"], p, r) == pytest.approx(1.0, abs=1e-14)


def test_hardy_constant_functional():
    c = 3.0 - 4.0j
    assert hardy_mean(lambda z: np.full_like(z, c), 1.0, 0.5) == pytest.approx(5.0)


def test_hardy_koebe_increasing(corpus):
    # circle means of |k'| grow with the radius (subharmonicity)
    vals = [hardy_mean(corpus["koebe"], 1.0, r) for r in (0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


def test_hardy_monotone_analytic_subfamily(corpus):
    for label in ("halfplane", "convex-poly2"):
        for p in (1.0, 2.0):
            vals = [hardy_mean(corpus[label], p, r) for r in (0.2, 0.5, 0.8)]
            assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_hardy_validation(corpus):
    with pytest.raises(ParameterError):
        hardy_mean(corpus["identity"], 0.0, 0.5)
    with pytest.raises(ParameterError):
        hardy_mean(corpus["identity"], 1.0, 1.0)


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
