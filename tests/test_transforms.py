import numpy as np
import pytest

from hqmap import (
    CatalogPart,
    DegenerateMapError,
    ParameterError,
    SenseReversalError,
    affine,
    disk_grid,
    koebe_transform,
    preschwarzian_sup,
    qc_constant,
    rotate,
    shear_qc,
)
from hqmap.maps import HarmonicMap, SeriesPart
from hqmap.transforms import preschwarzian

ZS = np.array([0.1, -0.35, 0.3 + 0.4j, -0.2 - 0.55j, 0.7j, 0.85])


# ---------------------------------------------------------------------------
# renormalized automorphism composition


def test_koebe_transform_center_zero_is_identity(corpus):
    for label in ("identity", "koebe", "convex-poly2"):
        m = corpus[label]
        t = koebe_transform(m, 0.0)
        assert np.max(np.abs(t.value(ZS) - m.value(ZS))) < 1e-12


def test_koebe_transform_of_identity_closed_form(corpus):
    # ((z + 1/2)/(1 + z/2) - 1/2) / (3/4) = z / (1 + z/2)
    t = koebe_transform(corpus["identity"], 0.5)
    assert np.max(np.abs(t.value(ZS) - ZS / (1.0 + 0.5 * ZS))) < 1e-14


def test_koebe_transform_preserves_qc_constant(corpus):
    pts = disk_grid(16, 24)
    sheared = shear_qc(CatalogPart("identity"), 3.0)
    moved = koebe_transform(sheared, 0.4)
    assert qc_constant(moved, pts) == pytest.approx(3.0, abs=1e-12)
    moved_k = koebe_transform(corpus["koebe"], 0.3 - 0.2j)
    assert abs(qc_constant(moved_k, pts) - qc_constant(corpus["koebe"], pts)) < 1e-6


def test_koebe_transform_normalization_flags(corpus):
    t = koebe_transform(corpus["koebe"], 0.25)
    assert "SH" in t.flags and "SH0" in t.flags  # analytic part keeps g' = 0
    assert abs(complex(t.value(0.0))) < 1e-15
    assert complex(t.h.d1(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_koebe_transform_singular_center():
    m = HarmonicMap(SeriesPart((0j, 1.0, -1.0)), SeriesPart((0j,)), "stall")
    with pytest.raises(DegenerateMapError):
        koebe_transform(m, 0.5)  # h'(0.5) = 1 - 2*0.5 = 0


def test_koebe_transform_center_outside():
    from hqmap import default_corpus

    with pytest.raises(ParameterError):
        koebe_transform(default_corpus()["identity"], 1.1)


# ---------------------------------------------------------------------------
# affine family


def test_affine_zero_is_identity(corpus):
    m = corpus["convex-poly2"]
    t = affine(m, 0.0)
    assert np.max(np.abs(t.value(ZS) - m.value(ZS))) < 1e-15


def test_affine_of_identity(corpus):
    t = affine(corpus["identity"], 0.5)
    assert np.max(np.abs(t.value(ZS) - (ZS + 0.5 * np.conjugate(ZS)))) < 1e-15


def test_affine_dilatation_formula(corpus):
    mu = 0.3 - 0.2j
    m = corpus["convex-poly3"]
    t = affine(m, mu)
    pts = disk_grid(10, 12)
    hp = m.h.d1(pts)
    gp = m.g.d1(pts)
    expected = np.abs(gp + mu * hp) / np.abs(hp + mu * gp)
    got = t.wirtinger(pts).dilatation
    assert np.max(np.abs(got - expected)) < 1e-12


def test_affine_parameter_range(corpus):
    with pytest.raises(ParameterError):
        affine(corpus["identity"], 1.0)


def test_affine_sense_reversal_witness():
    # h' = 1, g' = 0.9i: mu = 0.9i sends the Jacobian negative
    m = HarmonicMap(CatalogPart("identity"), SeriesPart((0j, 0.9j)), "skew")
    with pytest.raises(SenseReversalError) as err:
        affine(m, 0.9j)
    assert abs(err.value.witness) < 1.0


# ---------------------------------------------------------------------------
# shears


def test_shear_k1_is_analytic():
    m = shear_qc(CatalogPart("koebe"), 1.0)
    assert m.is_analytic()
    assert np.max(np.abs(m.value(ZS) - CatalogPart("koebe").value(ZS))) < 1e-15


def test_shear_identity_k3(corpus):
    m = shear_qc(CatalogPart("identity"), 3.0)
    assert np.max(np.abs(m.value(ZS) - corpus["shear-k3"].value(ZS))) < 1e-15


def test_shear_k_below_one():
    with pytest.raises(ParameterError):
        shear_qc(CatalogPart("identity"), 0.5)


@pytest.mark.parametrize("big_k", [1.0, 2.0, 5.0, 10.0])
def test_shear_pointwise_constant(big_k):
    m = shear_qc(CatalogPart("koebe"), big_k)
    w = m.wirtinger(ZS)
    assert np.max(np.abs(w.dnorm / w.dmin - big_k)) < 1e-12


# ---------------------------------------------------------------------------
# rotations


def test_rotate_matches_conjugation(corpus):
    sigma = np.exp(0.9j)
    for label in ("koebe", "shear-k3", "convex-poly2"):
        m = corpus[label]
        r = rotate(m, sigma)
        expected = np.conjugate(sigma) * m.value(sigma * ZS)
        assert np.max(np.abs(r.value(ZS) - expected)) < 1e-12
        assert r.flags == m.flags


def test_rotate_needs_unit_modulus(corpus):
    with pytest.raises(ParameterError):
        rotate(corpus["identity"], 0.5)


# ---------------------------------------------------------------------------
# pre-Schwarzian supremum


def test_preschwarzian_identity_values(corpus):
    # the expression reduces to 2|z| for the identity
    vals = preschwarzian(corpus["identity"], ZS)
    assert np.max(np.abs(vals - 2.0 * np.abs(ZS))) < 1e-14


def test_preschwarzian_koebe_constant_on_axis(corpus):
    # (1-r^2) k''/k' - 2r = 2(2 + r) - 2r = 4 at every real r
    rs = np.array([0.1, 0.5, 0.9, 0.999])
    vals = preschwarzian(corpus["koebe"], rs)
    assert np.max(np.abs(vals - 4.0)) < 1e-10


def test_preschwarzian_sup_identity(corpus):
    # the circle suprema 2r extrapolate exactly to the boundary limit 2
    est = preschwarzian_sup(corpus["identity"])
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_preschwarzian_sup_koebe(corpus):
    # constant 4 on the positive axis at every radius
    est = preschwarzian_sup(corpus["koebe"])
    assert est.value == pytest.approx(4.0, abs=1e-6)


def test_preschwarzian_halfplane_grid(corpus):
    pts = disk_grid(24, 32)
    assert np.max(preschwarzian(corpus["halfplane"], pts)) >= 2.0 - 1e-12
    assert preschwarzian(corpus["halfplane"], np.array([0.5]))[0] == pytest.approx(2.0)


def test_small_preschwarzian_gate(corpus):
    # the small-pre-Schwarzian class: supremum below 4, with a 1e-3 guard band
    assert preschwarzian_sup(corpus["identity"]).value < 4.0 - 1e-3
    assert not preschwarzian_sup(corpus["koebe"]).value < 4.0 - 1e-3  # exactly 4
