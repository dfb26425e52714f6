import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmap import (
    CatalogPart,
    Config,
    DiskDomainError,
    HarmonicMap,
    ParameterError,
    SenseReversalError,
    SeriesPart,
    WirtingerPair,
    default_corpus,
    disk_grid,
    qc_constant,
)
from hqmap import johndisk
from hqmap.bounds import (
    _harnack_box,
    check_boundary_dist_lower,
    check_derivative_bounds,
    check_harnack_box,
    check_weighted_deriv_growth,
    default_triples,
)
from hqmap.johndisk import criterion_ii, criterion_iii, decay_fit
from hqmap.maps import R_CAP, AnalyticPart, ComboPart, check_sense_preserving, finite_dnorm
from hqmap.poisson import boundary_profile, poisson_scan

from conftest import decay_fit_sample

ZERO = SeriesPart((0j,))


def disk_points(max_r=0.95):
    rs = st.floats(0.0, max_r)
    ts = st.floats(0.0, 2.0 * math.pi)
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)), rs, ts)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_identity(corpus):
    assert corpus["identity"].value(0.5) == 0.5


def test_eval_koebe_closed_form(corpus):
    # k(z) = z/(1-z)^2 at 0.5 gives 0.5/0.25
    assert corpus["koebe"].value(0.5) == pytest.approx(0.5 / 0.25, rel=1e-14)


def test_eval_shear(corpus):
    assert corpus["shear-k3"].value(0.5) == pytest.approx(0.75, rel=1e-14)
    # f(z) = z + 0.5 conj(z) off the real axis
    z = 0.3 + 0.4j
    assert corpus["shear-k3"].value(z) == pytest.approx(z + 0.5 * z.conjugate())


def test_eval_outside_disk_raises(corpus):
    with pytest.raises(DiskDomainError):
        corpus["identity"].value(1.0 + 0j)
    with pytest.raises(DiskDomainError):
        corpus["koebe"].value(np.array([0.5, 1.2j]))
    with pytest.raises(DiskDomainError):
        corpus["koebe"].wirtinger(np.array([0.5, complex("nan+0j")]))


def _hex_bits(values):
    """(real, imag) float.hex pairs of each value, signed zeros included."""
    return [(c.real.hex(), c.imag.hex()) for c in map(complex, np.ravel(values))]


def test_series_part_past_0999_is_exact_and_silent():
    # a series part is the polynomial it lists, so nothing warns at 0.9995;
    # the bits are those the same Horner passes gave when a warning fired there
    part = SeriesPart((0j, 1.0, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_hex_bits(evaluate(0.9995)) for evaluate in (part.value, part.d1, part.d2)]
    assert got == [[("0x1.3fceda22f6a51p+0", "0x0.0p+0")],
                   [("0x1.7fef9db22d0e6p+0", "0x0.0p+0")],
                   [("0x1.0000000000000p-1", "0x0.0p+0")]]


# ---------------------------------------------------------------------------
# exact evaluation: in-place Horner on arrays, no evaluation of a zero g

_SIGNED_ZEROS = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
_AXIS_POINTS = [complex(a, b) for a, b in ((0.0, 0.6), (-0.0, 0.6), (0.0, -0.6),
                                            (-0.0, -0.6), (0.6, 0.0), (0.6, -0.0),
                                            (-0.6, 0.0), (-0.6, -0.0))]
_COEFFS = tuple(complex(*c) for c in np.random.default_rng(11).normal(0.0, 0.3, (13, 2)))
_SIGNED_ZERO_COEFFS = (complex(-0.0, 0.0), 0.5 + 0.25j, complex(0.0, -0.0), complex(-0.0, -0.0))


def _grid_points(shape):
    """Seeded points of |z| < 1 whose first twelve are on the axes, with
    signed zero coordinates."""
    rng = np.random.default_rng(5)
    z = (rng.uniform(-0.7, 0.7, shape) + 1j * rng.uniform(-0.7, 0.7, shape)).ravel()
    z[:12] = _SIGNED_ZEROS + _AXIS_POINTS
    return z.reshape(shape)


def _scalar_inputs():
    for z in _SIGNED_ZEROS + _AXIS_POINTS + [0.3 - 0.2j]:
        yield z
        yield np.complex128(z)
        yield np.asarray(z)
    yield -0.0
    yield 0.5


def _reference_horner(coeffs, z):
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _assert_same_bits(a, b):
    assert type(a) is type(b)
    assert np.shape(a) == np.shape(b)
    assert np.asarray(a).dtype == np.asarray(b).dtype
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("shape", [(97,), (9, 11)])
@pytest.mark.parametrize("coeffs", [_COEFFS, (0j,), _SIGNED_ZERO_COEFFS],
                         ids=["degree-12", "zero", "signed-zero-coeffs"])
def test_horner_arrays_match_reference_loop(shape, coeffs):
    z = _grid_points(shape)
    _assert_same_bits(SeriesPart._horner(coeffs, z), _reference_horner(coeffs, z))


@pytest.mark.parametrize("coeffs", [_COEFFS, (0j,), _SIGNED_ZERO_COEFFS],
                         ids=["degree-12", "zero", "signed-zero-coeffs"])
def test_horner_scalars_match_reference_expression(coeffs):
    for z in _scalar_inputs():
        _assert_same_bits(SeriesPart._horner(coeffs, z), _reference_horner(coeffs, z))


def _zero_g_maps():
    corpus = {label: m for label, m in default_corpus().items()
              if m.g == SeriesPart((0j,))}
    corpus["rotated-halfplane"] = HarmonicMap(CatalogPart("halfplane", rotation=1j), ZERO,
                                              "rotated-halfplane")
    corpus["long-zero-g"] = HarmonicMap(SeriesPart(_COEFFS), SeriesPart((0j,) * 5),
                                        "long-zero-g")
    return corpus


@pytest.mark.parametrize("label", sorted(_zero_g_maps()))
def test_zero_g_evaluation_matches_formula(label):
    m = _zero_g_maps()[label]
    assert m.g._is_zero
    for z in [_grid_points((97,)), _grid_points((9, 11)), *_scalar_inputs()]:
        _assert_same_bits(m.value(z), m.h.value(z) + np.conjugate(m.g.value(z)))
        w = m.wirtinger(z)
        _assert_same_bits(w.fz, m.h.d1(z))
        _assert_same_bits(w.fzb, np.conjugate(m.g.d1(z)))


def test_signed_zero_series_is_not_skipped():
    # a -0.0 coefficient can reach the result's sign bits, so it is evaluated
    for coeffs in ((complex(-0.0, 0.0),), (0j, complex(0.0, -0.0))):
        assert not SeriesPart(coeffs)._is_zero
    assert SeriesPart((0j, 0j, 0j))._is_zero


def test_zero_g_is_never_evaluated(monkeypatch):
    calls = []

    def counting(name):
        method = getattr(SeriesPart, name)

        def wrapper(self, z):
            calls.append((name, self))
            return method(self, z)
        return wrapper

    for name in ("value", "d1", "d2"):
        monkeypatch.setattr(SeriesPart, name, counting(name))
    z = _grid_points((97,))
    zero_g = HarmonicMap(SeriesPart(_COEFFS), SeriesPart((0j,)), "zero-g")
    zero_g.value(z)
    zero_g.wirtinger(z)
    zero_g.value(0.25j)
    zero_g.wirtinger(0.25j)
    # h goes through its public methods; the zero g is never called
    assert [name for name, part in calls if part is zero_g.h] == ["value", "d1"] * 2
    assert not [name for name, part in calls if part is zero_g.g]

    calls.clear()
    signed = HarmonicMap(SeriesPart(_COEFFS), SeriesPart((complex(-0.0, 0.0),)), "signed")
    signed.value(z)
    signed.wirtinger(z)
    assert [name for name, part in calls if part is signed.g] == ["value", "d1"]


def test_series_map_past_0999_is_exact_and_silent():
    m = HarmonicMap(SeriesPart((0j, 1.0, 0.25)), SeriesPart((0j, 0j, 0.125 + 0.0625j)), "poly")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = m.value(0.9995j)
        w = m.wirtinger(np.array([0.5, 0.9995j, -0.9995]))
    assert _hex_bits(value) == [("-0x1.7f9db877ab326p-2", "0x1.0fdb2314013edp+0")]
    assert _hex_bits(w.fz) == [("0x1.4000000000000p+0", "0x0.0p+0"),
                               ("0x1.0000000000000p+0", "0x1.ffbe76c8b4396p-2"),
                               ("0x1.0020c49ba5e35p-1", "0x0.0p+0")]
    assert _hex_bits(w.fzb) == [("0x1.0000000000000p-3", "-0x1.0000000000000p-4"),
                                ("-0x1.ffbe76c8b4396p-4", "-0x1.ffbe76c8b4396p-3"),
                                ("-0x1.ffbe76c8b4396p-3", "0x1.ffbe76c8b4396p-4")]


# ---------------------------------------------------------------------------
# Wirtinger pairs


def test_wirtinger_identity(corpus):
    w = corpus["identity"].wirtinger(0.3 + 0.2j)
    assert w.fz == 1.0
    assert w.fzb == 0.0


def test_wirtinger_koebe(corpus):
    # k'(z) = (1+z)/(1-z)^3 at 0.5 gives 1.5/0.125 = 12
    w = corpus["koebe"].wirtinger(0.5)
    assert complex(w.fz) == pytest.approx(12.0, rel=1e-14)
    assert complex(w.fzb) == 0.0


def test_wirtinger_shear_constant(corpus):
    for z in (0.1, -0.5j, 0.6 + 0.2j):
        w = corpus["shear-k3"].wirtinger(z)
        assert complex(w.fz) == pytest.approx(1.0)
        assert complex(w.fzb) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "fz, fzb, dnorm, dmin, jac, dil",
    [
        (1.0, 0.5, 1.5, 0.5, 0.75, 0.5),
        (12.0, 0.0, 12.0, 12.0, 144.0, 0.0),
        (0.5, 1.0, 1.5, 0.5, -0.75, 2.0),
    ],
)
def test_pair_functionals(fz, fzb, dnorm, dmin, jac, dil):
    p = WirtingerPair(fz, fzb)
    assert p.dnorm == pytest.approx(dnorm)
    assert p.dmin == pytest.approx(dmin)
    assert p.jacobian == pytest.approx(jac)
    assert p.dilatation == pytest.approx(dil)


def test_dilatation_sentinel():
    assert WirtingerPair(0.0, 1.0).dilatation == math.inf
    arr = WirtingerPair(np.array([0.0 + 0j, 2.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
    assert arr.dilatation[0] == math.inf
    assert arr.dilatation[1] == pytest.approx(0.5)


@given(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, derandomize=True)
def test_pair_invariants(fz, fzb):
    p = WirtingerPair(fz, fzb)
    assert p.dnorm >= p.dmin >= 0.0
    assert abs(p.jacobian) == pytest.approx(p.dnorm * p.dmin, abs=1e-12 * (1 + p.dnorm) ** 2)
    if p.jacobian > 0:
        assert p.dilatation < 1.0
    if p.dilatation < 1.0:
        assert p.jacobian > 0


def test_wirtinger_matches_finite_differences():
    # central finite differences are the independent oracle for the
    # hand-coded derivatives of every part kind
    h = 1e-6
    parts = [
        CatalogPart("koebe"),
        CatalogPart("halfplane", rotation=complex(math.cos(0.7), math.sin(0.7))),
        SeriesPart((0j, 1.0, -0.3 + 0.1j, 0.05j, 0.02)),
        ComboPart(((0.5 + 0j, CatalogPart("koebe")), (0.25j, CatalogPart("identity")))),
    ]
    zs = [0.1, -0.4, 0.3 + 0.4j, -0.2 - 0.55j, 0.85, 0.6j]
    for part in parts:
        for z in zs:
            fd1 = (part.value(z + h) - part.value(z - h)) / (2 * h)
            fd2 = (part.value(z + h) - 2 * part.value(z) + part.value(z - h)) / h**2
            assert complex(part.d1(z)) == pytest.approx(complex(fd1), rel=1e-6)
            assert complex(part.d2(z)) == pytest.approx(complex(fd2), rel=1e-3, abs=1e-4)


# ---------------------------------------------------------------------------
# quasiconformality constant


def test_qc_identity(corpus):
    assert qc_constant(corpus["identity"], disk_grid(12, 16)) == 1.0


def test_qc_shear_exact_everywhere(corpus):
    pts = disk_grid(12, 16)
    w = corpus["shear-k3"].wirtinger(pts)
    assert np.max(np.abs(w.dnorm / w.dmin - 3.0)) < 1e-12
    assert qc_constant(corpus["shear-k3"], pts) == pytest.approx(3.0, abs=1e-12)


def test_qc_half_dilatation_map():
    # g'(z) = z h'(z)/2 with h = id: sup |omega| on the grid is 0.999/2,
    # so the constant is (1 + 0.4995) / (1 - 0.4995)
    m = HarmonicMap(CatalogPart("identity"), SeriesPart((0j, 0j, 0.25)), "gz2")
    got = qc_constant(m, disk_grid(48, 16, r_cap=0.999))
    assert got == pytest.approx(1.4995 / 0.5005, rel=1e-12)
    coarse = qc_constant(m, disk_grid(12, 16, r_cap=0.99))
    assert coarse <= got  # monotone under refinement toward the boundary


def test_qc_sense_reversing_witness():
    m = HarmonicMap(SeriesPart((0j, 0.5)), SeriesPart((0j, 1.0)), "reversed")
    with pytest.raises(SenseReversalError) as err:
        qc_constant(m, disk_grid(8, 8))
    assert abs(err.value.witness) < 1.0


# ---------------------------------------------------------------------------
# construction validation


def test_flag_validation():
    with pytest.raises(ParameterError):
        HarmonicMap(SeriesPart((1.0 + 0j, 1.0)), ZERO, "shifted", frozenset({"SH"}))
    with pytest.raises(ParameterError):
        HarmonicMap(SeriesPart((0j, 2.0)), ZERO, "scaled", frozenset({"SH"}))
    with pytest.raises(ParameterError):
        HarmonicMap(CatalogPart("identity"), SeriesPart((0j, 0.5)), "sheared",
                    frozenset({"SH0"}))


class _NanSlopePart(AnalyticPart):
    """Vanishes at 0 with a NaN derivative there, which no ``SeriesPart``
    can carry: it rejects non-finite derivative coefficients."""

    def derivative(self, order, z):
        if order == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return np.full(np.shape(z), complex(math.nan, 0.0))


@pytest.mark.parametrize("h, flag", [
    (SeriesPart((complex(math.nan, 0.0), 1.0)), "SH"),
    (_NanSlopePart(), "SH"),
    (CatalogPart("identity"), "SH0"),
], ids=["nan-h0", "nan-h-prime", "nan-g-prime"])
def test_flag_validation_rejects_nan(h, flag):
    g = _NanSlopePart() if flag == "SH0" else ZERO
    with pytest.raises(ParameterError):
        HarmonicMap(h, g, "nan", frozenset({flag}))


@pytest.mark.parametrize("coeffs, where", [
    ((0j, 1.0, 1e308), "series coefficient 2 gives a non-finite d1 coefficient"),
    ((0j, 1.0, 0j, 5e307), "series coefficient 3 gives a non-finite d2 coefficient"),
], ids=["d1", "d2"])
def test_series_rejects_overflowing_derivative_coefficients(coeffs, where):
    # 3 * 5e307 is finite but 3 * 2 * 5e307 is not
    with pytest.raises(ParameterError, match=where):
        SeriesPart(coeffs)


def test_sense_check_rejects_nan_jacobian():
    m = HarmonicMap(_NanSlopePart(), ZERO, "big")
    assert math.isnan(m.wirtinger(0j).jacobian)
    with pytest.raises(ParameterError) as err:
        check_sense_preserving(m, disk_grid(8, 8))
    # the first NaN norm is an input error, as finite_dnorm reports it
    assert str(err.value) == "big: derivative norm is not finite at z = 0j"


def test_sense_check_compares_moduli_not_the_jacobian():
    # the Jacobian (1e-170)^2 underflows to 0, which the check once read as
    # a sense reversal while finite_dnorm accepted the point
    m = HarmonicMap(SeriesPart((0j, 1e-170)), ZERO, "tiny")
    assert m.wirtinger(0.5 + 0j).jacobian == 0.0
    w = check_sense_preserving(m, [0.5 + 0j])
    assert w.fz[0] == 1e-170 and w.fzb[0] == 0
    assert finite_dnorm(m, 0.5 + 0j) == 1e-170


_RING_EPS = 1e-2
_CRIT_III_Z = (johndisk._z_radii(0)[:, None]
               * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, johndisk._N_ROT, endpoint=False)))
_SCAN_R = np.linspace(0.0, (1.0 - 2.0 * _RING_EPS) * (1.0 - 1e-9), 5)[2]
# the lower points rho xi of check_weighted_deriv_growth's default triples
_TRIPLE_RHO_XI = (np.array([t[1] for t in default_triples()])
                  * np.array([t[0] for t in default_triples()], dtype=complex))


@pytest.mark.parametrize("at, read", [
    (complex((1.0 - np.geomspace(1.0, 1.0 - R_CAP, 48))[20]), lambda m: criterion_ii(m, 0.3)),
    (complex(_CRIT_III_Z[2, 3]), criterion_iii),
    (decay_fit_sample(), decay_fit),
    (complex(((1.0 - _RING_EPS) * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 2048,
                                                          endpoint=False)))[300]),
     lambda m: boundary_profile(m, eps=_RING_EPS, n=2048)),
    (complex(_SCAN_R * np.exp(1j * math.pi / 4)), lambda m: poisson_scan(m, _RING_EPS)),
    (0.9 + 0j, lambda m: check_harnack_box(m, 1.0, 3.0, 0.9 + 0j)),
    (complex(_harnack_box(0.9 + 0j)[7]), lambda m: check_harnack_box(m, 1.0, 3.0, 0.9 + 0j)),
    (complex(_TRIPLE_RHO_XI[70]), lambda m: check_weighted_deriv_growth(m, 2.0)),
    (complex(disk_grid()[100]), lambda m: check_derivative_bounds(m, 2.0, 1.0)),
    (complex(disk_grid(24, 32)[50]), lambda m: check_boundary_dist_lower(m, 1.0)),
], ids=["criterion-ii", "criterion-iii", "decay-fit", "poisson-ring", "poisson-scan",
        "harnack-z0", "harnack-box", "weighted-deriv-growth", "deriv-value-bound",
        "boundary-dist-lower"])
def test_vanishing_norm_is_a_sense_reversal_at_its_point(at, read, norm_at_point):
    # every reader of the derivative norm goes through finite_dnorm; the
    # decay fit used to write "delta": NaN, the Harnack check named a box
    # point in a non-finite-margin error, and the four bounds checks read a
    # zero norm as a zero side of their inequality
    with pytest.raises(SenseReversalError) as info:
        read(norm_at_point(at))
    assert info.value.witness == at
    assert "convex-poly2: sense-reversing, |f_zb| >= |f_z|" in str(info.value)


def test_series_needs_coefficients():
    with pytest.raises(ParameterError):
        SeriesPart(())


def test_unknown_catalog_entry():
    with pytest.raises(ParameterError):
        CatalogPart("lens")


def test_config_validation():
    with pytest.raises(ParameterError):
        Config(alpha=1.5)
    with pytest.raises(ParameterError):
        Config(bigk=0.5)
    with pytest.raises(ParameterError):
        Config(eps=0.7)


@pytest.mark.parametrize("kwargs", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"bigk": math.nan}, {"bigk": math.inf},
    {"eps": math.nan}, {"tol": math.nan}, {"tol": math.inf},
    {"tol": 0.0}, {"tol": -1e-9}, {"grid_level": -1}, {"seed": -1},
])
def test_config_rejects_out_of_range(kwargs):
    with pytest.raises(ParameterError):
        Config(**kwargs)


def test_catalog_rotation_rejects_nan():
    with pytest.raises(ParameterError):
        CatalogPart("koebe", rotation=complex(math.nan, 0.0))


@settings(max_examples=100, derandomize=True)
@given(disk_points())
def test_shear_pointwise_ratio(z):
    from hqmap import default_corpus

    w = default_corpus()["shear-k3"].wirtinger(z)
    assert w.dnorm / w.dmin == pytest.approx(3.0, abs=1e-12)
