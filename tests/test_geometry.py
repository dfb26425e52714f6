import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmap import (
    DiskDomainError,
    boundary_arc,
    boundary_box,
    boundary_distance,
    disk_grid,
    hyp_dist,
    stolz_contains,
    stolz_sample,
)
from hqmap.geometry import (
    boundary_boxes,
    mobius_shift,
    set_diameter,
    wrap_angle,
)
from hqmap.maps import HarmonicMap, ParameterError, SeriesPart


def polar(r, t):
    return r * complex(math.cos(t), math.sin(t))


disk_pts = st.builds(polar, st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))


# ---------------------------------------------------------------------------
# hyperbolic metric


def test_hyp_dist_zero():
    assert hyp_dist(0.3 + 0.1j, 0.3 + 0.1j) == 0.0


def test_hyp_dist_closed_forms():
    assert hyp_dist(0.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-15)
    # |(0.5 - (-0.5)) / (1 - 0.5*(-0.5))| = 1/1.25 = 0.8
    assert hyp_dist(0.5, -0.5) == pytest.approx(math.atanh(0.8), abs=1e-15)


def test_hyp_dist_domain_error():
    with pytest.raises(DiskDomainError):
        hyp_dist(1.0, 0.5)
    with pytest.raises(DiskDomainError):
        hyp_dist(0.5, 1.2j)


@pytest.mark.parametrize("z1, z2", [(math.nan, 0.5), (0.5, [0.1, complex(0.2, math.nan)])],
                         ids=["first", "second"])
def test_hyp_dist_rejects_nan(z1, z2):
    # a NaN point used to pass "any(|z| >= 1)" and give NaN after a warning
    with pytest.raises(DiskDomainError, match="nan"):
        hyp_dist(z1, z2)


@settings(max_examples=200, derandomize=True)
@given(disk_pts, disk_pts, disk_pts)
def test_hyp_triangle_inequality(z1, z2, z3):
    assert hyp_dist(z1, z3) <= hyp_dist(z1, z2) + hyp_dist(z2, z3) + 1e-12


@settings(max_examples=200, derandomize=True)
@given(disk_pts, disk_pts)
def test_hyp_symmetry(z1, z2):
    assert hyp_dist(z1, z2) == pytest.approx(hyp_dist(z2, z1), abs=1e-14)


@settings(max_examples=150, derandomize=True)
@given(disk_pts, disk_pts, st.builds(polar, st.floats(0.0, 0.7), st.floats(0.0, 2 * math.pi)))
def test_hyp_mobius_invariance(z1, z2, a):
    d0 = hyp_dist(z1, z2)
    d1 = hyp_dist(mobius_shift(z1, a), mobius_shift(z2, a))
    assert abs(d1 - d0) < 1e-10


# ---------------------------------------------------------------------------
# boundary boxes


def box_contains(z: complex, zeta) -> np.ndarray:
    """Membership in B(z) = {w : |z| <= |w| < 1, |arg z - arg w| <= pi(1-|z|)},
    the oracle the box sample is tested against."""
    zeta = np.asarray(zeta, dtype=complex)
    rad_ok = (np.abs(zeta) >= abs(z) - 1e-12) & (np.abs(zeta) < 1.0)
    if z == 0:
        return rad_ok
    ang = np.abs(wrap_angle(np.angle(zeta) - np.angle(complex(z))))
    return rad_ok & (ang <= math.pi * (1.0 - abs(z)) + 1e-12)


def _box_per_anchor(z, n_radial, n_angular, reach):
    """Reference box: the one-anchor sample, its lattices built for z alone."""
    z = complex(z)
    r0 = abs(z)
    if z == 0:
        half_width = math.pi
        base_angle = 0.0
    else:
        half_width = math.pi * (1.0 - r0)
        base_angle = float(np.angle(z))
    if n_radial == 1:
        radii = np.array([r0])
    else:
        radii = 1.0 - np.geomspace(1.0 - r0, 1.0 - reach, n_radial)
    angles = base_angle + np.linspace(-half_width, half_width, n_angular)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def test_boundary_boxes_rows_are_the_per_anchor_boxes():
    # every row equals its own one-anchor box bit for bit; at the first
    # complex anchor numpy's complex abs is one ulp below Python's abs
    from hqmap.johndisk import _reach, _z_radii

    anchors = [0j, *(complex(r) for level in range(4) for r in _z_radii(level)),
               0.7293521485912897 + 0.5457463043506803j, -0.3 + 0.4j, -0.75j,
               0.95 * np.exp(0.3j), -0.9, 0.2 - 1e-9j]
    for reach in (*(_reach(level) for level in range(4)), 0.999):
        inside = [z for z in anchors if abs(z) < reach]
        for shape in ((8, 9), (20, 21), (30, 31), (45, 45), (80, 81), (1, 5), (6, 1)):
            rows = boundary_boxes(inside, *shape, reach)
            assert rows.shape == (len(inside), shape[0] * shape[1])
            for z, row in zip(inside, rows):
                assert row.tobytes() == _box_per_anchor(z, *shape, reach).tobytes(), \
                    (z, shape, reach)
            assert boundary_box(inside[-1], *shape, reach).tobytes() == rows[-1].tobytes()


def test_boundary_boxes_reject_an_anchor_past_the_reach():
    with pytest.raises(ParameterError, match=r"\|z\| < reach"):
        boundary_boxes([0.0, 0.5, 0.9995], 8, 9, 0.999)
    with pytest.raises(ParameterError, match=r"\|z\| < reach"):
        boundary_box(0.999j, 8, 9, 0.999)


def test_boundary_boxes_reject_a_nan_anchor_or_reach():
    # each used to return a grid of NaN points
    with pytest.raises(ParameterError, match=r"\|z\| < reach"):
        boundary_boxes([0.5, complex(math.nan, 0.0)], 8, 9, 0.999)
    with pytest.raises(ParameterError, match=r"\|z\| < reach"):
        boundary_box(math.nan, 8, 9, 0.999)
    with pytest.raises(ParameterError, match=r"\|z\| < reach"):
        boundary_box(0.5, 8, 9, math.nan)


def test_box_geometry():
    box = boundary_box(0.9, 12, 13)
    assert np.ptp(np.angle(box)) == pytest.approx(2 * math.pi * 0.1, abs=1e-12)
    assert np.all(box_contains(0.9, box))
    radii = np.abs(box)
    assert radii.min() == pytest.approx(0.9)
    assert radii.max() == pytest.approx(0.999)
    # corner extremes present
    corner = 0.999 * np.exp(1j * math.pi * 0.1)
    assert np.min(np.abs(box - corner)) < 1e-12


def test_box_membership_example():
    # |arg| = 0.3 against half-width pi/10 = 0.31416: inside
    assert bool(box_contains(0.9, 0.95 * np.exp(0.3j)))
    assert not bool(box_contains(0.9, 0.95 * np.exp(0.33j)))
    assert not bool(box_contains(0.9, 0.85))  # radially too shallow


def test_box_half_width_midrange():
    assert np.ptp(np.angle(boundary_box(0.5, 8, 9))) == pytest.approx(math.pi, abs=1e-12)


def test_box_origin_full_circle():
    box = boundary_box(0.0, 10, 11)
    assert np.ptp(np.angle(box)) == pytest.approx(2 * math.pi, abs=1e-12)
    assert np.all(box_contains(0.0, box))


def test_box_refinement_keeps_suprema():
    # doubling the sample never loses functional suprema (corners are shared)
    from hqmap import default_corpus

    koebe = default_corpus()["koebe"]
    box1 = boundary_box(0.8, 10, 11)
    box2 = boundary_box(0.8, 20, 21)
    s1 = float(np.max(np.abs(koebe.value(box1))))
    s2 = float(np.max(np.abs(koebe.value(box2))))
    assert s2 >= s1 - 1e-12


def test_boundary_arc():
    arc = boundary_arc(0.9, 64)
    assert np.all(np.abs(np.abs(arc) - 1.0) < 1e-14)
    width = np.ptp(np.angle(arc))
    assert width == pytest.approx(2 * math.pi * 0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# Stolz-type hull


def test_stolz_apex_and_core():
    assert stolz_contains(0.8, 0.8)          # apex
    assert stolz_contains(0.8, 0.1j)         # inside the core disk
    assert not stolz_contains(0.8, -0.5)     # behind the disk
    assert not stolz_contains(0.8, 0.9)      # beyond the apex


def test_stolz_on_axis_point():
    assert stolz_contains(0.8, 0.2)  # sits on the closed core disk


@pytest.mark.parametrize("r", [0.5, 0.8, 0.95])
def test_stolz_angle_bound_sweep(r):
    pts = stolz_sample(r, 120, 120)
    assert len(pts) > 2000
    assert np.all(stolz_contains(r, pts) & (np.abs(pts) > r / 4.0))
    eta = np.abs(np.angle(pts))
    bound = 4 * math.pi * (r - np.abs(pts)) / (r * math.sqrt(15.0))
    assert np.all(eta <= bound)
    assert np.all(eta < 3 * math.pi / math.sqrt(15.0))


# ---------------------------------------------------------------------------
# boundary distance


def test_boundary_distance_identity(corpus):
    ident = corpus["identity"]
    d0 = boundary_distance(ident, 0.0, eps=1e-4, n=4096)
    assert d0.value == pytest.approx(1.0, abs=1e-3)
    assert d0.converged
    assert boundary_distance(ident, 0.5, eps=1e-4, n=4096).value == pytest.approx(0.5, abs=1e-3)


def test_boundary_distance_scaled_disk():
    m = HarmonicMap(SeriesPart((0j, 2.0)), SeriesPart((0j,)), "twice")
    assert boundary_distance(m, 0.0).value == pytest.approx(2.0, abs=2e-3)


def test_boundary_distance_identity_profile(corpus):
    ident = corpus["identity"]
    for w in np.linspace(0.0, 0.9, 7) * np.exp(0.4j):
        est = boundary_distance(ident, complex(w), eps=1e-4, n=4096)
        assert est.value == pytest.approx(1.0 - abs(w), abs=1e-3)


def _ring_min(m, ws, eps, n):
    """Min over the n-sample ring image, from one full distance matrix."""
    img = m.value((1.0 - eps) * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)))
    ws = np.asarray(ws)
    return np.min(np.abs(ws.ravel()[:, None] - img[None, :]), axis=1).reshape(ws.shape)


@pytest.mark.parametrize("n,count", [(4096, 1000), (128, 5000)])
def test_boundary_distances_blocks_match_full_matrix(corpus, n, count):
    # neither target count is a multiple of the rows per block
    m = corpus["shear-k3"]
    rng = np.random.default_rng(7)
    zs = np.sqrt(rng.uniform(0.0, 0.98, count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    ws = m.value(zs)
    assert boundary_distance(m, ws, eps=1e-4, n=n).value.tobytes() == \
        _ring_min(m, ws, 1e-4, n).tobytes()


def _seeded_series_map():
    rng = np.random.default_rng(3)
    k = np.arange(2, 13)
    coef = 0.6 / k ** 2 * np.exp(2j * math.pi * rng.uniform(size=(2, k.size)))
    return HarmonicMap(SeriesPart((0j, 1.0) + tuple(coef[0])),
                       SeriesPart((0j, 0j) + tuple(coef[1])), "series12")


def test_boundary_distance_array_matches_points(corpus):
    # one call over an array gives the bits of one call per point, and is
    # converged exactly when every per-point estimate is
    zs = np.array([0.0, 0.5, -0.3 + 0.6j, 0.9j, 0.97 * np.exp(2.0j)])
    for m in list(corpus.values()) + [_seeded_series_map()]:
        ws = m.value(zs)
        est = boundary_distance(m, ws)
        points = [boundary_distance(m, w) for w in ws]
        assert est.value.tobytes() == np.array([p.value for p in points]).tobytes()
        assert est.drift.tobytes() == np.array([p.drift for p in points]).tobytes()
        assert est.converged == all(p.converged for p in points)
        assert isinstance(points[0].value, float) and isinstance(points[0].drift, float)


@pytest.mark.parametrize("n", [8192, 4096])
def test_boundary_distance_is_the_two_ring_minimum(corpus, n):
    # value and drift are the n-ring minimum and its gap to the n/2-ring
    # minimum, bit for bit, with the shape of w: the even half of an n-ring
    # image is the n/2-ring image, so one ring gives both minima
    zs = np.array([[0.0, 0.5, -0.3 + 0.6j], [0.9j, 0.97 * np.exp(2.0j), 0.999]])
    for m in list(corpus.values()) + [_seeded_series_map()]:
        w = m.value(zs)
        for ws in (w[0, 1], w[0], w, w[:0]):
            est = boundary_distance(m, ws, n=n)
            fine, coarse = _ring_min(m, ws, 1e-4, n), _ring_min(m, ws, 1e-4, n // 2)
            assert np.shape(est.value) == np.shape(est.drift) == np.shape(ws)
            assert np.asarray(est.value).tobytes() == fine.tobytes(), m.label
            assert np.asarray(est.drift).tobytes() == (coarse - fine).tobytes(), m.label
            assert est.converged == bool(np.all(coarse - fine <= 0.05 * fine))
    assert isinstance(boundary_distance(corpus["koebe"], 0.0).value, float)
    empty = boundary_distance(corpus["identity"], np.zeros((0, 3), dtype=complex))
    assert empty.value.shape == empty.drift.shape == (0, 3) and empty.converged


def test_boundary_distance_needs_samples(corpus):
    from hqmap.maps import ParameterError

    for n in (32, 64, 129):
        with pytest.raises(ParameterError):
            boundary_distance(corpus["identity"], 0.0, n=n)


# ---------------------------------------------------------------------------
# small helpers


def test_ring_and_circle(corpus):
    from hqmap.maps import ParameterError

    # the identity's ring image is the ring: the circle of radius 1 - eps
    assert boundary_distance(corpus["identity"], 0.0, 1e-3, 256).value == pytest.approx(
        0.999, abs=1e-14)
    for eps in (0.0, 1.0):
        with pytest.raises(ParameterError):
            boundary_distance(corpus["identity"], 0.0, eps, 256)


def test_disk_grid_contains_origin_and_cap():
    grid = disk_grid(10, 12)
    assert 0.0 + 0.0j in set(grid.tolist())
    assert np.abs(grid).max() == pytest.approx(0.999, abs=1e-15)


def test_diameter_square():
    pts = np.array([0, 1, 1j, 1 + 1j], dtype=complex)
    assert set_diameter(pts) == pytest.approx(math.sqrt(2.0))


def test_diameter_matches_bruteforce_on_cloud():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=200) + 1j * rng.normal(size=200)
    brute = np.max(np.abs(pts[:, None] - pts[None, :]))
    assert set_diameter(pts) == pytest.approx(float(brute), rel=1e-12)


def _row_maxima(p):
    # max |p[i] - p[j]| over j for each i, one row at a time: the whole
    # matrix of a 6,480-point box would take 0.7 GB
    return np.array([np.abs(x - p).max() for x in p])


def test_diameter_is_the_unblocked_maximum(corpus):
    # the arc images that arc_image_diameter takes the diameter of
    for m in corpus.values():
        for a in (0.9, 0.7j, 0.95 * np.exp(0.3j)):
            p = m.value((1.0 - 1e-4) * boundary_arc(a))
            assert set_diameter(p) == np.abs(p[:, None] - p[None, :]).max(), (m.label, a)
    # the 80 x 81 box of diam_ratio_check at z = 0: 6,480 points in 162 row
    # blocks, 81 copies of f(0) on the zero radius and 81 collinear rays
    p = corpus["identity"].value(boundary_box(0.0, 80, 81))
    assert set_diameter(p) == _row_maxima(p).max()
    p = corpus["koebe"].value(boundary_box(0.5, 80, 81))
    rows = _row_maxima(p)
    assert set_diameter(p) == rows.max()
    # the same box image with every point of a farthest pair moved to the
    # end, less one point: only the last, partial block holds a row that
    # reaches the diameter
    ends = np.flatnonzero(rows == rows.max())
    q = np.concatenate([np.delete(p, np.append(ends, 0)), p[ends]])
    assert len(ends) <= q.size % ((1 << 18) // q.size)
    assert set_diameter(q) == _row_maxima(q).max() == rows.max()


def test_diameter_of_fewer_than_two_points():
    assert set_diameter(np.array([], dtype=complex)) == 0.0
    assert set_diameter(np.array([0.3 + 0.1j])) == 0.0
    assert set_diameter(np.full(100, 0.3 + 0.1j)) == 0.0
