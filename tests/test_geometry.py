import math
import tracemalloc

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
from hqmap import geometry
from hqmap.bounds import check_arc_image_diameter
from hqmap.maps import EPS_MIN, Config, HarmonicMap, ParameterError, SeriesPart
from hqmap.poisson import poisson_functional, poisson_scan


def polar(r, t):
    return r * complex(math.cos(t), math.sin(t))


disk_pts = st.builds(polar, st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))


# ---------------------------------------------------------------------------
# unit-circle nodes: one read-only ring per size and process

_RING_SIZES = (16, 32, 48, 512, 4096, 8192, 1 << 15, 1 << 18)


def _fresh_ring(n):
    return np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))


def test_circle_nodes_is_one_read_only_array_per_size():
    nodes = geometry.circle_nodes(64)
    assert geometry.circle_nodes(64) is nodes
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        nodes *= 2.0
    assert nodes.tobytes() == _fresh_ring(64).tobytes()


@pytest.mark.parametrize("n", _RING_SIZES)
def test_circle_nodes_are_the_exponentiated_linspace_angles(n):
    assert geometry.circle_nodes(n).tobytes() == _fresh_ring(n).tobytes()


@pytest.mark.parametrize("n", _RING_SIZES)
def test_even_half_of_a_ring_is_the_half_size_ring(n):
    # boundary_distance reads the even-indexed half of its ring as the
    # n/2-sample ring
    assert geometry.circle_nodes(n)[::2].tobytes() == geometry.circle_nodes(n // 2).tobytes()


@pytest.mark.parametrize("bits", range(11, 19))
def test_streamed_node_blocks_are_the_circle_nodes(bits):
    # the Poisson rings are built block by block and kept by no one; put
    # back in ring order, the blocks are circle_nodes(n) bit for bit
    n = 1 << bits
    ring = geometry.circle_nodes(n).reshape(8, -1)
    for width in (4096, 1000):
        blocks = list(geometry.circle_node_blocks(n, 8, width))
        assert all(b.shape == (8, min(width, n // 8 - lo))
                   for b, lo in zip(blocks, range(0, n // 8, width)))
        assert np.concatenate(blocks, axis=1).tobytes() == ring.tobytes(), width


def test_a_sample_cache_builds_each_key_once():
    builds = []

    @geometry._built_once
    def sample(key):
        builds.append(key)
        return [key]

    first = sample(7)
    assert sample(7) is first and builds == [7]
    assert sample(8) == [8] and builds == [7, 8]
    sample.cache_clear()
    assert sample(7) is not first and builds == [7, 8, 7]


def test_a_build_may_read_another_sample_cache():
    # a box build that reads a ring (a miss of the ring cache) gets the ring
    @geometry._built_once
    def outer(n):
        return geometry.circle_nodes(n)[:2].copy()

    geometry.circle_nodes.cache_clear()
    assert outer(24).tobytes() == _fresh_ring(24)[:2].tobytes()


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


@pytest.mark.parametrize("run, at_floor", [
    (lambda m, eps: boundary_distance(m, 0.1, eps=eps), None),
    # the floor passes, and the 2^55-node ring it asks for is above the cap
    (lambda m, eps: poisson_functional(m, 0.0, eps), r"needs a 2\^55-node ring"),
    (lambda m, eps: check_arc_image_diameter(m, 1.0, 2.0, (1.0, 1.0), [0.9 + 0j], eps=eps),
     None),
], ids=["boundary_distance", "poisson_functional", "arc_image_diameter"])
def test_a_ring_offset_below_the_floor_is_an_input_error(run, at_floor, corpus):
    # below about 3e-16 a (1 - eps) ring node rounds onto or past the circle
    for eps in (1e-17, 2.3e-16, 9e-16, 0.0, -1e-4, math.nan):
        with pytest.raises(ParameterError, match=r"ring offset eps must lie in \[1e-15, 0.5\]"):
            run(corpus["identity"], eps)
    if at_floor is None:
        run(corpus["identity"], EPS_MIN)
    else:
        with pytest.raises(ParameterError, match=at_floor):
            run(corpus["identity"], EPS_MIN)


@pytest.mark.parametrize("run, at_half", [
    (lambda m, eps: Config(eps=eps), None),
    (lambda m, eps: boundary_distance(m, 0.1, eps=eps), None),
    (lambda m, eps: poisson_functional(m, 0.0, eps), None),
    # eps = 0.5 is in range, but it puts all five scan radii at zeta = 0
    (lambda m, eps: poisson_scan([m], eps), r"eps = 0.5 collapses the scan grid"),
], ids=["Config", "boundary_distance", "poisson_functional", "poisson_scan"])
def test_one_half_is_the_top_of_every_ring_offset(run, at_half, corpus):
    # one range for every ring offset: [EPS_MIN, 0.5], the --eps range
    if at_half is None:
        run(corpus["identity"], 0.5)
    else:
        with pytest.raises(ParameterError, match=at_half):
            run(corpus["identity"], 0.5)
    with pytest.raises(ParameterError, match=r"ring offset eps must lie in \[1e-15, 0.5\]"):
        run(corpus["identity"], np.nextafter(0.5, 1.0))


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
    # end, less one point: only the last, partial block of consecutive
    # points holds a farthest pair
    ends = np.flatnonzero(rows == rows.max())
    q = np.concatenate([np.delete(p, np.append(ends, 0)), p[ends]])
    assert len(ends) <= q.size % geometry._DIAMETER_BLOCK
    assert set_diameter(q) == _row_maxima(q).max() == rows.max()


def test_diameter_of_fewer_than_two_points():
    assert set_diameter(np.array([], dtype=complex)) == 0.0
    assert set_diameter(np.array([0.3 + 0.1j])) == 0.0
    assert set_diameter(np.full(100, 0.3 + 0.1j)) == 0.0


# ---------------------------------------------------------------------------
# the pruned search against the full distance matrix


class _RingImage:
    """Stands in for a map whose ring image is ``img``: boundary_distance
    reads nothing of a map but its values on the ring."""

    def __init__(self, img):
        self.img = img

    def value(self, z):
        assert np.shape(z) == self.img.shape
        return self.img.copy()


def _same_bits(a, b):
    """Equal bit for bit, any NaN matching any NaN (which NaN a min or max
    keeps depends on its order)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@st.composite
def _point_curves(draw, sizes):
    """Consecutive samples of a closed curve (so that the search skips
    blocks), a Gaussian cloud, a line of duplicated points or one point
    repeated, moved far off the origin or scaled; with a few NaN or
    infinite points and duplicates of other samples."""
    n = draw(sizes)
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    kind = draw(st.sampled_from(["curve", "cloud", "collinear", "constant"]))
    if kind == "cloud":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
    elif kind == "curve":
        k = draw(st.integers(1, 6))
        pts = np.exp(1j * t) * (1.0 + draw(st.floats(-0.6, 0.6)) * np.cos(k * t))
    elif kind == "collinear":
        pts = np.round(4.0 * np.cos(draw(st.integers(1, 3)) * t)) * np.exp(0.3j) + 0j
    else:
        pts = np.full(n, 0.25 - 0.5j)
    pts = (draw(st.sampled_from([0.0, 1e6 - 3e5j]))
           + draw(st.sampled_from([1.0, 1e-7, 1e5])) * pts)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4)):
        pts[i] = pts[j]
    specials = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf),
                complex(math.inf, math.nan)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        pts[i] = draw(st.sampled_from(specials))
    return pts


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_point_curves(st.sampled_from([128, 130, 192, 258])),
       st.sampled_from([(), (0,), (7,), (2, 40), (0, 3)]), st.integers(0, 2**32 - 1))
def test_boundary_distance_is_the_full_matrix_minimum(img, shape, seed):
    # n = 130 has halves of 65 samples, not a multiple of the block size;
    # half of the targets lie on the ring image, at distance 0
    rng = np.random.default_rng(seed)
    finite = img[np.isfinite(img)]
    size = math.prod(shape)
    centre, spread = (finite.mean(), np.ptp(np.abs(finite))) if finite.size else (0j, 1.0)
    ws = centre + (spread + 1.0) * (rng.normal(size=size) + 1j * rng.normal(size=size))
    if finite.size:
        ws[: size // 2] = rng.choice(finite, size // 2)
    ws = ws.reshape(shape)
    est = boundary_distance(_RingImage(img), ws, n=img.size)
    d = np.abs(ws.reshape(-1, 1) - img)
    fine, coarse = d.min(axis=1), d[:, 0::2].min(axis=1)
    assert _same_bits(est.value, fine.reshape(shape))
    assert _same_bits(est.drift, (coarse - fine).reshape(shape))
    assert est.converged == bool(np.all(coarse - fine <= 0.05 * np.maximum(fine, 1e-300)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_point_curves(st.integers(2, 300)))
def test_diameter_is_the_full_matrix_maximum(pts):
    with np.errstate(invalid="ignore"):  # inf - inf on both sides
        assert _same_bits(set_diameter(pts), np.abs(pts[:, None] - pts[None, :]).max())


def test_boundary_distance_when_no_block_is_skipped(corpus):
    # the identity's ring image is a circle about its centre, so for 1,000
    # targets there every block survives: scratch memory stays bounded
    # (the blocked full matrix peaked at 6.3 MiB)
    ident, ws = corpus["identity"], np.zeros(1000, dtype=complex)
    tracemalloc.start()
    try:
        est = boundary_distance(ident, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.3 * 2**20
    # the targets are equal, so one row of the full matrix is the reference
    ref = _ring_min(ident, ws[:1], 1e-4, 2 * geometry._RING_N)
    assert est.value.tobytes() == np.repeat(ref, ws.size).tobytes()


def _np_dist(a, b):
    """|a - b| as numpy's complex abs gives it, as the search evaluates it
    (Python's ``abs`` can differ in the last bit)."""
    return np.abs(np.complex128(a) - b)


def test_boundary_distance_skip_test_allows_for_rounding():
    # p lies halfway from w to c, and q as far from w as p.  In floats
    # |w - c| > |p - c| + |w - q| although |w - p| < |w - q|, so a block
    # centred at c that holds p may be skipped only with a guard
    w, p, c, q = (-0.2885287706590929 + 0.9622545779452354j,
                  -0.5225582886942709 + 0.6604301710044524j,
                  -0.7565878067294489 + 0.3586057640636694j,
                  0.005179989972656451 + 0.7181174200501398j)
    assert _np_dist(w, c) > _np_dist(p, c) + _np_dist(w, q) and _np_dist(w, p) < _np_dist(w, q)
    half = np.full(2 * geometry._BLOCK, q)
    half[:geometry._BLOCK] = c
    half[geometry._BLOCK // 2 - 1] = p
    img = np.empty(2 * half.size, dtype=complex)
    img[0::2], img[1::2] = half, q
    est = boundary_distance(_RingImage(img), w, n=img.size)
    assert est.value == _np_dist(w, p) and est.drift == 0.0


def test_diameter_skip_test_allows_for_rounding():
    # p, a, b, q lie on a segment, and c, d end a crossing segment between
    # the two in length.  In floats |a - b| + |p - a| + |q - b| < |c - d| <
    # |p - q|, so the pair of blocks centred at a and b, which holds the
    # farthest pair, may be skipped only with a guard
    a, b = -0.79735347889626 + 0.9298245278458679j, -1.2791573791272375 + 0.05440226596712183j
    p, q = -0.7230686583778297 + 1.0647976685164293j, -1.4013443190589263 - 0.16760749210200585j
    c, d = -0.44600390840916027 + 0.10945725786666344j, -1.6784090690275957 + 0.78773291854776j
    assert _np_dist(a, b) + _np_dist(p, a) + _np_dist(q, b) < _np_dist(c, d) < _np_dist(p, q)
    size = geometry._DIAMETER_BLOCK
    pts = np.repeat(np.array([a, b, c, d]), size)
    pts[size // 2 - 1], pts[size + size // 2 - 1] = p, q  # a and b stay the centres
    assert set_diameter(pts) == np.abs(pts[:, None] - pts[None, :]).max() == _np_dist(p, q)
