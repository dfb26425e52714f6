"""Batched GK15 quadrature and the batched radial profile, each against a
copy of the one-integral, one-segment code it replaced, bit for bit: the
loop-free GK15 rows against one ``np.dot`` per row, the round-by-round
bisection of a batch against each integral bisected alone, and the profile
against one quadrature per segment."""

import io
import math

import numpy as np
import pytest

from hqmap import default_corpus, quadrature, radial, radial_profile
from hqmap.cli import main
from hqmap.corpus import save_corpus
from hqmap.maps import R_CAP, Config, HarmonicMap, SeriesPart
from hqmap.quadrature import (
    QuadResult,
    adaptive_quads,
    cut_list,
    endpoint_cluster,
    golden_max,
)

from conftest import seeded_harmonic

ZERO = SeriesPart((0j,))
GRID = [0.05, 0.5, 0.93, 0.95, 0.99, 0.999]


# ---------------------------------------------------------------------------
# reference: one GK15 call of f per interval, lists re-summed per bisection,
# a NaN error total ends the integral


def _ref_gk15(f, a, b):
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * quadrature._XK
    vals = np.asarray(f(nodes), dtype=float)
    k = half * float(np.dot(quadrature._WK, vals))
    g = half * float(np.dot(quadrature._WG, vals[1::2]))
    diff = abs(k - g)
    with np.errstate(over="ignore"):
        return k, min(diff, (200.0 * diff) ** 1.5)


def _sum_left(xs):
    # left to right from 0.0 on every Python: from 3.12 on, sum() compensates
    total = 0.0
    for x in xs:
        total += x
    return total


def _ref_quad(f, a, b, abs_tol=1e-12, rel_tol=1e-9, presplit=None):
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return QuadResult(0.0, 0.0, True, 0)
    cuts = [a]
    if presplit is not None:
        cuts.extend(p for p in sorted(presplit) if a < p < b)
    cuts.append(b)
    segs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = _ref_gk15(f, lo, hi)
        segs.append((err, lo, hi, val))
    while True:
        total = _sum_left(s[3] for s in segs)
        err_total = _sum_left(s[0] for s in segs)
        if err_total <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(total, err_total, True, len(segs))
        if len(segs) >= quadrature.MAX_INTERVALS or math.isnan(err_total):
            return QuadResult(total, err_total, False, len(segs))
        worst = max(range(len(segs)), key=lambda i: segs[i][0])
        _, lo, hi, _ = segs.pop(worst)
        mid = 0.5 * (lo + hi)
        v1, e1 = _ref_gk15(f, lo, mid)
        v2, e2 = _ref_gk15(f, mid, hi)
        segs.append((e1, lo, mid, v1))
        segs.append((e2, mid, hi, v2))


def _bits(q):
    return (float(q.value).hex(), float(q.error).hex(), q.converged, q.intervals)


def _jump(x):
    return np.sign(np.sin(1000.0 * x)) + 2.0


# (f, a, b, abs_tol, rel_tol, presplit): presplit, bisecting and empty integrals
CASES = {
    "koebe-presplit": (lambda x: (1 + x) / (1 - x) ** 3, 0.95, 0.999, 0.0, 2.5e-10,
                       endpoint_cluster(0.95, 0.999)),
    "halfplane-presplit": (lambda x: (1 - x) ** -2.0, 0.0, 0.99, 0.0, 1e-12,
                           endpoint_cluster(0.0, 0.99)),
    "sqrt-bisects": (np.sqrt, 0.0, 1.0, 1e-14, 1e-13, None),
    "kink-bisects": (lambda x: np.abs(x - 0.3137), 0.0, 1.0, 0.0, 1e-14, None),
    "oscillating": (lambda x: np.cos(40.0 * x) ** 2, -1.0, 2.0, 1e-12, 1e-9, None),
    "unsorted-presplit": (np.exp, 0.0, 1.0, 1e-12, 1e-9, [0.7, 0.2, 1.5, -0.1, 0.5]),
    "a-equals-b": (np.exp, 0.4, 0.4, 1e-12, 1e-9, [0.4]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_adaptive_quad_matches_reference(case):
    f, a, b, abs_tol, rel_tol, presplit = CASES[case]
    got = adaptive_quads(f, [cut_list(a, b, presplit)], abs_tol, rel_tol)[0]
    assert _bits(got) == _bits(_ref_quad(f, a, b, abs_tol, rel_tol, presplit))


def _piecewise(x):
    # one integrand for integrals that stop for different reasons
    return np.select([x < 2, x < 4, x < 6, x < 8],
                     [np.exp(x), np.abs(x - 2.3137), np.sqrt(np.abs(x - 4.0)), _jump(x)],
                     1e308)


# cut lists of _piecewise and how each stops at rel_tol 1e-12 and a budget of 60
MIXED = [
    (cut_list(0.0, 0.5), "first pass"),
    (cut_list(2.0, 3.0), "bisects"),
    (cut_list(4.0, 5.0, endpoint_cluster(4.0, 5.0)), "bisects"),
    (cut_list(6.0, 7.0), "budget"),
    (cut_list(8.0, 9.0, [8.5]), "nan"),
    ([10.0], "empty"),
]


def test_adaptive_quads_matches_reference_per_integral(monkeypatch):
    # one batch of integrals that stop on their first pass, after many
    # bisections, at the budget, on a NaN error or at once (empty), with the
    # cut lists of every case: each result is its own integral's, bit for
    # bit, and every open integral bisects in the same round, so f is called
    # once for the first pass and once per round
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 60)
    cuts = [c for c, _ in MIXED] + [cut_list(a, b, presplit)
                                    for _, a, b, _, _, presplit in CASES.values()]
    calls = []

    def f(x):
        calls.append(x.size)
        return _piecewise(x)

    with np.errstate(over="ignore", invalid="ignore"):
        got = adaptive_quads(f, cuts, abs_tol=0.0, rel_tol=1e-12)
        want = [_ref_quad(_piecewise, c[0], c[-1], 0.0, 1e-12, c[1:-1]) for c in cuts]
    assert [_bits(q) for q in got] == [_bits(q) for q in want]
    bisections = [q.intervals - (len(c) - 1) for c, q in zip(cuts, got)]
    stops = {
        "first pass": lambda q, b: q.converged and b == 0,
        "bisects": lambda q, b: q.converged and b > 10,
        "budget": lambda q, b: not q.converged and q.intervals == 60 and math.isfinite(q.error),
        "nan": lambda q, b: not q.converged and math.isnan(q.error) and b == 0,
        "empty": lambda q, b: q == QuadResult(0.0, 0.0, True, 0),
    }
    for (c, stop), q, b in zip(MIXED, got, bisections):
        assert stops[stop](q, b), (c, stop, q)
    first = sum(len(c) - 1 for c in cuts)
    rounds = [sum(b > k for b in bisections) for k in range(max(bisections))]
    assert calls == [15 * first] + [30 * n for n in rounds]
    assert len(calls) == 1 + max(bisections)


@pytest.mark.parametrize("budget", [3, 9])
def test_patched_budget_matches_reference(budget, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", budget)
    for f, a, b, abs_tol, rel_tol, presplit in CASES.values():
        got = adaptive_quads(f, [cut_list(a, b, presplit)], abs_tol, rel_tol)[0]
        assert _bits(got) == _bits(_ref_quad(f, a, b, abs_tol, rel_tol, presplit))


def test_jump_integrand_at_the_real_budget_matches_reference():
    got = adaptive_quads(_jump, [cut_list(0.0, 1.0)], abs_tol=0.0, rel_tol=1e-14)[0]
    assert not got.converged and got.intervals == quadrature.MAX_INTERVALS
    assert _bits(got) == _bits(_ref_quad(_jump, 0.0, 1.0, 0.0, 1e-14))


def test_bounds_and_cut_lists_are_checked():
    with pytest.raises(ValueError, match="non-decreasing"):
        adaptive_quads(np.exp, [cut_list(1.0, 0.0)])
    # a NaN cut passed the order check, and returned a NaN, unconverged result
    for cuts in ([], [0.0, 0.5, 0.4], [0.0, math.nan, 1.0], [math.nan], [0.0, math.inf],
                 [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite and non-decreasing"):
            adaptive_quads(np.exp, [[0.0, 1.0], cuts])
    # a NaN or negative tolerance bisected to the budget, 0.27 s an integral
    for tols in ((math.nan, 1e-9), (1e-12, math.nan), (-1e-12, 1e-9), (1e-12, -1e-9)):
        with pytest.raises(ValueError, match="tolerances must be non-negative"):
            adaptive_quads(np.exp, [[0.0, 1.0]], *tols)


def test_gk15_batch_rows_are_the_single_interval_pairs():
    a = np.array([0.0, 0.25, 0.9, 0.999, -1.0])
    b = np.array([0.25, 0.9, 0.999, 0.9999, 3.0])

    def f(x):
        return np.abs(x - 0.31) / (1.0 - 0.5 * x) ** 3

    vals, errs = quadrature._gk15(f, a, b)
    for k in range(a.size):
        val, err = quadrature._gk15(f, [float(a[k])], [float(b[k])])
        assert (vals[k], errs[k]) == (val[0], err[0]) == _ref_gk15(f, a[k], b[k])
    # np.vecdot must give np.dot's bits and np.float_power Python's **
    # bits, row by row, over values from 1e-150 to 1e150; half of the rows
    # are near-constant, so that their error estimate takes the clamp
    rng = np.random.default_rng(28)
    n = 4000
    scale = 10.0 ** rng.uniform(-150.0, 150.0, (n, 1))
    wobble = np.where(np.arange(n)[:, None] % 2, 1e-9, 1.0)
    rows = scale * (1.0 + wobble * rng.standard_normal((n, quadrature._XK.size)))
    a = rng.uniform(-1.0, 1.0, n)
    b = a + 10.0 ** rng.uniform(-12.0, 1.0, n)
    vals, errs = quadrature._gk15(lambda x: rows.ravel(), a, b)
    want = [_ref_gk15(lambda x, row=row: row, lo, hi) for row, lo, hi in zip(rows, a, b)]
    assert vals.tolist() == [k for k, _ in want]
    assert errs.tolist() == [e for _, e in want]
    assert n // 4 < np.count_nonzero(errs < 1e-6) < 3 * n // 4


def test_gk15_error_estimate_cannot_overflow():
    # a jump of 1e250 makes diff ~ 1e249, where (200 diff)^1.5 overflows;
    # the estimate is then diff itself, as min(diff, inf) gave for numpy
    # floats (Python floats raised OverflowError)
    def f(x):
        return np.where(x > 0.3, 1e250, 0.0)

    with np.errstate(all="raise"):
        values, errors = quadrature._gk15(f, [0.0], [1.0])
    value, error = values[0], errors[0]
    assert math.isfinite(error) and error > 1e203
    assert (value, error) == _ref_gk15(f, np.float64(0.0), np.float64(1.0))


def test_a_nan_error_estimate_ends_the_integral_at_once():
    # each GK15 sum of 1e308 overflows, so k = g = inf and the error is
    # inf - inf = NaN; the loop used to bisect to the whole budget of 4,000
    # intervals, about 7 s of a radial-growth check on such a map
    def f(x):
        return np.full_like(x, 1e308)

    with np.errstate(over="ignore", invalid="ignore"):
        got = adaptive_quads(f, [cut_list(0.0, 1.0, [0.5]), cut_list(0.0, 0.5)])
    for q, intervals in zip(got, (2, 1)):
        assert math.isnan(q.error) and not q.converged
        assert q.intervals == intervals


def test_radial_of_a_huge_series_prints_no_warning(tmp_path, capsys):
    # h = z + 1e250 z^2: the speed is about 2e250 rho and the GK15 error
    # estimate about 1e235, past where the power overflowed
    big = HarmonicMap(SeriesPart((0j, 1.0, 1e250)), ZERO, "big")
    path = tmp_path / "corpus.json"
    save_corpus({"big": big}, path)
    code = main(["--corpus", str(path), "radial", "big", "0.37", ",".join(map(str, GRID))])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    want = io.StringIO()
    _ref_profile(big, 0.37, GRID).to_csv(want)
    assert out.out == want.getvalue()


# ---------------------------------------------------------------------------
# radial profile: reference is one quadrature and one value call per segment


def _ref_polished_max(m, e, rho):
    vals = np.abs(m.value(rho * e))
    best = float(vals.max())

    def f(x):
        return float(np.abs(m.value(x * e)))

    interior = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    for i in interior:
        _, v = golden_max(f, rho[i - 1], rho[i + 1])
        best = max(best, v)
    return best


def _ref_profile(m, theta, r_grid, config=None):
    r_grid = np.asarray(r_grid, dtype=float)
    rel_tol = (config or Config()).tol / 4
    speed = radial._ray_speed(m, theta)
    e = np.exp(1j * theta)
    ell, err, m_f = (np.empty_like(r_grid) for _ in range(3))
    total = total_err = 0.0
    running = abs(complex(m.value(0.0 + 0.0j)))
    lo = 0.0
    ok = True
    for k, hi in enumerate(r_grid):
        presplit = endpoint_cluster(lo, hi) if hi > 0.9 else None
        q = _ref_quad(speed, lo, hi, abs_tol=0.0, rel_tol=rel_tol, presplit=presplit)
        ok = ok and q.converged
        total += q.value
        total_err += q.error
        ell[k] = total
        err[k] = total_err
        running = max(running, _ref_polished_max(m, e, np.linspace(lo, hi, 24)))
        m_f[k] = running
        lo = hi
    abs_f = np.abs(m.value(r_grid * e))
    psi = radial.growth_gauge(r_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(psi * m_f > 0, ell / (m_f * psi), np.inf)
    return radial.RadialProfile(theta, r_grid, ell, abs_f, m_f, psi, ratio, err, ok)


FIELDS = ("r", "ell", "abs_f", "m_f", "psi", "ratio", "quad_err")


def _assert_same_profile(got, want):
    assert got.converged == want.converged
    assert got.theta == want.theta
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _series12():
    k = np.arange(2, 13)
    h = [0j, 1 + 0j] + list(0.05 / k * np.exp(1j * k))
    g = [0j, 0j] + list(0.03 / k * np.exp(-2j * k))
    return HarmonicMap(SeriesPart(tuple(h)), SeriesPart(tuple(g)), "series12")


def _profile_maps():
    corpus = default_corpus()
    return [*(corpus[label] for label in sorted(corpus)), _series12(),
            seeded_harmonic(3, 12), seeded_harmonic(11, 12),
            seeded_harmonic(5, 16), seeded_harmonic(23, 16)]


@pytest.mark.parametrize("theta", [0.0, 0.37])
def test_radial_profile_matches_per_segment_reference(theta):
    for m in _profile_maps():
        _assert_same_profile(radial_profile(m, theta, GRID), _ref_profile(m, theta, GRID))


def test_radial_profile_matches_reference_on_the_growth_grid():
    r_grid = 1.0 - np.geomspace(0.49, 1.0 - R_CAP, 40)
    for m in _profile_maps()[:7]:
        _assert_same_profile(radial_profile(m, 2.0, r_grid), _ref_profile(m, 2.0, r_grid))


def test_radial_profile_budget_matches_reference(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 3)
    koebe = default_corpus()["koebe"]
    got = radial_profile(koebe, 0.0, GRID, Config(tol=4e-13))
    assert not got.converged
    _assert_same_profile(got, _ref_profile(koebe, 0.0, GRID, Config(tol=4e-13)))


def _bump():
    # h' = 0 at |z| = 0.807, angle 0.861: a library map for rays that miss
    # that zero, where |f| has an interior maximum along the ray
    h = SeriesPart((0j, 1 + 0j, 0.01 + 0.45j, -0.21 + 0.27j))
    return HarmonicMap(h, ZERO, "bump")


@pytest.mark.parametrize("r_grid", [1.0 - np.geomspace(0.9, 1.0 - R_CAP, 24),
                                    1.0 - np.geomspace(0.49, 1.0 - R_CAP, 40)],
                         ids=["report", "growth"])
def test_radial_profile_matches_reference_where_it_polishes(r_grid, monkeypatch):
    polished = []

    def counting(fun, a, b):
        polished.append((a, b))
        return golden_max(fun, a, b)

    monkeypatch.setattr(radial, "golden_max", counting)
    got = radial_profile(_bump(), math.pi / 4, r_grid)
    assert polished
    _assert_same_profile(got, _ref_profile(_bump(), math.pi / 4, r_grid))


def test_profile_makes_one_speed_call_per_pass(monkeypatch):
    # all first-pass nodes of the 40 segments go through one speed call, and
    # each round of bisections, both halves of every segment still open,
    # through one more; |f| is one value call on the max-scan
    # grids, and every other value call is a scalar one of the polish
    real_speed, real_quads = radial._ray_speed, radial.adaptive_quads
    real_value = HarmonicMap.value
    speed_calls, value_calls, runs, polishing = [], [], [], []

    def counting_speed(m, theta):
        speed = real_speed(m, theta)

        def counted(rho):
            speed_calls.append(np.size(rho))
            return speed(rho)

        return counted

    def spying(f, cuts, **kwargs):
        out = real_quads(f, cuts, **kwargs)
        runs.append((cuts, out))
        return out

    def counting_value(self, z):
        value_calls.append((np.shape(z), bool(polishing)))
        return real_value(self, z)

    def marking(fun, a, b):
        polishing.append(True)
        try:
            return golden_max(fun, a, b)
        finally:
            polishing.pop()

    monkeypatch.setattr(radial, "_ray_speed", counting_speed)
    monkeypatch.setattr(radial, "adaptive_quads", spying)
    monkeypatch.setattr(radial, "golden_max", marking)
    monkeypatch.setattr(HarmonicMap, "value", counting_value)
    r_grid = 1.0 - np.geomspace(0.49, 1.0 - R_CAP, 40)
    # koebe is starlike, so |f| grows along the ray and nothing is polished
    for m, polishes in [(default_corpus()["koebe"], False), (_bump(), True)]:
        del speed_calls[:], value_calls[:], runs[:]
        radial_profile(m, math.pi / 4, r_grid, Config(tol=1e-13))
        (cuts, quads), = runs
        first = sum(len(c) - 1 for c in cuts)
        bisections = [q.intervals - (len(c) - 1) for c, q in zip(cuts, quads)]
        rounds = [sum(b > k for b in bisections) for k in range(max(bisections))]
        assert len(cuts) == 40 and rounds
        assert speed_calls == [15 * first] + [30 * n for n in rounds]
        assert [shape for shape, polish in value_calls if not polish] == [(40, 24)]
        assert all(shape == () for shape, polish in value_calls if polish)
        assert (len(value_calls) > 1) == polishes, m.label
