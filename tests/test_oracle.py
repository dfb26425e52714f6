"""High-precision oracle checks: float results against mpmath at 30 digits."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from hqmap import SeriesPart

U = 2.0 ** -53
DEGREE = 16


def _seeded_series(seed):
    """Degree-16 series with random phases and coefficient budget
    sum_k k |a_k| <= 0.95, so that every |derivative| stays bounded on D."""
    rng = np.random.default_rng(seed)
    budget = rng.uniform(0.3, 0.95)
    weights = rng.uniform(0.0, 1.0, DEGREE + 1)
    weights *= budget / weights.sum()
    phases = rng.uniform(0.0, 2.0 * math.pi, DEGREE + 1)
    return tuple(w / max(k, 1) * cmath.exp(1j * t)
                 for k, (w, t) in enumerate(zip(weights, phases)))


def _seeded_points(seed, n=64):
    rng = np.random.default_rng(seed + 100)
    r = 0.9995 * np.sqrt(rng.uniform(0.0, 1.0, n))
    r[:8] = 0.9995
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


def _oracle(coeffs, order, z):
    """Derivative ``order`` of sum a_k z^k and its condition
    sum |k!/(k-order)! a_k| |z|^(k-order), from the binary inputs at 30 digits."""
    zm = mpmath.mpc(z.real, z.imag)
    value = mpmath.mpc(0)
    size = mpmath.mpf(0)
    for k, c in enumerate(coeffs):
        if k >= order:
            term = mpmath.ff(k, order) * mpmath.mpc(c.real, c.imag) * zm ** (k - order)
            value += term
            size += abs(term)
    return value, size


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", [0, 1, 2])
def test_series_matches_mpmath(seed, order):
    # forward error of Horner's rule: within 4 n u sum |c_k| |z|^k for degree n
    part = SeriesPart(_seeded_series(seed))
    method = (part.value, part.d1, part.d2)[order]
    zs = _seeded_points(seed)
    with mpmath.workdps(30):
        for z, from_array in zip(zs, method(zs)):
            exact, size = _oracle(part.coeffs, order, complex(z))
            bound = 4.0 * (DEGREE - order) * U * float(size)
            for got in (from_array, method(complex(z))):
                err = float(abs(mpmath.mpc(got.real, got.imag) - exact))
                assert err <= bound, (z, err, bound)


# ---------------------------------------------------------------------------
# closed-form constants


def _mp_derivative_bound(alpha, qc_k):
    """2 a K sup_{0<t<=1} t (1+t)^(a-1) / ((1+t)^a - (1-t)^a): a grid scan at
    30 digits, polished at a stationary point when the grid peak is interior."""
    a = mpmath.mpf(alpha)

    def phi(t):
        return t * (1 + t) ** (a - 1) / ((1 + t) ** a - (1 - t) ** a)

    ts = [mpmath.mpf(k) / 400 for k in range(1, 401)]
    vals = [phi(t) for t in ts]
    i = max(range(len(ts)), key=vals.__getitem__)
    best = vals[i]
    if i < len(ts) - 1:
        best = max(best, phi(mpmath.findroot(lambda t: mpmath.diff(phi, t), ts[i])))
    return 2 * a * mpmath.mpf(qc_k) * best


@pytest.mark.parametrize("alpha, qc_k", [(2.0, 1.0), (2.0, 3.0), (2.5, 1.5),
                                         (3.0, 2.0), (4.5, 1.25)])
def test_derivative_bound_constant_matches_mpmath(alpha, qc_k):
    from hqmap.bounds import derivative_bound_constant

    with mpmath.workdps(30):
        exact = _mp_derivative_bound(alpha, qc_k)
        got = derivative_bound_constant(alpha, qc_k)
        assert float(abs(got / exact - 1)) <= 1e-12, (got, exact)


@pytest.mark.parametrize("a1, a2, a3, alpha", [(1.0, 2.0, math.pi, 2.0),
                                               (0.5, 1.5, 1.0, 3.0),
                                               (1.0, 1.0, 0.0, 2.0),
                                               (0.25, 3.0, 2.0, 2.5)])
def test_harnack_constant_matches_mpmath(a1, a2, a3, alpha):
    from hqmap.bounds import harnack_constant

    with mpmath.workdps(30):
        b1, b2, b3, al = (mpmath.mpf(x) for x in (a1, a2, a3, alpha))
        exact = 2 * mpmath.exp((1 + al) * (b3 + mpmath.log((2 * b2 - b1) / b1) / 2))
        got = harnack_constant(a1, a2, a3, alpha)
        assert float(abs(got / exact - 1)) <= 1e-12, (got, exact)


# ---------------------------------------------------------------------------
# radial lengths of the real, increasing catalog maps at theta = 0


@pytest.mark.parametrize("label, exact", [
    ("koebe", lambda r: r / (1 - r) ** 2),
    ("halfplane", lambda r: r / (1 - r)),
], ids=["koebe", "halfplane"])
def test_radial_length_matches_closed_form(label, exact):
    # on [0, 1) the map is real and increasing, so the image length of
    # [0, r] is f(r); checked on report's 24-radius grid up to r_cap, both
    # accumulated segment by segment and in one pass from 0 to each radius
    from hqmap import default_corpus, radial_profile
    from hqmap.maps import R_CAP

    m = default_corpus()[label]
    radii = 1.0 - np.geomspace(0.9, 1.0 - R_CAP, 24)
    profile = radial_profile(m, 0.0, radii)
    assert profile.converged
    with mpmath.workdps(30):
        for r, ell in zip(radii, profile.ell):
            want = exact(mpmath.mpf(float(r)))
            one = radial_profile(m, 0.0, [float(r)])
            assert one.converged
            for got in (float(ell), float(one.ell[0])):
                assert float(abs(got / want - 1)) <= 1e-12, (r, got)
