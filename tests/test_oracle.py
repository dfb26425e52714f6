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
