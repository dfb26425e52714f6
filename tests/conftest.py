from types import SimpleNamespace

import numpy as np
import pytest

from hqmap import default_corpus
from hqmap.maps import R_CAP, WirtingerPair


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


class NanNormMap:
    """Forwards to a map, but its derivative norm is NaN at the middle point
    of every ``wirtinger`` call."""

    label = "nan-norm"

    def __init__(self, m):
        self.m = m

    def value(self, z):
        return self.m.value(z)

    def wirtinger(self, z):
        dnorm = np.array(self.m.wirtinger(z).dnorm, dtype=float)
        dnorm.flat[dnorm.size // 2] = np.nan
        return SimpleNamespace(dnorm=dnorm)


@pytest.fixture
def nan_norm_map(corpus):
    return NanNormMap(corpus["convex-poly2"])


class TinyNormMap:
    """Forwards to a map, but f_z is 1e-310 and f_zb is 0 at the point
    ``at``, so a weighted-norm ratio with that point below overflows."""

    def __init__(self, m, at):
        self.m = m
        self.label = m.label
        self.at = at

    def value(self, z):
        return self.m.value(z)

    def wirtinger(self, z):
        w = self.m.wirtinger(z)
        hit = np.asarray(z) == self.at
        return WirtingerPair(np.where(hit, 1e-310, w.fz), np.where(hit, 0.0, w.fzb))


@pytest.fixture
def tiny_norm_map(corpus):
    # zeta = 1, r[20] of criterion (ii)'s 48 x 48 ray lattice
    r = 1.0 - np.geomspace(1.0, 1.0 - R_CAP, 48)
    return TinyNormMap(corpus["convex-poly2"], complex(r[20]))
