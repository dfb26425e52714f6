from types import SimpleNamespace

import numpy as np
import pytest

from hqmap import default_corpus


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
