import math

import numpy as np
import pytest

from crplus import LossEngine, Obligor, Portfolio, Sector, SeverityDist, assemble
from crplus import pmf as pm

REFERENCE_LIMIT = 200


def make_reference_portfolio():
    """5 obligors, 2 factor sectors + idiosyncratic, severity support <= 5."""
    return Portfolio(
        (Sector("s1", 1.5), Sector("s2", 0.8)),
        (
            Obligor("A", 0.30, [0.2, 0.8, 0.0], SeverityDist({2: 1.0})),
            Obligor("B", 0.40, [0.1, 0.5, 0.4], SeverityDist({1: 0.5, 3: 0.5})),
            Obligor("C", 0.25, [0.0, 0.0, 1.0], SeverityDist({2: 0.3, 4: 0.7})),
            Obligor("D", 0.20, [1.0, 0.0, 0.0], SeverityDist({5: 1.0})),
            Obligor("E", 0.35, [0.3, 0.2, 0.5], SeverityDist({1: 0.25, 2: 0.5, 5: 0.25})),
        ),
    )


@pytest.fixture(scope="session")
def reference_portfolio():
    return make_reference_portfolio()


@pytest.fixture(scope="session")
def reference_engine(reference_portfolio):
    return LossEngine(assemble(reference_portfolio, REFERENCE_LIMIT))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def panjer_poisson(intensity, severity, limit):
    """Compound Poisson pmf by Panjer's recursion at any L: the tests' reference."""
    q = pm._trimmed(severity.probs)
    return pm._panjer(0.0, intensity, math.exp(intensity * (q[0] - 1.0)), q, limit)


def panjer_negbin(alpha, delta, severity, limit):
    """Compound negative binomial pmf by Panjer's recursion at any L: the tests' reference."""
    q = pm._trimmed(severity.probs)
    g0 = math.exp(alpha * (math.log1p(-delta) - math.log1p(-delta * q[0])))
    return pm._panjer(delta, (alpha - 1.0) * delta, g0, q, limit)
