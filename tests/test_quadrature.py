"""The engine against an independent quadrature over the gamma factors.

``conftest.quadrature_reference`` integrates the conditional compound
Poisson book over generalized Gauss-Laguerre nodes (48 per factor sector),
with none of the engine's closed forms: no negative binomial, kernel,
mixture weight or Fourier grid.  On the reference portfolio the 48-node
references differ from 96-node ones by at most 1.5e-14 relative at L = 200
(26 decades) and 1.5e-15 absolute at L = 600.
"""

import numpy as np
import pytest

from crplus import LossEngine, assemble
from crplus import conditional as cd
from crplus import pmf as pm

from conftest import QUADRATURE_FOURIER_LIMIT, QUADRATURE_SCENARIOS, REFERENCE_LIMIT

# Twice the largest 48- vs 96-node relative difference at L = 200; the
# Panjer path read at most 1.0e-14 against the 48-node reference.
QUADRATURE_RTOL = 3e-14


def _conditional(engine, portfolio, ids):
    if not ids:
        return engine.loss_distribution()
    if len(ids) == 1:
        return cd.loss_given_one_default(engine, portfolio, *ids).conditional_pmf
    return cd.loss_given_two_defaults(engine, portfolio, *ids).conditional_pmf


@pytest.fixture(scope="module")
def fourier_engine(reference_portfolio):
    return LossEngine(assemble(reference_portfolio, QUADRATURE_FOURIER_LIMIT))


@pytest.mark.parametrize("ids", QUADRATURE_SCENARIOS, ids=lambda ids: "".join(ids) or "base")
def test_panjer_path_matches_the_quadrature_relatively(reference_portfolio, reference_engine,
                                                       quadrature_references, ids):
    # Relative at every level, so structural zeros (below the defaulted
    # severities' smallest losses) must be exact zeros on both sides.
    want = quadrature_references[REFERENCE_LIMIT][ids].probs
    got = _conditional(reference_engine, reference_portfolio, ids).probs
    assert np.all(np.abs(got - want) <= QUADRATURE_RTOL * want), \
        np.max(np.abs(got - want) / np.where(want > 0, want, np.inf))


@pytest.mark.parametrize("ids", QUADRATURE_SCENARIOS, ids=lambda ids: "".join(ids) or "base")
def test_fourier_path_matches_the_quadrature_absolutely(reference_portfolio, fourier_engine,
                                                        quadrature_references, ids):
    # The pmf spans 76 decades at L = 600; the Fourier path's bound is absolute.
    want = quadrature_references[QUADRATURE_FOURIER_LIMIT][ids].probs
    got = _conditional(fourier_engine, reference_portfolio, ids).probs
    assert np.max(np.abs(got - want)) <= pm.FFT_ABS_ERROR
