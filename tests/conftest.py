import numpy as np
import pytest
from hypothesis import strategies as st

from ctmc_rates import GeneratorMatrix, RateMap, TwoStateModel


def random_model(rng, n_max=5, intensity_cap=2.0, rate_cap=0.2):
    """A random admissible model with strictly positive off-diagonals."""
    n = int(rng.integers(2, n_max + 1))
    Q = rng.uniform(0.05, intensity_cap, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rates = rng.uniform(0.01, rate_cap, size=n)
    return GeneratorMatrix(Q), RateMap(rates)


@st.composite
def models(draw, n_max=5, rate_max=1.0):
    """Irreducible models with 1..n_max states and intensities up to 1e6."""
    n = draw(st.integers(1, n_max))
    scale = 10.0 ** draw(st.floats(-2.0, 6.0))
    offs = draw(st.lists(st.floats(0.05, 1.0), min_size=n * (n - 1), max_size=n * (n - 1)))
    Q = np.zeros((n, n))
    Q[~np.eye(n, dtype=bool)] = scale * np.array(offs)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rates = draw(st.lists(st.floats(0.0, rate_max), min_size=n, max_size=n))
    return GeneratorMatrix(Q), RateMap(np.array(rates))


def pi_beyond_double_range():
    """80 states, intensities 1e-3, rates 100 but r_0 = 0: pi falls by ~1e-5
    per state, below the smallest double by state 70, so perron_pair raises."""
    n = 80
    Q = np.diag(np.full(n - 1, 1e-3), 1) + np.diag(np.full(n - 1, 1e-3), -1)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rates = np.full(n, 100.0)
    rates[0] = 0.0
    return GeneratorMatrix(Q), RateMap(rates)


@pytest.fixture
def two_state_example():
    """Two-state model with the worked-example parameters."""
    m = TwoStateModel(lam=0.5, rate=0.1)
    return m, m.generator(), m.rate_map()
