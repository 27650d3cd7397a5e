"""Property tests of model.propagate, the batched e^{tau (G - R)} V kernel,
and of its matrix_exponential against independent oracles."""
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import ctmc_rates.model as model_module
from ctmc_rates import (
    GeneratorMatrix,
    ModelValidationError,
    RateMap,
    matrix_exponential,
    transition_matrix,
)
from ctmc_rates.model import propagate

from conftest import models


@st.composite
def time_grids(draw, tau_max=20.0):
    """Unsorted, irregular grids that may hold tau = 0 and repeated taus."""
    taus = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, tau_max)), min_size=1, max_size=8))
    if draw(st.booleans()):
        taus.append(taus[0])
    return np.array(taus)


@st.composite
def blocks(draw, n):
    """Nonnegative n x m payoff blocks, sometimes with a zero column."""
    m = draw(st.integers(1, 3))
    V = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m))).reshape(n, m)
    if draw(st.booleans()):
        V[:, draw(st.integers(0, m - 1))] = 0.0
    return V


def values(scaled, log_scale):
    return scaled * np.exp(log_scale)[:, None, :]


def expm_floor(tau, M):
    """Forward error of scaling-and-squaring expm, about eps * ||tau M||_1.

    Stiff chains reach it: the rows of scipy's e^{tau G} sum to 1 +- 3e-11 at
    intensity 1e6 and tau = 3, so no route built on expm can agree with
    another to 1e-12 there. For ||tau M||_1 <= 900 it adds at most 2e-13.
    """
    return np.finfo(float).eps * tau * float(np.abs(M).sum(axis=0).max())


def close(got, want, tau, M):
    """Columnwise |got - want| <= (1e-12 + expm_floor) * max|want column|.

    A zero column must match exactly.
    """
    rel = 1e-12 + expm_floor(tau, M)
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want).max(axis=0)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matches_per_tau_matrix_exponential(data):
    G, r = data.draw(models())
    taus = data.draw(time_grids())
    V = data.draw(blocks(G.n))
    out = values(*propagate(G, r, taus, V))
    M = G.entries - r.diagonal
    for k, tau in enumerate(taus):
        assert close(out[k], matrix_exponential(tau * M) @ V, tau, M)
    assert np.array_equal(out[taus == 0.0], np.broadcast_to(V, out[taus == 0.0].shape))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_semigroup_law(data, s, t):
    G, r = data.draw(models())
    V = data.draw(blocks(G.n))
    M = G.entries - r.diagonal
    both = values(*propagate(G, r, [s, s + t], V))
    stepped = values(*propagate(G, r, [t], both[0]))[0]
    assert close(stepped, both[1], s + t, M)
    assert close(values(*propagate(G, r, [s + t], V))[0], both[1], s + t, M)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_log_bonds_stay_finite_at_long_maturities(data):
    # e^{-tau max r} underflows from tau max r ~ 745; maturities up to 1e4
    # with some rate of at least 0.5 take every model past that
    G, r = data.draw(models(rate_max=1.0))
    assume(r.rates.max() >= 0.5)
    taus = np.sort(data.draw(time_grids(tau_max=1e4)))
    ones = np.ones((G.n, 1))
    scaled, log_scale = propagate(G, r, taus, ones)
    log_B = np.log(scaled[:, :, 0]) + log_scale
    assert np.all(np.isfinite(log_B))
    assert np.all(log_B <= 1e-12)
    assert np.all(np.diff(log_B, axis=0) <= 1e-12 * (1.0 + np.abs(log_B[1:])))
    # semigroup law in log form: tau_max reached in one call or via tau_max / 2
    half, half_log = propagate(G, r, [taus[-1] / 2], ones)
    again, again_log = propagate(G, r, [taus[-1] / 2], half[0])
    composed = np.log(again[0, :, 0]) + again_log[0, 0] + half_log[0, 0]
    floor = expm_floor(taus[-1], G.entries - r.diagonal)
    assert np.all(np.abs(composed - log_B[-1]) <= 1e-12 * (1.0 + np.abs(log_B[-1])) + floor)


def test_one_matrix_exponential_per_distinct_step(monkeypatch):
    calls = []
    monkeypatch.setattr(
        model_module, "matrix_exponential", lambda M: calls.append(M) or matrix_exponential(M)
    )
    G = GeneratorMatrix(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    r = RateMap(np.array([0.0, 0.1]))
    scaled, log_scale = propagate(G, r, [3.0, 1.0, 1.0, 0.0, 2.0], np.eye(2))
    assert len(calls) == 1  # every gap between sorted taus is 1.0
    assert np.array_equal(scaled[3], np.eye(2))
    assert np.array_equal(scaled[1], scaled[2])
    assert not np.any(log_scale)


def test_steps_equal_up_to_rounding_share_one_exponential(monkeypatch):
    # a 50-state birth-death chain on the 100-point maturity grid np.arange
    # makes: its gaps are 0.1 only up to a few ulps of tau
    rng = np.random.default_rng(11)
    up, down = rng.uniform(0.5, 2.0, 49), rng.uniform(0.5, 2.0, 49)
    entries = np.diag(up, 1) + np.diag(down, -1)
    G = GeneratorMatrix(entries - np.diag(entries.sum(axis=1)))
    r = RateMap(np.linspace(0.0, 0.2, 50))
    taus = np.arange(0.1, 10.05, 0.1)
    assert taus.size == 100 and len(set(np.diff(taus).tolist())) > 3
    calls = []
    monkeypatch.setattr(
        model_module, "matrix_exponential", lambda M: calls.append(M) or matrix_exponential(M)
    )
    V = np.ones((50, 2))
    V[0, 1] = 5.0
    out = values(*propagate(G, r, taus, V))
    assert len(calls) <= 3
    M = G.entries - r.diagonal
    for k, tau in enumerate(taus):
        assert close(out[k], matrix_exponential(tau * M) @ V, tau, M)


def test_rejects_bad_input():
    G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    r = RateMap(np.array([0.0, 0.1]))
    for taus in ([-1.0], [np.inf], [np.nan]):
        with pytest.raises(ValueError):
            propagate(G, r, taus, np.ones((2, 1)))
    with pytest.raises(ValueError):
        propagate(G, r, [1.0], np.ones(2))
    with pytest.raises(ValueError):
        propagate(G, r, [1.0], np.ones((3, 1)))
    with pytest.raises(ModelValidationError):
        propagate(G, RateMap(np.zeros(3)), [1.0], np.ones((2, 1)))


# (intensity scale q, tau) of the stiff two-state chains below
STIFF = [(q, tau) for q in (1e2, 1e4, 1.75e5, 1e6) for tau in (3.0, 12.74)]


def stiff_generator(q, ratio=8.8e4 / 1.75e5):
    """Off-diagonal intensities q and ratio * q (1.75e5 and 8.8e4 at q = 1.75e5)."""
    return np.array([[-q, q], [ratio * q, -ratio * q]])


def mpmath_expm(M, dps=60):
    with mpmath.workdps(dps):
        return np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)


@settings(max_examples=200, deadline=None)
@given(models(), st.floats(0.0, 20.0))
def test_matrix_exponential_matches_scipy_expm(model, tau):
    G, r = model
    M = G.entries - r.diagonal
    got = matrix_exponential(tau * M)
    if not close(got, scipy_expm(tau * M), tau, M):
        # scipy's own error can exceed the bound (1.8 times it on a 2-state
        # draw of norm 16, where this kernel's error was under 1% of it):
        # then the 60-digit value decides
        assert close(got, mpmath_expm(tau * M), tau, M)


@pytest.mark.parametrize("q, tau", STIFF)
def test_stiff_two_state_matches_mpmath(q, tau):
    # the bound is the one scipy's expm meets on the same input
    G = stiff_generator(q)
    for rates in ((0.5, 0.577), (0.0, 0.0)):
        M = G - np.diag(rates)
        want = mpmath_expm(tau * M)
        assert close(scipy_expm(tau * M), want, tau, M)
        assert close(matrix_exponential(tau * M), want, tau, M)


@pytest.mark.parametrize("q, tau", STIFF)
def test_stiff_transition_rows_sum_to_one(q, tau):
    for ratio in (1.0, 8.8e4 / 1.75e5):
        G = GeneratorMatrix(stiff_generator(q, ratio))
        rows = transition_matrix(G, tau).sum(axis=1)
        assert np.all(np.abs(rows - 1.0) <= expm_floor(tau, G.entries))


def test_diagonal_inputs_are_exact():
    for d in ([0.7], [-745.5], [0.3, -1.2, 0.0], [0.0, 0.0, 0.0]):
        assert np.array_equal(matrix_exponential(np.diag(d)), np.diag(np.exp(d)))
    assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))


def test_overflow_is_a_typed_error_not_a_warning():
    # e^M overflows in the last two; in the first it is finite, but A^2 of
    # the Pade step is not (||M||_1 = 2e200)
    huge = (
        np.array([[-1e200, 1e200], [1e200, -1e200]]),
        np.array([[800.0, 1.0], [1.0, 800.0]]),
        np.array([[800.0]]),
    )
    for M in huge:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValidationError, match="e\\^M"):
                matrix_exponential(M)
