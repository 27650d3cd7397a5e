"""Property tests of model.propagate, the batched e^{tau (G - R)} V kernel,
and of its step exponential model._expm against independent oracles: scipy's
expm and mpmath at 40 to 60 digits."""
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import ctmc_rates.model as model_module
from ctmc_rates import GeneratorMatrix, ModelValidationError, RateMap
from ctmc_rates.model import _expm, _killed, propagate
from ctmc_rates.pricing import yield_curve

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


@st.composite
def models_with_blocks(draw):
    G, r = draw(models())
    return G, r, draw(blocks(G.n))


def values(scaled, log_scale):
    return scaled * np.exp(log_scale)[:, None, :]


def mpmath_expm(M, dps=60):
    with mpmath.workdps(dps):
        return np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)


def expm_floor(tau, M):
    """Forward error of scaling-and-squaring expm, about eps * ||tau M||_1.

    Stiff chains reach it: the rows of scipy's e^{tau G} sum to 1 +- 3e-11 at
    intensity 1e6 and tau = 3, so no route built on expm can agree with
    another to 1e-12 there. For ||tau M||_1 <= 900 it adds at most 2e-13.
    """
    return np.finfo(float).eps * tau * float(np.abs(M).sum(axis=0).max())


def close(got, want, tau, M):
    """Columnwise |got - want| <= (1e-12 + expm_floor) * max|want column|,
    but never below 4 ulps of that max.

    On a subnormal column the relative bound rounds to 0 and would demand
    equal bits; on a normal one 4 ulps are far below it, so it is unchanged
    there. A column the oracle rounds to 0 from a subnormal one (e^{-0.75}
    5e-324 is nearer 0 than 5e-324) is held to 4 ulps of 0, i.e. 2e-323;
    that a zero column of V stays exactly 0 is checked where V is drawn.
    """
    top = np.abs(want).max(axis=0)
    bound = np.maximum((1e-12 + expm_floor(tau, M)) * top, 4 * np.spacing(top))
    return bool(np.all(np.abs(got - want) <= bound))


def close_to_expm(got, tau, M, V):
    """close to scipy's e^{tau M} V or, where scipy's own error exceeds the
    bound (1.8 times it on a 2-state draw of norm 16), to the 60-digit one."""
    return close(got, scipy_expm(tau * M) @ V, tau, M) or close(got, mpmath_expm(tau * M) @ V, tau, M)


@settings(max_examples=80, deadline=None)
@given(models_with_blocks(), time_grids())
# a subnormal column the oracle rounds to 0: e^{-0.75} 5e-324 -> 0, while two
# steps from 5e-324 each round back up to 5e-324
@example((GeneratorMatrix(np.array([[-0.0]])), RateMap(np.array([0.25])), np.array([[5e-324]])),
         np.array([1.0, 3.0]))
def test_matches_per_tau_matrix_exponential(case, taus):
    G, r, V = case
    out = values(*propagate(G, r, taus, V))
    M = G.entries - r.diagonal
    for k, tau in enumerate(taus):
        assert close_to_expm(out[k], tau, M, V)
    assert not np.any(out[:, :, ~V.any(axis=0)])
    assert np.array_equal(out[taus == 0.0], np.broadcast_to(V, out[taus == 0.0].shape))


@settings(max_examples=80, deadline=None)
@given(models_with_blocks(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
# a subnormal column: the two routes to e^{5M}V differ by one ulp, 5e-324
@example((GeneratorMatrix(np.array([[-1.0, 1.0], [0.5, -0.5]])), RateMap(np.zeros(2)),
          np.array([[0.0], [2.22507386e-313]])), 1.0, 4.0)
def test_semigroup_law(case, s, t):
    G, r, V = case
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


def count_formed(monkeypatch):
    """Record how many matrices each _expm call of propagate forms."""
    formed = []

    def counting(A, taus):
        formed.append(len(taus))
        return _expm(A, taus)

    monkeypatch.setattr(model_module, "_expm", counting)
    return formed


def test_one_matrix_exponential_per_distinct_step(monkeypatch):
    formed = count_formed(monkeypatch)
    G = GeneratorMatrix(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    r = RateMap(np.array([0.0, 0.1]))
    scaled, log_scale = propagate(G, r, [3.0, 1.0, 1.0, 0.0, 2.0], np.eye(2))
    assert sum(formed) == 1  # every gap between sorted taus is 1.0
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
    formed = count_formed(monkeypatch)
    V = np.ones((50, 2))
    V[0, 1] = 5.0
    out = values(*propagate(G, r, taus, V))
    assert sum(formed) == 1
    M = G.entries - r.diagonal
    for k, tau in enumerate(taus):
        assert close_to_expm(out[k], tau, M, V)


def birth_death_5(q=1.0):
    """A 5-state birth-death chain with intensities U(0.5, 1.5) times q."""
    rng = np.random.default_rng(5)
    Q = q * (np.diag(rng.uniform(0.5, 1.5, 4), 1) + np.diag(rng.uniform(0.5, 1.5, 4), -1))
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return GeneratorMatrix(Q), RateMap(np.linspace(0.0, 0.1, 5))


def reversible_propagator(G, r, taus, V, dps=40):
    """e^{tau (G - R)} V at dps digits for a birth-death chain, from the
    eigendecomposition of D (G - R) D^-1, which is symmetric for D the square
    root of the chain's reversible law; shares nothing with the Taylor kernel."""
    with mpmath.workdps(dps):
        Q = [[mpmath.mpf(float(x)) for x in row] for row in G.entries]
        n = len(Q)
        p = [mpmath.mpf(1)]
        for i in range(n - 1):
            p.append(p[-1] * Q[i][i + 1] / Q[i + 1][i])
        d = [mpmath.sqrt(x) for x in p]
        S = mpmath.matrix(n, n)
        for i in range(n):
            S[i, i] = Q[i][i] - mpmath.mpf(float(r.rates[i]))
            if i + 1 < n:
                S[i, i + 1] = S[i + 1, i] = mpmath.sqrt(Q[i][i + 1] * Q[i + 1][i])
        lam, U = mpmath.eigsy(S)
        W = U.T * mpmath.matrix([[d[i] * mpmath.mpf(float(x)) for x in V[i]] for i in range(n)])
        out = np.empty((len(taus), n, V.shape[1]))
        for k, tau in enumerate(taus):
            E = mpmath.diag([mpmath.exp(mpmath.mpf(float(tau)) * x) for x in lam])
            X = U * (E * W)
            out[k] = [[float(X[i, j] / d[i]) for j in range(V.shape[1])] for i in range(n)]
        return out


def mesh_with_jumps(T, dt):
    """replicate's times: tau = T - t over the mesh of step dt and 8 jump times."""
    jumps = np.random.default_rng(9).uniform(0.0, T, 8)
    return T - np.concatenate([np.minimum(np.arange(round(T / dt) + 1) * dt, T), jumps])


@pytest.mark.parametrize("q", [1.0, 1e2, 1e3, 1e6])
def test_mesh_with_off_mesh_times(monkeypatch, q):
    # the mesh is one run and each jump time one fresh step from the mesh
    # point below it. The rounding of T - t puts most mesh points an ulp or
    # so off the run, which the first-order step X + delta M X takes up at
    # any intensity
    G, r = birth_death_5(q)
    taus = mesh_with_jumps(1.0, 1e-3)
    V = np.column_stack([np.ones(5), np.eye(5)[0]])
    formed = count_formed(monkeypatch)
    out = values(*propagate(G, r, taus, V))
    assert sum(formed) <= 1 + 8
    M = G.entries - r.diagonal
    for k, tau in enumerate(taus):
        assert close(out[k], scipy_expm(tau * M) @ V, tau, M)
    if q == 1.0:
        want = reversible_propagator(G, r, taus, V)
        for k, tau in enumerate(taus):
            assert close(out[k], want[k], tau, M)


@pytest.mark.parametrize("T, dt", [(3.7, 1e-3), (2.0, 1e-4)])
@pytest.mark.parametrize("q", [1.0, 1e2, 1e3, 1e6])
def test_stiff_meshes_form_one_exponential_per_jump_time(monkeypatch, T, dt, q):
    # the longer meshes of the same kind. Each doubling's rows are
    # renormalized, so a run of 20,000 steps keeps close's bound: on the
    # (2, 1e-4) mesh at q = 1 the worst point is 7.8e-16 relative from the
    # 40-digit propagator, 0.0008 of the bound (1.7e-12, 1.72 times it, with
    # the unnormalized Pade steps)
    G, r = birth_death_5(q)
    formed = count_formed(monkeypatch)
    taus = mesh_with_jumps(T, dt)
    V = np.ones((5, 1))
    out = values(*propagate(G, r, taus, V))
    assert sum(formed) <= 1 + 8
    if (T, dt, q) == (2.0, 1e-4, 1.0):
        M = G.entries - r.diagonal
        want = reversible_propagator(G, r, taus, V)
        for k, tau in enumerate(taus):
            assert close(out[k], want[k], tau, M)


def test_rejects_bad_input():
    G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    r = RateMap(np.array([0.0, 0.1]))
    for taus in ([-1.0], [np.inf], [np.nan]):
        with pytest.raises(ValueError):
            propagate(G, r, taus, np.ones((2, 1)))
    with pytest.raises(ValueError):
        propagate(G, r, [1.0], np.ones(2))
    with pytest.raises(ValueError):
        propagate(G, r, [1.0], np.ones((4, 1)))  # n + 1 rows is the killed state's value
    with pytest.raises(ModelValidationError):
        propagate(G, RateMap(np.zeros(3)), [1.0], np.ones((2, 1)))


# (intensity scale q, tau) of the stiff two-state chains below
STIFF = [(q, tau) for q in (1e2, 1e4, 1.75e5, 1e6) for tau in (3.0, 12.74)]


def stiff_generator(q, ratio=8.8e4 / 1.75e5):
    """Off-diagonal intensities q and ratio * q (1.75e5 and 8.8e4 at q = 1.75e5)."""
    return np.array([[-q, q], [ratio * q, -ratio * q]])


@settings(max_examples=200, deadline=None)
@given(models(), st.floats(0.0, 20.0))
def test_matrix_exponential_matches_scipy_expm(model, tau):
    G, r = model
    A = _killed(G, r)
    assert close_to_expm(_expm(A, np.array([tau]))[0], tau, A, np.eye(len(A)))


@pytest.mark.parametrize("q, tau", STIFF)
def test_stiff_two_state_matches_mpmath(q, tau):
    # the bound is the one scipy's expm meets on the same input
    G = stiff_generator(q)
    for rates in ((0.5, 0.577), (0.0, 0.0)):
        M = G - np.diag(rates)
        want = mpmath_expm(tau * M)
        assert close(scipy_expm(tau * M), want, tau, M)
        assert close(values(*propagate(GeneratorMatrix(G), RateMap(rates), [tau], np.eye(2)))[0], want, tau, M)


@pytest.mark.parametrize("q, tau", STIFF)
def test_stiff_transition_rows_sum_to_one(q, tau):
    for ratio in (1.0, 8.8e4 / 1.75e5):
        G = GeneratorMatrix(stiff_generator(q, ratio))
        rows = propagate(G, RateMap(np.zeros(2)), [tau], np.eye(2))[0][0].sum(axis=1)
        assert np.all(np.abs(rows - 1.0) <= expm_floor(tau, G.entries))


def test_first_order_steps_on_a_stiff_chain(monkeypatch):
    # ||M||_1 = 2e6 + 0.577: a time within 2^-27 / ||M||_1 ~ 3.7e-15 of a run
    # point is X + delta M X, so one ulp off a mesh point, and 1e-17 off
    # time 0, cost no exponential of their own
    G = GeneratorMatrix(stiff_generator(1e6, 1.0))
    r = RateMap(np.array([0.5, 0.577]))
    M = G.entries - r.diagonal
    V = np.array([[1.0, 0.0], [1.0, 1.0]])
    mesh = 1.0 - np.arange(11) * 0.1
    taus = np.concatenate([
        mesh, [0.0, 1e-17, 1e-17],
        np.nextafter(mesh[1:5], np.inf), np.nextafter(mesh[1:5], -np.inf), mesh[2:4],
    ])
    formed = count_formed(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = values(*propagate(G, r, taus, V))
        # 4e-15 lies just past first order: the next run's step is that tiny
        tiny = np.array([0.0, 4e-15, 1e-3, 0.5, 1.0])
        out_tiny = values(*propagate(G, r, tiny, V))
    assert formed[0] == 1
    for got, tau in [*zip(out, taus), *zip(out_tiny, tiny)]:
        assert close(got, mpmath_expm(tau * M) @ V, tau, M)
    for k, tau in enumerate(taus):
        assert out[k].tobytes() == out[np.flatnonzero(taus == tau)[0]].tobytes()
    assert np.array_equal(out[taus == 0.0], np.broadcast_to(V, (2, 2, 2)))
    assert np.array_equal(out_tiny[0], V)


def test_stack_matches_each_matrix_bit_for_bit(monkeypatch):
    # steps of 1e-4 ... 2e3 take 0 to 13 squarings; blocks of three
    # matrices split the stack, and each matrix comes back as from its own call
    G, r = birth_death_5()
    A = _killed(G, r)
    taus = np.array([1e-4, 0.01, 0.1, 0.4, 1.0, 2.0, 30.0, 2e3, 0.0, 0.5, 5e-324])
    monkeypatch.setattr(model_module, "_EXPM_BLOCK", 3 * A.size)
    got = _expm(A, taus)
    for X, tau in zip(got, taus):
        assert X.tobytes() == _expm(A, np.array([tau]))[0].tobytes()
    assert _expm(A, np.empty(0)).shape == (0, 6, 6)


def test_huge_intensities_price_without_a_warning():
    # the Pade port raised a typed overflow on this finite e^M (||M||_1 =
    # 2e200); the chain mixes at once, so every yield is the mean rate
    G = GeneratorMatrix(np.array([[-1e200, 1e200], [1e200, -1e200]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = yield_curve(G, RateMap(np.array([0.0, 0.5])), 0.0, [1.0, 10.0, 1e4])
    assert np.all(np.abs(y - 0.25) <= 4 * np.spacing(0.25))
