import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ctmc_rates import (
    ChainPath,
    GeneratorMatrix,
    ModelValidationError,
    RateMap,
    simulate_path,
    simulate_terminal,
    validate_model,
)
import ctmc_rates
import ctmc_rates.model as model_module
from ctmc_rates import recovery, replication
from ctmc_rates.cli import main as cli_main

from conftest import random_model
from oracles import closed_form_ad, integrate_rate, stationary_distribution

# e^{tG} rows must sum to 1 within this
STOCHASTIC_TOL = 1e-10
# e^{tG} entries must be >= -ENTRY_FLOOR
ENTRY_FLOOR = 1e-12
# Chapman-Kolmogorov / semigroup composition
SEMIGROUP_TOL = 1e-9


def test_tolerances_keep_their_values():
    assert (model_module.ROW_SUM_TOL, model_module.SUPPORT_EPS) == (1e-12, 1e-14)
    assert recovery.EIGEN_RESIDUAL_TOL == 1e-10
    assert (replication.HEDGE_RESIDUAL_TOL, replication.EXPOSURE_CUTOFF,
            replication.CONDITION_LIMIT) == (1e-10, 1e-13, 1e12)
    assert (STOCHASTIC_TOL, ENTRY_FLOOR, SEMIGROUP_TOL) == (1e-10, 1e-12, 1e-9)


@st.composite
def generators(draw, n_max=6):
    n = draw(st.integers(2, n_max))
    offs = draw(
        st.lists(
            st.floats(0.05, 2.0, allow_nan=False),
            min_size=n * (n - 1),
            max_size=n * (n - 1),
        )
    )
    Q = np.zeros((n, n))
    it = iter(offs)
    for i in range(n):
        for j in range(n):
            if i != j:
                Q[i, j] = next(it)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return GeneratorMatrix(Q)


class TestValidation:
    def test_two_state_example_is_valid(self, two_state_example):
        _, G, r = two_state_example
        assert validate_model(G, r) == ()

    def test_zero_generator_not_irreducible(self):
        bad = validate_model(GeneratorMatrix(np.zeros((2, 2))), RateMap(np.zeros(2)))
        assert bad
        assert any("irreducible" in v for v, _ in bad)

    def test_row_sum_violation_reported(self):
        G = GeneratorMatrix(np.array([[-1.0, 0.5], [1.0, -1.0]]))
        bad = validate_model(G, RateMap(np.zeros(2)))
        assert any("sums to" in v for v, _ in bad)

    def test_negative_rate_and_sign_pattern(self):
        G = GeneratorMatrix(np.array([[1.0, -1.0], [1.0, -1.0]]))
        bad = validate_model(G, RateMap(np.array([-0.1, 0.0])))
        msgs = " ".join(v for v, _ in bad)
        assert "negative off-diagonal" in msgs
        assert "positive" in msgs
        assert "rate for state 0" in msgs

    def test_dimension_mismatch_is_hard_error(self, two_state_example):
        _, G, _ = two_state_example
        with pytest.raises(ModelValidationError):
            validate_model(G, RateMap(np.zeros(3)))

    def test_n1_zero_generator_is_valid(self):
        assert validate_model(GeneratorMatrix(np.zeros((1, 1))), RateMap(np.array([0.05]))) == ()

    def test_generator_checks_run_once_per_instance(self, monkeypatch, two_state_example):
        calls = []
        real = model_module.is_irreducible
        monkeypatch.setattr(
            model_module, "is_irreducible", lambda G: calls.append(G) or real(G)
        )
        _, G, r = two_state_example
        assert validate_model(G, r) == ()
        assert validate_model(G, r) == ()
        # the rate check still runs on every call
        assert validate_model(G, RateMap(np.array([0.0, -0.1]))) == (
            ("rate for state 1 is negative: -1.000e-01", "rates"),
        )
        assert len(calls) == 1
        # an equal generator in a new instance is checked again
        assert validate_model(GeneratorMatrix(G.entries), r) == ()
        assert len(calls) == 2

    def test_invalid_generator_is_reported_on_every_call(self):
        G = GeneratorMatrix(np.array([[-1.0, 0.5], [1.0, -1.0]]))
        r = RateMap(np.zeros(2))
        first = validate_model(G, r)
        assert first
        assert validate_model(G, r) == first
        with pytest.raises(ModelValidationError, match="sums to"):
            simulate_terminal(G, r, 0, 1.0, 10, 0)

    def test_simulate_path_validates_with_or_without_rates(self):
        # simulate_path takes no rates; it validates G with zero rates
        G = GeneratorMatrix(np.array([[-1.0, 0.5], [0.5, -0.5]]))
        with pytest.raises(ModelValidationError) as exc:
            simulate_path(G, 0, 10.0, 1)
        assert str(exc.value) == "generator row 0 sums to -5.000e-01, not 0"

    def test_recover_and_simulate_check_four_generators(self, monkeypatch, tmp_path, capsys):
        # recover: the loaded model and the recovered generator; simulate
        # under P: the same two again; every later use skips the checks
        calls = []
        real = model_module.is_irreducible
        monkeypatch.setattr(
            model_module, "is_irreducible", lambda G: calls.append(G) or real(G)
        )
        path = tmp_path / "m.txt"
        path.write_text("states: 2\ngenerator:\n-0.5 0.5\n0.5 -0.5\nrates: 0.0 0.1\n")
        assert cli_main(["recover", str(path)]) == 0
        assert cli_main(["simulate", str(path), "--measure", "p", "--N", "100",
                         "--horizon", "1", "--seed", "1"]) == 0
        capsys.readouterr()
        assert len(calls) == 4


@st.composite
def support_patterns(draw, n_max=8):
    """Generators on 1..n_max states whose off-diagonal entries are edges
    (> SUPPORT_EPS), zeros or nonzero entries at or below SUPPORT_EPS."""
    n = draw(st.integers(1, n_max))
    eps = model_module.SUPPORT_EPS
    kinds = st.sampled_from([0.0, eps, 0.5 * eps, 2 * eps, 1.0, 1e6])
    Q = np.zeros((n, n))
    Q[~np.eye(n, dtype=bool)] = draw(st.lists(kinds, min_size=n * (n - 1), max_size=n * (n - 1)))
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


class TestIrreducibility:
    @settings(max_examples=500, deadline=None)
    @given(support_patterns())
    def test_matches_strong_components(self, Q):
        edges = Q > model_module.SUPPORT_EPS
        np.fill_diagonal(edges, False)
        n_comp, _ = connected_components(csr_matrix(edges), directed=True, connection="strong")
        assert model_module.is_irreducible(GeneratorMatrix(Q)) == (n_comp == 1)

    @pytest.mark.parametrize("kind", ["chain", "ring", "dense", "sparse"])
    def test_large_patterns_match_strong_components(self, kind):
        # up to 200 states, relabelled at random: long one-state frontiers
        # (chains, one-way rings) and wide ones (dense and sparse patterns)
        rng = np.random.default_rng(["chain", "ring", "dense", "sparse"].index(kind))
        answers = set()
        for _ in range(30):
            n = int(rng.integers(2, 201))
            if kind == "chain":
                edges = np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
                edges &= rng.random((n, n)) > 1.0 / n
            elif kind == "ring":
                edges = np.roll(np.eye(n, dtype=bool), 1, axis=1)
                edges[rng.integers(n), :] &= rng.random() < 0.5
            elif kind == "dense":
                edges = rng.random((n, n)) < 0.5
                edges[:, rng.integers(n)] &= rng.random() < 0.5
            else:
                edges = rng.random((n, n)) < rng.uniform(0.5, 3.0) * np.log(n) / n
            np.fill_diagonal(edges, False)
            perm = rng.permutation(n)
            edges = edges[np.ix_(perm, perm)]
            Q = edges.astype(float)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            n_comp, _ = connected_components(csr_matrix(edges), directed=True, connection="strong")
            answer = model_module.is_irreducible(GeneratorMatrix(Q))
            assert answer == (n_comp == 1), (kind, n)
            answers.add(answer)
        assert answers == {True, False}

    def test_cli_import_leaves_scipy_sparse_out(self):
        src = str(Path(ctmc_rates.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, ctmc_rates.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"


def transition_matrix(G: GeneratorMatrix, t: float) -> np.ndarray:
    """P(t) = e^{tG}, from propagate with zero rates."""
    scaled, _ = model_module.propagate(G, RateMap(np.zeros(G.n)), [t], np.eye(G.n))
    return scaled[0]


class TestMatrixExponential:
    """model._expm, e^{tau A} for the killed chain A of model._killed."""

    def test_zero_matrix(self):
        X = model_module._expm(np.zeros((3, 3)), np.array([0.0, 1.0, 1e300]))
        assert np.array_equal(X, np.broadcast_to(np.eye(3), (3, 3, 3)))

    def test_diagonal_case(self):
        # no jumps: each state survives to tau with probability e^{-tau r_i}
        # and the rest of its mass is killed
        A = model_module._killed(GeneratorMatrix(np.zeros((2, 2))), RateMap([0.3, 1.2]))
        X = model_module._expm(A, np.array([1.0]))[0]
        assert np.allclose(X[:2, :2], np.diag(np.exp([-0.3, -1.2])), rtol=1e-14, atol=0.0)
        assert np.allclose(X[:2, 2], -np.expm1([-0.3, -1.2]), rtol=1e-14, atol=0.0)
        assert np.array_equal(X[2], [0.0, 0.0, 1.0])

    def test_matches_two_state_closed_form(self, two_state_example):
        m, G, r = two_state_example
        X = model_module._expm(model_module._killed(G, r), np.array([1.0]))[0]
        assert np.allclose(X[:2, :2], closed_form_ad(m, 0.0, 1.0), rtol=1e-12)

    def test_rejects_non_finite(self):
        # the kernel's inputs are finite by construction: models and times
        # with a nan or inf are refused before it runs
        with pytest.raises(ModelValidationError):
            GeneratorMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ModelValidationError):
            RateMap(np.array([np.inf, 0.0]))
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(ValueError):
            model_module.propagate(G, RateMap(np.zeros(2)), [np.nan], np.eye(2))


class TestTransitionMatrix:
    """P(t) = e^{tG}, stochastic for any admissible generator."""

    def test_identity_at_zero(self, two_state_example):
        _, G, _ = two_state_example
        assert np.array_equal(transition_matrix(G, 0.0), np.eye(2))

    def test_symmetric_two_state_value(self, two_state_example):
        # off-diagonal of e^{tG} for symmetric intensity lam: (1 - e^{-2 lam t})/2
        _, G, _ = two_state_example
        P = transition_matrix(G, 1.0)
        expected = (1.0 - np.exp(-1.0)) / 2.0
        assert P[0, 1] == pytest.approx(expected, abs=1e-12)
        assert P[1, 0] == pytest.approx(expected, abs=1e-12)

    def test_large_time_reaches_stationary(self):
        rng = np.random.default_rng(3)
        G, _ = random_model(rng)
        pi = stationary_distribution(G)
        P = transition_matrix(G, 400.0)
        assert np.allclose(P, np.tile(pi, (G.n, 1)), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(G=generators(), t=st.floats(0.0, 5.0))
    def test_stochastic_within_policy(self, G, t):
        P = transition_matrix(G, t)
        assert np.all(P >= -ENTRY_FLOOR)
        assert np.allclose(P.sum(axis=1), 1.0, atol=STOCHASTIC_TOL)

    @settings(max_examples=25, deadline=None)
    @given(G=generators(), s=st.floats(0.0, 5.0), t=st.floats(0.0, 5.0))
    def test_semigroup(self, G, s, t):
        lhs = transition_matrix(G, s + t)
        rhs = transition_matrix(G, s) @ transition_matrix(G, t)
        assert np.allclose(lhs, rhs, atol=SEMIGROUP_TOL)


class TestSimulation:
    def test_deterministic_given_seed(self, two_state_example):
        _, G, _ = two_state_example
        p1 = simulate_path(G, 0, 20.0, 7)
        p2 = simulate_path(G, 0, 20.0, 7)
        assert p1 == p2

    def test_mean_holding_time_matches_exponential(self, two_state_example):
        # lam = 1/2 in both states, so sojourns are Exponential(1/2) with mean 2
        _, G, _ = two_state_example
        sojourns = []
        rng = np.random.default_rng(11)
        while len(sojourns) < 100_000:
            path = simulate_path(G, 0, 5000.0, rng)
            times = np.array((0.0,) + path.jump_times)
            sojourns.extend(np.diff(times))
        sojourns = np.asarray(sojourns[:100_000])
        se = sojourns.std(ddof=1) / np.sqrt(sojourns.size)
        assert abs(sojourns.mean() - 2.0) <= 3.0 * se

    def test_occupancy_at_t50_is_uniform(self, two_state_example):
        _, G, r = two_state_example
        n_paths = 40_000
        states, _ = simulate_terminal(G, r, 0, 50.0, n_paths, seed=5)
        freq = np.mean(states == 0)
        se = 0.5 / np.sqrt(n_paths)
        assert abs(freq - 0.5) <= 3.5 * se

    def test_terminal_frequencies_chi_square(self):
        rng = np.random.default_rng(17)
        G, r = random_model(rng, n_max=4)
        n_paths = 100_000
        states, _ = simulate_terminal(G, r, 1, 0.7, n_paths, seed=23)
        observed = np.bincount(states, minlength=G.n)
        expected = transition_matrix(G, 0.7)[1] * n_paths
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 1e-4

    def test_vectorized_matches_pathwise_distribution(self, two_state_example):
        # cross-check the two simulators against each other at modest N
        _, G, r = two_state_example
        states_v, integ_v = simulate_terminal(G, r, 0, 2.0, 20_000, seed=9)
        rng = np.random.default_rng(10)
        integ_p = []
        for _ in range(4000):
            path = simulate_path(G, 0, 2.0, rng)
            integ_p.append(integrate_rate(path, r))
        integ_p = np.array(integ_p)
        se = np.hypot(
            integ_v.std(ddof=1) / np.sqrt(integ_v.size),
            integ_p.std(ddof=1) / np.sqrt(integ_p.size),
        )
        assert abs(integ_v.mean() - integ_p.mean()) <= 4.0 * se


    def test_one_path_of_both_samplers_agrees(self):
        # simulate_path is the one-path case of the simulate_terminal loop
        rng = np.random.default_rng(17)
        for G, r in ((GeneratorMatrix([[-0.5, 0.5], [0.5, -0.5]]), RateMap([0.0, 0.1])),
                     random_model(rng, n_max=4), random_model(rng, n_max=5)):
            for seed in range(20):
                initial, horizon = seed % G.n, 0.5 + seed
                path = simulate_path(G, initial, horizon, seed)
                states, integ = simulate_terminal(G, r, initial, horizon, 1, seed)
                assert states[0] == path.state_at(horizon)
                assert integ[0] == integrate_rate(path, r)

    def test_seed_stream_is_stable(self):
        # one exponential and one uniform per jump, in the order of a
        # Gillespie loop; the values were drawn by that loop
        G, _ = random_model(np.random.default_rng(17), n_max=4)
        path = simulate_path(G, 2, 6.0, 2024)
        assert path.post_jump_states == (
            1, 3, 0, 1, 3, 0, 1, 3, 1, 0, 1, 0, 3, 0, 1, 3, 1, 2, 3, 0, 3
        )
        assert path.jump_times[0] == pytest.approx(1.0175281838388521, rel=1e-14)
        assert path.jump_times[-1] == pytest.approx(5.946699887875314, rel=1e-14)

    def test_grouped_draw_matches_broadcast_draw(self):
        # reference: the event loop with the paths x n broadcast inverse-CDF
        # draw that simulate_terminal used before grouping paths by state
        def broadcast_terminal(Q, rates, initial, horizon, n_paths, seed):
            rng = np.random.default_rng(seed)
            states = np.full(n_paths, initial, dtype=np.int64)
            integ = np.zeros(n_paths)
            exit_rate = -np.diag(Q)
            probs = np.clip(Q, 0.0, None)
            np.fill_diagonal(probs, 0.0)
            cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
            cum[:, -1] = 1.0
            clock = np.zeros(n_paths)
            alive = np.arange(n_paths)
            while alive.size:
                s = states[alive]
                t_new = clock[alive] + rng.exponential(1.0, alive.size) / exit_rate[s]
                integ[alive] += rates[s] * (np.minimum(t_new, horizon) - clock[alive])
                clock[alive] = t_new
                jump_idx = alive[t_new < horizon]
                if jump_idx.size:
                    u = rng.random(jump_idx.size)
                    states[jump_idx] = (u[:, None] >= cum[states[jump_idx]]).sum(axis=1)
                alive = jump_idx
            return states, integ

        rng = np.random.default_rng(606)
        n = 60
        Q = rng.uniform(0.0, 1.0, (n, n)) / n
        # a row whose cumsum rounds above 1.0 before its last entry, which
        # is too small to bring it back
        for _ in range(1000):
            Q[0, 1:-1] = rng.uniform(0.5, 1.5, n - 2) / n
            Q[0, -1] = 1e-300
            row = np.cumsum(Q[0, 1:] / Q[0, 1:].sum())
            if row[-2] > 1.0:
                break
        assert row[-2] > 1.0
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        rates = rng.uniform(0.0, 0.1, n)
        states, integ = simulate_terminal(GeneratorMatrix(Q), RateMap(rates), 0, 5.0, 20_000, seed=31)
        ref_states, ref_integ = broadcast_terminal(Q, rates, 0, 5.0, 20_000, 31)
        assert np.bincount(states, minlength=n).min() > 0
        assert np.array_equal(states, ref_states)
        assert np.array_equal(integ, ref_integ)
        # a birth-death chain of 37 states: rows of equal cumulative entries,
        # and a width that is no power of two
        n = 37
        Q = np.diag(rng.uniform(0.5, 2.0, n - 1), 1) + np.diag(rng.uniform(0.5, 2.0, n - 1), -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        rates = rng.uniform(0.0, 0.1, n)
        states, integ = simulate_terminal(GeneratorMatrix(Q), RateMap(rates), n // 2, 20.0, 20_000, seed=37)
        ref_states, ref_integ = broadcast_terminal(Q, rates, n // 2, 20.0, 20_000, 37)
        assert np.unique(states).size > n // 2
        assert np.array_equal(states, ref_states)
        assert np.array_equal(integ, ref_integ)

    def test_dense_chain_draw_is_pinned(self):
        # most of the 60 states hold jumping paths in each round; the bytes
        # were drawn by a loop that indexed each state's paths on their own
        rng = np.random.default_rng(60)
        n = 60
        Q = rng.uniform(0.1, 1.0, (n, n))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        rates = rng.uniform(0.0, 0.1, n)
        states, integ = simulate_terminal(GeneratorMatrix(Q), RateMap(rates), 0, 3.0, 5_000, seed=2024)
        assert np.bincount(states, minlength=n).min() > 0
        assert hashlib.sha256(states.astype("<i8").tobytes()).hexdigest() == (
            "33f48c83183621ed798095f9162f2a32bc3d8b7965cc4c4d221168fe7c503ff1")
        assert hashlib.sha256(integ.astype("<f8").tobytes()).hexdigest() == (
            "eec1e668c230cb5bf3d7cd06ad9ec4ab05fbf28eff81315af73106de4d49c99f")

    def test_initial_state_outside_space_rejected(self, two_state_example):
        _, G, r = two_state_example
        for initial in (-1, 2):
            with pytest.raises(ValueError, match="initial state"):
                simulate_terminal(G, r, initial, 1.0, 10, seed=0)
            with pytest.raises(ValueError, match="initial state"):
                simulate_path(G, initial, 1.0, 0)


class TestIntegrateRate:
    def _jump_path(self, tau=0.4, horizon=1.0):
        return ChainPath(0, (tau,), (1,), horizon, 2)

    def test_zero_rate_state(self, two_state_example):
        _, _, r = two_state_example
        path = ChainPath(0, (), (), 1.0, 2)
        assert integrate_rate(path, r) == 0.0

    def test_constant_state(self, two_state_example):
        _, _, r = two_state_example
        path = ChainPath(1, (), (), 2.5, 2)
        assert integrate_rate(path, r) == pytest.approx(0.1 * 2.5, rel=1e-15)

    def test_single_jump(self, two_state_example):
        _, _, r = two_state_example
        path = self._jump_path(tau=0.4, horizon=1.0)
        assert integrate_rate(path, r) == pytest.approx(0.1 * 0.6, rel=1e-12)

    def test_interval_outside_horizon_rejected(self, two_state_example):
        _, _, r = two_state_example
        with pytest.raises(ValueError):
            integrate_rate(self._jump_path(), r, 0.0, 2.0)

    @settings(max_examples=50, deadline=None)
    @given(split=st.floats(0.0, 1.0))
    def test_additive_over_adjacent_intervals(self, split):
        r = RateMap(np.array([0.0, 0.1]))
        path = ChainPath(0, (0.3, 0.7), (1, 0), 1.0, 2)
        whole = integrate_rate(path, r, 0.0, 1.0)
        left = integrate_rate(path, r, 0.0, split)
        right = integrate_rate(path, r, split, 1.0)
        assert left + right == pytest.approx(whole, abs=1e-15)


class TestChainPath:
    def test_invalid_jump_order_rejected(self):
        with pytest.raises(ValueError):
            ChainPath(0, (0.5, 0.4), (1, 0), 1.0, 2)

    def test_non_changing_jump_rejected(self):
        with pytest.raises(ValueError):
            ChainPath(0, (0.5,), (0,), 1.0, 2)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, two_state_example, horizon):
        _, G, r = two_state_example
        with pytest.raises(ValueError, match="horizon must be finite"):
            ChainPath(0, (), (), horizon, 2)
        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_terminal(G, r, 0, horizon, 3, seed=1)
        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_path(G, 0, horizon, seed=1)

    def test_state_at_is_cadlag(self):
        path = ChainPath(0, (0.5,), (1,), 1.0, 2)
        assert path.state_at(0.5) == 1
        assert path.state_at(0.49) == 0
