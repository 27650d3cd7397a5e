import json
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings

from ctmc_rates import (
    ChainPath,
    ClaimPayoff,
    DEFAULT_POLICY,
    GeneratorMatrix,
    ModelValidationError,
    PerronPair,
    RateMap,
    RecoveryHypothesisError,
    bond_price,
    perron_pair,
    price_claim,
    radon_nikodym_along_path,
    recover_generator,
    simulate_path,
    tipk_price,
    validate_model,
)
from ctmc_rates.cli import main as cli_main
from ctmc_rates.model import integrate_rate, simulate_terminal
from ctmc_rates.recovery import dominant_eigenpair
from ctmc_rates.two_state import TwoStateModel, closed_form_recovered_generator, eigen_pairs
from scipy.linalg import eig

from conftest import models, random_model


def entrywise_residual_ok(G, r, rho, pi, tol=DEFAULT_POLICY.eigen_residual_tol):
    M = G.entries - r.diagonal
    return bool(np.all(np.abs(M @ pi - rho * pi) <= tol * (np.abs(M) @ pi)))


def birth_death_reference(G: np.ndarray, rates: np.ndarray, digits: int = 64):
    """Perron pair of a birth-death G - R in `digits`-digit arithmetic.

    rho by bisection on the Sturm count of the symmetrised tridiagonal
    matrix, pi by the backward recurrence for q_i = pi_i / pi_{i-1}, which
    follows the decaying solution stably. Returns doubles.
    """
    with mpmath.workdps(digits):
        n = len(rates)
        up = [mpmath.mpf(float(x)) for x in np.diag(G, 1)]
        down = [mpmath.mpf(float(x)) for x in np.diag(G, -1)]
        diag = [mpmath.mpf(float(G[i, i])) - mpmath.mpf(float(rates[i])) for i in range(n)]
        off2 = [u * d for u, d in zip(up, down)]

        def n_above(x):
            d = diag[0] - x
            count = int(d > 0)
            for i in range(1, n):
                d = diag[i] - x - off2[i - 1] / d
                count += d > 0
            return count

        lo = min(diag) - 2 * max(up + down)
        hi = mpmath.mpf(0)
        while hi - lo > abs(lo) * mpmath.mpf(10) ** (8 - digits):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if n_above(mid) else (lo, mid)
        rho = (lo + hi) / 2
        q_next, pi = mpmath.mpf(0), [mpmath.mpf(1)]
        ratios = []
        for i in range(n - 1, 0, -1):
            u = up[i] if i < n - 1 else 0
            q_next = down[i - 1] / (rho - diag[i] - u * q_next)
            ratios.append(q_next)
        for q in reversed(ratios):
            pi.append(pi[-1] * q)
        norm = mpmath.sqrt(mpmath.fsum(p * p for p in pi))
        return float(rho), np.array([float(p / norm) for p in pi])


def two_blocks(eps):
    """Two mirror-image 3-state blocks joined by intensity eps: pi is symmetric
    and the gap below rho is O(eps), so unshifted inverse iteration stalls."""
    B = np.array([[0.0, 1.0, 0.5], [0.7, 0.0, 0.3], [0.2, 0.9, 0.0]])
    Q = np.zeros((6, 6))
    Q[:3, :3], Q[3:, 3:] = B, B[::-1, ::-1]
    Q[2, 3] = Q[3, 2] = eps
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rates = np.array([0.01, 0.02, 0.05, 0.05, 0.02, 0.01])
    return GeneratorMatrix(Q), RateMap(rates)


class TestPerronPair:
    def test_two_state_closed_form(self, two_state_example):
        m, G, r = two_state_example
        pair = perron_pair(G, r)
        (rho_p, pi_p), _ = eigen_pairs(m)
        assert pair.rho == pytest.approx(rho_p, abs=1e-13)
        assert np.allclose(pair.pi, pi_p, atol=1e-12)
        assert pair.pi[0] / pair.pi[1] == pytest.approx((m.rate + m.gamma) / (2 * m.lam), rel=1e-12)

    def test_zero_rates_rejected(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(RecoveryHypothesisError) as exc:
            perron_pair(G, RateMap(np.zeros(2)))
        assert "rho" in str(exc.value)

    def test_scalar_model(self):
        pair = perron_pair(GeneratorMatrix(np.zeros((1, 1))), RateMap(np.array([0.3])))
        assert pair.rho == pytest.approx(-0.3, abs=1e-14)
        assert pair.pi[0] == pytest.approx(1.0, abs=1e-14)

    def test_eigen_residual_on_random_models(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            G, r = random_model(rng, n_max=10)
            pair = perron_pair(G, r)
            resid = np.linalg.norm((G.entries - r.diagonal) @ pair.pi - pair.rho * pair.pi)
            assert resid <= DEFAULT_POLICY.eigen_residual_tol
            assert np.all(pair.pi > 0)
            assert np.linalg.norm(pair.pi) == pytest.approx(1.0, abs=1e-12)

    def test_power_iteration_agrees_with_dense_solver(self):
        # perron_pair is inverse iteration; the dense oracle is scipy's eig
        rng = np.random.default_rng(56)
        for _ in range(5):
            G, r = random_model(rng)
            pair = perron_pair(G, r)
            vals, vecs = eig(G.entries - r.diagonal)
            k = int(np.argmax(vals.real))
            pi_eig = np.abs(vecs[:, k].real) / np.linalg.norm(vecs[:, k].real)
            assert float(vals[k].real) == pytest.approx(pair.rho, abs=1e-9)
            assert np.allclose(pi_eig, pair.pi, atol=1e-8)


    def test_zero_rates_give_exact_pair(self):
        for n in (1, 2, 5):
            Q = np.ones((n, n)) - n * np.eye(n)
            rho, pi = dominant_eigenpair(GeneratorMatrix(Q), RateMap(np.zeros(n)))
            assert rho == 0.0 and str(rho) == "0.0"
            assert np.array_equal(pi, np.full(n, 1.0 / np.sqrt(n)))

    @pytest.mark.parametrize("lam, rate", [(0.5, 0.1), (2.0, 0.01), (0.05, 1.0), (1.0, 1.0)])
    def test_two_state_closed_forms_to_1e12(self, lam, rate):
        m = TwoStateModel(lam=lam, rate=rate)
        pair = perron_pair(m.generator(), m.rate_map())
        (rho_p, pi_p), _ = eigen_pairs(m)
        assert pair.rho == pytest.approx(rho_p, rel=1e-12)
        assert np.allclose(pair.pi, pi_p, rtol=1e-12, atol=0)
        rec = recover_generator(pair, m.generator())
        assert np.allclose(rec.entries, closed_form_recovered_generator(m),
                           rtol=1e-12, atol=0)

    def test_long_birth_death_chain_matches_reference(self, tmp_path, capsys):
        # the 500-state chain on which dense eig returned pi entries <= 0:
        # pi falls to ~1e-52, and every entry must be right to 1e-12 relative
        rng = np.random.default_rng(20240)
        n = 500
        Q = np.diag(rng.uniform(0.5, 1.5, n - 1), 1) + np.diag(rng.uniform(0.5, 1.5, n - 1), -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        rates = np.linspace(0.0, 0.1, n)
        path = tmp_path / "bd500.txt"
        path.write_text(
            f"states: {n}\ngenerator:\n"
            + "\n".join(" ".join(repr(float(x)) for x in row) for row in Q)
            + "\nrates: " + " ".join(repr(float(x)) for x in rates) + "\n"
        )
        assert cli_main(["recover", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        rho_ref, pi_ref = birth_death_reference(Q, rates)
        pi = np.array(report["pi"])
        assert pi_ref.min() < 1e-40
        assert abs(report["rho"] - rho_ref) <= 1e-12 * abs(rho_ref)
        assert np.max(np.abs(pi - pi_ref) / pi_ref) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_weakly_coupled_blocks_converge(self, eps):
        G, r = two_blocks(eps)
        pair = perron_pair(G, r)
        assert entrywise_residual_ok(G, r, pair.rho, pair.pi)
        assert np.max(np.abs(pair.pi[::-1] / pair.pi - 1.0)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(models())
    def test_pair_is_positive_and_gated_up_to_stiff_chains(self, model):
        G, r = model
        assume(np.any(r.rates > 0))
        rho, pi = dominant_eigenpair(G, r)
        assert rho < 0 and np.all(pi > 0)
        assert entrywise_residual_ok(G, r, rho, pi)
        rec = recover_generator(PerronPair(rho=rho, pi=pi), G)
        assert validate_model(rec, RateMap(np.zeros(G.n))).ok
        # perron_pair's absolute gate |M pi - rho pi| <= 1e-10 also holds
        # wherever rounding pi to doubles leaves room for it: that alone puts
        # about eps |M| pi into M pi, ~1e-10 at intensity 1e6
        M = G.entries - r.diagonal
        if np.finfo(float).eps * np.linalg.norm(np.abs(M) @ pi) <= DEFAULT_POLICY.eigen_residual_tol / 16:
            assert perron_pair(G, r).rho == rho

    @pytest.mark.parametrize("rate", [1e-303, 1.1125369292536007e-308, 1e-311, 5e-324])
    @pytest.mark.parametrize("intensity", [1.0, 1e6])
    def test_subnormal_rate_keeps_rho_negative(self, rate, intensity):
        # 1 / rate overflows: the solve's right-hand side is scaled down, and
        # -rate / 2 below the smallest double still gives rho < 0
        G = GeneratorMatrix(intensity * np.array([[-1.0, 1.0], [1.0, -1.0]]))
        pair = perron_pair(G, RateMap(np.array([0.0, rate])))
        assert -rate <= pair.rho < 0
        assert np.allclose(pair.pi, np.sqrt(0.5), rtol=1e-15)

    def test_pi_beyond_double_range_is_a_typed_error(self):
        # pi falls by ~1e-5 per state, below the smallest double by state 70
        n = 80
        Q = np.diag(np.full(n - 1, 1e-3), 1) + np.diag(np.full(n - 1, 1e-3), -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        rates = np.full(n, 100.0)
        rates[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValidationError, match=r"bracket on -rho \["):
                perron_pair(GeneratorMatrix(Q), RateMap(rates))


class TestRecoverGenerator:
    def test_two_state_closed_form(self, two_state_example):
        m, G, r = two_state_example
        rec = recover_generator(perron_pair(G, r), G)
        assert np.allclose(rec.entries, closed_form_recovered_generator(m), rtol=1e-12)
        assert rec.entries[0, 1] == pytest.approx(0.4524937810560445, abs=1e-12)
        assert rec.entries[1, 0] == pytest.approx(0.5524937810560445, abs=1e-12)

    def test_uniform_eigenvector_recovers_original(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        pair = PerronPair(rho=-0.1, pi=np.ones(2) / np.sqrt(2))
        rec = recover_generator(pair, G)
        assert np.allclose(rec.entries, G.entries, atol=1e-14)

    def test_scaling_invariance(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        scaled = PerronPair(rho=pair.rho, pi=3.7 * pair.pi)
        assert np.allclose(
            recover_generator(pair, G).entries,
            recover_generator(scaled, G).entries,
            rtol=1e-13,
        )

    def test_recovered_generator_is_admissible_with_same_support(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            G, r = random_model(rng, n_max=8)
            rec = recover_generator(perron_pair(G, r), G)
            assert validate_model(rec, RateMap(np.zeros(G.n))).ok
            assert np.array_equal(rec.entries != 0.0, G.entries != 0.0)


class TestRadonNikodym:
    def test_constant_path(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        path = ChainPath(1, (), (), 1.0, 2)
        expected = np.exp(-(0.1 + pair.rho) * 1.0)
        assert radon_nikodym_along_path(pair, r, path, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_martingale_property(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        T, n_paths = 1.0, 200_000
        states, integ = simulate_terminal(G, r, 0, T, n_paths, seed=71)
        Z = np.exp(-integ - pair.rho * T) * pair.pi[states] / pair.pi[0]
        se = Z.std(ddof=1) / np.sqrt(n_paths)
        assert abs(Z.mean() - 1.0) <= 3.5 * se

    def test_wrong_rho_breaks_martingale(self, two_state_example):
        # negative control: dropping the rho term biases the expectation
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        T, n_paths = 1.0, 200_000
        states, integ = simulate_terminal(G, r, 0, T, n_paths, seed=71)
        Z_bad = np.exp(-integ) * pair.pi[states] / pair.pi[0]
        se = Z_bad.std(ddof=1) / np.sqrt(n_paths)
        assert abs(Z_bad.mean() - 1.0) > 3.5 * se

    def test_positive_along_simulated_paths(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        rng = np.random.default_rng(5)
        for _ in range(20):
            path = simulate_path(G, 0, 1.0, rng)
            assert radon_nikodym_along_path(pair, r, path, 1.0) > 0


class TestTipkPrice:
    def test_eigen_payoff_has_zero_variance(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        rec = recover_generator(pair, G)
        payoff = ClaimPayoff(pair.pi, 1.0)
        est, se = tipk_price(pair, rec, payoff, 0.0, 1.0, 0, 2000, seed=1)
        assert se == pytest.approx(0.0, abs=1e-16)
        assert est == pytest.approx(pair.pi[0] * np.exp(pair.rho), rel=1e-13)

    def test_bond_price_cross_check(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        rec = recover_generator(pair, G)
        payoff = ClaimPayoff(np.ones(2), 1.0)
        est, se = tipk_price(pair, rec, payoff, 0.0, 1.0, 0, 200_000, seed=13)
        assert abs(est - bond_price(G, r, 0.0, 1.0, 0)) <= 3.5 * se

    def test_at_maturity_returns_payoff(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        rec = recover_generator(pair, G)
        payoff = ClaimPayoff(np.array([0.2, 0.9]), 1.0)
        est, se = tipk_price(pair, rec, payoff, 1.0, 1.0, 1, 10, seed=0)
        assert est == 0.9 and se == 0.0

    def test_zero_paths_rejected(self, two_state_example):
        _, G, r = two_state_example
        pair = perron_pair(G, r)
        rec = recover_generator(pair, G)
        with pytest.raises(ValueError):
            tipk_price(pair, rec, ClaimPayoff(np.ones(2), 1.0), 0.0, 1.0, 0, 0, seed=0)


class TestEigenClaim:
    def test_eigen_claim_prices_exponentially(self):
        # the claim paying pi(J_T) is worth e^{rho (T-t)} pi(i) in state i
        rng = np.random.default_rng(58)
        for _ in range(8):
            G, r = random_model(rng, n_max=6)
            pair = perron_pair(G, r)
            pv = price_claim(G, r, ClaimPayoff(pair.pi, 2.0), 0.5)
            assert np.allclose(pv, np.exp(pair.rho * 1.5) * pair.pi, atol=1e-10)
