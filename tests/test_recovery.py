import json
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings

from ctmc_rates import (
    ClaimPayoff,
    GeneratorMatrix,
    ModelValidationError,
    RateMap,
    RecoveryHypothesisError,
    bond_prices,
    perron_pair,
    price_claim,
    recover_generator,
    tipk_price,
    validate_model,
)
from ctmc_rates import recovery
from ctmc_rates.cli import main as cli_main
from ctmc_rates.model import simulate_terminal
from ctmc_rates.pricing import mean_and_se
from ctmc_rates.recovery import EIGEN_RESIDUAL_TOL
from ctmc_rates.two_state import TwoStateModel
from scipy.linalg import eig

from conftest import models, random_model
from oracles import closed_form_recovered_generator, eigen_pairs


def entrywise_residual_ok(G, r, rho, pi, tol=EIGEN_RESIDUAL_TOL):
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


def inverse_iteration_reference(G, r, rho, pi, digits: int = 60):
    """Perron pair of G - R in `digits`-digit arithmetic, by inverse iteration
    shifted by rho and started from pi; returns doubles.

    Every diagonal entry of G is taken as minus the exact sum of its row's
    off-diagonals, as the solver takes it: at intensity 1e6 the stored
    diagonal is rounded by ~1e-9, which would move rho at small rates.
    """
    n = G.n
    with mpmath.workdps(digits):
        M = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in G.entries])
        for i in range(n):
            M[i, i] = -mpmath.fsum(M[i, j] for j in range(n) if j != i) - mpmath.mpf(float(r.rates[i]))
        shifted = M - mpmath.mpf(float(rho)) * mpmath.eye(n)
        x = mpmath.matrix([mpmath.mpf(float(p)) for p in pi])
        for _ in range(4):
            x = mpmath.lu_solve(shifted, x)
            x /= mpmath.norm(x)
        Mx = M * x
        rho_ref = mpmath.fsum(x[i] * Mx[i] for i in range(n))
        assert mpmath.norm(Mx - rho_ref * x) <= mpmath.mpf(10) ** (20 - digits)
        return float(rho_ref), np.array([float(x[i]) for i in range(n)])


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
        rho, pi = perron_pair(G, r)
        (rho_p, pi_p), _ = eigen_pairs(m)
        assert rho == pytest.approx(rho_p, abs=1e-13)
        assert np.allclose(pi, pi_p, atol=1e-12)
        assert pi[0] / pi[1] == pytest.approx((m.rate + m.gamma) / (2 * m.lam), rel=1e-12)
        assert not pi.flags.writeable

    def test_zero_rates_rejected(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(RecoveryHypothesisError) as exc:
            perron_pair(G, RateMap(np.zeros(2)))
        assert "rho" in str(exc.value)

    def test_scalar_model(self):
        rho, pi = perron_pair(GeneratorMatrix(np.zeros((1, 1))), RateMap(np.array([0.3])))
        assert rho == pytest.approx(-0.3, abs=1e-14)
        assert pi[0] == pytest.approx(1.0, abs=1e-14)

    def test_eigen_residual_on_random_models(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            G, r = random_model(rng, n_max=10)
            rho, pi = perron_pair(G, r)
            resid = np.linalg.norm((G.entries - r.diagonal) @ pi - rho * pi)
            assert resid <= EIGEN_RESIDUAL_TOL
            assert np.all(pi > 0)
            assert np.linalg.norm(pi) == pytest.approx(1.0, abs=1e-12)

    def test_power_iteration_agrees_with_dense_solver(self):
        # perron_pair is inverse iteration; the dense oracle is scipy's eig
        rng = np.random.default_rng(56)
        for _ in range(5):
            G, r = random_model(rng)
            rho, pi = perron_pair(G, r)
            vals, vecs = eig(G.entries - r.diagonal)
            k = int(np.argmax(vals.real))
            pi_eig = np.abs(vecs[:, k].real) / np.linalg.norm(vecs[:, k].real)
            assert float(vals[k].real) == pytest.approx(rho, abs=1e-9)
            assert np.allclose(pi_eig, pi, atol=1e-8)

    @pytest.mark.parametrize("lam, rate", [(0.5, 0.1), (2.0, 0.01), (0.05, 1.0), (1.0, 1.0)])
    def test_two_state_closed_forms_to_1e12(self, lam, rate):
        m = TwoStateModel(lam=lam, rate=rate)
        rho, pi = perron_pair(m.generator(), m.rate_map())
        (rho_p, pi_p), _ = eigen_pairs(m)
        assert rho == pytest.approx(rho_p, rel=1e-12)
        assert np.allclose(pi, pi_p, rtol=1e-12, atol=0)
        rec = recover_generator(m.generator(), pi)
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
        rho, pi = perron_pair(G, r)
        assert entrywise_residual_ok(G, r, rho, pi)
        assert np.max(np.abs(pi[::-1] / pi - 1.0)) <= 1e-12

    def test_time_unit_scales_rho_and_leaves_pi(self):
        # rates per day instead of per year: (G, r) -> (cG, cr) must give
        # (c rho, pi) bit for bit and pass the same gate, at any power of two c
        rng = np.random.default_rng(2024)
        for G, r in [random_model(rng, n_max=11) for _ in range(40)]:
            rho, pi = perron_pair(G, r)
            for k in range(-30, 31):
                c = np.ldexp(1.0, k)
                rho_c, pi_c = perron_pair(GeneratorMatrix(c * G.entries), RateMap(c * r.rates))
                assert rho_c == c * rho and np.array_equal(pi_c, pi)

    def test_stiff_dense_chain_matches_reference(self):
        # intensity 1e6: evaluated in doubles, the correctly rounded pair's
        # ||M pi - rho pi|| is over 1e-10, so an absolute gate at 1e-10 would
        # reject even the exact answer; the entrywise gate accepts it
        rng = np.random.default_rng(6)
        n = 30
        Q = 1e6 * rng.uniform(0.05, 1.0, (n, n))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        G, r = GeneratorMatrix(Q), RateMap(rng.uniform(0.01, 0.2, n))
        rho, pi = perron_pair(G, r)
        rho_ref, pi_ref = inverse_iteration_reference(G, r, rho, pi)
        assert abs(rho - rho_ref) <= 1e-13 * abs(rho_ref)
        assert np.max(np.abs(pi - pi_ref) / pi_ref) <= 1e-13
        assert np.linalg.norm((G.entries - r.diagonal) @ pi_ref - rho_ref * pi_ref) > EIGEN_RESIDUAL_TOL
        assert entrywise_residual_ok(G, r, rho_ref, pi_ref)

    @settings(max_examples=200, deadline=None)
    @given(models())
    def test_pair_is_positive_and_gated_up_to_stiff_chains(self, model):
        G, r = model
        assume(np.any(r.rates > 0))
        rho, pi = perron_pair(G, r)
        assert rho < 0 and np.all(pi > 0)
        assert entrywise_residual_ok(G, r, rho, pi)
        rec = recover_generator(G, pi)
        assert validate_model(rec, RateMap(np.zeros(G.n))) == ()

    @pytest.mark.parametrize("rate", [1e-303, 1.1125369292536007e-308, 1e-311, 5e-324])
    @pytest.mark.parametrize("intensity", [1.0, 1e6])
    def test_subnormal_rate_keeps_rho_negative(self, rate, intensity):
        # 1 / rate overflows: the solve's right-hand side is scaled down, and
        # -rate / 2 below the smallest double still gives rho < 0
        G = GeneratorMatrix(intensity * np.array([[-1.0, 1.0], [1.0, -1.0]]))
        rho, pi = perron_pair(G, RateMap(np.array([0.0, rate])))
        assert -rate <= rho < 0
        assert np.allclose(pi, np.sqrt(0.5), rtol=1e-15)

    @pytest.mark.parametrize("rates", [(5e-324, 0.0), (5e-324, 0.0, 0.0), (0.0, 1e-320, 5e-324)])
    @pytest.mark.parametrize("intensity", [1.0, 1e6])
    def test_subnormal_rate_on_an_asymmetric_chain(self, rates, intensity):
        # the elimination multiplies the rates by factors below 1: on
        # [[-1, 1], [0.5, -0.5]] with rates (5e-324, 0) the last pivot,
        # 0.5 * 5e-324, rounded to 0 and the solve failed
        n = len(rates)
        Q = intensity * (np.diag(np.ones(n - 1), 1) + 0.5 * np.diag(np.ones(n - 1), -1))
        np.fill_diagonal(Q, -Q.sum(axis=1))
        G, r = GeneratorMatrix(Q), RateMap(np.array(rates))
        rho, pi = perron_pair(G, r)
        assert -max(rates) <= rho < 0 and np.all(pi > 0)
        assert entrywise_residual_ok(G, r, rho, pi)
        assert validate_model(recover_generator(G, pi), RateMap(np.zeros(n))) == ()

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
        rec = recover_generator(G, perron_pair(G, r)[1])
        assert np.allclose(rec.entries, closed_form_recovered_generator(m), rtol=1e-12)
        assert rec.entries[0, 1] == pytest.approx(0.4524937810560445, abs=1e-12)
        assert rec.entries[1, 0] == pytest.approx(0.5524937810560445, abs=1e-12)

    def test_uniform_eigenvector_recovers_original(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        rec = recover_generator(G, np.ones(2) / np.sqrt(2))
        assert np.allclose(rec.entries, G.entries, atol=1e-14)

    def test_scaling_invariance(self, two_state_example):
        _, G, r = two_state_example
        _, pi = perron_pair(G, r)
        assert np.allclose(
            recover_generator(G, pi).entries,
            recover_generator(G, 3.7 * pi).entries,
            rtol=1e-13,
        )

    def test_recovered_generator_is_admissible_with_same_support(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            G, r = random_model(rng, n_max=8)
            rec = recover_generator(G, perron_pair(G, r)[1])
            assert validate_model(rec, RateMap(np.zeros(G.n))) == ()
            assert np.array_equal(rec.entries != 0.0, G.entries != 0.0)


# each would otherwise divide by zero, report a non-positive pi as generator
# violations, or fail on a list's missing .shape
BAD_PI = pytest.mark.parametrize(
    "pi", [np.array([1.0, 0.0]), np.array([1.0, -1.0]), [1.0, 1.0]], ids=["zero", "negative", "list"]
)
BAD_PI_ERROR = r"^eigenvector must be a finite, strictly positive array of length 2$"


class TestBadEigenvector:
    @BAD_PI
    def test_recover_generator_rejects(self, two_state_example, pi):
        _, G, _ = two_state_example
        with pytest.raises(ModelValidationError, match=BAD_PI_ERROR):
            recover_generator(G, pi)


def density(rho, pi, initial, T, states, integ):
    """Z_T = exp(-int_0^T r(J_s) ds - rho T) pi(J_T) / pi(J_0) from simulate_terminal."""
    return np.exp(-integ - rho * T) * pi[states] / pi[initial]


class TestRadonNikodym:
    def test_constant_path(self, two_state_example):
        # the paths that never leave state 1 before T = 1 accrue 0.1 exactly
        _, G, r = two_state_example
        rho, pi = perron_pair(G, r)
        states, integ = simulate_terminal(G, r, 1, 1.0, 20, seed=3)
        stayed = integ == 0.1 * 1.0
        assert stayed.any() and np.all(states[stayed] == 1)
        expected = np.exp(-(0.1 + rho) * 1.0)
        Z = density(rho, pi, 1, 1.0, states[stayed], integ[stayed])
        assert Z == pytest.approx(np.full(Z.size, expected), rel=1e-13)

    def test_martingale_property(self, two_state_example):
        _, G, r = two_state_example
        rho, pi = perron_pair(G, r)
        T, n_paths = 1.0, 200_000
        states, integ = simulate_terminal(G, r, 0, T, n_paths, seed=71)
        Z = np.exp(-integ - rho * T) * pi[states] / pi[0]
        se = Z.std(ddof=1) / np.sqrt(n_paths)
        assert abs(Z.mean() - 1.0) <= 3.5 * se

    def test_wrong_rho_breaks_martingale(self, two_state_example):
        # negative control: dropping the rho term biases the expectation
        _, G, r = two_state_example
        rho, pi = perron_pair(G, r)
        T, n_paths = 1.0, 200_000
        states, integ = simulate_terminal(G, r, 0, T, n_paths, seed=71)
        Z_bad = np.exp(-integ) * pi[states] / pi[0]
        se = Z_bad.std(ddof=1) / np.sqrt(n_paths)
        assert abs(Z_bad.mean() - 1.0) > 3.5 * se

    def test_positive_along_simulated_paths(self, two_state_example):
        _, G, r = two_state_example
        rho, pi = perron_pair(G, r)
        states, integ = simulate_terminal(G, r, 0, 1.0, 20, seed=5)
        assert np.all(density(rho, pi, 0, 1.0, states, integ) > 0)

    # derandomized: with the fixed simulation seed the examples, and so the
    # outcome, are the same on every run
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(models())
    def test_unit_mean_on_admissible_models(self, model):
        # E[Z_T] = 1 under the pricing measure, at intensities up to 1e6;
        # the horizon allows about ten jumps from the fastest state
        G, r = model
        assume(np.any(r.rates > 0))
        rho, pi = perron_pair(G, r)
        T = 10.0 / max(10.0, float(-np.diag(G.entries).min()))
        states, integ = simulate_terminal(G, r, 0, T, 4000, seed=29)
        mean, se = mean_and_se(density(rho, pi, 0, T, states, integ))
        assert abs(mean - 1.0) <= 4.0 * se


class TestTipkPrice:
    def test_eigen_payoff_has_zero_variance(self, two_state_example):
        _, G, r = two_state_example
        rho, pi = perron_pair(G, r)
        est, se = tipk_price(G, r, ClaimPayoff(pi, 1.0), 0.0, 0, 2000, seed=1)
        assert se == pytest.approx(0.0, abs=1e-16)
        assert est == pytest.approx(pi[0] * np.exp(rho), rel=1e-13)

    def test_bond_price_cross_check(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.ones(2), 1.0)
        est, se = tipk_price(G, r, payoff, 0.0, 0, 200_000, seed=13)
        assert abs(est - bond_prices(G, r, 0.0, 1.0)[0]) <= 3.5 * se

    def test_at_maturity_returns_payoff(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([0.2, 0.9]), 1.0)
        est, se = tipk_price(G, r, payoff, 1.0, 1, 10, seed=0)
        assert est == 0.9 and se == 0.0

    def test_zero_paths_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ValueError):
            tipk_price(G, r, ClaimPayoff(np.ones(2), 1.0), 0.0, 0, 0, seed=0)

    @pytest.mark.parametrize("values", [[1.0, 0.5, 0.2], [1.0]])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_payoff_of_wrong_length_is_a_typed_error(self, two_state_example, monkeypatch, values, t):
        # rejected before the Perron solve and before the t == T shortcut: a
        # 3-entry payoff used to price silently and a 1-entry one to raise IndexError
        _, G, r = two_state_example
        monkeypatch.setattr(recovery, "perron_pair", lambda *a: pytest.fail("Perron solve ran"))
        with pytest.raises(ModelValidationError, match="payoff length does not match state count"):
            tipk_price(G, r, ClaimPayoff(np.array(values), 1.0), t, 1, 10, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equals_the_recovered_measure_average(self, n):
        # tipk_price recovers rho, pi and G^pi from (G, r) and reads T from the
        # payoff: the same average from the same pieces and seed agrees bit for bit
        rng = np.random.default_rng(n)
        Q = rng.uniform(0.05, 2.0, size=(n, n))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        G, r = GeneratorMatrix(Q), RateMap(rng.uniform(0.01, 0.2, n))
        T, payoff = 1.5, ClaimPayoff(rng.uniform(0.0, 2.0, n), 1.5)
        rho, pi = perron_pair(G, r)
        G_p, zero = recover_generator(G, pi), RateMap(np.zeros(n))
        for i in range(n):
            for t in (0.0, 0.5):
                states, _ = simulate_terminal(G_p, zero, i, T - t, 500, seed=11)
                want = mean_and_se(pi[i] * np.exp(rho * (T - t)) * payoff.values[states] / pi[states])
                assert tipk_price(G, r, payoff, t, i, 500, seed=11) == want
            assert tipk_price(G, r, payoff, T, i, 500, seed=11) == (payoff.values[i], 0.0)


class TestEigenClaim:
    def test_eigen_claim_prices_exponentially(self):
        # the claim paying pi(J_T) is worth e^{rho (T-t)} pi(i) in state i
        rng = np.random.default_rng(58)
        for _ in range(8):
            G, r = random_model(rng, n_max=6)
            rho, pi = perron_pair(G, r)
            pv = price_claim(G, r, ClaimPayoff(pi, 2.0), 0.5)
            assert np.allclose(pv, np.exp(rho * 1.5) * pi, atol=1e-10)
