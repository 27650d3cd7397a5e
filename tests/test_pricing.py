import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmc_rates import (
    ClaimPayoff,
    GeneratorMatrix,
    ModelValidationError,
    RateMap,
    TwoStateModel,
    arrow_debreu,
    bond_prices,
    caplet,
    floorlet,
    forward_rate,
    mc_price_claim,
    price_claim,
    price_forward_rate_option,
    simulate_path,
    simulate_terminal,
    tipk_price,
    validate_model,
)
from ctmc_rates.model import ROW_SUM_TOL
from ctmc_rates.pricing import yield_curve
from ctmc_rates.recovery import perron_pair

from conftest import models, random_model
from oracles import closed_form_ad

# frozen from the two-state closed form (lam=0.5, r=0.1, T=1)
B0_REF = (0.9821813464961849, 0.9220275299423587)
Y0_REF = (0.01797931711080144, 0.08118019693166097)


def seeded_models(seed=101, count=10, **kw):
    rng = np.random.default_rng(seed)
    return [random_model(rng, **kw) for _ in range(count)]


def stiff_dense(intensity, rate_max, seed=6, n=5):
    """A dense chain with off-diagonals intensity * U(0.5, 1.5) and rates
    U(0, rate_max); each diagonal is the float minus its row's sum."""
    rng = np.random.default_rng(seed)
    Q = intensity * rng.uniform(0.5, 1.5, (n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return GeneratorMatrix(Q), RateMap(rng.uniform(0.0, rate_max, n))


def conservative_yields(G, r, T, dps=60):
    """Yields at dps digits of the conservative model: off-diagonals and
    rates as given, each diagonal minus its row's exact off-diagonal sum."""
    n = G.n
    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpf(float(x)) if i != j else 0 for j, x in enumerate(row)]
                           for i, row in enumerate(G.entries)])
        for i in range(n):
            M[i, i] = -mpmath.fsum(M[i, j] for j in range(n)) - mpmath.mpf(float(r.rates[i]))
        E = mpmath.expm(M * mpmath.mpf(T))
        return np.array([float(-mpmath.log(mpmath.fsum(E[i, j] for j in range(n))) / T) for i in range(n)])


# (intensity, largest rate) of stiff dense chains, the small rates being
# where a yield is a small difference of large exit rates
STIFF_DENSE = [(1e6, 2e-6), (1e3, 1e-3), (1e6, 1.0), (1e6, 1e-3)]


class TestPriceClaim:
    def test_all_ones_equals_bond_prices(self):
        for G, r in seeded_models(count=5):
            pv = price_claim(G, r, ClaimPayoff(np.ones(G.n), 2.0), 0.3)
            assert np.allclose(pv, bond_prices(G, r, 0.3, 2.0), rtol=1e-14)

    def test_zero_rates_preserve_constants(self):
        G, _ = seeded_models(count=1)[0]
        r0 = RateMap(np.zeros(G.n))
        pv = price_claim(G, r0, ClaimPayoff(np.ones(G.n), 3.0), 0.0)
        assert np.allclose(pv, 1.0, atol=1e-12)

    def test_two_state_indicator_matches_closed_form_column(self, two_state_example):
        m, G, r = two_state_example
        pv = price_claim(G, r, ClaimPayoff(np.array([1.0, 0.0]), 1.0), 0.0)
        assert np.allclose(pv, closed_form_ad(m, 0.0, 1.0)[:, 0], rtol=1e-12)

    def test_at_maturity_returns_payoff_exactly(self, two_state_example):
        _, G, r = two_state_example
        phi = np.array([0.3, -1.7])
        pv = price_claim(G, r, ClaimPayoff(phi, 1.0), 1.0)
        assert np.array_equal(pv, phi)

    def test_after_maturity_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ValueError):
            price_claim(G, r, ClaimPayoff(np.ones(2), 1.0), 1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        seed=st.integers(0, 500),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        G, r = random_model(rng, n_max=10)
        phi1 = rng.normal(size=G.n)
        phi2 = rng.normal(size=G.n)
        lhs = price_claim(G, r, ClaimPayoff(a * phi1 + b * phi2, 1.5), 0.2)
        rhs = a * price_claim(G, r, ClaimPayoff(phi1, 1.5), 0.2) + b * price_claim(
            G, r, ClaimPayoff(phi2, 1.5), 0.2
        )
        assert np.allclose(lhs, rhs, atol=1e-12 * (1 + abs(a) + abs(b)))


class TestBonds:
    def test_reference_values(self, two_state_example):
        _, G, r = two_state_example
        pv = bond_prices(G, r, 0.0, 1.0)
        assert pv[0] == pytest.approx(B0_REF[0], abs=1e-12)
        assert pv[1] == pytest.approx(B0_REF[1], abs=1e-12)
        # coarse guard against the published rounded values
        assert pv[0] == pytest.approx(0.98211, abs=1e-4)
        assert pv[1] == pytest.approx(0.92196, abs=1e-4)

    def test_at_maturity_is_one(self, two_state_example):
        _, G, r = two_state_example
        assert np.array_equal(bond_prices(G, r, 2.0, 2.0), np.ones(2))

    def test_scalar_model(self):
        G = GeneratorMatrix(np.zeros((1, 1)))
        r = RateMap(np.array([0.07]))
        assert bond_prices(G, r, 0.5, 2.0)[0] == pytest.approx(np.exp(-0.07 * 1.5), rel=1e-14)

    def test_in_unit_interval(self):
        for G, r in seeded_models(seed=7, count=5):
            vals = bond_prices(G, r, 0.0, 4.0)
            assert np.all(vals > 0) and np.all(vals <= 1)


class TestYield:
    def test_short_maturity_limit_is_short_rate(self, two_state_example):
        _, G, r = two_state_example
        assert yield_curve(G, r, 0.0, [1e-7])[0, 0] == pytest.approx(0.0, abs=1e-7)
        assert yield_curve(G, r, 0.0, [1e-7])[0, 1] == pytest.approx(0.1, abs=1e-7)

    def test_long_maturity_limit(self, two_state_example):
        # exact gaps at T=50 are 9.237e-4 (state 0) and 1.0729e-3 (state 1);
        # the state-1 gap only drops below 1e-3 past T ~ 53.6
        m, G, r = two_state_example
        asym = (m.rate + 2 * m.lam - m.gamma) / 2
        assert yield_curve(G, r, 0.0, [50.0])[0, 0] == pytest.approx(asym, abs=1e-3)
        # B_1(T) = c_1 e^{rho T} (1 + O(e^{-gamma T})), so T * gap_1 -> |log c_1|
        kappa_1 = abs(np.log((m.gamma + 2 * m.lam - m.rate) / (2 * m.gamma)))
        assert abs(50.0 * abs(yield_curve(G, r, 0.0, [50.0])[0, 1] - asym) - kappa_1) <= 1e-9
        for i in (0, 1):
            assert yield_curve(G, r, 0.0, [60.0])[0, i] == pytest.approx(asym, abs=1e-3)

    def test_reference_one_year_yields(self, two_state_example):
        _, G, r = two_state_example
        assert yield_curve(G, r, 0.0, [1.0])[0, 0] == pytest.approx(Y0_REF[0], abs=1e-12)
        assert yield_curve(G, r, 0.0, [1.0])[0, 1] == pytest.approx(Y0_REF[1], abs=1e-12)

    def test_t_equals_T_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ValueError):
            yield_curve(G, r, 1.0, [1.0])

    @pytest.mark.parametrize("T", [1.0, 100.0])
    @pytest.mark.parametrize("intensity, rate_max", STIFF_DENSE)
    def test_stiff_yields_match_60_digits(self, intensity, rate_max, T):
        # measured at most 7.8e-16 relative over these eight cases; the
        # unnormalized Pade kernel was off by up to 6.8e-4 at (1e6, 2e-6)
        G, r = stiff_dense(intensity, rate_max)
        want = conservative_yields(G, r, T)
        got = yield_curve(G, r, 0.0, [T])[0]
        assert np.all(np.abs(got - want) <= 4e-15 * want)

    def test_bounded_by_rate_range(self):
        for G, r in seeded_models(seed=31, count=8):
            for T in (0.5, 2.0, 10.0):
                for i in range(G.n):
                    y = yield_curve(G, r, 0.0, [T])[0, i]
                    assert r.rates.min() - 1e-12 <= y <= r.rates.max() + 1e-12


class TestForwardRate:
    def test_zero_rates_give_zero_forward(self):
        G, _ = seeded_models(count=1)[0]
        r0 = RateMap(np.zeros(G.n))
        assert forward_rate(G, r0, 0.0, 0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_model_value(self):
        G = GeneratorMatrix(np.zeros((1, 1)))
        r = RateMap(np.array([0.04]))
        expected = (np.exp(0.04 * 1.0) - 1.0) / 1.0
        assert forward_rate(G, r, 0.3, 0, 1.0, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_two_state_ratio_of_bonds(self, two_state_example):
        _, G, r = two_state_example
        expected = (bond_prices(G, r, 0, 1.0)[0] / bond_prices(G, r, 0, 2.0)[0] - 1.0) / 1.0
        assert forward_rate(G, r, 0.0, 0, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_bad_ordering_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ValueError):
            forward_rate(G, r, 0.0, 0, 2.0, 2.0)

    @pytest.mark.parametrize("i", [-1, 2])  # just below and at n = 2
    def test_state_outside_range_rejected(self, two_state_example, i):
        _, G, r = two_state_example
        with pytest.raises(ValueError, match=f"state {i} outside state space"):
            forward_rate(G, r, 0.0, i, 1.0, 2.0)
        # tipk_price at t = T returns the payoff without simulating
        with pytest.raises(ValueError, match=f"state {i} outside state space"):
            tipk_price(G, r, ClaimPayoff(np.ones(2), 1.0), 1.0, i, 1, seed=0)

    def test_long_maturity_is_finite(self):
        # rates (0, 1): both bonds underflow to 0 as plain doubles; from log
        # bonds the forward rate is expm1(-rho) up to O(e^{-gamma T}), with
        # log B ~ -880 carrying an absolute error of a few ulps (~1e-13)
        m = TwoStateModel(0.5, 1.0)
        rho = -(m.rate + 2 * m.lam - m.gamma) / 2
        F = forward_rate(m.generator(), m.rate_map(), 0.0, 0, 3000.0, 3001.0)
        assert F == pytest.approx(np.expm1(-rho), rel=1e-11)


class TestForwardRateOptions:
    def test_zero_h_prices_to_zero(self, two_state_example):
        _, G, r = two_state_example
        pv = price_forward_rate_option(G, r, 0.0, 1.0, 2.0, lambda F: 0.0)
        assert np.array_equal(pv, np.zeros(2))

    def test_h_one_recovers_long_bond(self):
        for G, r in seeded_models(seed=13, count=5):
            pv = price_forward_rate_option(G, r, 0.1, 1.0, 2.0, lambda F: 1.0)
            assert np.allclose(pv, bond_prices(G, r, 0.1, 2.0), atol=1e-12)

    def test_zero_strike_caplet_identity(self):
        # h(F) = F with F >= 0 gives (B_t^T - B_t^Tb)/(Tb - T)
        for G, r in seeded_models(seed=19, count=5):
            pv = caplet(G, r, 0.0, 1.0, 2.5, 0.0)
            expected = (
                bond_prices(G, r, 0.0, 1.0) - bond_prices(G, r, 0.0, 2.5)
            ) / 1.5
            assert np.allclose(pv, expected, atol=1e-12)

    def test_huge_strike_caplet_vanishes(self, two_state_example):
        _, G, r = two_state_example
        assert np.allclose(caplet(G, r, 0.0, 1.0, 2.0, 1e9), 0.0, atol=1e-12)

    def test_zero_strike_floorlet_vanishes(self, two_state_example):
        _, G, r = two_state_example
        assert np.allclose(floorlet(G, r, 0.0, 1.0, 2.0, 0.0), 0.0, atol=1e-15)

    def test_long_accrual_period_matches_mpmath(self):
        # B(1, j; 3000) ~ 1e-382 underflows to 0: the caplet pays 1/delta at
        # the reset date and the floorlet nothing; reference from 40-digit
        # mpmath.expm of (G - R)
        m = TwoStateModel(lam=0.5, rate=1.0)
        G, r = m.generator(), m.rate_map()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap = caplet(G, r, 0.0, 1.0, 3000.0, 0.01)
            flo = floorlet(G, r, 0.0, 1.0, 3000.0, 0.01)
        ref = np.array([2.877817555119501474589676e-4, 1.546334846164583744023773e-4])
        assert np.all(np.abs(cap / ref - 1.0) <= 1e-12)
        assert np.array_equal(flo, np.zeros(2))

    def test_underflowing_long_bond_is_a_typed_error(self):
        # B(1, j; 3000) underflows to 0, so F = (1/B - 1)/delta is no double;
        # a warning would fail this test under filterwarnings = error
        m = TwoStateModel(lam=0.5, rate=1.0)
        with pytest.raises(ModelValidationError, match=r"B\(T, 0; Tb\) underflows on \[T, Tb\] = \[1, 3000\]"):
            price_forward_rate_option(m.generator(), m.rate_map(), 0, 1, 3000, lambda F: F)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), K=st.floats(0.0, 0.5))
    def test_caplet_floorlet_parity(self, seed, K):
        rng = np.random.default_rng(seed)
        G, r = random_model(rng)
        t, T, Tb = 0.0, 1.0, 2.0
        lhs = caplet(G, r, t, T, Tb, K) - floorlet(G, r, t, T, Tb, K)
        rhs = (
            bond_prices(G, r, t, T) - bond_prices(G, r, t, Tb)
        ) / (Tb - T) - K * bond_prices(G, r, t, Tb)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestArrowDebreu:
    def test_identity_at_maturity(self, two_state_example):
        _, G, r = two_state_example
        A = arrow_debreu(G, r, 1.0, 1.0)
        assert np.allclose(A, np.eye(2), atol=1e-12)

    def test_two_state_closed_form(self, two_state_example):
        m, G, r = two_state_example
        assert np.allclose(
            arrow_debreu(G, r, 0.0, 1.0), closed_form_ad(m, 0.0, 1.0), rtol=1e-12
        )

    def test_row_sums_are_bond_prices(self):
        for G, r in seeded_models(seed=41, count=8):
            A = arrow_debreu(G, r, 0.2, 1.7)
            assert np.allclose(A.sum(axis=1), bond_prices(G, r, 0.2, 1.7), atol=1e-10)
            assert np.all(A >= -1e-12)

    def test_linearity_against_price_claim(self, two_state_example):
        _, G, r = two_state_example
        rng = np.random.default_rng(2)
        phi = rng.normal(size=2)
        A = arrow_debreu(G, r, 0.0, 1.0)
        pv = price_claim(G, r, ClaimPayoff(phi, 1.0), 0.0)
        assert np.allclose(A @ phi, pv, atol=1e-12)

    def test_tower_property(self):
        for G, r in seeded_models(seed=43, count=5):
            A_full = arrow_debreu(G, r, 0.0, 2.0)
            A_split = arrow_debreu(G, r, 0.0, 0.8) @ arrow_debreu(G, r, 0.8, 2.0)
            assert np.allclose(A_full, A_split, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(models(), st.floats(0.0, 1.0), st.floats(0.0, 5.0), st.floats(0.01, 5.0), st.floats(0.0, 1.0))
def test_stiff_chain_pricing_properties(model, t, tau, delta, K):
    """Arrow-Debreu rows sum to the bonds and are >= 0, and caplet - floorlet
    parity holds, on chains with intensities up to 1e6.

    The parity gap is judged against expm's forward error eps ||(Tb - t) M||_1,
    as in tests/test_propagator.py: a flat 1e-12 cannot hold on stiff chains.
    """
    G, r = model
    T, Tb = t + tau, t + tau + delta
    A, B_T, B_Tb = arrow_debreu(G, r, t, T), bond_prices(G, r, t, T), bond_prices(G, r, t, Tb)
    assert np.all(np.abs(A.sum(axis=1) - B_T) <= 1e-14 * B_T)
    assert np.all(A >= 0.0)
    parity = caplet(G, r, t, T, Tb, K) - floorlet(G, r, t, T, Tb, K)
    M = G.entries - r.diagonal
    rel = 1e-12 + np.finfo(float).eps * (Tb - t) * np.abs(M).sum(axis=0).max()
    scale = (B_T + (1.0 + K * delta) * B_Tb) / delta
    assert np.all(np.abs(parity - (B_T - (1.0 + K * delta) * B_Tb) / delta) <= rel * scale)


def test_stored_diagonal_is_checked_never_read():
    # a diagonal shifted by 0.9 of what validate_model allows is still a
    # valid model, and it prices, recovers and simulates as its conservative
    # twin; read as stored, the shift made this chain's 1-year yields
    # -3.45e-6 against 7.82e-7
    G, r = stiff_dense(1e6, 2e-6)
    Q = G.entries.copy()
    Q[np.diag_indices(5)] += 0.9 * ROW_SUM_TOL * np.abs(Q).max()
    shifted = GeneratorMatrix(Q)
    assert not validate_model(shifted, r) and not np.array_equal(Q, G.entries)
    payoff = ClaimPayoff(np.linspace(1.0, 2.0, 5), 3.0)

    def outputs(twin, r):
        return np.atleast_1d(
            yield_curve(twin, r, 0.0, [0.5, 1.0, 100.0]), arrow_debreu(twin, r, 0.0, 2.0),
            price_claim(twin, r, payoff, 1.0), *simulate_terminal(twin, r, 2, 1e-4, 500, seed=3),
            *perron_pair(twin, r), simulate_path(twin, 0, 1e-5, 4).jump_times)

    assert all(a.tobytes() == b.tobytes() for a, b in zip(outputs(shifted, r), outputs(G, r)))
    # the Perron gate judges the conservative matrix too: read as stored, a
    # slow state's diagonal shifted within the allowance failed it
    Q = np.array([[0.0, 1e6, 1.0], [1e6, 0.0, 1.0], [50.0, 50.0, 0.0]])
    np.fill_diagonal(Q, -Q.sum(axis=1))
    r = RateMap(np.array([0.01, 0.02, 0.03]))
    twin = GeneratorMatrix(Q)
    Q[2, 2] += 0.9 * ROW_SUM_TOL * 1e6
    assert not validate_model(GeneratorMatrix(Q), r)
    want, got = perron_pair(twin, r), perron_pair(GeneratorMatrix(Q), r)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


class TestMonteCarloAgreement:
    def test_mc_within_standard_errors_smoke(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([1.0, 0.0]), 1.0)
        analytic = price_claim(G, r, payoff, 0.0)[0]
        est, se = mc_price_claim(G, r, payoff, 0, 50_000, seed=77)
        assert se > 0
        assert abs(est - analytic) <= 3.5 * se
