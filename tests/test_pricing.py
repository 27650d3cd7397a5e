import warnings

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
    bond_price,
    bond_prices,
    caplet,
    floorlet,
    forward_rate,
    mc_price_claim,
    price_claim,
    price_forward_rate_option,
    zero_yield,
)
from ctmc_rates.two_state import closed_form_ad

from conftest import models, random_model

# frozen from the two-state closed form (lam=0.5, r=0.1, T=1)
B0_REF = (0.9821813464961849, 0.9220275299423587)
Y0_REF = (0.01797931711080144, 0.08118019693166097)


def seeded_models(seed=101, count=10, **kw):
    rng = np.random.default_rng(seed)
    return [random_model(rng, **kw) for _ in range(count)]


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
        assert bond_price(G, r, 0.5, 2.0, 0) == pytest.approx(np.exp(-0.07 * 1.5), rel=1e-14)

    def test_in_unit_interval(self):
        for G, r in seeded_models(seed=7, count=5):
            vals = bond_prices(G, r, 0.0, 4.0)
            assert np.all(vals > 0) and np.all(vals <= 1)


class TestYield:
    def test_short_maturity_limit_is_short_rate(self, two_state_example):
        _, G, r = two_state_example
        assert zero_yield(G, r, 0.0, 1e-7, 0) == pytest.approx(0.0, abs=1e-7)
        assert zero_yield(G, r, 0.0, 1e-7, 1) == pytest.approx(0.1, abs=1e-7)

    def test_long_maturity_limit(self, two_state_example):
        # exact gaps at T=50 are 9.237e-4 (state 0) and 1.0729e-3 (state 1);
        # the state-1 gap only drops below 1e-3 past T ~ 53.6
        m, G, r = two_state_example
        asym = (m.rate + 2 * m.lam - m.gamma) / 2
        assert zero_yield(G, r, 0.0, 50.0, 0) == pytest.approx(asym, abs=1e-3)
        # B_1(T) = c_1 e^{rho T} (1 + O(e^{-gamma T})), so T * gap_1 -> |log c_1|
        kappa_1 = abs(np.log((m.gamma + 2 * m.lam - m.rate) / (2 * m.gamma)))
        assert abs(50.0 * abs(zero_yield(G, r, 0.0, 50.0, 1) - asym) - kappa_1) <= 1e-9
        for i in (0, 1):
            assert zero_yield(G, r, 0.0, 60.0, i) == pytest.approx(asym, abs=1e-3)

    def test_reference_one_year_yields(self, two_state_example):
        _, G, r = two_state_example
        assert zero_yield(G, r, 0.0, 1.0, 0) == pytest.approx(Y0_REF[0], abs=1e-12)
        assert zero_yield(G, r, 0.0, 1.0, 1) == pytest.approx(Y0_REF[1], abs=1e-12)

    def test_t_equals_T_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ValueError):
            zero_yield(G, r, 1.0, 1.0, 0)

    def test_bounded_by_rate_range(self):
        for G, r in seeded_models(seed=31, count=8):
            for T in (0.5, 2.0, 10.0):
                for i in range(G.n):
                    y = zero_yield(G, r, 0.0, T, i)
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
        expected = (bond_price(G, r, 0, 1.0, 0) / bond_price(G, r, 0, 2.0, 0) - 1.0) / 1.0
        assert forward_rate(G, r, 0.0, 0, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_bad_ordering_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ValueError):
            forward_rate(G, r, 0.0, 0, 2.0, 2.0)

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


class TestMonteCarloAgreement:
    def test_mc_within_standard_errors_smoke(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([1.0, 0.0]), 1.0)
        analytic = price_claim(G, r, payoff, 0.0)[0]
        est, se = mc_price_claim(G, r, payoff, 0, 50_000, seed=77)
        assert se > 0
        assert abs(est - analytic) <= 3.5 * se
