import warnings

import mpmath
import numpy as np
import pytest

from ctmc_rates import (
    RateMap,
    TwoStateModel,
    UnhedgeableBasisError,
    arrow_debreu,
    bond_prices,
    perron_pair,
    recover_generator,
)
from ctmc_rates.cli import main
from ctmc_rates.pricing import yield_curve
from ctmc_rates.two_state import closed_form_log_bonds, limiting_yield

from oracles import (
    closed_form_ad,
    closed_form_bonds,
    closed_form_hedge,
    closed_form_recovered_generator,
    closed_form_yield,
    eigen_pairs,
    mp_two_state_log_bonds,
)

GRID = [
    (lam, r, tau)
    for lam in (0.1, 0.5, 2.0)
    for r in (0.01, 0.1, 1.0)
    for tau in (0.1, 1.0, 10.0)
]


class TestEigenPairs:
    def test_reference_values(self):
        (rho_p, pi_p), (rho_m, _) = eigen_pairs(TwoStateModel(0.5, 0.1))
        assert rho_p == pytest.approx(-0.04750621894395557, abs=1e-15)
        assert rho_m == pytest.approx(-1.0524937810560444, abs=1e-15)
        assert pi_p[0] / pi_p[1] == pytest.approx(1.104987562112089, rel=1e-14)

    def test_small_rate_limit_is_uniform(self):
        (rho_p, pi_p), _ = eigen_pairs(TwoStateModel(0.5, 1e-12))
        assert rho_p == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(pi_p, 1 / np.sqrt(2), atol=1e-12)

    def test_eigenvectors_orthogonal(self):
        for lam, r, _ in GRID:
            (_, pi_p), (_, pi_m) = eigen_pairs(TwoStateModel(lam, r))
            assert abs(pi_p @ pi_m) < 1e-12

    def test_gamma_identity(self):
        for lam, r, _ in GRID:
            m = TwoStateModel(lam, r)
            assert m.gamma**2 == pytest.approx(4 * lam**2 + r**2, rel=1e-14)
            assert m.gamma > max(2 * lam, r)


class TestClosedForms:
    def test_identity_at_maturity(self):
        m = TwoStateModel(0.5, 0.1)
        assert np.allclose(closed_form_ad(m, 1.0, 1.0), np.eye(2), atol=1e-15)
        assert np.allclose(closed_form_bonds(m, 1.0, 1.0), 1.0, atol=1e-15)

    def test_reference_bond_values(self):
        B = closed_form_bonds(TwoStateModel(0.5, 0.1), 0.0, 1.0)
        assert B[0] == pytest.approx(0.9821813464961849, abs=1e-15)
        assert B[1] == pytest.approx(0.9220275299423587, abs=1e-15)

    def test_engine_agreement_over_grid(self):
        for lam, r, tau in GRID:
            m = TwoStateModel(lam, r)
            G, rm = m.generator(), m.rate_map()
            assert np.allclose(
                arrow_debreu(G, rm, 0.0, tau), closed_form_ad(m, 0.0, tau), rtol=1e-12, atol=1e-15
            )
            assert np.allclose(
                bond_prices(G, rm, 0.0, tau), closed_form_bonds(m, 0.0, tau), rtol=1e-12
            )


class TestLimitingYield:
    def test_reference_value(self):
        assert limiting_yield(TwoStateModel(0.5, 0.1)) == pytest.approx(
            0.04750621894395557, abs=1e-15
        )

    def test_equals_minus_perron_eigenvalue(self):
        for lam, r, _ in GRID:
            m = TwoStateModel(lam, r)
            (rho_p, _), _ = eigen_pairs(m)
            assert limiting_yield(m) == pytest.approx(-rho_p, rel=1e-14)

    def test_small_rate_limit(self):
        assert limiting_yield(TwoStateModel(0.5, 1e-13)) == pytest.approx(0.0, abs=1e-12)

    def test_fast_switching_limit(self):
        # gamma = 2 lam sqrt(1 + (r/2lam)^2) -> 2 lam + r^2/(4 lam), so the
        # limiting yield tends to r/2 as lam grows
        r = 0.1
        assert limiting_yield(TwoStateModel(1e6, r)) == pytest.approx(r / 2, abs=1e-7)

    def test_yields_converge_monotonically(self):
        m = TwoStateModel(0.5, 0.1)
        asym = limiting_yield(m)
        Ts = np.arange(1.0, 51.0)
        y0 = np.array([closed_form_yield(m, 0.0, T, 0) for T in Ts])
        y1 = np.array([closed_form_yield(m, 0.0, T, 1) for T in Ts])
        assert np.all(np.diff(y0) > 0) and np.all(y0 < asym)
        assert np.all(np.diff(y1) < 0) and np.all(y1 > asym)
        assert asym - y0[-1] < 1e-3
        # the state-1 gap at T = 50 is 1.0729e-3: it decays like kappa_1 / T,
        # kappa_1 = |log c_1|, c_1 = (gamma + 2 lam - r) / (2 gamma)
        kappa_1 = abs(np.log((m.gamma + 2 * m.lam - m.rate) / (2 * m.gamma)))
        assert abs(Ts[-1] * (y1[-1] - asym) - kappa_1) <= 1e-9


def product_form_bonds(m, tau):
    """The bond formula pref * (a + b e^{gamma tau}), which overflows past gamma tau ~ 709."""
    lam, r, gam = m.lam, m.rate, m.gamma
    e = np.exp(gam * tau)
    pref = np.exp(-0.5 * tau * (gam + 2.0 * lam + r)) / (2.0 * gam)
    return pref * np.array(
        [
            (gam - 2.0 * lam - r) + e * (gam + 2.0 * lam + r),
            (gam - 2.0 * lam + r) + e * (gam + 2.0 * lam - r),
        ]
    )


class TestLogForm:
    def test_matches_product_form_up_to_T50(self):
        # against a 50-digit evaluation the product form itself is off by up
        # to 4.6e-14 relative (lam = 2, r = 0.01, T = 49.8) and the log form
        # by 4e-15, so bonds agree to 1e-13 and yields to 1e-14
        Ts = np.arange(1, 501) * 0.1
        for lam, r, _ in GRID:
            m = TwoStateModel(lam, r)
            for T in Ts:
                old = product_form_bonds(m, T)
                assert np.all(np.abs(closed_form_bonds(m, 0.0, T) / old - 1.0) <= 1e-13)
                for i in (0, 1):
                    assert abs(closed_form_yield(m, 0.0, T, i) + np.log(old[i]) / T) <= 1e-14

    def test_finite_at_T_1e4(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam, r, _ in GRID:
                m = TwoStateModel(lam, r)
                gam = m.gamma
                c = np.array([gam + 2 * lam + r, gam + 2 * lam - r]) / (2 * gam)
                logB = closed_form_log_bonds(m, 0.0, 1e4)
                assert np.all(np.isfinite(logB))
                assert np.allclose(logB, -limiting_yield(m) * 1e4 + np.log(c), rtol=1e-14, atol=0)
                for i in (0, 1):
                    y = closed_form_yield(m, 0.0, 1e4, i)
                    assert abs(y - (limiting_yield(m) - np.log(c[i]) / 1e4)) <= 1e-12


    @pytest.mark.parametrize("lam, r", [(1.0, 1e5), (1.0, 1e6), (1e-9, 1e3), (10.0, 1e-6), (0.5, 0.1)])
    def test_no_cancellation_at_any_rate_ratio(self, lam, r):
        # r + 2 lam - gamma and gamma - 2 lam - r, formed as differences, were
        # 3.4e-12 off at (1, 1e5) and 1.1e-5 off at (1e-9, 1e3). (Far below
        # 1/gamma, rho tau and the log term still cancel: 3e-13 at tau = 1e-3.)
        m = TwoStateModel(lam, r)
        Ts = [0.5, 1.0, 20.0, 100.0, 1e3, 1e4]
        for T in Ts:
            want = mp_two_state_log_bonds(lam, r, T)
            assert np.all(np.abs(closed_form_log_bonds(m, 0.0, T) - want) <= 4e-16 * np.abs(want))
        assert abs(limiting_yield(m) + float(mpmath.mpf(-2) * lam * r / (r + 2 * lam + mpmath.sqrt(
            mpmath.mpf(4) * lam**2 + mpmath.mpf(r)**2)))) <= 2e-16 * limiting_yield(m)


class TestClosedFormHedge:
    def test_matches_engine_over_grid(self):
        for lam, r, tau in GRID:
            m = TwoStateModel(lam, r)
            G, rm = m.generator(), m.rate_map()
            t, T, T1 = 0.0, tau, tau * 1.5
            from ctmc_rates import BondBasis, ClaimPayoff, HedgePlan

            for k in (0, 1):
                plan = HedgePlan(G, rm, BondBasis((T1,)), ClaimPayoff(np.eye(2)[k], T))
                D = plan.positions(t, 0)
                assert D[0] == pytest.approx(closed_form_hedge(m, t, T, T1, k), rel=1e-12)

    def test_at_maturity_k0_formula(self):
        m = TwoStateModel(0.5, 0.1)
        B = closed_form_bonds(m, 1.0, 1.5)
        assert closed_form_hedge(m, 1.0, 1.0, 1.5, 0) == pytest.approx(
            -1.0 / (B[1] - B[0]), rel=1e-13
        )

    def test_degenerate_rate_guarded(self):
        m = TwoStateModel(0.5, 1e-16)
        with pytest.raises(UnhedgeableBasisError):
            closed_form_hedge(m, 0.0, 1.0, 1.5, 0)


class TestRecoveredGenerator:
    def test_reference_values(self):
        Gp = closed_form_recovered_generator(TwoStateModel(0.5, 0.1))
        assert Gp[0, 1] == pytest.approx(0.4524937810560445, abs=1e-15)
        assert Gp[1, 0] == pytest.approx(0.5524937810560445, abs=1e-15)

    def test_small_rate_recovers_original(self):
        lam = 0.7
        Gp = closed_form_recovered_generator(TwoStateModel(lam, 1e-13))
        assert Gp[0, 1] == pytest.approx(lam, abs=1e-12)
        assert Gp[1, 0] == pytest.approx(lam, abs=1e-12)

    def test_off_diagonal_product_is_lam_squared(self):
        for lam, r, _ in GRID:
            Gp = closed_form_recovered_generator(TwoStateModel(lam, r))
            assert Gp[0, 1] * Gp[1, 0] == pytest.approx(lam**2, rel=1e-13)

    def test_matches_engine_over_grid(self):
        for lam, r, _ in GRID:
            m = TwoStateModel(lam, r)
            G, rm = m.generator(), m.rate_map()
            rec = recover_generator(G, perron_pair(G, rm)[1])
            assert np.allclose(
                rec.entries, closed_form_recovered_generator(m), rtol=1e-12
            )


class TestYieldCurveRows:
    def test_rows_match_engine(self, capsys):
        # the demo's rows, computed from the closed form over the whole grid at once
        m = TwoStateModel(0.5, 0.1)
        G, rm = m.generator(), m.rate_map()
        assert main(["demo", "--lam", "0.5", "--rate", "0.1", "--T-grid", "0.5:5:0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "T,yield_state0,yield_state1,asymptote"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 10
        for T, y0, y1, asym in rows:
            assert y0 == pytest.approx(yield_curve(G, rm, 0.0, [T])[0, 0], rel=1e-12)
            assert y1 == pytest.approx(yield_curve(G, rm, 0.0, [T])[0, 1], rel=1e-12)
            assert (y0, y1) == (closed_form_yield(m, 0.0, T, 0), closed_form_yield(m, 0.0, T, 1))
            assert asym == pytest.approx(limiting_yield(m), rel=1e-15)
        Y = closed_form_log_bonds(m, 0.0, np.array([0.5, 1.0]))
        assert Y.shape == (2, 2) and np.array_equal(Y[1], closed_form_log_bonds(m, 0.0, 1.0))
