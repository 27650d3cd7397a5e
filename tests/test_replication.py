import numpy as np
import pytest

from ctmc_rates import (
    BondBasis,
    ChainPath,
    ClaimPayoff,
    GeneratorMatrix,
    HedgePlan,
    ModelValidationError,
    RateMap,
    UnhedgeableBasisError,
    arrow_debreu,
    bond_prices,
    price_claim,
    replicate_paths,
    simulate_path,
)
from ctmc_rates.replication import _hedge, reachable_states

from conftest import random_model
from oracles import closed_form_hedge


def birth_death_model(n=4, up=0.8, down=0.6, rate_step=0.03):
    Q = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            Q[i, i + 1] = up
        if i - 1 >= 0:
            Q[i, i - 1] = down
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return GeneratorMatrix(Q), RateMap(rate_step * np.arange(n))


def arrow_debreu_plan(G, r, T, basis, k):
    """Hedge plan for the Arrow-Debreu claim paying 1 in state k at T."""
    return HedgePlan(G, r, T, basis, ClaimPayoff(np.eye(G.n)[k], T))


def bond_jumps(G, r, t, basis, current):
    """E[j, k] = B(t, j; T_k) - B(t, current; T_k) over every state j."""
    B = np.array([bond_prices(G, r, t, Tm) for Tm in basis.maturities]).T
    return B - B[current]


class TestHedgeSystem:
    """The exposure-matching system D @ (B(t, j) - B(t, i)) = A(t, j) - A(t, i)."""

    def test_two_state_scalar_system(self, two_state_example):
        _, G, r = two_state_example
        D = arrow_debreu_plan(G, r, 1.0, BondBasis((1.5,)), k=0).positions(0.2, 0)
        B = bond_prices(G, r, 0.2, 1.5)
        A = arrow_debreu(G, r, 0.2, 1.0)
        assert D.shape == (1,)
        assert D[0] * (B[1] - B[0]) == pytest.approx(A[1, 0] - A[0, 0], rel=1e-14)

    def test_at_maturity_rhs_is_indicator_difference(self, two_state_example):
        _, G, r = two_state_example
        plan = arrow_debreu_plan(G, r, 1.0, BondBasis((1.5,)), k=0)
        E = bond_jumps(G, r, 1.0, BondBasis((1.5,)), 0)
        assert plan.positions(1.0, 0) @ E[1] == pytest.approx(0.0 - 1.0, abs=1e-12)
        assert plan.positions(1.0, 1) @ -E[1] == pytest.approx(1.0 - 0.0, abs=1e-12)

    def test_zero_rates_make_system_singular(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        r0 = RateMap(np.zeros(2))
        E = bond_jumps(G, r0, 0.0, BondBasis((1.5,)), 0)
        assert np.allclose(E, 0.0, atol=1e-14)
        with pytest.raises(UnhedgeableBasisError):
            arrow_debreu_plan(G, r0, 1.0, BondBasis((1.5,)), k=0).positions(0.0, 0)

    def test_column_ordering_ascending_excluding_current(self):
        # one equation per other state: the positions match the jump to each
        rng = np.random.default_rng(1)
        G, r = random_model(rng, n_max=4)
        n = G.n
        basis = BondBasis(tuple(2.0 + 0.3 * i for i in range(n - 1)))
        current = 1
        D = arrow_debreu_plan(G, r, 1.0, basis, k=0).positions(0.1, current)
        E = bond_jumps(G, r, 0.1, basis, current)
        A = arrow_debreu(G, r, 0.1, 1.0)[:, 0]
        for j in range(n):
            if j != current:
                assert D @ E[j] == pytest.approx(A[j] - A[current], rel=1e-10, abs=1e-12)


class TestSolveHedge:
    def test_two_state_matches_closed_form_either_state(self, two_state_example):
        m, G, r = two_state_example
        expected = closed_form_hedge(m, 0.2, 1.0, 1.5, k=0)
        plan = arrow_debreu_plan(G, r, 1.0, BondBasis((1.5,)), k=0)
        for current in (0, 1):
            D = plan.positions(0.2, current)
            assert D[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_rhs_gives_zero_position(self):
        # a claim that does not move across jumps needs no bonds, even where
        # the bond-difference matrix is singular (zero rates)
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        plan = HedgePlan(G, RateMap(np.zeros(2)), 1.0, BondBasis((1.5,)),
                         ClaimPayoff(np.ones(2), 1.0))
        assert plan.positions(0.3, 0)[0] == 0.0

    def test_identity_system(self):
        # claim and bond values at one t with current state 0: E = I, dU = dA
        dA = np.array([0.3, -0.2])
        P = np.zeros((1, 3, 3))
        P[0, 1:, 0] = dA
        P[0, 1:, 1:] = np.eye(2)
        D = _hedge(P, np.zeros(1), np.zeros(1, dtype=int), np.zeros(1, dtype=int), None)[0]
        assert np.allclose(D, dA, atol=1e-15)


class TestHedgeForPayoff:
    def test_linearity_over_arrow_debreu_claims(self, two_state_example):
        _, G, r = two_state_example
        basis = BondBasis((1.5,))
        phi = np.array([0.7, -0.4])
        plan = HedgePlan(G, r, 1.0, basis, ClaimPayoff(phi, 1.0))
        per_k = [arrow_debreu_plan(G, r, 1.0, basis, k).positions(0.3, 0) for k in (0, 1)]
        expected = phi[0] * per_k[0] + phi[1] * per_k[1]
        assert np.allclose(plan.positions(0.3, 0), expected, atol=1e-12)

    def test_zero_payoff_zero_plan(self, two_state_example):
        _, G, r = two_state_example
        plan = HedgePlan(G, r, 1.0, BondBasis((1.5,)), ClaimPayoff(np.zeros(2), 1.0))
        assert np.allclose(plan.positions(0.2, 1), 0.0, atol=1e-14)
        assert plan.money_market_residual(0.2, 1) == pytest.approx(0.0, abs=1e-14)

    def test_positions_scale_with_payoff(self, two_state_example):
        # the zero-exposure shortcut is relative to the claim's own size, so a
        # tiny payoff is hedged, not dropped
        _, G, r = two_state_example
        basis = BondBasis((1.5,))
        unit = HedgePlan(G, r, 1.0, basis, ClaimPayoff(np.array([1.0, 0.0]), 1.0))
        D1, R1 = unit.positions(0.3, 0), unit.money_market_residual(0.3, 0)
        assert D1[0] == pytest.approx(7.657, abs=1e-3)
        assert R1 == pytest.approx(-6.725, abs=1e-3)
        for c in (1e-14, 1.0, 1e6):
            plan = HedgePlan(G, r, 1.0, basis, ClaimPayoff(np.array([c, 0.0]), 1.0))
            assert plan.positions(0.3, 0) / c == pytest.approx(D1, rel=1e-12)
            assert plan.money_market_residual(0.3, 0) / c == pytest.approx(R1, rel=1e-12)

    def test_basis_near_claim_maturity_approaches_one_bond(self, two_state_example):
        # hedging the T-bond with a bond maturing just after T: position -> 1
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.ones(2), 1.0)
        for eps, tol in ((1e-2, 2e-2), (1e-3, 2e-3)):
            plan = HedgePlan(G, r, 1.0, BondBasis((1.0 + eps,)), payoff)
            assert plan.positions(0.5, 0)[0] == pytest.approx(1.0, abs=tol)

    def test_residual_consistent_with_claim_value(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([1.0, 0.0]), 1.0)
        basis = BondBasis((1.5,))
        plan = HedgePlan(G, r, 1.0, basis, payoff)
        t, i = 0.4, 1
        D = plan.positions(t, i)
        value = D[0] * bond_prices(G, r, t, 1.5)[i] + plan.money_market_residual(t, i)
        assert value == pytest.approx(price_claim(G, r, payoff, t)[i], abs=1e-10)

    def test_basis_maturing_before_claim_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ModelValidationError):
            HedgePlan(G, r, 1.0, BondBasis((0.5,)), ClaimPayoff(np.ones(2), 1.0))

    @pytest.mark.parametrize("m", [np.inf, np.nan])
    def test_non_finite_maturity_rejected(self, m):
        with pytest.raises(ModelValidationError, match="basis maturities must be finite"):
            BondBasis((2.0, m))


class TestJumpCoverage:
    def test_hedged_jump_matches_claim_jump(self):
        # the solved positions reproduce u(t,j) - u(t,i) across any jump i -> j
        rng = np.random.default_rng(8)
        for _ in range(5):
            G, r = random_model(rng, n_max=4)
            n = G.n
            basis = BondBasis(tuple(2.0 + 0.4 * i for i in range(n - 1)))
            payoff = ClaimPayoff(rng.normal(size=n), 1.0)
            target = price_claim(G, r, payoff, 0.3)
            i = int(rng.integers(n))
            D = HedgePlan(G, r, 1.0, basis, payoff).positions(0.3, i)
            E = bond_jumps(G, r, 0.3, basis, i)
            assert np.allclose(E @ D, target - target[i], atol=1e-8)


class TestSchedule:
    @pytest.mark.parametrize("jump_offsets", [None, (-1, 1)])
    def test_schedule_matches_each_cell(self, jump_offsets):
        # the whole-grid call and the one-cell calls go through the same kernel;
        # they differ only by the rounding of the claim and bond values, which
        # the 3-bond basis (sum |D| ~ 1e4) amplifies to ~1e-12 of sum |D|
        G, r = birth_death_model(n=4)
        basis = BondBasis((1.6, 2.1) if jump_offsets else (1.6, 2.1, 2.7))
        payoff = ClaimPayoff(np.random.default_rng(5).normal(size=4), 1.0)
        plan = HedgePlan(G, r, 1.0, basis, payoff, jump_offsets=jump_offsets)
        ts = np.linspace(0.0, 1.0, 6)
        D, residual = plan.schedule(ts)
        assert D.shape == (6, 4, len(basis.maturities))
        for m, t in enumerate(ts):
            for s in range(4):
                scale = 1.0 + np.abs(D[m, s]).sum()
                assert np.allclose(plan.positions(t, s), D[m, s], rtol=0, atol=1e-10 * scale)
                assert plan.money_market_residual(t, s) == pytest.approx(
                    residual[m, s], abs=1e-10 * scale
                )


class TestReplicateOnPath:
    def test_zero_rates_bond_claim_is_exact(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        r0 = RateMap(np.zeros(2))
        path = simulate_path(G, 0, 2.0, 3)
        rep = replicate_paths(
            G, r0, [path], 1.0, BondBasis((1.5,)), ClaimPayoff(np.ones(2), 1.0), 0.01
        )[0]
        assert rep.terminal_error <= 1e-12
        assert rep.max_tracking_error <= 1e-12

    def test_no_jump_bond_claim_error_first_order(self, two_state_example):
        # discrete rebalancing leaves O(dt) error even without jumps; seed 42
        # holds state 0 past T=1
        _, G, r = two_state_example
        path = simulate_path(G, 0, 2.0, 42, r=r)
        assert path.n_jumps == 0
        payoff = ClaimPayoff(np.ones(2), 1.0)
        basis = BondBasis((1.5,))
        e3 = replicate_paths(G, r, [path], 1.0, basis, payoff, 1e-3)[0].terminal_error
        e4 = replicate_paths(G, r, [path], 1.0, basis, payoff, 1e-4)[0].terminal_error
        assert e3 < 2e-5
        assert e4 < 0.2 * e3

    def test_jumpy_path_error_halves_with_dt(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([1.0, 0.0]), 1.0)
        basis = BondBasis((1.5,))
        rng = np.random.default_rng(0)
        path = None
        while path is None or sum(t < 1.0 for t in path.jump_times) < 2:
            path = simulate_path(G, 0, 1.5, rng, r=r)
        e_coarse = replicate_paths(G, r, [path], 1.0, basis, payoff, 1e-3)[0].terminal_error
        e_fine = replicate_paths(G, r, [path], 1.0, basis, payoff, 5e-4)[0].terminal_error
        assert e_fine < 0.75 * e_coarse

    def test_tracking_error_vanishes_with_dt(self):
        rng = np.random.default_rng(12)
        G, r = random_model(rng, n_max=4)
        n = G.n
        basis = BondBasis(tuple(1.6 + 0.3 * i for i in range(n - 1)))
        payoff = ClaimPayoff(rng.normal(size=n), 1.0)
        path = simulate_path(G, 0, 1.8, 99, r=r)
        errs = [
            replicate_paths(G, r, [path], 1.0, basis, payoff, dt)[0].max_tracking_error
            for dt in (4e-3, 1e-3, 2.5e-4)
        ]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.4 * errs[1]

    def test_matches_stepwise_definition(self):
        # one rebalance at a time: hold the positions of the state in force at
        # t0 (the post-jump state at a jump time), mark the bonds at t1 and
        # grow the cash at the rate of that state
        rng = np.random.default_rng(6)
        G, r = random_model(rng, n_max=3)
        while G.n != 3:
            G, r = random_model(rng, n_max=3)
        basis = BondBasis((1.6, 2.1))
        payoff = ClaimPayoff(np.array([1.0, -0.5, 2.0]), 1.0)
        path = ChainPath(0, (0.23, 0.61), (2, 1), 2.2, 3)
        plan = HedgePlan(G, r, 1.0, basis, payoff)
        ts = np.unique(np.concatenate([np.arange(11) * 0.1, [0.23, 0.61]]))

        def bonds(t, s):
            return np.array([bond_prices(G, r, t, Tm)[s] for Tm in basis.maturities])

        X = price_claim(G, r, payoff, 0.0)[0]
        track = 0.0
        for t0, t1 in zip(ts[:-1], ts[1:]):
            s0, s1 = path.state_at(t0), path.state_at(t1)
            D = plan.positions(t0, s0)
            X = D @ bonds(t1, s1) + (X - D @ bonds(t0, s0)) * np.exp(r.rates[s0] * (t1 - t0))
            track = max(track, abs(X - price_claim(G, r, payoff, t1)[s1]))
        rep = replicate_paths(G, r, [path], 1.0, basis, payoff, 0.1)[0]
        assert rep.n_grid_points == len(ts) and rep.n_jumps == 2
        assert rep.terminal_error == pytest.approx(abs(X - payoff.values[1]), abs=1e-10)
        assert rep.max_tracking_error == pytest.approx(track, abs=1e-10)

    def test_singular_basis_raises_named_error(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        r0 = RateMap(np.zeros(2))
        path = simulate_path(G, 0, 2.0, 3)
        with pytest.raises(UnhedgeableBasisError) as exc:
            replicate_paths(
                G, r0, [path], 1.0, BondBasis((1.5,)), ClaimPayoff(np.array([1.0, 0.0]), 1.0), 0.01
            )
        assert "t=" in str(exc.value)
        assert "(t=0.0, state=0)" in str(exc.value)

    def test_singular_basis_error_names_earliest_step(self):
        # every step fails; the error names the first one, not the first of
        # the lowest state
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        r0 = RateMap(np.zeros(2))
        path = ChainPath(1, (0.5,), (0,), 2.0, 2)
        with pytest.raises(UnhedgeableBasisError) as exc:
            replicate_paths(
                G, r0, [path], 1.0, BondBasis((1.5,)), ClaimPayoff(np.array([1.0, 0.0]), 1.0), 0.01
            )
        assert "(t=0.0, state=1)" in str(exc.value)

    def test_non_positive_or_non_finite_step_rejected(self, two_state_example):
        _, G, r = two_state_example
        path = simulate_path(G, 0, 2.0, 3, r=r)
        for dt in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="dt must be positive"):
                replicate_paths(
                    G, r, [path], 1.0, BondBasis((1.5,)), ClaimPayoff(np.ones(2), 1.0), dt
                )


class TestReducedBasis:
    def test_reachable_states_birth_death(self):
        assert reachable_states(4, 0, (-1, 1)) == (1,)
        assert reachable_states(4, 2, (-1, 1)) == (1, 3)

    def test_two_bond_hedge_covers_birth_death_jumps(self):
        G, r = birth_death_model(n=4)
        basis = BondBasis((1.6, 2.1))
        rng = np.random.default_rng(21)
        payoff = ClaimPayoff(rng.normal(size=4), 1.0)
        target = price_claim(G, r, payoff, 0.5)
        for i in range(4):
            reach = reachable_states(4, i, (-1, 1))
            D = HedgePlan(G, r, 1.0, basis, payoff, jump_offsets=(-1, 1)).positions(0.5, i)
            E = bond_jumps(G, r, 0.5, basis, i)[list(reach)]
            assert np.allclose(E @ D, target[list(reach)] - target[i], atol=1e-9)

    def test_replication_with_two_bonds_on_birth_death_paths(self):
        G, r = birth_death_model(n=4)
        basis = BondBasis((1.6, 2.1))
        payoff = ClaimPayoff(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        rng = np.random.default_rng(4)
        for _ in range(3):
            path = simulate_path(G, 1, 2.2, rng, r=r)
            rep = replicate_paths(
                G, r, [path], 1.0, basis, payoff, 2.5e-4, jump_offsets=(-1, 1)
            )[0]
            assert rep.terminal_error < 3e-3

    def test_jump_outside_declared_structure_rejected(self):
        rng = np.random.default_rng(2)
        G, r = random_model(rng, n_max=3)
        while G.n != 3:
            G, r = random_model(rng, n_max=3)
        basis = BondBasis((1.6, 2.1))
        payoff = ClaimPayoff(np.zeros(3), 1.0)
        path = ChainPath(0, (0.5,), (2,), 1.5, 3)
        with pytest.raises(ModelValidationError) as exc:
            replicate_paths(G, r, [path], 1.0, basis, payoff, 0.01, jump_offsets=(-1, 1))
        assert "outside the declared jump structure" in str(exc.value)


class TestReplicatePaths:
    @pytest.mark.parametrize(
        "basis, jump_offsets", [((1.6, 2.1, 2.6), None), ((1.6, 2.1), (-1, 1))]
    )
    def test_matches_per_path_loop(self, basis, jump_offsets):
        G, r = birth_death_model(n=4)
        payoff = ClaimPayoff(np.array([1.0, 0.0, -0.5, 2.0]), 1.0)
        rng = np.random.default_rng(9)
        paths = [simulate_path(G, 1, 2.7, rng, r=r) for _ in range(12)]
        args = (1.0, BondBasis(basis), payoff, 1e-3, jump_offsets)
        batch = replicate_paths(G, r, paths, *args)
        loop = [replicate_paths(G, r, [path], *args)[0] for path in paths]
        assert sum(rep.n_jumps for rep in loop) >= 8
        for b, one in zip(batch, loop, strict=True):
            assert (b.n_jumps, b.n_grid_points) == (one.n_jumps, one.n_grid_points)
            assert b.terminal_error == pytest.approx(one.terminal_error, rel=0, abs=1e-9)
            assert b.max_tracking_error == pytest.approx(
                one.max_tracking_error, rel=0, abs=1e-9
            )

    # States 0 and 1 reach state 2 at the same rate, so the claim on state 2
    # is worth the same in both: with one bond under zero rates, state 0
    # (whose one declared exit is state 1) needs no bonds, while state 1 is
    # unhedgeable, and so is state 2 when it may jump to 1.
    LUMPED = GeneratorMatrix(np.array([[-1.5, 1.0, 0.5], [1.0, -1.5, 0.5], [0.7, 0.3, -1.0]]))

    def first_loop_error(self, paths):
        args = (1.0, BondBasis((1.5,)), ClaimPayoff(np.array([0.0, 0.0, 1.0]), 1.0), 0.01)
        with pytest.raises(UnhedgeableBasisError) as loop:
            for path in paths:
                replicate_paths(self.LUMPED, RateMap(np.zeros(3)), [path], *args, (-1, 1))
        with pytest.raises(UnhedgeableBasisError) as batch:
            replicate_paths(self.LUMPED, RateMap(np.zeros(3)), paths, *args, (-1, 1))
        assert str(batch.value) == str(loop.value)
        return str(batch.value)

    def test_unhedgeable_error_names_first_failing_path(self):
        # path 1 fails at t=0, earlier than path 0's first failure at t=0.5
        paths = [ChainPath(0, (0.5,), (1,), 2.0, 3), ChainPath(2, (), (), 2.0, 3)]
        assert "(t=0.5, state=1)" in self.first_loop_error(paths)
        assert "(t=0.0, state=2)" in self.first_loop_error(paths[::-1])

    @pytest.mark.parametrize("jump_offsets, broken, error", [
        # a jump the structure does not declare
        ((-1, 1), ChainPath(0, (0.25,), (2,), 2.0, 3), "0->2 at t=0.25, outside"),
        # a state the structure leaves without exits
        ((1,), ChainPath(2, (), (), 2.0, 3), "leaves state 2 with no exits"),
    ])
    def test_earlier_unhedgeable_path_wins_over_jump_structure(
        self, jump_offsets, broken, error
    ):
        unhedgeable = ChainPath(1, (), (), 2.0, 3)
        args = (1.0, BondBasis((1.5,)), ClaimPayoff(np.array([0.0, 0.0, 1.0]), 1.0), 0.01)
        with pytest.raises(UnhedgeableBasisError, match=r"\(t=0.0, state=1\)"):
            replicate_paths(
                self.LUMPED, RateMap(np.zeros(3)), [unhedgeable, broken], *args, jump_offsets
            )
        with pytest.raises(ModelValidationError, match=error):
            replicate_paths(
                self.LUMPED, RateMap(np.zeros(3)), [broken, unhedgeable], *args, jump_offsets
            )
