import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from ctmc_rates import replication
from ctmc_rates.model import SUPPORT_EPS
from ctmc_rates.replication import _hedge

from conftest import models, random_model
from oracles import closed_form_hedge, hedge_svd_gate, state_at, wealth_loop


def birth_death_model(n=4, up=0.8, down=0.6, rate_step=0.03):
    Q = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            Q[i, i + 1] = up
        if i - 1 >= 0:
            Q[i, i - 1] = down
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return GeneratorMatrix(Q), RateMap(rate_step * np.arange(n))


@st.composite
def birth_death_models(draw, n_max=6):
    """Birth-death chains on 3..n_max states with random intensities and rates."""
    n = draw(st.integers(3, n_max))
    up, down = (
        draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1)) for _ in range(2)
    )
    Q = np.diag(up, 1) + np.diag(down, -1)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return GeneratorMatrix(Q), RateMap(np.array(rates))


def arrow_debreu_plan(G, r, T, basis, k):
    """Hedge plan for the Arrow-Debreu claim paying 1 in state k at T."""
    return HedgePlan(G, r, basis, ClaimPayoff(np.eye(G.n)[k], T))


def bond_jumps(G, r, t, basis, current):
    """E[j, k] = B(t, j; T_k) - B(t, current; T_k) over every state j."""
    B = np.reshape([bond_prices(G, r, t, Tm) for Tm in basis.maturities], (-1, G.n)).T
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
        plan = HedgePlan(G, RateMap(np.zeros(2)), BondBasis((1.5,)),
                         ClaimPayoff(np.ones(2), 1.0))
        assert plan.positions(0.3, 0)[0] == 0.0

    def test_identity_system(self):
        # claim and bond values at one t with current state 0: E = I, dU = dA
        dA = np.array([0.3, -0.2])
        P = np.zeros((1, 3, 3))
        P[0, 1:, 0] = dA
        P[0, 1:, 1:] = np.eye(2)
        hedged = ~np.eye(3, dtype=bool)
        D = _hedge(P, np.zeros(1), np.zeros(1, dtype=int), np.zeros(1, dtype=int), hedged)[0]
        assert np.allclose(D, dA, atol=1e-15)


def conditioned_systems(rng, K, log_conds, log_scales):
    """Square K x K systems with entries in [-1, 1] and condition numbers 10**log_conds.

    Each is U diag(sv) V^T with Haar-random U, V and singular values spread
    geometrically from 1 to 10**-log_cond, then scaled to max|E| = 10**log_scale.
    """
    m = len(log_conds)
    U, V = (np.linalg.qr(rng.standard_normal((m, K, K)))[0] for _ in range(2))
    sv = 10.0 ** -(np.asarray(log_conds)[:, None] * np.linspace(0.0, 1.0, K))
    E = (U * sv[:, None, :]) @ V.transpose(0, 2, 1)
    return E * (10.0 ** np.asarray(log_scales) / np.abs(E).max(axis=(1, 2)))[:, None, None]


def hedge_both_ways(E, dU):
    """Outcome of _hedge and of the SVD-gated oracle on the stack E @ D = dU in state 0.

    The current state's row of P is zero, so the kernel's jump system is E
    itself; each outcome is the positions' bytes or the error text.
    """
    m, K = dU.shape
    P = np.zeros((m, K + 1, K + 1))
    P[:, 1:, 0], P[:, 1:, 1:] = dU, E
    args = (P, 0.01 * np.arange(m), np.arange(m), np.zeros(m, dtype=int), ~np.eye(K + 1, dtype=bool))
    outcomes = []
    for hedge in (_hedge, hedge_svd_gate):
        try:
            outcomes.append(hedge(*args).tobytes())
        except UnhedgeableBasisError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestConditionGate:
    """_hedge clears well-conditioned square systems by a bound; the SVD decides the rest."""

    @pytest.mark.parametrize("seed", range(20))
    def test_well_posed_stacks_solve_alike(self, seed):
        # condition numbers up to 1e11 at scales the gate accepts, on both
        # sides of the cheap bound, with exposures the bonds can match: the
        # same positions, bit for bit
        rng = np.random.default_rng(seed)
        K = 1 + seed % 5
        log_conds = rng.uniform(0.0, 11.0, 64)
        E = conditioned_systems(rng, K, log_conds, rng.uniform(log_conds - 11.0, 0.0))
        dU = (E @ rng.uniform(-1.0, 1.0, (64, K, 1)))[..., 0]
        kernel, oracle = hedge_both_ways(E, dU)
        assert isinstance(oracle, bytes) and kernel == oracle

    @pytest.mark.parametrize("seed", range(20))
    def test_any_system_is_decided_alike(self, seed):
        # condition numbers 1 to 1e17 at scales 1e-16 to 1, one system at a
        # time so every decision counts: the same positions or error text
        rng = np.random.default_rng(100 + seed)
        K = 1 + seed % 5
        E = conditioned_systems(rng, K, rng.uniform(0.0, 17.0, 16), rng.uniform(-16.0, 0.0, 16))
        dU = (E @ rng.uniform(-1.0, 1.0, (16, K, 1)))[..., 0]
        for i in range(16):
            kernel, oracle = hedge_both_ways(E[i:i + 1], dU[i:i + 1])
            assert kernel == oracle

    @pytest.mark.parametrize("seed", range(12))
    def test_residuals_near_the_tolerance_are_decided_alike(self, seed):
        # condition numbers 10**5.5 to 10**7.5, which the cheap bound clears,
        # and exposures the bonds match only up to rounding of about
        # eps * kappa, so the residual gate sits near its tolerance. Every
        # state of one system at a time, its rows shifted off zero: each
        # state's verdict must be its own solve's
        rng = np.random.default_rng(200 + seed)
        K = 2 + seed % 3
        E = conditioned_systems(rng, K, rng.uniform(5.5, 7.5, 8), np.zeros(8))
        P = np.zeros((8, K + 1, K + 1))
        P[:, 1:, 0], P[:, 1:, 1:] = rng.uniform(-1.0, 1.0, (8, K)), E
        P += rng.uniform(0.5, 1.0, (8, 1, K + 1))
        steps, states = np.divmod(np.arange(K + 1), K + 1)
        for i in range(8):
            outcomes = []
            for hedge in (_hedge, hedge_svd_gate):
                try:
                    outcomes.append(hedge(P[i:i + 1], np.zeros(1), steps, states,
                                          ~np.eye(K + 1, dtype=bool)).tobytes())
                except UnhedgeableBasisError as exc:
                    outcomes.append(str(exc))
            kernel, oracle = outcomes
            assert kernel == oracle or (type(kernel) is type(oracle) is bytes)

    @pytest.mark.parametrize("K", [1, 3])
    def test_all_zero_stack(self, K):
        # zero rates: every bond difference is 0 and inv finds the stack singular
        kernel, oracle = hedge_both_ways(np.zeros((4, K, K)), np.ones((4, K)))
        assert kernel == oracle
        assert "condition estimate inf, largest singular value 0.000e+00" in kernel

    @pytest.mark.parametrize("log_cond", [12.5, 15.0, 17.0])
    def test_failure_after_passing_systems(self, log_cond):
        # the first failing system comes after systems the bound passes; one
        # after it fails too, so the earliest is the one named
        rng = np.random.default_rng(7)
        log_conds = np.r_[np.zeros(5), log_cond, 1.0, 16.0]
        E = conditioned_systems(rng, 3, log_conds, np.zeros(8))
        kernel, oracle = hedge_both_ways(E, rng.uniform(-1.0, 1.0, (8, 3)))
        assert kernel == oracle
        assert "(t=0.05, state=0)" in kernel

    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_birth_death_schedule_needs_no_svd(self, monkeypatch):
        # the full-basis schedule of the CLI's 5-state birth-death fixture
        Q = np.diag([0.2, 0.2, 0.25, 0.2], 1) + np.diag([0.1, 0.15, 0.3, 0.1], -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        G, r = GeneratorMatrix(Q), RateMap(np.linspace(0.0, 1.0, 5))
        plan = HedgePlan(G, r, BondBasis((2.0, 3.0, 4.0, 5.0)), ClaimPayoff(np.eye(5)[0], 1.0))
        calls = self.svd_calls(monkeypatch)
        D, _ = plan.schedule(np.arange(5) * 0.25)
        assert calls == [] and np.isfinite(D).all()

    def test_zero_rates_still_go_to_the_svd(self, monkeypatch):
        G = GeneratorMatrix(np.array([[-0.5, 0.5], [0.5, -0.5]]))
        plan = HedgePlan(G, RateMap(np.zeros(2)), BondBasis((1.5,)),
                         ClaimPayoff(np.array([1.0, 0.0]), 1.0))
        calls = self.svd_calls(monkeypatch)
        with pytest.raises(UnhedgeableBasisError, match=r"unhedgeable basis at \(t=0.25, state=0\)"):
            plan.positions(0.25, 0)
        assert calls == [(1, 1, 1)]


def full_basis_case(seed):
    """A random model, full basis, payoff and 8 hedge times, with the claim and
    bond values P the kernel sees at those times."""
    rng = np.random.default_rng(seed)
    G, r = random_model(rng, n_max=6, intensity_cap=2.0, rate_cap=1.0)
    basis = BondBasis(tuple(1.5 + 0.5 * k for k in range(G.n - 1)))
    payoff = ClaimPayoff(rng.normal(size=G.n), 1.0)
    ts = np.sort(rng.uniform(0.0, 1.0, 8))
    return HedgePlan(G, r, basis, payoff), ts, replication._claim_and_bonds(
        G, r, 1.0, ts, payoff.values, basis)


class TestOneSystemPerTime:
    """With a full basis every state's row set is every state, so the hedge
    at time t is the one system [1 | B(t)] [a; D] = U(t)."""

    def test_rows_of_one_time_are_equal_and_match_each_state(self):
        # the two solves differ by the rounding of the bond and claim
        # differences feeding them, amplified by |E_s^-1|: the bound is
        # 4 eps |E_s^-1|_2 (max|B| sum|D| + max|U|) on positions and n times
        # that on the cash; over seeds 0..1999 the worst were 0.034 and 0.029
        # of them
        eps = np.finfo(float).eps
        checked = 0
        for seed in range(40):
            plan, ts, P = full_basis_case(seed)
            n = plan.G.n
            try:
                D, cash = plan.schedule(ts)
            except UnhedgeableBasisError:
                continue
            assert (D == D[:, :1]).all() and (cash == cash[:, :1]).all()
            for m in range(len(ts)):
                U, B = P[m, :, 0], P[m, :, 1:]
                for s in range(n):
                    others = np.arange(n) != s
                    E, dU = B[others] - B[s], U[others] - U[s]
                    ref = np.linalg.solve(E, dU)
                    bound = 4 * eps * np.linalg.norm(np.linalg.inv(E), 2) * (
                        np.abs(B).max() * np.abs(ref).sum() + np.abs(U).max())
                    assert np.abs(D[m, s] - ref).max() <= bound
                    assert abs(cash[m, s] - (U[s] - ref @ B[s])) <= n * bound
                checked += 1
        assert checked >= 200

    def test_every_cell_is_decided_as_its_own_hedge(self):
        # the gates judge each (t, state) by its own system, as the per-state
        # oracle does: the same error text, or both pass. On models 7, 193,
        # 315, 680, 694, 768, 779 and 784 the residual gate is decided by
        # rounding: judged by the shared solve's residual, they flip
        rejected = 0
        for seed in [*range(60), 193, 315, 680, 694, 768, 779, 784]:
            plan, ts, P = full_basis_case(seed)
            steps, states = np.divmod(np.arange(len(ts) * plan.G.n), plan.G.n)
            outcomes = []
            for hedge in (_hedge, hedge_svd_gate):
                try:
                    outcomes.append(hedge(P, ts, steps, states, plan.hedged))
                except UnhedgeableBasisError as exc:
                    outcomes.append(str(exc))
            kernel, oracle = outcomes
            assert type(kernel) is type(oracle)
            if isinstance(oracle, str):
                assert kernel == oracle
                rejected += 1
        assert rejected >= 10

    def test_well_conditioned_cells_need_no_solve_of_their_own(self, monkeypatch):
        # the CLI's 5-state birth-death fixture: every residual is cleared by
        # the bound, so the schedule solves one system per time
        Q = np.diag([0.2, 0.2, 0.25, 0.2], 1) + np.diag([0.1, 0.15, 0.3, 0.1], -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        G, r = GeneratorMatrix(Q), RateMap(np.linspace(0.0, 1.0, 5))
        plan = HedgePlan(G, r, BondBasis((2.0, 3.0, 4.0, 5.0)), ClaimPayoff(np.eye(5)[0], 1.0))
        calls = []
        monkeypatch.setattr(replication, "_state_solve", lambda *a: calls.append(a))
        D, _ = plan.schedule(np.arange(201) * 0.005)
        assert calls == [] and np.isfinite(D).all()

    def test_inverse_of_the_system_holds_each_states_inverse(self):
        # E_s^-1 = (A^-1)[1:, R minus s] for A = [1 | B]; the condition gate
        # builds (A^-1)[1:] from E_0^-1 (its columns R minus 0, minus its row
        # sums in column 0). Each differs from inv(E_s) by the rounding of
        # E_s's entries, eps max|B| |E_s^-1|_2^2; over seeds 0..1999 the worst
        # were 0.19 (built) and 0.70 (inv(A)) of it
        eps = np.finfo(float).eps
        for seed in range(40):
            plan, ts, P = full_basis_case(seed)
            n, B = plan.G.n, P[..., 1:]
            A = np.concatenate([np.ones((len(ts), n, 1)), B], axis=2)
            E0_inv = np.linalg.inv(B[:, 1:] - B[:, :1])
            built = np.concatenate([-E0_inv.sum(axis=2, keepdims=True), E0_inv], axis=2)
            for inv in (built, np.linalg.inv(A)[:, 1:]):
                for m in range(len(ts)):
                    for s in range(n):
                        others = np.arange(n) != s
                        E_inv = np.linalg.inv(B[m, others] - B[m, s])
                        bound = 4 * eps * np.abs(B[m]).max() * np.linalg.norm(E_inv, 2) ** 2
                        assert np.abs(inv[m][:, others] - E_inv).max() <= bound


class TestHedgeForPayoff:
    def test_linearity_over_arrow_debreu_claims(self, two_state_example):
        _, G, r = two_state_example
        basis = BondBasis((1.5,))
        phi = np.array([0.7, -0.4])
        plan = HedgePlan(G, r, basis, ClaimPayoff(phi, 1.0))
        per_k = [arrow_debreu_plan(G, r, 1.0, basis, k).positions(0.3, 0) for k in (0, 1)]
        expected = phi[0] * per_k[0] + phi[1] * per_k[1]
        assert np.allclose(plan.positions(0.3, 0), expected, atol=1e-12)

    def test_zero_payoff_zero_plan(self, two_state_example):
        _, G, r = two_state_example
        plan = HedgePlan(G, r, BondBasis((1.5,)), ClaimPayoff(np.zeros(2), 1.0))
        assert np.allclose(plan.positions(0.2, 1), 0.0, atol=1e-14)
        assert plan.money_market_residual(0.2, 1) == pytest.approx(0.0, abs=1e-14)

    def test_positions_scale_with_payoff(self, two_state_example):
        # the zero-exposure shortcut is relative to the claim's own size, so a
        # tiny payoff is hedged, not dropped
        _, G, r = two_state_example
        basis = BondBasis((1.5,))
        unit = HedgePlan(G, r, basis, ClaimPayoff(np.array([1.0, 0.0]), 1.0))
        D1, R1 = unit.positions(0.3, 0), unit.money_market_residual(0.3, 0)
        assert D1[0] == pytest.approx(7.657, abs=1e-3)
        assert R1 == pytest.approx(-6.725, abs=1e-3)
        for c in (1e-14, 1.0, 1e6):
            plan = HedgePlan(G, r, basis, ClaimPayoff(np.array([c, 0.0]), 1.0))
            assert plan.positions(0.3, 0) / c == pytest.approx(D1, rel=1e-12)
            assert plan.money_market_residual(0.3, 0) / c == pytest.approx(R1, rel=1e-12)

    def test_basis_near_claim_maturity_approaches_one_bond(self, two_state_example):
        # hedging the T-bond with a bond maturing just after T: position -> 1
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.ones(2), 1.0)
        for eps, tol in ((1e-2, 2e-2), (1e-3, 2e-3)):
            plan = HedgePlan(G, r, BondBasis((1.0 + eps,)), payoff)
            assert plan.positions(0.5, 0)[0] == pytest.approx(1.0, abs=tol)

    def test_residual_consistent_with_claim_value(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([1.0, 0.0]), 1.0)
        basis = BondBasis((1.5,))
        plan = HedgePlan(G, r, basis, payoff)
        t, i = 0.4, 1
        D = plan.positions(t, i)
        value = D[0] * bond_prices(G, r, t, 1.5)[i] + plan.money_market_residual(t, i)
        assert value == pytest.approx(price_claim(G, r, payoff, t)[i], abs=1e-10)

    def test_basis_maturing_before_claim_rejected(self, two_state_example):
        _, G, r = two_state_example
        with pytest.raises(ModelValidationError):
            HedgePlan(G, r, BondBasis((0.5,)), ClaimPayoff(np.ones(2), 1.0))
        # the maturity is the payoff's, and no basis exceeds a nan one
        with pytest.raises(ModelValidationError, match="exceed the claim maturity nan"):
            HedgePlan(G, r, BondBasis((1.5,)), ClaimPayoff(np.ones(2), np.nan))

    @pytest.mark.parametrize("m", [np.inf, np.nan])
    def test_non_finite_maturity_rejected(self, m):
        with pytest.raises(ModelValidationError, match="basis maturities must be finite"):
            BondBasis((2.0, m))

    def test_payoff_of_another_length_rejected(self, two_state_example):
        # the error price_claim raises, not numpy's from stacking the columns
        _, G, r = two_state_example
        with pytest.raises(ModelValidationError, match="^payoff length does not match state count$"):
            HedgePlan(G, r, BondBasis((1.5,)), ClaimPayoff(np.ones(3), 1.0))


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
            D = HedgePlan(G, r, basis, payoff).positions(0.3, i)
            E = bond_jumps(G, r, 0.3, basis, i)
            assert np.allclose(E @ D, target - target[i], atol=1e-8)


def assert_hedges_allowed_jumps(G, r, bonds, values, t=0.4):
    """Each state's positions match the claim on every jump g_sj > SUPPORT_EPS
    allows, or the basis is reported unhedgeable there."""
    basis = BondBasis(tuple(1.5 + 0.5 * k for k in range(bonds)))
    payoff = ClaimPayoff(values, 1.0)
    plan = HedgePlan(G, r, basis, payoff)
    U = price_claim(G, r, payoff, t)
    for s in range(G.n):
        try:
            D = plan.positions(t, s)
        except UnhedgeableBasisError:
            continue
        allowed = np.flatnonzero(G.entries[s] > SUPPORT_EPS)
        E = bond_jumps(G, r, t, basis, s)[allowed]
        atol = 1e-9 * (1.0 + np.abs(D).sum())
        assert np.allclose(E @ D, U[allowed] - U[s], rtol=0, atol=atol)


class TestAllowedJumps:
    @settings(max_examples=60, deadline=None)
    @given(models(), st.data())
    def test_full_basis_on_admissible_models(self, model, data):
        G, r = model
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=G.n, max_size=G.n))
        assert_hedges_allowed_jumps(G, r, G.n - 1, np.array(values))

    @settings(max_examples=60, deadline=None)
    @given(birth_death_models(), st.booleans(), st.data())
    def test_birth_death_with_two_or_all_bonds(self, model, full, data):
        G, r = model
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=G.n, max_size=G.n))
        assert_hedges_allowed_jumps(G, r, G.n - 1 if full else 2, np.array(values))


class TestSchedule:
    @pytest.mark.parametrize("bonds", [(1.6, 2.1, 2.7), (1.6, 2.1)], ids=["full", "support"])
    def test_schedule_matches_each_cell(self, bonds):
        # the whole-grid call and the one-cell calls go through the same kernel;
        # they differ only by the rounding of the claim and bond values, which
        # the 3-bond basis (sum |D| ~ 1e4) amplifies to ~1e-12 of sum |D|
        G, r = birth_death_model(n=4)
        basis = BondBasis(bonds)
        payoff = ClaimPayoff(np.random.default_rng(5).normal(size=4), 1.0)
        plan = HedgePlan(G, r, basis, payoff)
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
            G, r0, [path], BondBasis((1.5,)), ClaimPayoff(np.ones(2), 1.0), 0.01
        )[0]
        assert rep.terminal_error <= 1e-12
        assert rep.max_tracking_error <= 1e-12

    def test_no_jump_bond_claim_error_first_order(self, two_state_example):
        # discrete rebalancing leaves O(dt) error even without jumps; seed 42
        # holds state 0 past T=1
        _, G, r = two_state_example
        path = simulate_path(G, 0, 2.0, 42)
        assert path.n_jumps == 0
        payoff = ClaimPayoff(np.ones(2), 1.0)
        basis = BondBasis((1.5,))
        e3 = replicate_paths(G, r, [path], basis, payoff, 1e-3)[0].terminal_error
        e4 = replicate_paths(G, r, [path], basis, payoff, 1e-4)[0].terminal_error
        assert e3 < 2e-5
        assert e4 < 0.2 * e3

    def test_jumpy_path_error_halves_with_dt(self, two_state_example):
        _, G, r = two_state_example
        payoff = ClaimPayoff(np.array([1.0, 0.0]), 1.0)
        basis = BondBasis((1.5,))
        rng = np.random.default_rng(0)
        path = None
        while path is None or sum(t < 1.0 for t in path.jump_times) < 2:
            path = simulate_path(G, 0, 1.5, rng)
        e_coarse = replicate_paths(G, r, [path], basis, payoff, 1e-3)[0].terminal_error
        e_fine = replicate_paths(G, r, [path], basis, payoff, 5e-4)[0].terminal_error
        assert e_fine < 0.75 * e_coarse

    def test_tracking_error_vanishes_with_dt(self):
        rng = np.random.default_rng(12)
        G, r = random_model(rng, n_max=4)
        n = G.n
        basis = BondBasis(tuple(1.6 + 0.3 * i for i in range(n - 1)))
        payoff = ClaimPayoff(rng.normal(size=n), 1.0)
        path = simulate_path(G, 0, 1.8, 99)
        errs = [
            replicate_paths(G, r, [path], basis, payoff, dt)[0].max_tracking_error
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
        plan = HedgePlan(G, r, basis, payoff)
        ts = np.unique(np.concatenate([np.arange(11) * 0.1, [0.23, 0.61]]))

        def bonds(t, s):
            return np.array([bond_prices(G, r, t, Tm)[s] for Tm in basis.maturities])

        X = price_claim(G, r, payoff, 0.0)[0]
        track = 0.0
        for t0, t1 in zip(ts[:-1], ts[1:]):
            s0, s1 = state_at(path, t0), state_at(path, t1)
            D = plan.positions(t0, s0)
            X = D @ bonds(t1, s1) + (X - D @ bonds(t0, s0)) * np.exp(r.rates[s0] * (t1 - t0))
            track = max(track, abs(X - price_claim(G, r, payoff, t1)[s1]))
        rep = replicate_paths(G, r, [path], basis, payoff, 0.1)[0]
        assert rep.n_grid_points == len(ts) and rep.n_jumps == 2
        assert rep.terminal_error == pytest.approx(abs(X - payoff.values[1]), abs=1e-10)
        assert rep.max_tracking_error == pytest.approx(track, abs=1e-10)

    def test_singular_basis_raises_named_error(self):
        G = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        r0 = RateMap(np.zeros(2))
        path = simulate_path(G, 0, 2.0, 3)
        with pytest.raises(UnhedgeableBasisError) as exc:
            replicate_paths(
                G, r0, [path], BondBasis((1.5,)), ClaimPayoff(np.array([1.0, 0.0]), 1.0), 0.01
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
                G, r0, [path], BondBasis((1.5,)), ClaimPayoff(np.array([1.0, 0.0]), 1.0), 0.01
            )
        assert "(t=0.0, state=1)" in str(exc.value)

    def test_non_positive_or_non_finite_step_rejected(self, two_state_example):
        _, G, r = two_state_example
        path = simulate_path(G, 0, 2.0, 3)
        for dt in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="dt must be positive"):
                replicate_paths(
                    G, r, [path], BondBasis((1.5,)), ClaimPayoff(np.ones(2), 1.0), dt
                )


class TestReducedBasis:
    def test_reachable_states_birth_death(self):
        # a basis smaller than n - 1 bonds hedges the jumps the generator allows
        G, r = birth_death_model(n=4)
        plan = HedgePlan(G, r, BondBasis((1.6, 2.1)), ClaimPayoff(np.ones(4), 1.0))
        assert [np.flatnonzero(row).tolist() for row in plan.hedged] == [[1], [0, 2], [1, 3], [2]]
        full = HedgePlan(G, r, BondBasis((1.6, 2.1, 2.7)), ClaimPayoff(np.ones(4), 1.0))
        assert (full.hedged == ~np.eye(4, dtype=bool)).all()

    def test_two_bond_hedge_covers_birth_death_jumps(self):
        G, r = birth_death_model(n=4)
        basis = BondBasis((1.6, 2.1))
        rng = np.random.default_rng(21)
        payoff = ClaimPayoff(rng.normal(size=4), 1.0)
        target = price_claim(G, r, payoff, 0.5)
        for i in range(4):
            reach = [j for j in (i - 1, i + 1) if 0 <= j < 4]
            D = HedgePlan(G, r, basis, payoff).positions(0.5, i)
            E = bond_jumps(G, r, 0.5, basis, i)[reach]
            assert np.allclose(E @ D, target[reach] - target[i], atol=1e-9)

    @pytest.mark.parametrize("dense, bonds, exits", [
        (False, (1.6,), "state 1 has 2 exits"),
        (True, (1.6, 2.1), "state 0 has 3 exits"),
    ], ids=["birth-death", "dense"])
    def test_basis_smaller_than_the_exits_rejected(self, dense, bonds, exits):
        G, r = birth_death_model(n=4)
        if dense:
            G = GeneratorMatrix(np.full((4, 4), 0.5) - 2.0 * np.eye(4))
        with pytest.raises(ModelValidationError, match=(
            f"^full replication of an 4-state model needs 3 bonds, got {len(bonds)}; {exits}$"
        )):
            HedgePlan(G, r, BondBasis(bonds), ClaimPayoff(np.ones(4), 1.0))

    def test_replication_with_two_bonds_on_birth_death_paths(self):
        G, r = birth_death_model(n=4)
        basis = BondBasis((1.6, 2.1))
        payoff = ClaimPayoff(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        rng = np.random.default_rng(4)
        for _ in range(3):
            path = simulate_path(G, 1, 2.2, rng)
            rep = replicate_paths(G, r, [path], basis, payoff, 2.5e-4)[0]
            assert rep.terminal_error < 3e-3

    def test_jump_outside_declared_structure_rejected(self):
        # the generator declares the structure: a birth-death chain cannot
        # jump 0 -> 2, so a two-bond basis does not hedge that jump
        G, r = birth_death_model(n=4)
        payoff = ClaimPayoff(np.zeros(4), 1.0)
        path = ChainPath(0, (0.5,), (2,), 1.5, 4)
        with pytest.raises(ModelValidationError, match=(
            r"^path jumps 0->2 at t=0.5, which the generator does not allow "
            r"and the 2-bond basis does not hedge$"
        )):
            replicate_paths(G, r, [path], BondBasis((1.6, 2.1)), payoff, 0.01)
        # the full basis hedges every jump, allowed or not
        rep = replicate_paths(G, r, [path], BondBasis((1.6, 2.1, 2.7)), payoff, 0.01)[0]
        assert rep.n_jumps == 1


class TestReplicatePaths:
    @pytest.mark.parametrize("basis", [(1.6, 2.1, 2.6), (1.6, 2.1)], ids=["full", "support"])
    def test_matches_per_path_loop(self, basis):
        G, r = birth_death_model(n=4)
        payoff = ClaimPayoff(np.array([1.0, 0.0, -0.5, 2.0]), 1.0)
        rng = np.random.default_rng(9)
        paths = [simulate_path(G, 1, 2.7, rng) for _ in range(12)]
        args = (BondBasis(basis), payoff, 1e-3)
        batch = replicate_paths(G, r, paths, *args)
        loop = [replicate_paths(G, r, [path], *args)[0] for path in paths]
        assert sum(rep.n_jumps for rep in loop) >= 8
        for b, one in zip(batch, loop, strict=True):
            assert (b.n_jumps, b.n_grid_points) == (one.n_jumps, one.n_grid_points)
            assert b.terminal_error == pytest.approx(one.terminal_error, rel=0, abs=1e-9)
            assert b.max_tracking_error == pytest.approx(
                one.max_tracking_error, rel=0, abs=1e-9
            )

    def test_several_blocks_match_one_block(self, monkeypatch):
        # blocks of _BLOCK_CELLS keys each build their paths' grids again; the
        # reports are one block's, bit for bit
        G, r = birth_death_model(n=4)
        rng = np.random.default_rng(4)
        paths = [simulate_path(G, 1, 2.7, rng) for _ in range(7)]
        args = (BondBasis((1.6, 2.1, 2.6)), ClaimPayoff(np.array([1.0, 0.0, -0.5, 2.0]), 1.0), 0.01)
        whole = replicate_paths(G, r, paths, *args)
        monkeypatch.setattr(replication, "_BLOCK_CELLS", 250)
        assert replicate_paths(G, r, paths, *args) == whole
        assert sum(rep.n_jumps for rep in whole) >= 5

    # State 0 may jump to 1 or 2, which are alike: the same rate, and both
    # jump only to 3 at the same intensity. So their bonds are equal, the
    # two-bond system of state 0 is singular and state 0 is unhedgeable at
    # every t, while states 1, 2 and 3, with one exit each, are hedged.
    FORK = GeneratorMatrix(np.array([
        [-1.0, 0.5, 0.5, 0.0],
        [0.0, -0.8, 0.0, 0.8],
        [0.0, 0.0, -0.8, 0.8],
        [0.6, 0.0, 0.0, -0.6],
    ]))
    FORK_RATES = RateMap(np.array([0.1, 0.3, 0.3, 0.6]))
    FORK_ARGS = (BondBasis((1.5, 2.0)), ClaimPayoff(np.array([0.0, 0.0, 0.0, 1.0]), 1.0), 0.01)

    def first_loop_error(self, paths):
        with pytest.raises(UnhedgeableBasisError) as loop:
            for path in paths:
                replicate_paths(self.FORK, self.FORK_RATES, [path], *self.FORK_ARGS)
        with pytest.raises(UnhedgeableBasisError) as batch:
            replicate_paths(self.FORK, self.FORK_RATES, paths, *self.FORK_ARGS)
        assert str(batch.value) == str(loop.value)
        return str(batch.value)

    def test_unhedgeable_error_names_first_failing_path(self):
        # path 1 fails at t=0, earlier than path 0's first failure at t=0.5
        paths = [ChainPath(3, (0.5,), (0,), 2.0, 4), ChainPath(0, (), (), 2.0, 4)]
        assert "singular" in self.first_loop_error(paths)
        assert "(t=0.5, state=0)" in self.first_loop_error(paths)
        assert "(t=0.0, state=0)" in self.first_loop_error(paths[::-1])

    @pytest.mark.parametrize("broken, error, match", [
        (ChainPath(1, (0.25,), (2,), 2.0, 4), ModelValidationError, r"path jumps 1->2 at t=0\.25"),
        (ChainPath(1, (), (), 2.0, 3), ModelValidationError, "path has 3 states, the model 4"),
        (ChainPath(1, (), (), 0.5, 4), ValueError, "path horizon 0.5 shorter than maturity 1.0"),
    ], ids=["unhedged-jump", "n-states", "horizon"])
    def test_every_path_is_checked_before_the_hedge(self, broken, error, match):
        # an earlier path that is unhedgeable does not hide a later bad path
        unhedgeable = ChainPath(0, (), (), 2.0, 4)
        with pytest.raises(error, match=match):
            replicate_paths(self.FORK, self.FORK_RATES, [unhedgeable, broken], *self.FORK_ARGS)


def scan_and_loop(G, r, paths, basis, payoff, dt):
    """replicate_paths' reports with the wealth scan and with oracles.wealth_loop,
    and the largest |v0|, |v1| the scan was given."""
    scan_wealth, terms = replication._wealth, [1.0]

    def spy(X, v0, v1, rate_dt):
        terms.append(max(np.abs(v0).max(), np.abs(v1).max()))
        return scan_wealth(X, v0, v1, rate_dt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replication, "_wealth", spy)
        scan = replicate_paths(G, r, paths, basis, payoff, dt)
        mp.setattr(replication, "_wealth", wealth_loop)
        loop = replicate_paths(G, r, paths, basis, payoff, dt)
    return scan, loop, max(terms)


def assert_scan_matches_loop(scan, loop, bound):
    assert len(scan) == len(loop)
    for a, b in zip(scan, loop):
        assert abs(a.terminal_error - b.terminal_error) <= bound
        assert abs(a.max_tracking_error - b.max_tracking_error) <= bound
        assert (a.n_jumps, a.n_grid_points) == (b.n_jumps, b.n_grid_points)


class TestWealthScan:
    """The wealth recursion as a scan against the step-by-step loop."""

    def test_bench_shaped_birth_death(self):
        # the replicate benchmark's shape: a 5-state birth-death chain, four
        # bonds, 12 paths to T = 1 at dt = 1e-3 (8 windows of 128 steps)
        rng = np.random.default_rng(7)
        Q = np.diag(rng.uniform(0.5, 1.5, 4), 1) + np.diag(rng.uniform(0.5, 1.5, 4), -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        G, r = GeneratorMatrix(Q), RateMap(np.linspace(0.0, 0.1, 5))
        paths = [simulate_path(G, 0, 1.0, rng) for _ in range(12)]
        scan, loop, _ = scan_and_loop(G, r, paths, BondBasis((2.0, 3.0, 4.0, 5.0)),
                                      ClaimPayoff(np.eye(5)[0], 1.0), 1e-3)
        assert sum(rep.n_jumps for rep in scan) > 0
        assert_scan_matches_loop(scan, loop, 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(birth_death_models(n_max=4), st.floats(0.1, 2.0), st.floats(1e-3, 0.2), st.data())
    def test_drawn_paths(self, model, T, dt, data):
        # each form rounds v1 - g v0 and X - v0 to about eps times the size of
        # the terms; where the positions reach 1e3 (bonds nearly equal across
        # states) both are ~6e-13 from the exact recursion and 1e-12 apart
        G, r = model
        payoff = ClaimPayoff(np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=G.n, max_size=G.n))), T)
        basis = BondBasis(tuple(T + 0.5 * (k + 1) for k in range(G.n - 1)))
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
        paths = [simulate_path(G, data.draw(st.integers(0, G.n - 1)), T, seed) for seed in seeds]
        try:
            scan, loop, size = scan_and_loop(G, r, paths, basis, payoff, dt)
        except UnhedgeableBasisError:
            assume(False)
        assert_scan_matches_loop(scan, loop, 1e-12 * size)
