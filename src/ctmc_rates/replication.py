"""Self-financing replication of European claims with bonds and cash.

At each (time, state) the bond positions solve a linear system matching the
portfolio's jump exposure to the claim's jump exposure; the money market
account absorbs the rest. A discrete-rebalancing simulator verifies the hedge
pathwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, UnhedgeableBasisError
from .model import ChainPath, GeneratorMatrix, RateMap, propagate
from .policy import DEFAULT_POLICY, NumericPolicy
from .pricing import ClaimPayoff, arrow_debreu


@dataclass(frozen=True)
class BondBasis:
    """Maturities of the traded zero-coupon bonds (n-1 of them in full mode)."""

    maturities: tuple[float, ...]

    def __post_init__(self):
        ms = tuple(float(m) for m in self.maturities)
        if len(set(ms)) != len(ms):
            raise ModelValidationError(f"basis maturities must be distinct: {ms}")
        object.__setattr__(self, "maturities", ms)

    def check_against(self, T: float, n: int, reduced: bool = False) -> None:
        if any(m <= T for m in self.maturities):
            raise ModelValidationError(
                f"every basis maturity must exceed the claim maturity {T}: "
                f"{self.maturities}"
            )
        if not reduced and len(self.maturities) != n - 1:
            raise ModelValidationError(
                f"full replication of an {n}-state model needs {n - 1} bonds, "
                f"got {len(self.maturities)}"
            )


@dataclass(frozen=True)
class ReplicationReport:
    terminal_error: float
    max_tracking_error: float
    step: float
    n_jumps: int
    n_grid_points: int
    initial_state: int
    seed: int | None


def _other_states(n: int, current: int, reachable: tuple[int, ...] | None) -> list[int]:
    if reachable is None:
        return [j for j in range(n) if j != current]
    return list(reachable)


def reachable_states(n: int, current: int, jump_offsets: tuple[int, ...]) -> tuple[int, ...]:
    """States reachable from `current` under a declared jump structure."""
    out = sorted({current + o for o in jump_offsets if 0 <= current + o < n} - {current})
    if not out:
        raise ModelValidationError(
            f"declared jump structure leaves state {current} with no exits"
        )
    return tuple(out)


def hedge_system(
    G: GeneratorMatrix,
    r: RateMap,
    t: float,
    current: int,
    T: float,
    basis: BondBasis,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bond-difference matrix and Arrow-Debreu-difference vector at (t, current).

    Row i is bond maturity T_i; column j runs over the other states in
    ascending order. dB[i][j] = B(t, j; T_i) - B(t, current; T_i), and
    dA[j] = A(t, j; T, k) - A(t, current; T, k). The positions D match the
    portfolio's jump exposure to the claim's in every reachable state, i.e.
    they satisfy one equation per state: dB.T @ D = dA (see solve_hedge).
    """
    basis.check_against(T, G.n)
    A = arrow_debreu(G, r, t, T).entries
    target = A[:, k]
    E, dA_vec = _difference_system(G, r, t, current, basis, target, reachable=None)
    return E.T, dA_vec


def _difference_system(
    G: GeneratorMatrix,
    r: RateMap,
    t: float,
    current: int,
    basis: BondBasis,
    target_values: np.ndarray,
    reachable: tuple[int, ...] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exposure system at (t, current) for claim values already priced at t.

    Returns (E, dA) as _exposures does, with target_values in place of U.
    """
    P = _claim_and_bonds(G, r, t, np.array([t], dtype=float), target_values, basis)[0]
    return _exposures(P, current, _other_states(G.n, current, reachable))


def _claim_and_bonds(
    G: GeneratorMatrix,
    r: RateMap,
    T: float,
    ts: np.ndarray,
    claim: np.ndarray,
    basis: BondBasis,
) -> np.ndarray:
    """Claim and basis-bond values at every t in ts, shape (len(ts), n, 1 + K).

    Column 0 is e^{(T-t)M} phi and column 1 + k the T_k bond, written as
    e^{(T-t)M} e^{(T_k-T)M} 1, so one block propagation over the t-grid
    serves the claim and every bond.
    """
    scaled, log_scale = propagate(
        G, r, np.array(basis.maturities) - T, np.ones((G.n, 1))
    )
    bonds_at_T = (scaled[:, :, 0] * np.exp(log_scale)).T
    scaled, log_scale = propagate(G, r, T - ts, np.column_stack([claim, bonds_at_T]))
    return scaled * np.exp(log_scale)[:, None, :]


def _exposures(
    P: np.ndarray, current: int, others: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """One exposure-matching equation per other state, one unknown per bond.

    P is one (n, 1 + K) slice of _claim_and_bonds. Returns (E, dU) with
    E[row j][col k] = B(t, j; T_k) - B(t, current; T_k) and
    dU[j] = U(t, j) - U(t, current).
    """
    jumps = P[others] - P[current]
    return jumps[:, 1:], jumps[:, 0]


def _check_solvable(E: np.ndarray, policy: NumericPolicy, context: str) -> None:
    # condition number alone misses a uniformly tiny system (e.g. all bonds
    # constant under zero rates), so also reject when every singular value is
    # below the noise floor of O(1) bond prices
    s = np.linalg.svd(E, compute_uv=False)
    smax = s.max(initial=0.0)
    floor = max(smax, 1.0) / policy.condition_limit
    if smax == 0.0 or s.min() <= floor:
        cond = np.inf if s.min() == 0.0 else smax / s.min()
        raise UnhedgeableBasisError(
            f"unhedgeable basis{context}: bond-difference matrix is numerically "
            f"singular (condition estimate {cond:.3e}, largest singular value "
            f"{smax:.3e})"
        )


def solve_hedge(
    dB: np.ndarray,
    dA: np.ndarray,
    policy: NumericPolicy = DEFAULT_POLICY,
    context: str = "",
) -> np.ndarray:
    """Bond positions solving the exposure-matching system from hedge_system.

    dB is laid out (bond x state) as documented there, so the per-state
    equations read dB.T @ D = dA. Raises UnhedgeableBasisError when the
    system is numerically singular.
    """
    dB = np.atleast_2d(np.asarray(dB, dtype=float))
    dA = np.atleast_1d(np.asarray(dA, dtype=float))
    if dB.shape[0] != dB.shape[1] or dB.shape[0] != dA.shape[0]:
        raise ModelValidationError(f"hedge system is not square: {dB.shape}")
    return _solve_exposures(dB.T, dA, policy, context)


def _solve_exposures(
    E: np.ndarray,
    dA: np.ndarray,
    policy: NumericPolicy,
    context: str,
) -> np.ndarray:
    """Solve E @ D = dA; minimum-norm solve when E is not square."""
    if E.size == 0:
        return np.zeros(E.shape[1] if E.ndim == 2 else 0)
    if np.linalg.norm(dA) <= 1e-13:  # zero exposure needs no bonds
        return np.zeros(E.shape[1])
    if E.shape[0] == E.shape[1]:
        _check_solvable(E, policy, context)
        D = np.linalg.solve(E, dA)
    else:
        D, *_ = np.linalg.lstsq(E, dA, rcond=None)
    resid = np.linalg.norm(E @ D - dA)
    if resid > policy.hedge_residual_tol * (1.0 + np.linalg.norm(dA)):
        raise UnhedgeableBasisError(
            f"basis cannot match jump exposures{context}: residual {resid:.3e}"
        )
    return D


class HedgePlan:
    """Replicating positions for a claim as a function of time and state."""

    def __init__(
        self,
        G: GeneratorMatrix,
        r: RateMap,
        T: float,
        basis: BondBasis,
        payoff: ClaimPayoff,
        jump_offsets: tuple[int, ...] | None = None,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        basis.check_against(T, G.n, reduced=jump_offsets is not None)
        if payoff.maturity != T:
            raise ModelValidationError("payoff maturity must equal the claim maturity")
        self.G, self.r, self.T = G, r, T
        self.basis = basis
        self.payoff = payoff
        self.jump_offsets = jump_offsets
        self.policy = policy

    def _reachable(self, state: int) -> tuple[int, ...] | None:
        if self.jump_offsets is None:
            return None
        return reachable_states(self.G.n, state, self.jump_offsets)

    def _values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return _claim_and_bonds(self.G, self.r, self.T, ts, self.payoff.values, self.basis)

    def _solve(self, t: float, state: int, P: np.ndarray) -> np.ndarray:
        E, dU = _exposures(P, state, _other_states(self.G.n, state, self._reachable(state)))
        return _solve_exposures(E, dU, self.policy, f" at (t={t}, state={state})")

    def positions(self, t: float, state: int) -> np.ndarray:
        return self._solve(t, state, self._values([t])[0])

    def money_market_residual(self, t: float, state: int) -> float:
        P = self._values([t])[0]
        return float(P[state, 0] - self._solve(t, state, P) @ P[state, 1:])

    def schedule(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and money-market residuals at every (t, state) on a grid.

        Returns arrays of shape (len(ts), n, K) and (len(ts), n); the claim
        and bond values on the whole grid come from one block propagation.
        """
        ts = np.asarray(ts, dtype=float)
        P = self._values(ts)
        n, K = self.G.n, len(self.basis.maturities)
        D = np.empty((ts.size, n, K))
        residual = np.empty((ts.size, n))
        for m, t in enumerate(ts):
            for s in range(n):
                D[m, s] = self._solve(float(t), s, P[m])
                residual[m, s] = P[m, s, 0] - D[m, s] @ P[m, s, 1:]
        return D, residual


def hedge_for_payoff(
    G: GeneratorMatrix,
    r: RateMap,
    T: float,
    basis: BondBasis,
    payoff: ClaimPayoff,
    jump_offsets: tuple[int, ...] | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> HedgePlan:
    return HedgePlan(G, r, T, basis, payoff, jump_offsets, policy)


def replicate_on_path(
    G: GeneratorMatrix,
    r: RateMap,
    path: ChainPath,
    T: float,
    basis: BondBasis,
    payoff: ClaimPayoff,
    dt: float,
    jump_offsets: tuple[int, ...] | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ReplicationReport:
    """Run the discrete-rebalancing hedge along one realized path.

    Positions are held constant over each grid interval; the grid is the
    uniform dt mesh refined with the path's exact jump times. Bonds are marked
    to model at interval ends and the cash residual accrues at the state's
    short rate, which is the exact solution of the self-financing dynamics on
    a jump-free interval.
    """
    if dt <= 0:
        raise ValueError("rebalance step dt must be positive")
    if path.horizon < T:
        raise ValueError(f"path horizon {path.horizon} shorter than maturity {T}")
    basis.check_against(T, G.n, reduced=jump_offsets is not None)
    if payoff.maturity != T:
        raise ModelValidationError("payoff maturity must equal T")

    n_steps = int(np.ceil(T / dt))
    grid = np.minimum(np.arange(n_steps + 1) * dt, T)
    jumps_in = [tau for tau in path.jump_times if tau < T]
    ts = np.unique(np.concatenate([grid, np.array(jumps_in)])) if jumps_in else np.unique(grid)

    P = _claim_and_bonds(G, r, T, ts, payoff.values, basis)

    state = path.state_at(0.0)
    X = float(P[0, state, 0])
    max_track = 0.0
    n_jumps_used = 0
    for m in range(len(ts) - 1):
        t0, t1 = float(ts[m]), float(ts[m + 1])
        reach = (
            None if jump_offsets is None else reachable_states(G.n, state, jump_offsets)
        )
        E, dU = _exposures(P[m], state, _other_states(G.n, state, reach))
        D = _solve_exposures(E, dU, policy, f" at (t={t0}, state={state})")

        cash = X - D @ P[m, state, 1:]
        new_state = path.state_at(t1)
        if new_state != state:
            n_jumps_used += 1
            if reach is not None and new_state not in reach:
                raise ModelValidationError(
                    f"path jumps {state}->{new_state} at t={t1}, outside the "
                    f"declared jump structure"
                )
        X = float(D @ P[m + 1, new_state, 1:] + cash * np.exp(r.rates[state] * (t1 - t0)))
        max_track = max(max_track, abs(X - float(P[m + 1, new_state, 0])))
        state = new_state

    terminal_error = abs(X - float(payoff.values[path.state_at(T)]))
    return ReplicationReport(
        terminal_error=terminal_error,
        max_tracking_error=max_track,
        step=float(dt),
        n_jumps=n_jumps_used,
        n_grid_points=len(ts),
        initial_state=path.initial_state,
        seed=path.seed,
    )
