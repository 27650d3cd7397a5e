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
from .pricing import ClaimPayoff


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


def reachable_states(n: int, current: int, jump_offsets: tuple[int, ...]) -> tuple[int, ...]:
    """States reachable from `current` under a declared jump structure."""
    out = sorted({current + o for o in jump_offsets if 0 <= current + o < n} - {current})
    if not out:
        raise ModelValidationError(
            f"declared jump structure leaves state {current} with no exits"
        )
    return tuple(out)


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


def _hedge(
    P: np.ndarray,
    ts: np.ndarray,
    steps: np.ndarray,
    states: np.ndarray,
    jump_offsets: tuple[int, ...] | None,
    policy: NumericPolicy,
) -> np.ndarray:
    """Bond positions at every (ts[steps[i]], states[i]), shape (len(states), K).

    P comes from _claim_and_bonds. Each position vector D solves E @ D = dU,
    one equation per state j reachable from the current state s:
    E[j, k] = B(t, j; T_k) - B(t, s; T_k) and dU[j] = U(t, j) - U(t, s), so
    the portfolio's jump exposure matches the claim's. The systems of one
    current state share a shape and are handled as one stack: an SVD gate on
    square ones, one batched solve (minimum-norm when not square) and a
    residual gate. Raises UnhedgeableBasisError for the first failing pair.
    """
    n, K = P.shape[1], P.shape[2] - 1
    D = np.zeros((len(states), K))
    failures: list[tuple[int, str, str]] = []  # (pair, what failed, detail)
    for s in sorted(set(states.tolist())):
        pick = np.flatnonzero(states == s)
        if jump_offsets is None:
            others = [j for j in range(n) if j != s]
        else:
            others = list(reachable_states(n, s, jump_offsets))
        if K == 0:
            continue
        rows = steps[pick]
        jumps = P[rows[:, None], others]
        jumps -= P[rows, s][:, None]
        # a claim that does not move across any jump needs no bonds; "does not
        # move" is judged against the claim's own size, so scaling the payoff
        # scales the positions
        scale = np.abs(P[rows, :, 0]).max(axis=1)
        live = np.linalg.norm(jumps[..., 0], axis=1) > 1e-13 * scale
        pick, jumps = pick[live], jumps[live]
        E, dU = jumps[..., 1:], jumps[..., 0]
        if len(others) == K:
            # condition number alone misses a uniformly tiny system (e.g. all
            # bonds constant under zero rates), so also reject when every
            # singular value is below the noise floor of O(1) bond prices
            sv = np.linalg.svd(E, compute_uv=False)
            smax, smin = sv.max(axis=1), sv.min(axis=1)
            ok = (smax > 0.0) & (smin > np.maximum(smax, 1.0) / policy.condition_limit)
            if not ok.all():
                i = int(np.argmin(ok))
                cond = np.inf if smin[i] == 0.0 else smax[i] / smin[i]
                failures.append((int(pick[i]), "unhedgeable basis", (
                    f"bond-difference matrix is numerically singular (condition "
                    f"estimate {cond:.3e}, largest singular value {smax[i]:.3e})"
                )))
                # only the steps before this one can still fail earlier
                pick, E, dU = pick[:i], E[:i], dU[:i]
            D[pick] = np.linalg.solve(E, dU[..., None])[..., 0]
        else:  # least squares with lstsq's default cutoff
            rcond = np.finfo(float).eps * max(E.shape[1:])
            D[pick] = (np.linalg.pinv(E, rcond=rcond) @ dU[..., None])[..., 0]
        resid = np.linalg.norm((E @ D[pick][..., None])[..., 0] - dU, axis=1)
        bad = resid > policy.hedge_residual_tol * (1.0 + np.linalg.norm(dU, axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            failures.append(
                (int(pick[i]), "basis cannot match jump exposures", f"residual {resid[i]:.3e}")
            )
    if failures:
        i, what, detail = min(failures)
        raise UnhedgeableBasisError(
            f"{what} at (t={float(ts[steps[i]])}, state={int(states[i])}): {detail}"
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

    def _positions_at(self, ts, steps, states) -> tuple[np.ndarray, np.ndarray]:
        """Claim and bond values on ts and the positions at every
        (ts[steps[i]], states[i])."""
        ts = np.asarray(ts, dtype=float)
        P = _claim_and_bonds(self.G, self.r, self.T, ts, self.payoff.values, self.basis)
        return P, _hedge(P, ts, steps, states, self.jump_offsets, self.policy)

    def positions(self, t: float, state: int) -> np.ndarray:
        return self._positions_at([t], np.zeros(1, dtype=int), np.array([state]))[1][0]

    def money_market_residual(self, t: float, state: int) -> float:
        P, D = self._positions_at([t], np.zeros(1, dtype=int), np.array([state]))
        return float(P[0, state, 0] - D[0] @ P[0, state, 1:])

    def schedule(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and money-market residuals at every (t, state) on a grid.

        Returns arrays of shape (len(ts), n, K) and (len(ts), n); the claim
        and bond values on the whole grid come from one block propagation and
        the positions from one call of the hedge kernel.
        """
        m, n = len(ts), self.G.n
        steps, states = np.divmod(np.arange(m * n), n)
        P, D = self._positions_at(ts, steps, states)
        D = D.reshape(m, n, -1)
        return D, P[..., 0] - np.einsum("msk,msk->ms", D, P[..., 1:])


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
    if not 0 < dt < np.inf:
        raise ValueError("rebalance step dt must be positive and finite")
    if path.horizon < T:
        raise ValueError(f"path horizon {path.horizon} shorter than maturity {T}")
    plan = HedgePlan(G, r, T, basis, payoff, jump_offsets, policy)

    n_steps = int(np.ceil(T / dt))
    grid = np.minimum(np.arange(n_steps + 1) * dt, T)
    jumps_in = [tau for tau in path.jump_times if tau < T]
    ts = np.unique(np.concatenate([grid, np.array(jumps_in)])) if jumps_in else np.unique(grid)

    # state at each grid time (cadlag: a jump time carries the post-jump state)
    held = np.array((path.initial_state,) + path.post_jump_states)[
        np.searchsorted(np.asarray(path.jump_times, dtype=float), ts, side="right")
    ]
    moves = np.flatnonzero(held[1:] != held[:-1])
    if jump_offsets is not None:
        for m in moves.tolist():
            if held[m + 1] - held[m] not in jump_offsets:
                raise ModelValidationError(
                    f"path jumps {held[m]}->{held[m + 1]} at t={float(ts[m + 1])}, "
                    f"outside the declared jump structure"
                )
    steps = np.arange(len(ts) - 1)
    P, D = plan._positions_at(ts, steps, held[:-1])

    now, nxt = P[steps, held[:-1]], P[steps + 1, held[1:]]
    bonds_now = np.einsum("mk,mk->m", D, now[:, 1:])
    bonds_next = np.einsum("mk,mk->m", D, nxt[:, 1:])
    growth = np.exp(r.rates[held[:-1]] * np.diff(ts))
    X, wealth = float(P[0, held[0], 0]), []
    for v0, v1, g in zip(bonds_now.tolist(), bonds_next.tolist(), growth.tolist()):
        X = v1 + (X - v0) * g
        wealth.append(X)

    return ReplicationReport(
        terminal_error=abs(X - float(payoff.values[path.state_at(T)])),
        max_tracking_error=float(np.abs(np.array(wealth) - nxt[:, 0]).max(initial=0.0)),
        step=float(dt),
        n_jumps=len(moves),
        n_grid_points=len(ts),
        initial_state=path.initial_state,
        seed=path.seed,
    )
