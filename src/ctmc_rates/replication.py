"""Self-financing replication of European claims with bonds and cash.

At time t in state s, cash and the basis bonds replicate the claim across
every jump the basis hedges: to every other state with the full basis of
n - 1 bonds, and along the generator's support with a smaller one. The cash
and bond positions solve one linear system per time and row set (s and the
states it jumps to), not per state: with a full basis the row set is every
state, and cash plus n - 1 bonds span them all. A discrete-rebalancing
simulator verifies the hedge pathwise.
"""
from __future__ import annotations

import contextlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, UnhedgeableBasisError
from .model import SUPPORT_EPS, ChainPath, GeneratorMatrix, RateMap, propagate
from .pricing import ClaimPayoff

# hedge solve residual: <= HEDGE_RESIDUAL_TOL * (1 + |rhs|)
HEDGE_RESIDUAL_TOL = 1e-10
# a claim needs no bonds iff its jump exposure is <= EXPOSURE_CUTOFF * max|claim|
EXPOSURE_CUTOFF = 1e-13
# condition-number bound beyond which a bond basis is declared unhedgeable
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class BondBasis:
    """Maturities of the traded zero-coupon bonds (n - 1 of them for a full basis)."""

    maturities: tuple[float, ...]

    def __post_init__(self):
        ms = tuple(float(m) for m in self.maturities)
        if not np.all(np.isfinite(ms)):
            raise ModelValidationError(f"basis maturities must be finite: {ms}")
        if len(set(ms)) != len(ms):
            raise ModelValidationError(f"basis maturities must be distinct: {ms}")
        object.__setattr__(self, "maturities", ms)


@dataclass(frozen=True)
class ReplicationReport:
    terminal_error: float
    max_tracking_error: float
    n_jumps: int
    n_grid_points: int


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


def _row_sets(hedged: np.ndarray, K: int) -> np.ndarray:
    """The first state of each state's row set R_s: s and every j with hedged[s, j].

    States share a set only where it is square (|R_s| = K + 1 with K bonds):
    there the system fixes the cash and positions. A smaller set is solved in
    the least-squares sense, where each state's own differences decide, so
    each such state keeps a set of its own.
    """
    firsts: dict[bytes, int] = {}
    sets = hedged | np.eye(len(hedged), dtype=bool)
    exits = hedged.sum(axis=1).tolist()
    return np.array([firsts.setdefault(row.tobytes(), s) if exits[s] == K else s
                     for s, row in enumerate(sets)])


def _solve_each(E: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack, NaN for a system that is exactly singular."""
    try:
        return np.linalg.solve(E, rhs)
    except np.linalg.LinAlgError:  # one at a time, to find the singular ones
        X = np.full(rhs.shape, np.nan)
        for i in range(len(E)):
            with contextlib.suppress(np.linalg.LinAlgError):
                X[i] = np.linalg.solve(E[i], rhs[i])
        return X


def _state_solve(P, rows, s, others) -> tuple[np.ndarray, np.ndarray]:
    """Each cell (rows[i], s[i]) hedged on its own: E_s D = dU_s over the
    jumps to others[i], solved exactly when square and in the minimum-norm
    least-squares sense (lstsq's cutoff) otherwise, and each residual
    |E_s D - dU_s|."""
    jumps = P[rows[:, None], others]
    jumps -= P[rows, s][:, None]
    E, dU = jumps[..., 1:], jumps[..., 0]
    if E.shape[1] == E.shape[2]:
        D = np.linalg.solve(E, dU[..., None])[..., 0]
    else:
        rcond = np.finfo(float).eps * max(E.shape[1:])
        D = (np.linalg.pinv(E, rcond=rcond) @ dU[..., None])[..., 0]
    return D, np.linalg.norm((E @ D[..., None])[..., 0] - dU, axis=1)


def _hedge(
    P: np.ndarray,
    ts: np.ndarray,
    steps: np.ndarray,
    states: np.ndarray,
    hedged: np.ndarray,
) -> np.ndarray:
    """Bond positions at every (ts[steps[i]], states[i]), shape (len(states), K).

    P comes from _claim_and_bonds and hedged from HedgePlan. In state s the
    bonds hedge the jumps to the rest of the row set R = R_s (_row_sets):
    cash a and positions D replicate the claim U across them iff
    a + B(t, j) . D = U(t, j) for every j in R, the system
    [1 | B(t, R)] [a; D] = U(t, R). Taking row s from the others leaves
    E_s D = dU_s, with E_s[j, k] = B(t, j; T_k) - B(t, s; T_k) and
    dU_s[j] = U(t, j) - U(t, s) for j in R minus s. When R is square
    (K + 1 states) the system fixes (a, D) whatever s is, so the cells of
    one (t, R) share one solve and one solution, bit for bit. With a full
    basis (K = n - 1 bonds) R is every state, and cash plus the bonds span
    every state.

    The cells are grouped by R, and each group's distinct times are solved
    as one stack, E_g D = dU_g in g, R's first state, exactly as g's own
    hedge solves it. Every cell is judged as its own hedge would judge it:
    - a claim that does not move across the cell's jumps, |dU_s| against
      the claim's size, is not gated; a (t, R) with no cell to gate holds
      no bonds;
    - the condition gate on E_s: for A = [1 | B(t, R)], E_s^-1 is
      (A^-1)[1:, R minus s], which is E_g^-1 in the columns of R minus g and
      minus its row sums in column g. Since sigma_max <= K max|E_s| and
      1/sigma_min <= K max|E_s^-1|, a system whose bound sits 1e4 inside
      CONDITION_LIMIT is cleared: below a condition number of 1e8 the
      computed inverse is good to about kappa*eps, which the margin absorbs.
      The bound is compared as a quotient, so no product can overflow. An SVD
      of E_s decides every other cell, with the same message;
    - the residual gate on the residual of E_s's own solve. An LU solve with
      partial pivoting leaves a residual of about
      eps (max|E_s| sum|D| + max|dU_s|); the largest measured was 1.02 times
      that over 150,000 systems with K <= 6. A cleared cell whose 32 K times
      that, with the shared D, is within the tolerance passes; every other
      cell solves E_s itself, and that residual decides.
    So the gates accept and reject what a solve per (t, state) would, with
    the same messages. A non-square R is its state's own (_row_sets), solved
    in the minimum-norm least-squares sense.
    Raises UnhedgeableBasisError for the first failing cell.
    """
    K = P.shape[2] - 1
    eps = np.finfo(float).eps
    D = np.zeros((len(states), K))
    row_set = _row_sets(hedged, K)[states]
    failures: list[tuple[int, str, str]] = []  # (cell, what failed, detail)
    for g in sorted(set(row_set.tolist())):
        # R lists g first: the cash is eliminated with its row
        R = np.r_[g, np.flatnonzero(hedged[g])]
        if R.size == 1:  # no jump to hedge
            continue
        pick = np.flatnonzero(row_set == g)
        # the group's distinct times, and each cell's slot among them
        at = np.zeros(len(P), dtype=bool)
        at[steps[pick]] = True
        slot = (np.cumsum(at) - 1)[steps[pick]]
        at = np.flatnonzero(at)
        pos = np.argmax(R == states[pick][:, None], axis=1)  # each cell's row of R
        # each cell's jumps, to the rest of R in ascending order, and the
        # claim's move across them, as the cell's own hedge forms them
        others = np.array([np.sort(np.delete(R, i)) for i in range(R.size)])[pos]
        U = P[at, :, 0]
        dU = U[slot[:, None], others] - U[slot, states[pick], None]
        exposure = np.linalg.norm(dU, axis=1)
        # "does not move" is judged against the claim's own size, so scaling
        # the payoff scales the positions
        judged = exposure > EXPOSURE_CUTOFF * np.abs(U).max(axis=1)[slot]
        ok = np.ones(len(pick), dtype=bool)  # the condition gate's verdicts
        if R.size == K + 1:
            # the times with a cell to gate; at the others R holds no bonds
            moves = np.zeros(len(at), dtype=bool)
            moves[slot[judged]] = True
            sel = np.flatnonzero(moves)
            if not sel.size:
                continue
            row = (np.cumsum(moves) - 1)[slot]  # each cell's time among sel
            # E_g below a zero row for g, time last so that reductions over
            # the few states and bonds run along the times
            Eg = np.ascontiguousarray(P[at[sel][:, None], R, 1:].transpose(1, 2, 0))
            Eg -= Eg[0]
            E = Eg[1:].transpose(2, 0, 1)
            Dt = _solve_each(E, (U[sel][:, R[1:]] - U[sel, g, None])[..., None])[..., 0]
            # E_g^-1 as (column, row, time)
            X = _solve_each(E, np.broadcast_to(np.eye(K), E.shape)).transpose(2, 1, 0).copy()
            # max|E_s^-1| and max|E_s| for every s in R, shape (K + 1, times)
            col_max = np.empty((K + 1, len(sel)))
            col_max[1:] = np.abs(X).max(axis=1)
            col_max[0] = np.abs(X.sum(axis=0)).max(axis=0)
            inv_max = np.stack([np.delete(col_max, i, axis=0).max(axis=0) for i in range(K + 1)])
            hi, lo = Eg.max(axis=0), Eg.min(axis=0)
            E_max = np.stack([np.maximum(hi - e, e - lo).max(axis=0) for e in Eg])
            cleared = judged & (
                inv_max < 1e-4 * CONDITION_LIMIT / K**2 / np.maximum(E_max, 1.0 / K)
            )[pos, row]
            # the SVD decides the rest exactly. Condition number alone misses a
            # uniformly tiny system (e.g. all bonds constant under zero rates),
            # so also reject when every singular value is below the noise
            # floor of O(1) bond prices
            check = np.flatnonzero(judged & ~cleared)
            if check.size:
                # E_s as the hedge of s alone forms it, its rows in state order
                rows, s = at[slot[check]], states[pick[check]]
                E = P[rows[:, None], others[check], 1:] - P[rows, s, 1:][:, None]
                sv = np.linalg.svd(E, compute_uv=False)
                smax, smin = sv.max(axis=1), sv.min(axis=1)
                ok[check] = (smax > 0.0) & (smin > np.maximum(smax, 1.0) / CONDITION_LIMIT)
            bound = 32 * K * eps * (E_max[pos, row] * np.abs(Dt).sum(axis=1)[row]
                                    + np.abs(dU).max(axis=1))
            own = judged & ok & ~(cleared & (bound <= HEDGE_RESIDUAL_TOL * (1.0 + exposure)))
            on = moves[slot]
            D[pick[on]] = Dt[row[on]]
        else:
            own = judged
        # the cells whose residual only their own solve can tell
        resid = np.zeros(len(pick))
        bad = np.zeros(len(pick), dtype=bool)
        own = np.flatnonzero(own)
        if own.size:
            Ds, resid[own] = _state_solve(P, at[slot[own]], states[pick[own]], others[own])
            bad[own] = resid[own] > HEDGE_RESIDUAL_TOL * (1.0 + exposure[own])
            if R.size < K + 1:
                D[pick[own]] = Ds
        fail = judged & (~ok | bad)
        if fail.any():
            i = int(np.argmax(fail))
            if ok[i]:
                failures.append((int(pick[i]), "basis cannot match jump exposures",
                                 f"residual {resid[i]:.3e}"))
            else:
                c = np.searchsorted(check, i)  # i's row in the SVD
                cond = np.inf if smin[c] == 0.0 else smax[c] / smin[c]
                failures.append((int(pick[i]), "unhedgeable basis", (
                    f"bond-difference matrix is numerically singular (condition "
                    f"estimate {cond:.3e}, largest singular value {smax[c]:.3e})"
                )))
    if failures:
        i, what, detail = min(failures)
        raise UnhedgeableBasisError(
            f"{what} at (t={float(ts[steps[i]])}, state={int(states[i])}): {detail}"
        )
    return D


class HedgePlan:
    """Replicating positions for a claim as a function of time and state.

    hedged[s, j] marks the jumps s -> j the bonds hedge: every j != s with the
    full basis of n - 1 bonds, and with a smaller basis of K bonds the jumps
    the generator allows (g_sj > SUPPORT_EPS), of which no state may have
    more than K. row_set[s] is the first state of s's row set (_row_sets):
    the states of one row set share their positions and money-market
    residual at every t.
    """

    def __init__(self, G: GeneratorMatrix, r: RateMap, basis: BondBasis, payoff: ClaimPayoff):
        n, K, T = G.n, len(basis.maturities), payoff.maturity
        if not all(m > T for m in basis.maturities):  # also rejects T = nan
            raise ModelValidationError(
                f"every basis maturity must exceed the claim maturity {T}: "
                f"{basis.maturities}"
            )
        hedged = ~np.eye(n, dtype=bool)
        if K < n - 1:
            hedged &= G.entries > SUPPORT_EPS
        exits = hedged.sum(axis=1)
        if K > n - 1 or exits.max() > K:
            s = int(np.argmax(exits))
            raise ModelValidationError(
                f"full replication of an {n}-state model needs {n - 1} bonds, got {K}"
                + (f"; state {s} has {exits[s]} exits" if K < n - 1 else "")
            )
        if payoff.values.shape[0] != n:
            raise ModelValidationError("payoff length does not match state count")
        self.G, self.r, self.T = G, r, T
        self.basis = basis
        self.payoff = payoff
        self.hedged = hedged
        self.row_set = _row_sets(hedged, K)

    def _positions_at(self, ts, steps, states) -> tuple[np.ndarray, np.ndarray]:
        """Claim and bond values on ts and the positions at every
        (ts[steps[i]], states[i])."""
        ts = np.asarray(ts, dtype=float)
        P = _claim_and_bonds(self.G, self.r, self.T, ts, self.payoff.values, self.basis)
        return P, _hedge(P, ts, steps, states, self.hedged)

    def positions(self, t: float, state: int) -> np.ndarray:
        return self._positions_at([t], np.zeros(1, dtype=int), np.array([state]))[1][0]

    def money_market_residual(self, t: float, state: int) -> float:
        P, D = self._positions_at([t], np.zeros(1, dtype=int), np.array([state]))
        g = self.row_set[state]
        return float(P[0, g, 0] - D[0] @ P[0, g, 1:])

    def schedule(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and money-market residuals at every (t, state) on a grid.

        Returns arrays of shape (len(ts), n, K) and (len(ts), n); the claim
        and bond values on the whole grid come from one block propagation and
        the positions from one call of the hedge kernel. The residual
        U - D . B is taken once per (t, row set), in the set's first state,
        so the rows of one (t, row set) are equal bit for bit.
        """
        m, n = len(ts), self.G.n
        steps, states = np.divmod(np.arange(m * n), n)
        P, D = self._positions_at(ts, steps, states)
        D = D.reshape(m, n, -1)
        first = np.flatnonzero(self.row_set == np.arange(n))
        cash = P[:, first, 0] - np.einsum("mgk,mgk->mg", D[:, first], P[:, first, 1:])
        return D, cash[:, np.searchsorted(first, self.row_set)]


# paths are replicated in blocks of about 2**20 (step, path) cells, and each
# block in windows of 128 steps, so memory does not grow with the number of
# paths and the gathered claim and bond values stay small
_BLOCK_CELLS = 1 << 20
_WINDOW = 128


def _wealth(X: np.ndarray, v0: np.ndarray, v1: np.ndarray, rate_dt: np.ndarray) -> np.ndarray:
    """Wealth after each step of X_m = v1_m + (X_{m-1} - v0_m) g_m, g_m = e^{rate_dt_m},
    from X_0 = X, shape (steps, paths).

    The recursion is first-order linear, so with A_m = g_1 ... g_m =
    e^{cumsum(rate_dt)} it is the scan X_m = A_m (X_0 + sum_{i<=m} (v1_i -
    g_i v0_i) / A_i): one cumulative sum in place of a loop over steps.
    """
    growth = np.exp(rate_dt)
    A = np.exp(np.cumsum(rate_dt, axis=0))
    return A * (X + np.cumsum((v1 - growth * v0) / A, axis=0))


def _path_grid(
    path: ChainPath, ts: np.ndarray, on_mesh: np.ndarray, T: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ts on one path's rebalancing grid and the state held at each.

    The path's grid is the uniform mesh (on_mesh) refined with its own jump
    times before T; at a jump time it holds the post-jump state (cadlag).
    """
    jt = np.asarray(path.jump_times, dtype=float)
    mask = on_mesh.copy()
    mask[np.searchsorted(ts, jt[jt < T])] = True
    rows = np.flatnonzero(mask)
    held = np.array((path.initial_state,) + path.post_jump_states)[
        np.searchsorted(jt, ts[rows], side="right")
    ]
    return rows, held


def replicate_paths(
    G: GeneratorMatrix,
    r: RateMap,
    paths: Sequence[ChainPath],
    basis: BondBasis,
    payoff: ClaimPayoff,
    dt: float,
) -> list[ReplicationReport]:
    """Run the discrete-rebalancing hedge to T = payoff.maturity along each realized path.

    Positions are held constant over each interval of a path's grid: the
    uniform dt mesh refined with that path's exact jump times. Bonds are
    marked to model at interval ends and the cash residual accrues at the
    state's short rate, which is the exact solution of the self-financing
    dynamics on a jump-free interval.

    Every path is checked before any propagation: it must reach T, have the
    model's states and make only jumps the basis hedges up to T. The paths
    then share the work. The claim and bonds are propagated once over the
    union of their grids, and each distinct (time, state) is hedged once, in
    one kernel call that solves each distinct (time, row set) once. The
    cells are numbered by first occurrence path by path, so a failure names
    the first failing path's earliest failing step. The wealth
    recursion is a scan over each window of steps (see _wealth), vectorized
    across paths.
    """
    if not 0 < dt < np.inf:
        raise ValueError("rebalance step dt must be positive and finite")
    plan = HedgePlan(G, r, basis, payoff)
    n, K, T = G.n, len(basis.maturities), plan.T
    for path in paths:
        if path.horizon < T:
            raise ValueError(f"path horizon {path.horizon} shorter than maturity {T}")
        if path.n_states != n:
            raise ModelValidationError(f"path has {path.n_states} states, the model {n}")
        held = (path.initial_state,) + path.post_jump_states
        for tau, i, j in zip(path.jump_times, held, held[1:]):
            if tau <= T and not plan.hedged[i, j]:
                raise ModelValidationError(
                    f"path jumps {i}->{j} at t={tau}, which the generator does not "
                    f"allow and the {K}-bond basis does not hedge"
                )

    n_steps = int(np.ceil(T / dt))
    mesh = np.minimum(np.arange(n_steps + 1) * dt, T)
    jumps = [tau for path in paths for tau in path.jump_times if tau < T]
    # sorted and deduplicated as np.unique would, without its numpy.ma import
    ts = np.sort(np.concatenate([mesh, np.array(jumps)]))
    ts = ts[np.concatenate([[True], ts[1:] != ts[:-1]])]
    on_mesh = np.zeros(len(ts), dtype=bool)
    on_mesh[np.searchsorted(ts, mesh)] = True

    # cell[row * n + state] numbers the distinct step starts by first
    # occurrence, path by path; -1 marks a cell no path starts a step in
    cell = np.full(len(ts) * n, -1)
    firsts, n_jumps, n_cells = [], [], 0
    for path in paths:
        rows, held = _path_grid(path, ts, on_mesh, T)
        keys = rows[:-1] * n + held[:-1]
        new = keys[cell[keys] < 0]
        cell[new] = np.arange(n_cells, n_cells + len(new))
        firsts.append(new)
        n_cells += len(new)
        n_jumps.append(int(np.count_nonzero(held[1:] != held[:-1])))
    cell_rows, cell_states = np.divmod(np.concatenate([np.zeros(0, dtype=int)] + firsts), n)
    P, D = plan._positions_at(ts, cell_rows, cell_states)

    # a trailing zero row, reached by cell index -1, serves the steps that pad
    # short paths: with v0 = v1 = 0 and growth 1 they leave the wealth as it is
    bonds_now = np.append(np.einsum("ck,ck->c", D, P[cell_rows, cell_states, 1:]), 0.0)
    D = np.concatenate([D, np.zeros((1, K))])
    longest = n_steps + 1 + max((path.n_jumps for path in paths), default=0)
    block = max(1, _BLOCK_CELLS // longest)
    reports = []
    for start in range(0, len(paths), block):
        chunk = paths[start:start + block]
        grids = [_path_grid(path, ts, on_mesh, T) for path in chunk]
        width = max(len(rows) for rows, _ in grids)
        # step-major: column c is path c's grid, padded with its last cell
        rows = np.full((width, len(chunk)), len(ts) - 1)
        held = np.empty((width, len(chunk)), dtype=int)
        for c, (path_rows, path_held) in enumerate(grids):
            rows[: len(path_rows), c] = path_rows
            held[: len(path_held), c] = path_held
            held[len(path_held):, c] = path_held[-1]
        X, track = P[0, held[0], 0], np.zeros(len(chunk))
        for lo in range(0, width - 1, _WINDOW):
            at, hold = rows[lo:lo + _WINDOW + 1], held[lo:lo + _WINDOW + 1]
            idx = cell[at[:-1] * n + hold[:-1]]
            nxt = P[at[1:], hold[1:]]
            v0, v1 = bonds_now[idx], np.einsum("mck,mck->mc", D[idx], nxt[..., 1:])
            wealth = _wealth(X, v0, v1, r.rates[hold[:-1]] * np.diff(ts[at], axis=0))
            X = wealth[-1]
            track = np.maximum(track, np.abs(wealth - nxt[..., 0]).max(axis=0))
        # the padded grid's last row holds each path's state at T
        final = payoff.values[held[-1]]
        for c in range(len(chunk)):
            reports.append(ReplicationReport(
                terminal_error=float(abs(X[c] - final[c])),
                max_tracking_error=float(track[c]),
                n_jumps=n_jumps[start + c],
                n_grid_points=len(grids[c][0]),
            ))
    return reports
