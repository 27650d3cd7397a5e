"""Test oracles: closed forms and exact pathwise references.

Each one is independent of the engine it checks. The two-state formulas are
explicit eigendecompositions, not matrix exponentials; the stationary law is
a least-squares solve; the rate integral walks a path's constant pieces, not
the event loop behind simulate_terminal; the hedge gate is an SVD of every
square system; the wealth recursion is run step by step, not as a scan.
"""
import bisect

import numpy as np

from ctmc_rates import ChainPath, GeneratorMatrix, ModelValidationError, RateMap, UnhedgeableBasisError
from ctmc_rates.replication import CONDITION_LIMIT, EXPOSURE_CUTOFF, HEDGE_RESIDUAL_TOL
from ctmc_rates.two_state import TwoStateModel, closed_form_log_bonds


def eigen_pairs(m: TwoStateModel):
    """((rho_plus, pi_plus), (rho_minus, pi_minus)), eigenvectors unit-normalized."""
    lam, r, gam = m.lam, m.rate, m.gamma
    out = []
    for sign in (+1.0, -1.0):
        rho = (-2.0 * lam - r + sign * gam) / 2.0
        v = np.array([r + sign * gam, 2.0 * lam])
        out.append((rho, v / np.linalg.norm(v)))
    return tuple(out)


def closed_form_ad(m: TwoStateModel, t: float, T: float) -> np.ndarray:
    """State-price (Arrow-Debreu) 2x2 matrix at time t for maturity T."""
    if t > T:
        raise ValueError(f"need t <= T, got t={t}, T={T}")
    lam, r, gam = m.lam, m.rate, m.gamma
    tau = T - t
    e = np.exp(gam * tau)
    pref = np.exp(-0.5 * tau * (gam + 2.0 * lam + r)) / (2.0 * gam)
    return pref * np.array(
        [
            [(gam - r) + (gam + r) * e, 2.0 * lam * (e - 1.0)],
            [2.0 * lam * (e - 1.0), (gam + r) + (gam - r) * e],
        ]
    )


def closed_form_bonds(m: TwoStateModel, t: float, T: float) -> np.ndarray:
    """Zero-coupon bond prices (B(t,0;T), B(t,1;T))."""
    return np.exp(closed_form_log_bonds(m, t, T))


def closed_form_hedge(m: TwoStateModel, t: float, T: float, T1: float, k: int) -> float:
    """Bonds to hold against the k-th Arrow-Debreu claim; state-independent here."""
    A = closed_form_ad(m, t, T)
    B = closed_form_bonds(m, t, T1)
    num = A[1, k] - A[0, k]
    den = B[1] - B[0]
    if abs(den) < 1e-14 * max(1.0, abs(num)):
        raise UnhedgeableBasisError(
            f"two-state basis bond carries no state exposure at t={t} (T1={T1})"
        )
    return float(num / den)


def hedge_svd_gate(P, ts, steps, states, hedged) -> np.ndarray:
    """replication._hedge for full bases, with every square system gated by its SVD.

    The same stacks, solve and residual gate as the kernel; only the
    condition gate differs, so positions and error texts must agree bit for
    bit wherever the kernel's cheap bound is sound.
    """
    K = P.shape[2] - 1
    D = np.zeros((len(states), K))
    failures = []
    for s in sorted(set(states.tolist())):
        others = np.flatnonzero(hedged[s])
        assert others.size == K, "the oracle covers square systems only"
        pick = np.flatnonzero(states == s)
        rows = steps[pick]
        jumps = P[rows[:, None], others]
        jumps -= P[rows, s][:, None]
        scale = np.abs(P[rows, :, 0]).max(axis=1)
        live = np.linalg.norm(jumps[..., 0], axis=1) > EXPOSURE_CUTOFF * scale
        pick, jumps = pick[live], jumps[live]
        E, dU = jumps[..., 1:], jumps[..., 0]
        sv = np.linalg.svd(E, compute_uv=False)
        smax, smin = sv.max(axis=1), sv.min(axis=1)
        ok = (smax > 0.0) & (smin > np.maximum(smax, 1.0) / CONDITION_LIMIT)
        if not ok.all():
            i = int(np.argmin(ok))
            cond = np.inf if smin[i] == 0.0 else smax[i] / smin[i]
            failures.append((int(pick[i]), "unhedgeable basis", (
                f"bond-difference matrix is numerically singular (condition "
                f"estimate {cond:.3e}, largest singular value {smax[i]:.3e})"
            )))
            pick, E, dU = pick[:i], E[:i], dU[:i]
        D[pick] = np.linalg.solve(E, dU[..., None])[..., 0]
        resid = np.linalg.norm((E @ D[pick][..., None])[..., 0] - dU, axis=1)
        bad = resid > HEDGE_RESIDUAL_TOL * (1.0 + np.linalg.norm(dU, axis=1))
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


def wealth_loop(X, v0, v1, rate_dt) -> np.ndarray:
    """replication._wealth one step at a time: X_m = v1_m + (X_{m-1} - v0_m) e^{rate_dt_m}."""
    growth = np.exp(rate_dt)
    wealth = np.empty_like(v0)
    for m in range(len(v0)):
        X = v1[m] + (X - v0[m]) * growth[m]
        wealth[m] = X
    return wealth


def closed_form_recovered_generator(m: TwoStateModel) -> np.ndarray:
    """Real-world generator: off-diagonals 2 lambda^2/(gamma + r) and (gamma + r)/2."""
    lam, r, gam = m.lam, m.rate, m.gamma
    g01 = 2.0 * lam**2 / (gam + r)
    g10 = (gam + r) / 2.0
    return np.array([[-g01, g01], [g10, -g10]])


def stationary_distribution(G: GeneratorMatrix) -> np.ndarray:
    """Unique invariant distribution of an irreducible generator."""
    n = G.n
    A = np.vstack([G.entries.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def segments(path: ChainPath, start: float, end: float):
    """Constant-state pieces (t0, t1, state) of a path covering [start, end]."""
    if not (0 <= start <= end <= path.horizon):
        raise ValueError(f"interval [{start}, {end}] outside [0, {path.horizon}]")
    t0 = start
    state = path.state_at(start)
    k = bisect.bisect_right(path.jump_times, start)
    while k < len(path.jump_times) and path.jump_times[k] < end:
        yield (t0, path.jump_times[k], state)
        t0 = path.jump_times[k]
        state = path.post_jump_states[k]
        k += 1
    yield (t0, end, state)


def integrate_rate(
    path: ChainPath, r: RateMap, start: float = 0.0, end: float | None = None
) -> float:
    """Exact piecewise-constant integral of r(J_s) over [start, end]."""
    if end is None:
        end = path.horizon
    if r.n != path.n_states:
        raise ModelValidationError("rate vector does not match path state space")
    total = 0.0
    for t0, t1, state in segments(path, start, end):
        total += (t1 - t0) * r.rates[state]
    return float(total)
