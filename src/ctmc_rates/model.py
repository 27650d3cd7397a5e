"""Core CTMC model objects: generator validation, transition kernels and path simulation.

The short rate is r(J_t) for an irreducible finite-state chain J with
generator G. Everything downstream (pricing, hedging, recovery) consumes the
immutable objects defined here.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError
from .policy import DEFAULT_POLICY

# identifier recorded in run manifests; all randomness flows through
# numpy.random.default_rng (PCG64)
RNG_ALGORITHM = "numpy-pcg64"


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GeneratorMatrix:
    """n x n intensity matrix of the chain under the pricing measure.

    Construction only enforces shape and finiteness; the CTMC sign/row-sum/
    irreducibility invariants are checked by validate_model so that all
    violations can be reported together. The entries are read-only, so once
    an instance passes those checks validate_model does not repeat them.
    """

    entries: np.ndarray
    # set once the generator checks of validate_model have passed
    _passed: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _as_readonly(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ModelValidationError(f"generator must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ModelValidationError("generator entries must be finite")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RateMap:
    """Per-state short rate r(i) >= 0; exposes the diagonal matrix form."""

    rates: np.ndarray

    def __post_init__(self):
        a = _as_readonly(self.rates)
        if a.ndim != 1:
            raise ModelValidationError("rates must be a vector")
        if not np.all(np.isfinite(a)):
            raise ModelValidationError("rates must be finite")
        object.__setattr__(self, "rates", a)

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.rates)


@dataclass(frozen=True)
class ValidationReport:
    """Violated invariants and, for each, the part of the model it concerns:
    a generator row index, "generator" for the matrix as a whole or "rates"."""

    violations: tuple[str, ...] = ()
    parts: tuple[int | str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid model" if self.ok else "; ".join(self.violations)


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether state 0 reaches every state along the boolean edges[i, j] = i->j,
    breadth-first; a one-state frontier, as on a chain, reads its row as a view."""
    unseen = np.ones(len(edges), dtype=bool)
    unseen[0] = False
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reach = edges[frontier[0]] if frontier.size == 1 else edges[frontier].any(axis=0)
        frontier = np.flatnonzero(reach & unseen)
        unseen[frontier] = False
    return not unseen.any()


def is_irreducible(G: GeneratorMatrix) -> bool:
    """Strong connectivity of the graph with an edge i->j iff g_ij > support_eps:
    state 0 reaches every state along the edges and against them."""
    support = G.entries > DEFAULT_POLICY.support_eps
    return G.n > 0 and _reaches_all(support) and _reaches_all(support.T)


def validate_model(G: GeneratorMatrix, r: RateMap) -> ValidationReport:
    """Collect every violated model invariant; an empty report means admissible.

    Dimension mismatches are hard errors (there is no sensible partial report
    for them); everything else is accumulated. The generator checks depend on
    G alone, so they run once per GeneratorMatrix instance; the rate check
    runs on every call.
    """
    if r.n != G.n:
        raise ModelValidationError(f"rate vector has length {r.n} but n={G.n}")

    bad: list[tuple[str, int | str]] = []  # (violation, part)
    if not G._passed:
        Q = G.entries
        scale = max(1.0, float(np.max(np.abs(Q)))) if Q.size else 1.0
        row_sums = Q.sum(axis=1)
        for i in np.flatnonzero(np.abs(row_sums) > DEFAULT_POLICY.row_sum_tol * scale):
            bad.append((f"generator row {i} sums to {row_sums[i]:.3e}, not 0", int(i)))
        off = Q - np.diag(np.diag(Q))
        for i, j in zip(*np.nonzero(off < 0)):
            bad.append((f"generator entry ({i},{j}) = {Q[i, j]:.3e} is negative off-diagonal", int(i)))
        for i in np.flatnonzero(np.diag(Q) > 0):
            bad.append((f"generator diagonal ({i},{i}) = {Q[i, i]:.3e} is positive", int(i)))
        if not is_irreducible(G):
            bad.append(("generator is not irreducible (transition graph not strongly connected)", "generator"))
        if not bad:
            object.__setattr__(G, "_passed", True)
    for i in np.flatnonzero(r.rates < 0):
        bad.append((f"rate for state {i} is negative: {r.rates[i]:.3e}", "rates"))
    return ValidationReport(tuple(v for v, _ in bad), tuple(p for _, p in bad))


def require_valid_model(G: GeneratorMatrix, r: RateMap) -> None:
    report = validate_model(G, r)
    if not report.ok:
        raise ModelValidationError(str(report))


# Scaling and squaring with Pade degrees m = 3, 5, 7, 9, 13 (Al-Mohy & Higham,
# SIAM J. Matrix Anal. Appl. 31(3), 2009): the bounds theta_m on the scaled
# norm, u / |c_{2m+1}| of the backward-error series and the coefficients b_j.
_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068e0, 4.25)
_PADE_U_C = tuple(2.0**-53 * c for c in (
    100800.0, 10059033600.0, 4487938430976000.0, 5914384781877411840000.0,
    113250775606021113483283660800000000.0))
_PADE_B = (
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
     2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
     1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
     33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
)
# weights of (I, A^2, A^4, ...): rows U/A and V for m <= 9; for m = 13 the
# rows W give U = A (A^6 W0 + W1) and V = A^6 W2 + W3
_PADE_UV = tuple(np.array([b[1::2], b[0::2]]) for b in _PADE_B[:4])
_PADE_W13 = np.array([[0.0, *_PADE_B[4][9:14:2]], _PADE_B[4][1:8:2],
                      [0.0, *_PADE_B[4][8:13:2]], _PADE_B[4][0:7:2]])


def _norm1(X: np.ndarray) -> float:
    return float(np.abs(X).sum(axis=0).max())


def _pade_ell(A: np.ndarray, k: int, norm: float) -> int:
    """Squarings to add so that degree k's backward error stays below u.

    From ||abs(A)^(2m+1)||_1, formed by repeated squaring; 0 at once when
    ||A||_1^(2m) already bounds it.
    """
    m = 2 * k + 3 if k < 4 else 13
    if 2 * m * math.log2(norm) <= math.log2(_PADE_U_C[k]):
        return 0
    P, v, p = np.abs(A), np.ones(len(A)), 2 * m + 1
    while True:
        if p & 1:
            v = v @ P
        p >>= 1
        if not p:
            break
        P = P @ P
    alpha = float(v.max()) / (norm * _PADE_U_C[k])
    return max(math.ceil(math.log2(alpha) / (2 * m)), 0) if alpha else 0


def _pade_expm(A: np.ndarray) -> np.ndarray:
    """e^A for a matrix that is not diagonal (so ||A||_1 > 0)."""
    n = len(A)
    P = np.empty((5, n, n))  # I, A^2, A^4, A^6, A^8
    P[0] = np.eye(n)
    np.matmul(A, A, out=P[1])
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[2], P[1], out=P[3])
    norm = _norm1(A)
    d4, d6 = np.abs(P[2:4]).sum(axis=1).max(axis=1) ** (1 / 4, 1 / 6)
    eta, s = max(d4, d6), 0
    for k in range(4):  # degrees 3, 5, 7, 9
        if k == 2:
            np.matmul(P[2], P[2], out=P[4])
            d8 = _norm1(P[4]) ** (1 / 8)
            eta = max(d6, d8)
        if eta < _PADE_THETA[k] and _pade_ell(A, k, norm) == 0:
            W = (_PADE_UV[k] @ P[:k + 2].reshape(k + 2, -1)).reshape(2, n, n)
            U, V = A @ W[0], W[1]
            break
    else:  # degree 13
        if d6 > d8:  # else min(max(d6, d8), max(d8, d10)) = d8 whatever d10 is
            eta = min(eta, max(d8, _norm1(P[2] @ P[3]) ** (1 / 10)))
        s = max(math.ceil(math.log2(eta / _PADE_THETA[4])), 0) if eta else 0
        s += _pade_ell(A * 2.0**-s, 4, norm * 2.0**-s)
        # B = 2^-s A; scaling A^2j by 2^-2sj through the weights is exact
        W = (_PADE_W13 * 2.0 ** (-2 * s * np.arange(4))) @ P[:4].reshape(4, -1)
        W = W.reshape(4, n, n)
        B6 = P[3] * 2.0 ** (-6 * s)
        U, V = (A * 2.0**-s) @ (B6 @ W[0] + W[1]), B6 @ W[2] + W[3]
    # r_m = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U; the second form was the
    # more accurate on 59% of 150 random stiff chains
    X = np.linalg.solve(V - U, U)
    X += X
    X.flat[::n + 1] += 1.0
    for _ in range(s):
        X = X @ X
    return X


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring with a Pade step (Al-Mohy & Higham 2009).

    A diagonal M (1 x 1, zero) gives exp of its diagonal exactly. Otherwise
    the mean row sum mu is taken out first: e^M = e^mu e^{M - mu I}. For
    M = tau (G - R) that is the mean discount -tau mean(r), which left in
    costs the Pade step up to 1e-12 in relative accuracy (tau = 8, rates
    (1, 1)); a generator's rows sum to 0, so e^{tG} has no shift. A result
    that overflows is a ModelValidationError, never a NumPy warning.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite matrix")
    d = np.diagonal(M)
    try:
        with np.errstate(all="raise", under="ignore"):
            if np.count_nonzero(M) == np.count_nonzero(d):
                return np.diag(np.exp(d))
            mu = float(M.sum(axis=1).mean())
            A = M.copy()
            A.flat[::len(A) + 1] -= mu
            X = np.exp(mu) * _pade_expm(A)
    except FloatingPointError as exc:
        raise ModelValidationError(f"e^M overflows at ||M||_1 = {_norm1(M):.3g}: {exc}") from exc
    if not np.all(np.isfinite(X)):
        raise ModelValidationError(f"e^M is not finite at ||M||_1 = {_norm1(M):.3g}")
    return X


# Half the exponent range of a double. A bond falls no faster than
# e^{-tau max r}, so below this tau max r nothing the kernel propagates comes
# near underflow, even after scaling by a payoff as small as 1e-150.
_LOG_HEADROOM = -0.5 * np.log(np.finfo(float).tiny)


def propagate(
    G: GeneratorMatrix, r: RateMap, taus, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """e^{tau M} V for M = G - R at every tau in taus, in log-scaled form.

    Returns (scaled, log_scale) with shapes (len(taus), n, m) and
    (len(taus), m): column j of e^{taus[k] M} V is
    scaled[k, :, j] * exp(log_scale[k, j]). The taus may be unsorted and
    repeated; they are visited in increasing order, each reached from the
    time reached before it. A cached e^{h M} is reused when it lands within
    eps * tau of tau, the rounding tau already carries (the time actually
    reached is kept, so the error never accumulates); other steps get a fresh
    matrix_exponential. So the cost is one per step length, not one per ulp
    of the gaps np.arange leaves. When e^{-tau max r}
    could underflow, steps longer than the headroom are split and each column
    is rescaled by a power of two after every step, which keeps log B finite
    at any maturity; otherwise log_scale is 0 and scaled is the plain product.
    """
    if G.n != r.n:
        raise ModelValidationError("generator and rate vector sizes differ")
    taus = np.asarray(taus, dtype=float)
    V = np.asarray(V, dtype=float)
    if taus.ndim != 1 or V.ndim != 2 or V.shape[0] != G.n:
        raise ValueError(
            f"need a vector of times and an n x m block, got shapes {taus.shape}, {V.shape}"
        )
    if not np.all(np.isfinite(taus)) or np.any(taus < 0):
        raise ValueError("propagation times must be finite and >= 0")
    M = G.entries - r.diagonal
    rate_max = float(r.rates.max())
    rescale = taus.max(initial=0.0) * rate_max > _LOG_HEADROOM
    longest = _LOG_HEADROOM / rate_max if rescale else np.inf

    steps: dict[float, np.ndarray] = {}
    lengths: list[float] = []  # the keys of steps, sorted
    eps = float(np.finfo(float).eps)
    scaled = np.empty((taus.size, G.n, V.shape[1]))
    exponent = np.zeros((taus.size, V.shape[1]), dtype=np.int64)
    cur, cur_exp, prev = V, np.zeros(V.shape[1], dtype=np.int64), 0.0
    order = np.argsort(taus, kind="stable")
    for k, tau in zip(order.tolist(), taus[order].tolist()):
        tol = eps * tau
        gap = tau - prev
        if gap > tol:
            pieces = max(1, math.ceil(gap / longest))
            h = gap / pieces
            if h not in steps:
                i = bisect.bisect_left(lengths, h)
                near = min(lengths[max(i - 1, 0):i + 1], key=lambda s: abs(s - h), default=math.inf)
                if abs(prev + pieces * near - tau) > tol:
                    near = h
                    steps[h] = matrix_exponential(h * M)
                    lengths.insert(i, h)
                h = near
            for _ in range(pieces):
                cur = steps[h] @ cur
                if rescale:
                    _, e = np.frexp(np.abs(cur).max(axis=0))
                    cur = np.ldexp(cur, -e)
                    cur_exp = cur_exp + e
            prev += pieces * h
        scaled[k] = cur
        exponent[k] = cur_exp
    return scaled, exponent * np.log(2.0)


def transition_matrix(G: GeneratorMatrix, t: float) -> np.ndarray:
    """P(t) = e^{tG}; stochastic for any admissible generator."""
    if t < 0:
        raise ValueError(f"transition time must be >= 0, got {t}")
    return matrix_exponential(t * G.entries)


@dataclass(frozen=True)
class ChainPath:
    """A realized trajectory: initial state, jump times and post-jump states."""

    initial_state: int
    jump_times: tuple[float, ...]
    post_jump_states: tuple[int, ...]
    horizon: float
    n_states: int

    def __post_init__(self):
        if len(self.jump_times) != len(self.post_jump_states):
            raise ValueError("jump_times and post_jump_states must have equal length")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        prev_t = 0.0
        prev_s = self.initial_state
        for t, s in zip(self.jump_times, self.post_jump_states):
            if not (prev_t < t <= self.horizon):
                raise ValueError(f"jump time {t} not increasing within (0, horizon]")
            if s == prev_s:
                raise ValueError(f"jump at t={t} does not change the state")
            if not (0 <= s < self.n_states):
                raise ValueError(f"state {s} outside state space of size {self.n_states}")
            prev_t, prev_s = t, s
        if not (0 <= self.initial_state < self.n_states):
            raise ValueError("initial state outside state space")

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times)

    def state_at(self, t: float) -> int:
        """State J_t (cadlag: at a jump time the post-jump state)."""
        if not (0 <= t <= self.horizon):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        k = bisect.bisect_right(self.jump_times, t)
        return self.initial_state if k == 0 else self.post_jump_states[k - 1]


def _sample_chain(
    G: GeneratorMatrix,
    rates: np.ndarray,
    initial: int,
    horizon: float,
    n_paths: int,
    rng: np.random.Generator,
    record: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, int]]]:
    """Event loop behind simulate_path and simulate_terminal.

    Each round draws one Exponential(1) holding time, scaled by the exit rate
    -g_ii, for every path still short of the horizon, then one uniform for
    each path that jumps, whose next state j has probability g_ij / (-g_ii)
    and is picked by inverse CDF. One path thus draws the variates of a
    Gillespie loop in the same order. Returns the states at the horizon, the
    exact integrals of `rates` along the paths and, with `record` and one
    path, its (jump time, new state) pairs.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not (0 <= initial < G.n):
        raise ValueError(f"initial state {initial} outside state space")
    states = np.full(n_paths, initial, dtype=np.int64)
    integ = np.zeros(n_paths)
    jumps: list[tuple[float, int]] = []
    if G.n == 1:
        return states, integ + rates[0] * horizon, jumps

    Q = G.entries
    exit_rate = -np.diag(Q)
    probs = np.clip(Q, 0.0, None)
    np.fill_diagonal(probs, 0.0)
    # clipped: a cumsum can round above 1 early; a uniform in [0, 1) compares the same
    cum = np.minimum(np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1), 1.0)
    cum[:, -1] = 1.0

    clock = np.zeros(n_paths)
    alive = np.arange(n_paths)
    while alive.size:
        s = states[alive]
        hold = rng.exponential(1.0, alive.size) / exit_rate[s]
        t_new = clock[alive] + hold
        integ[alive] += rates[s] * (np.minimum(t_new, horizon) - clock[alive])
        clock[alive] = t_new
        jumping = t_new < horizon
        jump_idx = alive[jumping]
        if jump_idx.size:
            u = rng.random(jump_idx.size)
            cur = s[jumping]
            if cur.min() == cur.max():
                states[jump_idx] = np.searchsorted(cum[cur[0]], u, side="right")
            else:  # one searchsorted per current state: memory stays linear in the paths
                order = np.argsort(cur, kind="stable")
                cur, u = cur[order], u[order]
                cuts = [0, *(np.flatnonzero(np.diff(cur)) + 1).tolist(), cur.size]
                nxt = np.empty_like(cur)
                for a, b in zip(cuts[:-1], cuts[1:]):
                    nxt[a:b] = np.searchsorted(cum[cur[a]], u[a:b], side="right")
                states[jump_idx[order]] = nxt
            if record:
                jumps.append((float(t_new[0]), int(states[0])))
        alive = jump_idx
    return states, integ, jumps


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def simulate_path(
    G: GeneratorMatrix,
    initial: int,
    horizon: float,
    seed: int | np.random.Generator,
    r: RateMap | None = None,
) -> ChainPath:
    """Simulate one trajectory on [0, horizon]; the one-path case of the
    event loop behind simulate_terminal.

    Holding time in state i is Exponential(-g_ii); the next state is j with
    probability g_ij / (-g_ii). Deterministic given the seed. Without r the
    model is validated with zero rates.
    """
    if r is None:
        r = RateMap(np.zeros(G.n))
    require_valid_model(G, r)
    _, _, jumps = _sample_chain(G, r.rates, initial, horizon, 1, _rng(seed), record=True)
    return ChainPath(
        initial_state=initial,
        jump_times=tuple(t for t, _ in jumps),
        post_jump_states=tuple(s for _, s in jumps),
        horizon=float(horizon),
        n_states=G.n,
    )


def simulate_terminal(
    G: GeneratorMatrix,
    r: RateMap,
    initial: int,
    horizon: float,
    n_paths: int,
    seed: int | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized simulation of n_paths trajectories.

    Returns (terminal_states, integrated_rates): the state at the horizon and
    the exact value of the pathwise rate integral, per path. Used by the Monte
    Carlo pricing oracle, where per-path ChainPath objects would be too slow.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    require_valid_model(G, r)
    states, integ, _ = _sample_chain(G, r.rates, initial, horizon, n_paths, _rng(seed))
    return states, integ
