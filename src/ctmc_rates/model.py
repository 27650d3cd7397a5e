"""Core CTMC model objects: generator validation, transition kernels and path simulation.

The short rate is r(J_t) for an irreducible finite-state chain J with
generator G. Everything downstream (pricing, hedging, recovery) consumes the
immutable objects defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError

# identifier written to run manifests; all randomness flows through
# numpy.random.default_rng (PCG64)
RNG_ALGORITHM = "numpy-pcg64"
# generator row sums: |sum| <= ROW_SUM_TOL * max(1, max|entry|)
ROW_SUM_TOL = 1e-12
# an off-diagonal entry counts as an edge of the transition graph iff > SUPPORT_EPS
SUPPORT_EPS = 1e-14


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
    # set by validate_model once its generator checks pass, by recover_generator on construction
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
    """Per-state short rate r(i) >= 0."""

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
    """Strong connectivity of the graph with an edge i->j iff g_ij > SUPPORT_EPS:
    state 0 reaches every state along the edges and against them."""
    support = G.entries > SUPPORT_EPS
    return G.n > 0 and _reaches_all(support) and _reaches_all(support.T)


def validate_model(G: GeneratorMatrix, r: RateMap) -> tuple[tuple[str, int | str], ...]:
    """Every violated model invariant as a (violation, part) pair, where the
    part is a generator row index, "generator" for the matrix as a whole or
    "rates"; no pairs means admissible.

    Dimension mismatches are hard errors (there is no sensible partial report
    for them); everything else is accumulated. The generator checks depend on
    G alone, so they run once per GeneratorMatrix instance; the rate check
    runs on every call. The stored diagonal is checked, never read: every
    kernel takes each diagonal as minus its row's off-diagonal sum, so a
    diagonal rounded within ROW_SUM_TOL prices and simulates as that sum.
    """
    if r.n != G.n:
        raise ModelValidationError(f"rate vector has length {r.n} but n={G.n}")

    bad: list[tuple[str, int | str]] = []  # (violation, part)
    if not G._passed:
        Q = G.entries
        scale = max(1.0, float(np.max(np.abs(Q)))) if Q.size else 1.0
        row_sums = Q.sum(axis=1)
        for i in np.flatnonzero(np.abs(row_sums) > ROW_SUM_TOL * scale):
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
    return tuple(bad)


def require_valid_model(G: GeneratorMatrix, r: RateMap) -> None:
    bad = validate_model(G, r)
    if bad:
        raise ModelValidationError("; ".join(v for v, _ in bad))


def _killed(G: GeneratorMatrix, r: RateMap) -> np.ndarray:
    """Generator of the chain killed at rate r, state n absorbing, from G's
    off-diagonals and r alone: each diagonal is minus its row's sum."""
    n = G.n
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = G.entries
    A[:n, n] = r.rates
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def _stochastic(P: np.ndarray) -> np.ndarray:
    P /= P.sum(axis=-1, keepdims=True)  # each row divided by its sum, in place
    return P


# a stack is exponentiated in blocks of about this many entries per matrix
# power, which keeps the powers of a long stack of large matrices small
_EXPM_BLOCK = 1 << 17
# degree of the Taylor step: at row sums h lambda < 1/2 the terms left out
# are below 2^-55 of each row, about 0.5^15 / 15!
_TAYLOR = 14


def _expm(A: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """e^{tau A} for each tau, A from _killed, by uniformization (Jensen 1953).

    For lambda the largest exit rate and h = tau / 2^s, h lambda < 1/2 (s from
    the exponents of tau and lambda, so nothing overflows), N = h (A + lambda I)
    is nonnegative with rows summing to h lambda. Its Taylor polynomial, each
    row divided by its sum (which applies e^{-h lambda}), is squared s times,
    rows renormalized each time: no step subtracts. Each matrix comes back bit
    for bit as from its own call.
    """
    k = len(A)
    lam = float(-np.diagonal(A).min(initial=0.0))
    N0 = A + lam * np.eye(k)
    X = np.empty((taus.size, k, k))
    if not lam:
        X[...] = np.eye(k)
        return X
    s = np.maximum(np.frexp(taus)[1] + math.frexp(lam)[1] + 1, 0)
    block = max(1, _EXPM_BLOCK // (k * k))
    for lo in range(0, taus.size, block):
        h = np.ldexp(taus[lo:lo + block], -s[lo:lo + block])
        N = h[:, None, None] * N0
        P = N / _TAYLOR
        for j in range(_TAYLOR - 1, 0, -1):
            np.einsum("bii->bi", P)[...] += 1.0
            P = N @ P
            P /= j
        np.einsum("bii->bi", P)[...] += 1.0
        _stochastic(P)
        for j in range(int(s[lo:lo + block].max(initial=0))):
            pick = np.flatnonzero(s[lo:lo + block] > j)
            P[pick] = _stochastic(P[pick] @ P[pick])
        X[lo:lo + block] = P
    return X


# Half the exponent range of a double, about 354. Below tau (-rho) = 354 a bond
# is at least e^{rho tau} min phi / max phi, far from underflow; past it, at
# most e^{rho tau} max phi / min phi, so 1 - B rounds to 1 unless phi spans
# e^318, and the Perron factorization of the time loses nothing.
_LOG_HEADROOM = -0.5 * math.log(np.finfo(float).tiny)
# a run is looked for among this many times ahead of the point reached, and
# past them only while its lattice goes on
_PLAN_WINDOW = 256
# a time within 2^-20 h of a + k h lies on the lattice of step h from a
_LATTICE = 2.0**-20


def _lattice(d: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The lattice of step h through the sorted offsets d, d[0] = h:
    k = rint(d / h), whether each d lies within 2^-20 h of k h, and the
    largest L with some d on each of k = 1, ..., L."""
    with np.errstate(over="ignore"):  # d / h past the double range is no lattice point
        k = np.rint(d / h)
    on = np.abs(d - k * h) <= _LATTICE * h
    ks = k[on]
    hole = np.flatnonzero(ks[1:] - ks[:-1] > 1)
    return k, on, int(ks[hole[0]] if hole.size else ks[-1])


def _plan(u: np.ndarray, reach: float):
    """Runs of equal steps that reach the sorted distinct times u from time 0.

    Returns (runs, point, off). runs lists (h, count): count steps of h,
    each run going on from the time the one before it reached. Time u[i]
    lies off[i] past step number point[i] over all runs, 0 being time 0:
    exactly on it where off[i] = 0, to first order where |off[i]| <= reach,
    and one fresh step from it otherwise.

    From the time a reached so far, a run's step h is the first time past
    a, and its lattice the points a + k h, k = 1, ..., L, for the largest L
    with a time within 2^-20 h of each; h is refitted through the L-th.
    Every time up to a + L h takes the nearest lattice point, or the one
    below it when farther than reach. The run stops at its last point below
    the first time it steps over if that time and the gap after it start a
    run reaching more times than the rest of this one: on the grid 5, 5.1,
    ..., 10 the first run is the one step to 5, not 5 and 10 with 49 times
    off them. Where a run is one step and no gap among the next
    _PLAN_WINDOW times comes three times, as with random maturities, the
    farthest of them is the step and the others are fresh steps from a.
    """
    N = len(u)
    runs: list[tuple[float, int]] = []
    point, off = np.zeros(N, dtype=np.intp), np.zeros(N)
    i, a, base = 0, 0.0, 0
    while i < N:
        w = _PLAN_WINDOW
        d = u[i:i + w] - a
        if d[0] <= reach:  # at the point reached, up to first order
            here = int(np.searchsorted(d, reach, side="right"))
            point[i:i + here], off[i:i + here] = base, d[:here]
            i += here
            continue
        h = float(d[0])
        k, on, L = _lattice(d, h)
        while k[-1] <= L + 1 and i + w < N:  # the run may go on past the window
            w *= 4
            d = u[i:i + w] - a
            k, on, L = _lattice(d, h)
        x = int(np.argmin(on))  # the first time the run steps over, if any
        if not on[x] and d[x] < L * h and x + 1 < d.size:
            below = int(d[x] // h)
            if 1 + _lattice(d[x + 1:] - d[x], float(d[x + 1] - d[x]))[2] > L - below:
                L = below
        if L > 1:
            at = np.flatnonzero(on & (k == L))
            h = float(d[at[np.argmin(np.abs(d[at] - L * h))]]) / L
        else:
            gaps = np.sort(np.diff(d, prepend=0.0))
            if not np.any(gaps[2:] - gaps[:-2] <= _LATTICE * gaps[2:]):  # no gap comes three times
                h = float(d[-1])
        d = d[:int(np.searchsorted(d, L * h + reach, side="right"))]
        j = np.clip(np.rint(d / h), 0, L)
        far = np.abs(d - j * h) > reach
        j[far] = np.clip(np.floor(d[far] / h), 0, L - 1)
        point[i:i + d.size], off[i:i + d.size] = base + j.astype(np.intp), d - j * h
        runs.append((h, L))
        i, a, base = i + d.size, a + L * h, base + L
    return runs, point, off


def propagate(
    G: GeneratorMatrix, r: RateMap, taus, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """e^{tau M} V for M = G - R at every tau in taus, in log-scaled form.

    Returns (scaled, log_scale) with shapes (len(taus), n, m) and
    (len(taus), m): column j of e^{taus[k] M} V is
    scaled[k, :, j] * exp(log_scale[k, j]). M is the chain killed at rate
    r (_killed), so V may have a row n, the value v at the killed state:
    V = [0; 1] gives the mass lost to killing by tau, 1 - B, to its own
    relative accuracy. The taus may be unsorted and repeated; equal taus
    get equal bits and tau = 0 gets V exactly.

    A distinct time takes the killed chain, log_scale 0, while tau (-rho)
    <= _LOG_HEADROOM, rho the Perron eigenvalue of M. These times are split
    into runs of equal steps (see _plan). A run of L steps of h takes
    log2 L products: from its step S = e^{hM}, X[w:2w] = S^w X[0:w] and
    S^{2w} = S^w S^w, its rows renormalized. A time delta off a run point X
    with |delta| ||M||_1 <= 2^-27, such as tau = T - t rounded off its mesh
    point, is X + delta M X: the terms left out of e^{delta M} are below
    2^-55, an eighth of eps. A time farther off, such as a path's jump time
    between mesh points, is one fresh step from the run point below it.
    All fresh exponentials come from one _expm call.

    A time past the headroom takes the long-term factorization e^{tau M} =
    e^{rho tau} Phi e^{tau G^phi} Phi^-1, Phi = diag(phi), of Hansen &
    Scheinkman (2009) and Qin & Linetsky (2016), on V - v with v added back:
    e^{tau G^phi} comes from propagate on recover_generator(G, phi) at zero
    rates, and log_scale is rho tau where v = 0, else 0. The pair is solved
    once, and only when some tau max r >= tau (-rho) passes the headroom;
    where perron_pair fails, every time takes the killed chain.
    """
    if G.n != r.n:
        raise ModelValidationError("generator and rate vector sizes differ")
    taus = np.asarray(taus, dtype=float)
    V = np.asarray(V, dtype=float)
    if taus.ndim != 1 or V.ndim != 2 or V.shape[0] not in (G.n, G.n + 1):
        raise ValueError(
            f"need a vector of times and an n or n + 1 x m block, got shapes {taus.shape}, {V.shape}"
        )
    if not np.all(np.isfinite(taus)) or np.any(taus < 0):
        raise ValueError("propagation times must be finite and >= 0")
    M = _killed(G, r)
    n, m = G.n + 1, V.shape[1]
    order = np.argsort(taus, kind="stable")
    t = taus[order]
    new = np.diff(t, prepend=-1.0) > 0
    u = t[new]
    at = np.empty(taus.size, dtype=np.intp)
    at[order] = np.cumsum(new) - 1  # taus[k] is the distinct time u[at[k]]
    cut = u.size  # u[:cut] takes the killed chain, u[cut:] the factorization
    if u.size and float(u[-1]) * float(r.rates.max()) > _LOG_HEADROOM:
        from .recovery import perron_pair, recover_generator  # recovery imports this module
        try:
            rho, phi = perron_pair(G, r)
            G_phi, cut = recover_generator(G, phi), int(np.searchsorted(u, _LOG_HEADROOM / -rho, side="right"))
        except ModelValidationError:  # pi past the double range, say: the killed chain takes all
            pass
    norm = float(np.abs(M).sum(axis=0).max())
    reach = 2.0**-27 / norm if norm else math.inf
    runs, point, off = _plan(u[:cut], reach)
    lengths = sorted({h for h, _ in runs})
    far = np.abs(off) > reach
    fresh, near = np.flatnonzero(far), np.flatnonzero((off != 0) & ~far)
    S = _expm(M, np.concatenate([lengths, off[fresh]]))
    # X[:, j] holds run step j, the times off the runs (fresh first) and those past
    # the headroom; state-major, so a product over many points is one matrix product
    steps = sum(count for _, count in runs)
    moved = np.concatenate([fresh, near])
    end = 1 + steps + moved.size
    X = np.zeros((n, end + u.size - cut, m))
    X[:len(V), 0] = V
    j = 0
    for h, count in runs:
        Sw, w = S[lengths.index(h)], 1
        while w <= count:  # fill X[:, j + w : j + w + take] from X[:, j : j + take]
            take = min(w, count + 1 - w)
            np.matmul(Sw, X[:, j:j + take].reshape(n, -1), out=X[:, j + w:j + w + take].reshape(n, -1))
            if take == w and 2 * w <= count:
                Sw = _stochastic(Sw @ Sw)
            w += take
        j += count
    np.take(X, point[moved], axis=1, out=X[:, 1 + steps:end])
    F, Q = X[:, 1 + steps:1 + steps + fresh.size], X[:, 1 + steps + fresh.size:end]
    F[...] = (S[len(lengths):] @ F.transpose(1, 0, 2)).transpose(1, 0, 2)
    Q += off[near, None] * (M @ Q.reshape(n, -1)).reshape(Q.shape)
    point[moved] = 1 + steps + np.arange(moved.size)
    log_scale = np.zeros((u.size, m))
    if cut < u.size:
        v = V[G.n] if len(V) == n else np.zeros(m)  # the killed state's value, added back where not 0
        Y = propagate(G_phi, RateMap(np.zeros(G.n)), u[cut:], (V[:G.n] - v) / phi[:, None])[0]
        log_scale[cut:] = np.where(v != 0, 0.0, rho * u[cut:, None])
        Y *= np.exp(rho * u[cut:, None] - log_scale[cut:])[:, None]
        X[:-1, end:] = phi[:, None, None] * Y.transpose(1, 0, 2) + v
    return X[:-1].transpose(1, 0, 2)[np.append(point, np.arange(end, X.shape[1]))[at]], log_scale[at]


def _check_horizon(horizon: float) -> None:
    # an infinite horizon would never end the event loop; nan would end it at once
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive" if horizon <= 0 else f"horizon must be finite, got {horizon}")


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
        _check_horizon(self.horizon)
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


def _sample_chain(
    G: GeneratorMatrix,
    rates: np.ndarray,
    initial: int,
    horizon: float,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, int]]]:
    """Event loop behind simulate_path and simulate_terminal.

    Each round draws one Exponential(1) holding time, scaled by the exit rate
    q_i = sum of g_ij over j != i, for every path short of the horizon, then
    one uniform for each path that jumps, whose next state j has probability
    g_ij / q_i and is picked by inverse CDF. One path thus draws the variates of a
    Gillespie loop in the same order. Returns the states at the horizon, the
    exact integrals of `rates` along the paths and, for a single path, its
    (jump time, new state) pairs.
    """
    _check_horizon(horizon)
    if not (0 <= initial < G.n):
        raise ValueError(f"initial state {initial} outside state space")
    states = np.full(n_paths, initial, dtype=np.int64)
    integ = np.zeros(n_paths)
    jumps: list[tuple[float, int]] = []
    if G.n == 1:
        return states, integ + rates[0] * horizon, jumps

    probs = np.clip(G.entries, 0.0, None)
    np.fill_diagonal(probs, 0.0)
    exit_rate = probs.sum(axis=1)
    # clipped: a cumsum can round above 1 early; a uniform in [0, 1) compares the
    # same. Padded with 1.0 to a power-of-two width for the batched search below
    width = 1 << (G.n - 1).bit_length()
    cum = np.ones((G.n, width))
    cum[:, :G.n - 1] = np.cumsum(probs / exit_rate[:, None], axis=1)[:, :-1]
    np.minimum(cum, 1.0, out=cum)
    flat = cum.ravel()

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
            else:
                # searchsorted(cum[cur], u, side="right") for all paths at once,
                # so memory stays linear in the paths: a binary search by
                # halving steps, each one gather. at - start counts the entries
                # of the row known to be <= u; the row's 1.0 entries never are
                start = cur * width
                at = start.copy()
                step = width
                while step > 1:
                    step >>= 1
                    np.add(at, step, out=at, where=flat[at + (step - 1)] <= u)
                states[jump_idx] = at - start
            if n_paths == 1:
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
) -> ChainPath:
    """Simulate one trajectory on [0, horizon]; the one-path case of the
    event loop behind simulate_terminal.

    Holding time in state i is Exponential(q_i), q_i = sum of g_ij over
    j != i; the next state is j with probability g_ij / q_i. Deterministic given the seed. The path does
    not depend on the rates, so G is validated with zero rates.
    """
    r = RateMap(np.zeros(G.n))
    require_valid_model(G, r)
    _, _, jumps = _sample_chain(G, r.rates, initial, horizon, 1, _rng(seed))
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
