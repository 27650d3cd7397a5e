"""Core CTMC model objects: generator validation, transition kernels and path simulation.

The short rate is r(J_t) for an irreducible finite-state chain J with
generator G. Everything downstream (pricing, hedging, recovery) consumes the
immutable objects defined here.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ModelValidationError
from .policy import DEFAULT_POLICY

# identifier recorded in run manifests; all randomness flows through
# numpy.random.default_rng (PCG64)
RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class StateSpace:
    """Finite state space {0, 1, ..., n-1}, optionally with display labels."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ModelValidationError(f"state count must be >= 1, got {self.n}")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ModelValidationError(
                    f"{len(self.labels)} labels for {self.n} states"
                )
            if len(set(self.labels)) != self.n:
                raise ModelValidationError("state labels must be distinct")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


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
    """Whether state 0 reaches every state along the boolean edges[i, j] = i->j."""
    seen = np.zeros(len(edges), dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        new = np.flatnonzero(edges[stack.pop()] & ~seen)
        seen[new] = True
        stack.extend(new.tolist())
    return bool(seen.all())


def is_irreducible(G: GeneratorMatrix) -> bool:
    """Strong connectivity of the graph with an edge i->j iff g_ij > support_eps:
    state 0 reaches every state along the edges and against them."""
    support = G.entries > DEFAULT_POLICY.support_eps
    return G.n > 0 and _reaches_all(support) and _reaches_all(support.T)


def validate_model(
    G: GeneratorMatrix, r: RateMap, S: StateSpace | None = None
) -> ValidationReport:
    """Collect every violated model invariant; an empty report means admissible.

    Dimension mismatches are hard errors (there is no sensible partial report
    for them); everything else is accumulated. The generator checks depend on
    G alone, so they run once per GeneratorMatrix instance; the rate check
    runs on every call.
    """
    n = S.n if S is not None else G.n
    if G.n != n:
        raise ModelValidationError(f"generator is {G.n}x{G.n} but n={n}")
    if r.n != n:
        raise ModelValidationError(f"rate vector has length {r.n} but n={n}")

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


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """e^M via scipy's scaling-and-squaring Pade implementation.

    The mean row sum mu is taken out first: e^M = e^mu e^{M - mu I}. For
    M = tau (G - R) that is the mean discount -tau mean(r), which left in
    costs the Pade step up to 1e-12 in relative accuracy (tau = 8, rates
    (1, 1)); a generator's rows sum to 0, so e^{tG} is computed as before.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite matrix")
    mu = float(M.sum(axis=1).mean()) if M.size else 0.0
    return np.exp(mu) * expm(M - mu * np.eye(M.shape[0]))


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
    previous one by the propagator of the step between them, so the cost is
    one matrix_exponential per distinct step length. When e^{-tau max r}
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
    scaled = np.empty((taus.size, G.n, V.shape[1]))
    exponent = np.zeros((taus.size, V.shape[1]), dtype=np.int64)
    cur, cur_exp, prev = V, np.zeros(V.shape[1], dtype=np.int64), 0.0
    order = np.argsort(taus, kind="stable")
    for k, tau in zip(order.tolist(), taus[order].tolist()):
        gap = tau - prev
        if gap > 0:
            pieces = max(1, int(np.ceil(gap / longest)))
            h = gap / pieces
            if h not in steps:
                steps[h] = matrix_exponential(h * M)
            for _ in range(pieces):
                cur = steps[h] @ cur
                if rescale:
                    _, e = np.frexp(np.abs(cur).max(axis=0))
                    cur = np.ldexp(cur, -e)
                    cur_exp = cur_exp + e
            prev = tau
        scaled[k] = cur
        exponent[k] = cur_exp
    return scaled, exponent * np.log(2.0)


def transition_matrix(G: GeneratorMatrix, t: float) -> np.ndarray:
    """P(t) = e^{tG}; stochastic for any admissible generator."""
    if t < 0:
        raise ValueError(f"transition time must be >= 0, got {t}")
    return matrix_exponential(t * G.entries)


def stationary_distribution(G: GeneratorMatrix) -> np.ndarray:
    """Unique invariant distribution of an irreducible generator."""
    n = G.n
    A = np.vstack([G.entries.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


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

    def segments(self, start: float, end: float):
        """Constant-state pieces (t0, t1, state) covering [start, end]."""
        if not (0 <= start <= end <= self.horizon):
            raise ValueError(f"interval [{start}, {end}] outside [0, {self.horizon}]")
        t0 = start
        state = self.state_at(start)
        k = bisect.bisect_right(self.jump_times, start)
        while k < len(self.jump_times) and self.jump_times[k] < end:
            yield (t0, self.jump_times[k], state)
            t0 = self.jump_times[k]
            state = self.post_jump_states[k]
            k += 1
        yield (t0, end, state)


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
                for group in np.split(order, np.flatnonzero(np.diff(cur[order])) + 1):
                    states[jump_idx[group]] = np.searchsorted(cum[cur[group[0]]], u[group], side="right")
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


def integrate_rate(
    path: ChainPath, r: RateMap, start: float = 0.0, end: float | None = None
) -> float:
    """Exact piecewise-constant integral of r(J_s) over [start, end]."""
    if end is None:
        end = path.horizon
    if r.n != path.n_states:
        raise ModelValidationError("rate vector does not match path state space")
    total = 0.0
    for t0, t1, state in path.segments(start, end):
        total += (t1 - t0) * r.rates[state]
    return float(total)


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
