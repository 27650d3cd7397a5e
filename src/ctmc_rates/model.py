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
    runs on every call.
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
    """The 1-norm of a matrix; of a stack, the largest 1-norm in it."""
    return float(np.abs(X).sum(axis=-2).max())


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
    """e^A for each matrix of a stack (b, n, n), none of them diagonal (so ||A||_1 > 0).

    Degree and squarings are chosen matrix by matrix; the products, the solve
    and the squarings then run once for all matrices that share them, each
    the same BLAS or LAPACK call a single matrix makes, so every matrix comes
    back with the bits of its own call.
    """
    b, n = A.shape[:2]
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    A8 = A4 @ A4
    norms = np.abs(A).sum(axis=1).max(axis=1).tolist()
    d = np.stack([np.abs(P).sum(axis=1).max(axis=1) for P in (A4, A6, A8)], axis=1)
    d4, d6, d8 = (d ** (1 / 4, 1 / 6, 1 / 8)).T.tolist()
    degree, squarings = np.full(b, 4), np.zeros(b, dtype=int)
    for i, norm in enumerate(norms):
        eta = max(d4[i], d6[i])
        for k in range(4):  # degrees 3, 5, 7, 9
            if k == 2:
                eta = max(d6[i], d8[i])
            if eta < _PADE_THETA[k] and _pade_ell(A[i], k, norm) == 0:
                degree[i] = k
                break
        else:  # degree 13
            if d6[i] > d8[i]:  # else min(max(d6, d8), max(d8, d10)) = d8 whatever d10 is
                eta = min(eta, max(d8[i], _norm1(A4[i] @ A6[i]) ** (1 / 10)))
            s = max(math.ceil(math.log2(eta / _PADE_THETA[4])), 0) if eta else 0
            squarings[i] = s + _pade_ell(A[i] * 2.0**-s, 4, norm * 2.0**-s)
    X = np.empty_like(A)
    for k in range(5):
        pick = np.flatnonzero(degree == k)
        if not pick.size:
            continue
        # I, A^2, A^4, ... side by side, so that their weighted sums are one product
        P = np.empty((pick.size, k + 2 if k < 4 else 4, n, n))
        P[:, 0] = np.eye(n)
        for j, Aj in enumerate((A2, A4, A6, A8)[:P.shape[1] - 1], 1):
            P[:, j] = Aj[pick]
        P = P.reshape(pick.size, P.shape[1], -1)
        if k < 4:
            W = (_PADE_UV[k] @ P).reshape(-1, 2, n, n)
            U, V = A[pick] @ W[:, 0], W[:, 1]
        else:
            # B = 2^-s A; scaling A^2j by 2^-2sj through the weights is exact
            s = squarings[pick][:, None, None]
            W = ((_PADE_W13 * np.ldexp(1.0, -2 * s * np.arange(4))) @ P).reshape(-1, 4, n, n)
            B6 = A6[pick] * np.ldexp(1.0, -6 * s)
            U, V = (A[pick] * np.ldexp(1.0, -s)) @ (B6 @ W[:, 0] + W[:, 1]), B6 @ W[:, 2] + W[:, 3]
        # r_m = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U; the second form was the
        # more accurate on 59% of 150 random stiff chains
        Xk = np.linalg.solve(V - U, U)
        Xk += Xk
        np.einsum("bii->bi", Xk)[...] += 1.0
        X[pick] = Xk
    for j in range(int(squarings.max(initial=0))):
        pick = np.flatnonzero(squarings > j)
        X[pick] = X[pick] @ X[pick]
    return X


# a stack is exponentiated in blocks of about this many entries per matrix
# power, which keeps the powers of a long stack of large matrices small
_EXPM_BLOCK = 1 << 17


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring with a Pade step (Al-Mohy & Higham 2009).

    M is one n x n matrix or a stack of them, shape (..., n, n); each matrix
    of a stack comes back bit for bit as from its own call. A diagonal
    matrix (1 x 1, zero) gives exp of its diagonal exactly. Otherwise the
    mean row sum mu is taken out first: e^M = e^mu e^{M - mu I}. For
    M = tau (G - R) that is the mean discount -tau mean(r), which left in
    costs the Pade step up to 1e-12 in relative accuracy (tau = 8, rates
    (1, 1)); a generator's rows sum to 0, so e^{tG} has no shift. A result
    that overflows is a ModelValidationError, never a NumPy warning.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite matrix")
    n = M.shape[-1]
    stack = M.reshape(-1, n, n)
    d = np.einsum("bii->bi", stack)
    X = np.zeros_like(stack)
    try:
        with np.errstate(all="raise", under="ignore"):
            diagonal = np.count_nonzero(stack, axis=(1, 2)) == np.count_nonzero(d, axis=1)
            np.einsum("bii->bi", X)[diagonal] = np.exp(d[diagonal])
            full, block = np.flatnonzero(~diagonal), max(1, _EXPM_BLOCK // max(n * n, 1))
            for lo in range(0, full.size, block):
                pick = full[lo:lo + block]
                mu = stack[pick].sum(axis=2).mean(axis=1)
                A = stack[pick]
                np.einsum("bii->bi", A)[...] -= mu[:, None]
                X[pick] = np.exp(mu)[:, None, None] * _pade_expm(A)
    except FloatingPointError as exc:
        raise ModelValidationError(f"e^M overflows at ||M||_1 = {_norm1(stack):.3g}: {exc}") from exc
    if not np.all(np.isfinite(X)):
        raise ModelValidationError(f"e^M is not finite at ||M||_1 = {_norm1(stack):.3g}")
    return X.reshape(M.shape)


# Half the exponent range of a double. A bond falls no faster than
# e^{-tau max r}, so below this tau max r nothing the kernel propagates comes
# near underflow, even after scaling by a payoff as small as 1e-150.
_LOG_HEADROOM = -0.5 * np.log(np.finfo(float).tiny)
# the planner looks for a run among this many times ahead of the point it has
# reached, and past them only when the run spans them all
_PLAN_WINDOW = 256


def _first_hole(k: np.ndarray) -> int:
    """The largest L with 1, ..., L all in the nondecreasing integers k."""
    if not k.size or k[0] > 1:
        return 0
    skip = np.flatnonzero(k[1:] - k[:-1] > 1)
    return int(k[skip[0]] if skip.size else k[-1])


def _near(d: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Which of the offsets d lie within 2^-20 h of k h, k >= 1, and the k."""
    k = np.rint(d / h)
    return (k >= 1) & (np.abs(d - k * h) <= h * 2.0**-20), k


def _plan(u: np.ndarray, tol: float, longest: float):
    """Runs of equal steps that reach the sorted distinct times u from time 0.

    Returns (runs, point, below, off). runs lists (h, count): count steps of
    h, each run going on from the time the one before it reached. Step
    number j (over all runs, 0 being time 0) reaches a time within tol of
    u[i] where point[i] = j; a time with point[i] = -1 lies off the runs and
    is reached from step number below[i] by one step of length off[i].

    Each run is found among the next _PLAN_WINDOW times, with the anchor a
    the time actually reached so far: its step h is the most common gap
    there, and the run takes the steps k = 1, ..., L for which some time
    lies within 2^-20 h of a + k h, with h refitted through the L-th. A time
    within tol of a + k h is that run point; any other time up to a + L h is
    off the run. Where no gap repeats, the farthest time is reached in one
    step and the others from a. A step longer than `longest` is taken as the
    fewest equal pieces within it.
    """
    N = len(u)
    runs: list[tuple[float, int]] = []
    point, below, off = np.full(N, -1), np.zeros(N, dtype=np.intp), np.zeros(N)
    i, a, base = 0, 0.0, 0
    while i < N:
        d = u[i:i + _PLAN_WINDOW] - a
        here = int(np.searchsorted(d, tol, side="right"))
        if here:  # reached already, up to tol or the rounding of a
            point[i:i + here] = base
            i += here
            continue
        gaps = d.copy()
        gaps[1:] -= d[:-1]
        gaps.sort()
        # the gaps cluster where sorted neighbours lie within tol; ends[c] + 1 starts cluster c
        ends = np.concatenate([[-1], np.flatnonzero(gaps[1:] - gaps[:-1] > tol), [gaps.size - 1]])
        sizes = ends[1:] - ends[:-1]
        L = 0
        if sizes.max() > 1:
            h = float(gaps[ends[np.argmax(sizes)] + 1])
            near, k = _near(d, h)
            L = _first_hole(k[near])
            if i + d.size < N and L and L == k[near][-1]:  # the run may go on past the window
                d = u[i:] - a
                near, k = _near(d, h)
                L = _first_hole(k[near])
        if L:
            at = np.flatnonzero(near & (k == L))
            h = float(d[at[np.argmin(np.abs(d[at] - L * h))]]) / L
            on = near & (np.abs(a + k * h - u[i:i + d.size]) <= tol)
        else:  # no run from a: one step to the first time, or where no gap
            # repeats to the farthest, with the times before it off that step
            far = d.size - 1 if sizes.max() == 1 else 0
            far = min(far, max(int(np.searchsorted(d, longest, side="right")) - 1, 0))
            h, L, k = float(d[far]), 1, np.zeros(d.size)
            on = np.arange(d.size) == far
            k[far] = 1
        pieces = max(1, math.ceil(h / longest))
        step = h / pieces
        used = int(np.searchsorted(d, L * h + tol, side="right"))
        on, k, d = on[:used] & (k[:used] <= L), k[:used], d[:used]
        point[i:i + used][on] = base + k[on].astype(np.intp) * pieces
        j = np.clip(np.floor(d / step), 0, L * pieces - 1).astype(np.intp)
        below[i:i + used] = base + j
        off[i:i + used] = d - j * step
        runs.append((step, L * pieces))
        i, a, base = i + used, a + L * h, base + L * pieces
    return runs, point, below, off


def propagate(
    G: GeneratorMatrix, r: RateMap, taus, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """e^{tau M} V for M = G - R at every tau in taus, in log-scaled form.

    Returns (scaled, log_scale) with shapes (len(taus), n, m) and
    (len(taus), m): column j of e^{taus[k] M} V is
    scaled[k, :, j] * exp(log_scale[k, j]). The taus may be unsorted and
    repeated. Sorted, they are split into runs of equal steps (see _plan);
    times within 2 eps max(taus) of each other are one time, the rounding
    that tau = T - t carries in every caller, unless that moves the result
    by more than 2^-46. A run of L steps of h takes
    log2 L products: from its step S = e^{hM}, X[w:2w] = S^w X[0:w] and
    S^{2w} = S^w S^w. A time off the runs, such as a path's jump time
    between mesh points, is one fresh step from the run point below it. All
    fresh exponentials come from one stacked matrix_exponential. When
    e^{-tau max r} could underflow, a run is taken in pieces no longer than
    the headroom and each column is rescaled by a power of two after every
    piece, which keeps log B finite at any maturity; otherwise log_scale is
    0 and scaled is the plain product.
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
    n, m = V.shape
    order = np.argsort(taus, kind="stable")
    t = taus[order]
    tau_max = float(t[-1]) if t.size else 0.0
    rate_max = float(r.rates.max())
    rescale = tau_max * rate_max > _LOG_HEADROOM
    longest = _LOG_HEADROOM / rate_max if rescale else math.inf
    # the rounding tau = T - t carries, as long as a time error that small
    # moves e^{tau M} by less than 2^-46 (~1.4e-14) relative
    norm = _norm1(M)
    tol = 2 * float(np.finfo(float).eps) * tau_max
    tol = min(tol, 2.0**-46 / norm) if norm else tol
    new = np.diff(t, prepend=0.0) > tol
    runs, point, below, off = _plan(t[new], tol, longest)

    lengths = sorted({h for h, _ in runs})
    away = np.flatnonzero(point < 0)
    S = matrix_exponential(np.concatenate([lengths, off[away]])[:, None, None] * M)
    # X[:, j] holds step number j of the runs, then the times off them; it is
    # state-major, so that a product over many points is one matrix product
    steps = sum(count for _, count in runs)
    X = np.empty((n, 1 + steps + away.size, m))
    X[:, 0] = V
    exponent = np.zeros((X.shape[1], m), dtype=np.int64)
    j = 0
    for h, count in runs:
        step = S[lengths.index(h)]
        piece = count if not rescale else max(1, int(longest // h))
        for lo in range(j, j + count, piece):
            hi = min(lo + piece, j + count)  # fill X[:, lo + 1 : hi + 1]
            Sw, w = step, 1
            while lo + w <= hi:
                take = min(w, hi + 1 - lo - w)
                np.matmul(Sw, X[:, lo:lo + take].reshape(n, -1),
                          out=X[:, lo + w:lo + w + take].reshape(n, -1))
                if take == w and lo + 2 * w <= hi:
                    Sw = Sw @ Sw
                w += take
            exponent[lo + 1:hi + 1] = exponent[lo]
            if rescale:
                _, e = np.frexp(np.abs(X[:, hi]).max(axis=0))
                X[:, hi] = np.ldexp(X[:, hi], -e)
                exponent[hi] += e
        j += count
    X[:, 1 + steps:] = (S[len(lengths):] @ X[:, below[away]].transpose(1, 0, 2)).transpose(1, 0, 2)
    exponent[1 + steps:] = exponent[below[away]]
    point[away] = 1 + steps + np.arange(away.size)

    at = np.empty(taus.size, dtype=np.intp)
    at[order] = np.concatenate([[0], point])[np.cumsum(new)]
    scaled = np.ascontiguousarray(X[:, at].transpose(1, 0, 2))
    return scaled, exponent[at] * np.log(2.0)


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
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, int]]]:
    """Event loop behind simulate_path and simulate_terminal.

    Each round draws one Exponential(1) holding time, scaled by the exit rate
    -g_ii, for every path still short of the horizon, then one uniform for
    each path that jumps, whose next state j has probability g_ij / (-g_ii)
    and is picked by inverse CDF. One path thus draws the variates of a
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

    Q = G.entries
    exit_rate = -np.diag(Q)
    probs = np.clip(Q, 0.0, None)
    np.fill_diagonal(probs, 0.0)
    # clipped: a cumsum can round above 1 early; a uniform in [0, 1) compares the
    # same. Padded with 1.0 to a power-of-two width for the batched search below
    width = 1 << (G.n - 1).bit_length()
    cum = np.ones((G.n, width))
    cum[:, :G.n - 1] = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)[:, :-1]
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

    Holding time in state i is Exponential(-g_ii); the next state is j with
    probability g_ij / (-g_ii). Deterministic given the seed. The path does
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
