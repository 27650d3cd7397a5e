"""Real-world dynamics from risk-neutral state prices via the Perron eigenpair.

G - R has a unique eigenvalue rho of maximal real part with a strictly
positive eigenvector pi (Perron-Frobenius after an entrywise-nonnegative
shift). When rho < 0, tilting the jump intensities by pi(j)/pi(i) yields the
chain's generator under the real-world measure.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ModelValidationError, RecoveryHypothesisError
from .model import (
    GeneratorMatrix,
    RateMap,
    require_valid_model,
    simulate_terminal,
    validate_model,
)
from .pricing import ClaimPayoff, mean_and_se

# panel width of _gth_lu; unshifted and total steps of _perron; a closed bracket's width
_PANEL, _CHEAP_STEPS, _MAX_STEPS, _CLOSED = 64, 64, 96, 4 * float(np.finfo(float).eps)
# |(G-R)pi - rho pi| <= EIGEN_RESIDUAL_TOL |G-R| pi entrywise for the Perron pair
EIGEN_RESIDUAL_TOL = 1e-10


def _gth_lu(N: np.ndarray, s: np.ndarray) -> np.ndarray:
    """L (unit, below the diagonal) and U in one matrix for A = diag(s + N 1) - N.

    GTH-style, with no subtraction (Grassmann, Taksar & Heyman 1985; Alfa, Xue
    & Ye 2002): N >= 0 (diagonal ignored) and the row sums s >= 0 are updated
    by adding products, and each pivot is its row sum plus the magnitudes
    right of it. Panels go column by column, the rest by one product each.
    """
    n = s.size
    W = np.column_stack([N, s])
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        for k in range(k0, k1):
            W[k, k + 1:] += W[k, k0:k] @ W[k0:k, k + 1:]
            W[k + 1:, k] += W[k + 1:, k0:k] @ W[k0:k, k]
            W[k, k] = W[k, n] + W[k, k + 1:n].sum()
            W[k + 1:, k] /= W[k, k]
        W[k1:, k1:] += W[k1:, k0:k1] @ W[k0:k1, k1:]
    LU = -W[:, :n]
    np.fill_diagonal(LU, np.diag(W))
    return LU


def _unit_upper_inverses(N: np.ndarray) -> np.ndarray:
    """Inverses of I + N for a stack of strictly upper N <= 0, each _PANEL square.

    By doubling: the inverse of [[T1, N12], [0, T2]] is [[X1, -X1 N12 X2],
    [0, X2]] from the inverses X1, X2 >= 0 of its halves, so every entry is a
    sum of nonnegative products. The w x w diagonal blocks of all matrices are
    taken at once through a strided view.
    """
    X = np.zeros_like(N)
    np.einsum("bii->bi", X)[...] = 1.0
    s0, s1, s2 = N.strides
    w = 2
    while w <= _PANEL:
        shape, strides, h = (len(N), _PANEL // w, w, w), (s0, w * (s1 + s2), s1, s2), w // 2
        Nw, Xw = as_strided(N, shape, strides), as_strided(X, shape, strides)
        Xw[..., :h, h:] = -(Xw[..., :h, :h] @ Nw[..., :h, h:]) @ Xw[..., h:, h:]
        w *= 2
    return X


def _lu_panels(LU: np.ndarray) -> list[tuple]:
    """For each _PANEL of rows k0:k1 of _gth_lu's factors: (k0, k1, L[k0:k1, :k0],
    the inverse of L's diagonal block, U[k0:k1, k1:], the inverse of the
    diagonal block of D^-1 U, D = diag(U), and the pivots D[k0:k1]).

    The blocks of L (transposed) and of D^-1 U are unit triangular M-matrices,
    so their inverses are >= 0; D^-1 U is row diagonally dominant, so its
    inverse's entries lie in [0, 1]. The last panel is zero-padded to _PANEL.
    """
    n = len(LU)
    starts = range(0, n, _PANEL)
    N = np.zeros((2 * len(starts), _PANEL, _PANEL))
    for i, k0 in enumerate(starts):
        B = LU[k0:k0 + _PANEL, k0:k0 + _PANEL]
        w = len(B)
        N[2 * i, :w, :w] = np.tril(B, -1).T
        N[2 * i + 1, :w, :w] = np.triu(B, 1) / np.diag(B)[:, None]
    X = _unit_upper_inverses(N)
    panels = []
    for i, k0 in enumerate(starts):
        k1 = min(k0 + _PANEL, n)
        w = k1 - k0
        panels.append((k0, k1, LU[k0:k1, :k0], X[2 * i, :w, :w].T, LU[k0:k1, k1:],
                       X[2 * i + 1, :w, :w], np.diag(LU)[k0:k1]))
    return panels


def _lu_solve(panels: list[tuple], b: np.ndarray) -> np.ndarray:
    """U^-1 L^-1 b for b >= 0, one block product per panel and triangle.

    The off-diagonal factors are <= 0 and every vector >= 0, so each
    subtraction adds magnitudes: the solve stays subtraction-free.
    """
    y, x = np.empty(b.size), np.empty(b.size)
    for k0, k1, Lk, Li, _, _, _ in panels:
        y[k0:k1] = Li @ (b[k0:k1] - Lk @ y[:k0])
    for k0, k1, _, _, Uk, Ti, dk in reversed(panels):
        x[k0:k1] = Ti @ ((y[k0:k1] - Uk @ x[k1:]) / dk)
    return x


def _perron(Q: np.ndarray, rates: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron pair of M = Q - diag(rates), checked by |M pi - rho pi| <= EIGEN_RESIDUAL_TOL |M| pi,
    each diagonal of Q taken as minus its row's off-diagonal sum.

    Each iterate v > 0 has w = A v, A = diag(rates) - Q, so [min w/v, max w/v]
    brackets -rho (Collatz-Wielandt). Inverse iteration uses one factoring of
    A; if the bracket is open after _CHEAP_STEPS, each step factors
    D^-1 A D - min(w/v) I, D = diag(v), whose row sums are again >= 0 (Noda's
    iteration, fast even for a tiny gap below rho).
    """
    v, w, LU = np.ones(rates.size), rates, None
    try:
        for step in range(_MAX_STEPS):
            q = w / v
            lo, hi = float(q.min()), float(q.max())
            if hi - lo <= _CLOSED * hi:
                break
            cheap = LU is not None and step < _CHEAP_STEPS
            if not cheap:
                shift = 0.0 if LU is None else lo
                LU = _gth_lu(Q * v / v[:, None], q - shift)
                if not (np.all(np.diag(LU) > 0) and np.all(np.isfinite(LU))):
                    raise ModelValidationError("a pivot is not positive and finite")
                panels = _lu_panels(LU)
                # a power of two at most the least pivot: scaling the right-hand
                # side by it keeps y finite on tiny rates and changes no bits
                c = np.ldexp(1.0, min(0, int(np.frexp(np.diag(LU).min())[1]) - 1))
            y = _lu_solve(panels, c * (v if cheap else np.ones(v.size)))
            v, w = (y, c * v) if cheap else (v * y, v * (c + shift * y))
            v, w = v / v.max(), w / v.max()
        else:
            raise ModelValidationError(f"the bracket is open after {_MAX_STEPS} steps")
        # r is not 0, so rho < 0 even where it is nearer 0 than -5e-324
        rho, pi = -0.5 * (lo + hi) or -5e-324, v / np.linalg.norm(v)
        M = np.where(np.eye(rates.size, dtype=bool), 0.0, Q)
        np.fill_diagonal(M, -M.sum(axis=1) - rates)
        bad = ~((pi > 0) & (np.abs(M @ pi - rho * pi) <= EIGEN_RESIDUAL_TOL * (np.abs(M) @ pi)))
        if np.any(bad):
            raise ModelValidationError(
                f"pi underflows or |M pi - rho pi| > {EIGEN_RESIDUAL_TOL:g} |M| pi in {bad.sum()} states")
    except (FloatingPointError, ModelValidationError) as exc:
        raise ModelValidationError(f"Perron solve failed: {exc}; bracket on -rho [{lo:.17g}, {hi:.17g}]") from exc
    return rho, pi


def perron_pair(G: GeneratorMatrix, r: RateMap) -> tuple[float, np.ndarray]:
    """Perron eigenvalue rho < 0 of G - R and its positive unit eigenvector pi,
    read-only, each entry accurate relative to itself.

    Raises RecoveryHypothesisError before any solve when r is identically 0
    (then rho = 0). The pair is checked entrywise, |M pi - rho pi| <=
    EIGEN_RESIDUAL_TOL |M| pi with M = G - R: a test that reads the same in
    any unit of time, since scaling G and r by c scales both sides by c.
    """
    require_valid_model(G, r)
    if not np.any(r.rates):
        raise RecoveryHypothesisError("recovery hypothesis violated: rho = 0 (the short rate is identically 0)")
    # A rate far below the smallest normal double leaves the elimination's
    # products of it with the factors to round to 0 (rates (5e-324, 0) on an
    # asymmetric pair gave a zero pivot). c (G, r) with c = 2^k has the same pi
    # and c rho and is formed exactly, so k lifts the least positive rate to
    # 2^-1000, within what the largest entry leaves of the exponent range.
    least = int(np.frexp(r.rates[r.rates > 0].min())[1])
    top = int(np.frexp(max(-G.entries.min(), G.entries.max(), r.rates.max()))[1])
    k = max(0, min(-1000 - least, 1000 - top - G.n.bit_length()))
    c = 2.0**k
    Q, rates = (c * G.entries, c * r.rates) if k else (G.entries, r.rates)
    # underflow from tiny valid data (a 1e-311 rate) is no error; _perron checks pi
    with np.errstate(all="raise", under="ignore"):
        rho, pi = _perron(Q, rates)
        rho = rho / c or -5e-324  # still < 0 when rho / c underflows
    pi.setflags(write=False)
    return rho, pi


def recover_generator(G: GeneratorMatrix, pi: np.ndarray) -> GeneratorMatrix:
    """Real-world generator G^pi: off-diagonals pi(j)/pi(i) g_ij, diagonals
    rebalanced. It divides by pi, which must be a finite, strictly positive (n,) array.

    G must pass validate_model at zero rates, the gate of perron_pair. G^pi
    then passes by construction and is marked so: pi > 0 keeps G's graph and
    signs, also where a pi-scaled intensity lies below SUPPORT_EPS, and each
    diagonal is minus its row's off-diagonal sum.
    """
    ok = isinstance(pi, np.ndarray) and pi.dtype.kind in "iuf" and pi.shape == (G.n,)
    if not (ok and np.all((pi > 0) & (pi < np.inf))):
        raise ModelValidationError(f"eigenvector must be a finite, strictly positive array of length {G.n}")
    bad = validate_model(G, RateMap(np.zeros(G.n)))
    if bad:
        raise ModelValidationError(f"recovered generator inadmissible: {'; '.join(v for v, _ in bad)}")
    Gp = (pi[None, :] / pi[:, None]) * G.entries
    np.fill_diagonal(Gp, 0.0)
    np.fill_diagonal(Gp, -Gp.sum(axis=1))
    G_p = GeneratorMatrix(Gp)
    object.__setattr__(G_p, "_passed", True)
    return G_p


def tipk_price(
    G: GeneratorMatrix,
    r: RateMap,
    payoff: ClaimPayoff,
    t: float,
    i: int,
    n_paths: int,
    seed: int | np.random.Generator,
) -> tuple[float, float]:
    """Price via the transition-independent kernel, by simulation under G^pi.

    Estimates pi(i) e^{rho (T-t)} E^pi[ phi(J_T)/pi(J_T) | J_t = i ] with T = payoff.maturity
    and rho, pi, G^pi recovered from (G, r); returns (estimate, standard error).
    Cross-checks the analytic price.
    """
    T = payoff.maturity
    if payoff.values.shape[0] != G.n:
        raise ModelValidationError("payoff length does not match state count")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if t > T:
        raise ValueError(f"valuation time {t} after maturity {T}")
    if not 0 <= i < G.n:
        raise ValueError(f"initial state {i} outside state space")
    if t == T:
        return float(payoff.values[i]), 0.0
    rho, pi = perron_pair(G, r)
    states, _ = simulate_terminal(recover_generator(G, pi), RateMap(np.zeros(G.n)), i, T - t, n_paths, seed)
    return mean_and_se(pi[i] * np.exp(rho * (T - t)) * payoff.values[states] / pi[states])
