"""Real-world dynamics from risk-neutral state prices via the Perron eigenpair.

G - R has a unique eigenvalue rho of maximal real part with a strictly
positive eigenvector pi (Perron-Frobenius after an entrywise-nonnegative
shift). When rho < 0, tilting the jump intensities by pi(j)/pi(i) yields the
chain's generator under the real-world measure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ModelValidationError, RecoveryHypothesisError
from .model import (
    ChainPath,
    GeneratorMatrix,
    RateMap,
    integrate_rate,
    require_valid_model,
    simulate_terminal,
    validate_model,
)
from .policy import DEFAULT_POLICY
from .pricing import ClaimPayoff, mean_and_se

# panel width of _gth_lu; unshifted and total steps of _perron; a closed bracket's width
_PANEL, _CHEAP_STEPS, _MAX_STEPS, _CLOSED = 64, 64, 96, 4 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class PerronPair:
    """Maximal-real-part eigenvalue of G - R and its positive unit eigenvector."""

    rho: float
    pi: np.ndarray


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


def _perron(Q: np.ndarray, rates: np.ndarray, tol: float) -> tuple[float, np.ndarray]:
    """Perron pair of M = Q - diag(rates), checked by |M pi - rho pi| <= tol |M| pi.

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
                # a power of two at most the least pivot: scaling the right-hand
                # side by it keeps y finite on tiny rates and changes no bits
                c = np.ldexp(1.0, min(0, int(np.frexp(np.diag(LU).min())[1]) - 1))
            y = solve_triangular(LU, c * (v if cheap else np.ones(v.size)), lower=True,
                                 unit_diagonal=True, check_finite=False)
            y = solve_triangular(LU, y, check_finite=False)
            v, w = (y, c * v) if cheap else (v * y, v * (c + shift * y))
            v, w = v / v.max(), w / v.max()
        else:
            raise ModelValidationError(f"the bracket is open after {_MAX_STEPS} steps")
        # r is not 0, so rho < 0 even where it is nearer 0 than -5e-324
        rho, pi = -0.5 * (lo + hi) or -5e-324, v / np.linalg.norm(v)
        M = Q - np.diag(rates)
        bad = ~((pi > 0) & (np.abs(M @ pi - rho * pi) <= tol * (np.abs(M) @ pi)))
        if np.any(bad):
            raise ModelValidationError(f"pi underflows or |M pi - rho pi| > {tol:g} |M| pi in {bad.sum()} states")
    except (FloatingPointError, ModelValidationError) as exc:
        raise ModelValidationError(f"Perron solve failed: {exc}; bracket on -rho [{lo:.17g}, {hi:.17g}]") from exc
    return rho, pi


def dominant_eigenpair(G: GeneratorMatrix, r: RateMap) -> tuple[float, np.ndarray]:
    """Perron eigenvalue rho of G - R and its positive unit eigenvector pi, each
    entry accurate relative to itself; exactly (0, 1/sqrt(n)) when r = 0."""
    require_valid_model(G, r)
    if not np.any(r.rates):
        return 0.0, np.full(G.n, 1.0 / np.sqrt(G.n))
    # underflow from tiny valid data (a 1e-311 rate) is no error; _perron checks pi
    with np.errstate(all="raise", under="ignore"):
        return _perron(G.entries, r.rates, DEFAULT_POLICY.eigen_residual_tol)


def perron_pair(G: GeneratorMatrix, r: RateMap) -> PerronPair:
    """Perron eigenpair, gated on the recovery hypothesis rho < 0, i.e. r not identically 0."""
    rho, pi = dominant_eigenpair(G, r)
    if rho == 0.0:
        raise RecoveryHypothesisError("recovery hypothesis violated: rho = 0 (the short rate is identically 0)")
    resid = np.linalg.norm((G.entries - r.diagonal) @ pi - rho * pi)
    if resid > DEFAULT_POLICY.eigen_residual_tol:
        raise ModelValidationError(f"Perron eigen-residual too large: {resid:.3e}")
    pi.setflags(write=False)
    return PerronPair(rho=rho, pi=pi)


def recover_generator(pair: PerronPair, G: GeneratorMatrix) -> GeneratorMatrix:
    """Real-world generator G^pi: off-diagonals pi(j)/pi(i) g_ij, diagonals rebalanced."""
    pi = pair.pi
    if pi.shape[0] != G.n:
        raise ModelValidationError("eigenvector length does not match state count")
    Gp = (pi[None, :] / pi[:, None]) * G.entries
    np.fill_diagonal(Gp, 0.0)
    np.fill_diagonal(Gp, -Gp.sum(axis=1))
    G_p = GeneratorMatrix(Gp)
    report = validate_model(G_p, RateMap(np.zeros(G.n)))
    if not report.ok:
        raise ModelValidationError(f"recovered generator inadmissible: {report}")
    return G_p


def radon_nikodym_along_path(
    pair: PerronPair, r: RateMap, path: ChainPath, T: float
) -> float:
    """Density Z_T of the recovered measure w.r.t. the pricing measure.

    Z_T = exp(-int_0^T r(J_s) ds - rho T) * pi(J_T) / pi(J_0); its
    expectation over pricing-measure paths is 1.
    """
    integ = integrate_rate(path, r, 0.0, T)
    i0 = path.state_at(0.0)
    iT = path.state_at(T)
    return float(np.exp(-integ - pair.rho * T) * pair.pi[iT] / pair.pi[i0])


def tipk_price(
    pair: PerronPair,
    G_p: GeneratorMatrix,
    payoff: ClaimPayoff,
    t: float,
    T: float,
    i: int,
    n_paths: int,
    seed: int | np.random.Generator,
) -> tuple[float, float]:
    """Price via the transition-independent kernel, by simulation under G_p = G^pi.

    Estimates pi(i) e^{rho (T-t)} E^pi[ phi(J_T)/pi(J_T) | J_t = i ]; returns
    (estimate, standard error). Cross-checks the analytic price.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if t > T:
        raise ValueError(f"valuation time {t} after maturity {T}")
    if t == T:
        return float(payoff.values[i]), 0.0
    zero_rates = RateMap(np.zeros(G_p.n))
    states, _ = simulate_terminal(G_p, zero_rates, i, T - t, n_paths, seed)
    return mean_and_se(
        pair.pi[i] * np.exp(pair.rho * (T - t)) * payoff.values[states] / pair.pi[states]
    )
