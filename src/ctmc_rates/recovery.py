"""Real-world dynamics from risk-neutral state prices via the Perron eigenpair.

G - R has a unique eigenvalue rho of maximal real part with a strictly
positive eigenvector pi (Perron-Frobenius after an entrywise-nonnegative
shift). When rho < 0, tilting the jump intensities by pi(j)/pi(i) yields the
chain's generator under the real-world measure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

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
from .policy import DEFAULT_POLICY, NumericPolicy
from .pricing import ClaimPayoff


@dataclass(frozen=True)
class PerronPair:
    """Maximal-real-part eigenvalue of G - R and its positive unit eigenvector."""

    rho: float
    pi: np.ndarray


@dataclass(frozen=True)
class RecoveredMeasure:
    generator_p: GeneratorMatrix
    rho: float
    pi: np.ndarray


def dominant_eigenpair(G: GeneratorMatrix, r: RateMap) -> tuple[float, np.ndarray]:
    """Ungated Perron eigenpair of G - R, sign-normalized to positive entries."""
    require_valid_model(G, r)
    M = G.entries - r.diagonal
    vals, vecs = eig(M)
    k = int(np.argmax(vals.real))
    rho = float(vals[k].real)
    pi = vecs[:, k].real
    pi = pi / np.linalg.norm(pi)
    if pi.sum() < 0:
        pi = -pi
    if np.any(pi <= 0):
        raise ModelValidationError(
            "dominant eigenvector has a nonpositive entry after sign "
            "normalization; numerical failure (irreducibility guarantees "
            "strict positivity)"
        )
    return rho, pi


def perron_pair(
    G: GeneratorMatrix, r: RateMap, policy: NumericPolicy = DEFAULT_POLICY
) -> PerronPair:
    """Perron eigenpair, gated on the recovery hypothesis rho < 0."""
    rho, pi = dominant_eigenpair(G, r)
    if rho >= -1e-14:
        raise RecoveryHypothesisError(
            f"recovery hypothesis violated: rho = {rho:.6g} is nonnegative "
            "(holds iff the short rate is identically zero)"
        )
    resid = np.linalg.norm((G.entries - r.diagonal) @ pi - rho * pi)
    if resid > policy.eigen_residual_tol:
        raise ModelValidationError(f"Perron eigen-residual too large: {resid:.3e}")
    pi = pi.copy()
    pi.setflags(write=False)
    return PerronPair(rho=rho, pi=pi)


def perron_pair_power(
    G: GeneratorMatrix,
    r: RateMap,
    tol: float = 1e-13,
    max_iter: int = 200_000,
) -> tuple[float, np.ndarray]:
    """Verification fallback: shifted power iteration on G - R + cI.

    The shift c >= max_i(r_i - g_ii) makes the matrix entrywise nonnegative,
    so the iteration converges to the Perron vector.
    """
    require_valid_model(G, r)
    M = G.entries - r.diagonal
    c = float(np.max(r.rates - np.diag(G.entries))) + 1.0
    A = M + c * np.eye(G.n)
    v = np.ones(G.n) / np.sqrt(G.n)
    mu = 0.0
    for _ in range(max_iter):
        w = A @ v
        mu_new = float(np.linalg.norm(w))
        w /= mu_new
        if np.linalg.norm(w - v) < tol:
            v = w
            mu = mu_new
            break
        v, mu = w, mu_new
    rho = float(v @ (M @ v))  # Rayleigh quotient refines the shifted estimate
    return rho, v


def recover_generator(
    pair: PerronPair, G: GeneratorMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> RecoveredMeasure:
    """Real-world generator: off-diagonals pi(j)/pi(i) g_ij, diagonals rebalanced."""
    pi = pair.pi
    if pi.shape[0] != G.n:
        raise ModelValidationError("eigenvector length does not match state count")
    Gp = (pi[None, :] / pi[:, None]) * G.entries
    np.fill_diagonal(Gp, 0.0)
    np.fill_diagonal(Gp, -Gp.sum(axis=1))
    generator_p = GeneratorMatrix(Gp)
    report = validate_model(generator_p, RateMap(np.zeros(G.n)), policy=policy)
    if not report.ok:
        raise ModelValidationError(f"recovered generator inadmissible: {report}")
    return RecoveredMeasure(generator_p=generator_p, rho=pair.rho, pi=pair.pi)


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
    recovered: RecoveredMeasure,
    payoff: ClaimPayoff,
    t: float,
    T: float,
    i: int,
    n_paths: int,
    seed: int | np.random.Generator,
) -> tuple[float, float]:
    """Price via the transition-independent kernel, by simulation under G^pi.

    Estimates pi(i) e^{rho (T-t)} E^pi[ phi(J_T)/pi(J_T) | J_t = i ]; returns
    (estimate, standard error). Cross-checks the analytic price.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if t > T:
        raise ValueError(f"valuation time {t} after maturity {T}")
    if t == T:
        return float(payoff.values[i]), 0.0
    zero_rates = RateMap(np.zeros(recovered.generator_p.n))
    states, _ = simulate_terminal(
        recovered.generator_p, zero_rates, i, T - t, n_paths, seed
    )
    samples = (
        pair.pi[i] * np.exp(pair.rho * (T - t)) * payoff.values[states] / pair.pi[states]
    )
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("inf")
    return mean, se
