"""Analytic pricing of European claims on the chain state at maturity.

Every claim paying phi(J_T) has value vector e^{(T-t)(G-R)} Phi, with R the
diagonal matrix of short rates. Bonds, yields, forward rates, caplets,
floorlets and Arrow-Debreu securities are all special cases, and all of them
go through model.propagate: yields and forward rates through its log scale,
so they stay finite at any maturity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelValidationError
from .model import (
    GeneratorMatrix,
    RateMap,
    propagate,
    simulate_terminal,
)


@dataclass(frozen=True)
class ClaimPayoff:
    """Payoff vector phi over states, paid at the maturity date."""

    values: np.ndarray
    maturity: float

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ModelValidationError("payoff must be a finite vector")
        if self.maturity < 0:
            raise ModelValidationError("maturity must be >= 0")
        object.__setattr__(self, "values", v)


def price_claim(
    G: GeneratorMatrix, r: RateMap, payoff: ClaimPayoff, t: float
) -> np.ndarray:
    if payoff.values.shape[0] != G.n:
        raise ModelValidationError("payoff length does not match state count")
    if t > payoff.maturity:
        raise ValueError(f"valuation time {t} is after maturity {payoff.maturity}")
    scaled, log_scale = propagate(G, r, [payoff.maturity - t], payoff.values[:, None])
    return scaled[0, :, 0] * np.exp(log_scale[0, 0])


def bond_prices(G: GeneratorMatrix, r: RateMap, t: float, T: float) -> np.ndarray:
    return price_claim(G, r, ClaimPayoff(np.ones(G.n), T), t)


def bond_price(G: GeneratorMatrix, r: RateMap, t: float, T: float, i: int) -> float:
    return float(bond_prices(G, r, t, T)[i])


def _log_bonds(G: GeneratorMatrix, r: RateMap, t: float, Ts: np.ndarray) -> np.ndarray:
    """log B(t, i; T) for every T >= t in Ts, shape (len(Ts), n)."""
    scaled, log_scale = propagate(G, r, Ts - t, np.ones((G.n, 1)))
    return np.log(scaled[:, :, 0]) + log_scale


def yield_curve(G: GeneratorMatrix, r: RateMap, t: float, Ts) -> np.ndarray:
    """Yields -log B(t, i; T) / (T - t) for every T in Ts, shape (len(Ts), n)."""
    Ts = np.asarray(Ts, dtype=float)
    if np.any(Ts <= t):
        raise ValueError(f"yield needs t < T, got t={t} and maturities {Ts}")
    return -_log_bonds(G, r, t, Ts) / (Ts - t)[:, None]


def zero_yield(G: GeneratorMatrix, r: RateMap, t: float, T: float, i: int) -> float:
    """Continuously compounded yield -log B / (T - t); undefined at t = T."""
    return float(yield_curve(G, r, t, [T])[0, i])


def forward_rate(
    G: GeneratorMatrix, r: RateMap, t: float, i: int, T: float, Tb: float
) -> float:
    """Simple forward rate locked at t for the accrual period [T, Tb]."""
    if Tb <= T:
        raise ValueError(f"need T < Tb, got T={T}, Tb={Tb}")
    log_B = _log_bonds(G, r, t, np.array([T, Tb], dtype=float))[:, i]
    return float(np.expm1(log_B[0] - log_B[1]) / (Tb - T))


def _price_at_reset(
    G: GeneratorMatrix, r: RateMap, t: float, T: float, Tb: float, psi: Callable
) -> np.ndarray:
    """Value at t of the T-maturity claim psi(B, Tb - T), B = B(T, j; Tb) over states j."""
    if Tb <= T:
        raise ValueError(f"need T < Tb, got T={T}, Tb={Tb}")
    if t > T:
        raise ValueError(f"valuation time {t} is after reset date {T}")
    psi_T = psi(bond_prices(G, r, T, Tb), Tb - T)
    return price_claim(G, r, ClaimPayoff(psi_T, T), t)


def price_forward_rate_option(
    G: GeneratorMatrix,
    r: RateMap,
    t: float,
    T: float,
    Tb: float,
    h: Callable[[float], float],
) -> np.ndarray:
    """Value of a claim paying h(forward rate fixed at T for [T, Tb]) at Tb.

    The payment is known at the reset date T, so it is priced as the
    T-maturity claim psi(j) = B(T, j; Tb) * h(F(T, j; T, Tb)).
    """
    def psi(B, d):
        with np.errstate(divide="ignore", over="ignore"):
            F = (1.0 / B - 1.0) / d
        if not np.all(np.isfinite(F)):
            j = int(np.argmin(np.isfinite(F)))
            raise ModelValidationError(f"B(T, {j}; Tb) underflows on [T, Tb] = [{T}, {Tb}]: F is not a double")
        return np.array([b * h(f) for b, f in zip(B, F)])

    return _price_at_reset(G, r, t, T, Tb, psi)


# Caplet and floorlet pay (F - K)+ and (K - F)+ at Tb. Written in B alone,
# their reset-date claims stay finite where B(T, j; Tb) underflows to 0.
def caplet(
    G: GeneratorMatrix, r: RateMap, t: float, T: float, Tb: float, K: float
) -> np.ndarray:
    return _price_at_reset(G, r, t, T, Tb, lambda B, d: np.maximum(1.0 - B * (1.0 + K * d), 0.0) / d)


def floorlet(
    G: GeneratorMatrix, r: RateMap, t: float, T: float, Tb: float, K: float
) -> np.ndarray:
    return _price_at_reset(G, r, t, T, Tb, lambda B, d: np.maximum(B * (1.0 + K * d) - 1.0, 0.0) / d)


def arrow_debreu(
    G: GeneratorMatrix, r: RateMap, t: float, T: float
) -> np.ndarray:
    """State-price kernel e^{(T-t)(G-R)}: entry (i, j) prices 1_{J_T = j} in state i."""
    if t > T:
        raise ValueError(f"valuation time {t} is after maturity {T}")
    scaled, log_scale = propagate(G, r, [T - t], np.eye(G.n))
    return scaled[0] * np.exp(log_scale[0])


def mc_price_claim(
    G: GeneratorMatrix,
    r: RateMap,
    payoff: ClaimPayoff,
    initial: int,
    n_paths: int,
    seed: int | np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the claim value at t=0 from state `initial`.

    Independent of the matrix-exponential route: simulates chain paths,
    discounts the payoff by the exact pathwise rate integral, and returns
    (mean, standard error).
    """
    T = payoff.maturity
    if T <= 0:
        raise ValueError("Monte Carlo pricing needs maturity > 0")
    states, integ = simulate_terminal(G, r, initial, T, n_paths, seed)
    return mean_and_se(np.exp(-integ) * payoff.values[states])


def mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error is inf for one sample."""
    n = samples.size
    se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return float(samples.mean()), se
