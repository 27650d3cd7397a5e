"""Closed forms for the symmetric two-state model.

State 0 carries rate 0, state 1 carries rate r > 0, and both jump intensities
equal lambda. Everything here is an explicit eigendecomposition formula,
deliberately independent of the general matrix-exponential engine so it can
serve as a test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnhedgeableBasisError
from .model import GeneratorMatrix, RateMap


@dataclass(frozen=True)
class TwoStateModel:
    lam: float
    rate: float

    def __post_init__(self):
        if self.lam <= 0 or self.rate <= 0:
            raise ValueError("lambda and rate must be positive")

    @property
    def gamma(self) -> float:
        return float(np.hypot(2.0 * self.lam, self.rate))

    def generator(self) -> GeneratorMatrix:
        lam = self.lam
        return GeneratorMatrix(np.array([[-lam, lam], [lam, -lam]]))

    def rate_map(self) -> RateMap:
        return RateMap(np.array([0.0, self.rate]))


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


def closed_form_log_bonds(m: TwoStateModel, t: float, T: float) -> np.ndarray:
    """(log B(t,0;T), log B(t,1;T)) = rho tau + log(c_i + d_i e^{-gamma tau}).

    rho = -limiting_yield(m), c_{0,1} = (gamma + 2 lambda +- r)/(2 gamma) and
    d_i = 1 - c_i, so the log term is log1p(d_i expm1(-gamma tau)), which no
    factor e^{gamma tau} can overflow: finite at every maturity.
    """
    if t > T:
        raise ValueError(f"need t <= T, got t={t}, T={T}")
    lam, r, gam = m.lam, m.rate, m.gamma
    tau = T - t
    d = np.array([gam - 2.0 * lam - r, gam - 2.0 * lam + r]) / (2.0 * gam)
    return -limiting_yield(m) * tau + np.log1p(d * np.expm1(-gam * tau))


def closed_form_bonds(m: TwoStateModel, t: float, T: float) -> np.ndarray:
    """Zero-coupon bond prices (B(t,0;T), B(t,1;T))."""
    return np.exp(closed_form_log_bonds(m, t, T))


def closed_form_yield(m: TwoStateModel, t: float, T: float, i: int) -> float:
    if t >= T:
        raise ValueError(f"yield needs t < T, got t={t}, T={T}")
    return float(-closed_form_log_bonds(m, t, T)[i] / (T - t))


def limiting_yield(m: TwoStateModel) -> float:
    """Long-maturity yield (r + 2 lambda - gamma)/2, i.e. minus the Perron eigenvalue."""
    return (m.rate + 2.0 * m.lam - m.gamma) / 2.0


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


def closed_form_recovered_generator(m: TwoStateModel) -> np.ndarray:
    """Real-world generator: off-diagonals 2 lambda^2/(gamma + r) and (gamma + r)/2."""
    lam, r, gam = m.lam, m.rate, m.gamma
    g01 = 2.0 * lam**2 / (gam + r)
    g10 = (gam + r) / 2.0
    return np.array([[-g01, g01], [g10, -g10]])


def yield_curve_rows(m: TwoStateModel, t: float, grid: np.ndarray):
    """(T, Y(t,0;T), Y(t,1;T), asymptote) rows for the worked demo."""
    asym = limiting_yield(m)
    for T in grid:
        yield (
            float(T),
            closed_form_yield(m, t, float(T), 0),
            closed_form_yield(m, t, float(T), 1),
            asym,
        )
