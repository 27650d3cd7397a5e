"""Closed forms for the symmetric two-state model.

State 0 carries rate 0, state 1 carries rate r > 0, and both jump intensities
equal lambda. The yields behind the `demo` command are explicit formulas,
independent of the general matrix-exponential engine; the test suite builds
its closed-form oracles (tests/oracles.py) on the same model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GeneratorMatrix, RateMap


@dataclass(frozen=True)
class TwoStateModel:
    lam: float
    rate: float

    def __post_init__(self):
        if not (0 < self.lam < np.inf and 0 < self.rate < np.inf):
            raise ValueError(f"lambda and rate must be positive and finite, got {self.lam}, {self.rate}")

    @property
    def gamma(self) -> float:
        return float(np.hypot(2.0 * self.lam, self.rate))

    def generator(self) -> GeneratorMatrix:
        lam = self.lam
        return GeneratorMatrix(np.array([[-lam, lam], [lam, -lam]]))

    def rate_map(self) -> RateMap:
        return RateMap(np.array([0.0, self.rate]))


def closed_form_log_bonds(m: TwoStateModel, t: float, T) -> np.ndarray:
    """(log B(t,0;T), log B(t,1;T)) = rho tau + log(c_i + d_i e^{-gamma tau}),
    shape (2,) for one maturity T and (len(T), 2) for an array of them.

    rho = -limiting_yield(m), c_{0,1} = (gamma + 2 lambda +- r)/(2 gamma) and
    d_i = 1 - c_i. With s = r + 2 lambda + gamma, they are formed without a
    difference: c_0 = 1 - d_0, d_0 = -2 lambda r/(gamma s), c_1 = lambda
    (1 + 2 lambda/(gamma + r))/gamma and d_1 = r (r + gamma)/(gamma s), so
    they keep their relative accuracy where r >> lambda. The log term is
    log1p(x), x = d_i expm1(-gamma tau), while x > -1/2, and otherwise
    log(c_i + d_i e^{-gamma tau}), a sum of positive terms: no factor
    e^{gamma tau} can overflow, and it is finite at every maturity.
    """
    if np.any(t > np.asarray(T)):
        raise ValueError(f"need t <= T, got t={t}, T={T}")
    lam, r, gam = m.lam, m.rate, m.gamma
    tau = np.subtract(T, t)[..., None]
    s = r + 2.0 * lam + gam
    d = np.array([-2.0 * lam * r, r * (r + gam)]) / (gam * s)
    c = np.array([1.0 - d[0], lam * (1.0 + 2.0 * lam / (gam + r)) / gam])
    x = d * np.expm1(-gam * tau)
    return -limiting_yield(m) * tau + np.where(x > -0.5, np.log1p(x), np.log(c + d * np.exp(-gam * tau)))


def limiting_yield(m: TwoStateModel) -> float:
    """Long-maturity yield (r + 2 lambda - gamma)/2, i.e. minus the Perron
    eigenvalue, as 2 lambda r/(r + 2 lambda + gamma), which does not cancel."""
    return 2.0 * m.lam * m.rate / (m.rate + 2.0 * m.lam + m.gamma)
