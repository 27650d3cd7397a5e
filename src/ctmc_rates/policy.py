"""Shared numeric tolerances.

Both the library and the test suite read tolerances from one place so they
cannot drift apart.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    # generator row sums: |sum| <= row_sum_tol * max(1, max|entry|)
    row_sum_tol: float = 1e-12
    # e^{tG} rows must sum to 1 within this
    stochastic_tol: float = 1e-10
    # e^{tG} entries must be >= -entry_floor
    entry_floor: float = 1e-12
    # Chapman-Kolmogorov / semigroup composition
    semigroup_tol: float = 1e-9
    # an off-diagonal entry counts as an edge of the transition graph iff > support_eps
    support_eps: float = 1e-14
    # |(G-R)pi - rho pi| for the Perron pair
    eigen_residual_tol: float = 1e-10
    # hedge solve residual: <= hedge_residual_tol * (1 + |rhs|)
    hedge_residual_tol: float = 1e-10
    # a claim needs no bonds iff its jump exposure is <= exposure_cutoff * max|claim|
    exposure_cutoff: float = 1e-13
    # condition-number bound beyond which a bond basis is declared unhedgeable
    condition_limit: float = 1e12


DEFAULT_POLICY = NumericPolicy()
