#!/usr/bin/env python3
"""Monte Carlo check of the recovered measure on random chain models.

For each random model: extract the dominant eigenpair of G - R, verify the
change-of-measure density averages to one, and cross-check a claim price
computed under the recovered measure against the analytic price.

Usage:
    python3 scripts/recovery_check.py [--n-models 5] [--n-paths 100000] [--seed 0]
"""
import argparse

import numpy as np

from ctmc_rates import (
    ClaimPayoff,
    perron_pair,
    price_claim,
    tipk_price,
)
from ctmc_rates.model import simulate_terminal
from ctmc_rates.pricing import mean_and_se


def random_model(rng, n_max=5, intensity_cap=2.0, rate_cap=0.2):
    from ctmc_rates import GeneratorMatrix, RateMap

    n = int(rng.integers(2, n_max + 1))
    off = rng.uniform(0.05, intensity_cap, size=(n, n))
    G = off - np.diag(np.diag(off))
    np.fill_diagonal(G, -G.sum(axis=1))
    return GeneratorMatrix(G), RateMap(rng.uniform(0.01, rate_cap, size=n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-models", type=int, default=5)
    ap.add_argument("--n-paths", type=int, default=100_000)
    ap.add_argument("--T", type=float, default=1.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print("model,n,rho,mean_Z,se_Z,tipk_err_in_se")
    for k in range(args.n_models):
        G, r = random_model(rng)
        rho, pi = perron_pair(G, r)

        states, integ = simulate_terminal(
            G, r, 0, args.T, args.n_paths, seed=rng.integers(2**31)
        )
        mean_Z, se_Z = mean_and_se(
            np.exp(-integ - rho * args.T) * pi[states] / pi[0]
        )

        phi = rng.uniform(0.0, 2.0, size=G.n)
        payoff = ClaimPayoff(phi, args.T)
        analytic = price_claim(G, r, payoff, 0.0)[0]
        est, se_p = tipk_price(G, r, payoff, 0.0, 0, args.n_paths, seed=rng.integers(2**31))
        print(
            f"{k},{G.n},{rho:.6f},{mean_Z:.6f},{se_Z:.2e},"
            f"{abs(est - analytic) / se_p:.2f}"
        )


if __name__ == "__main__":
    main()
