"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import time

import numpy as np

from ctmc_rates import (
    BondBasis,
    ClaimPayoff,
    HedgePlan,
    RateMap,
    TwoStateModel,
    arrow_debreu,
    bond_prices,
    caplet,
    floorlet,
    perron_pair,
    price_claim,
    recover_generator,
    replicate_on_path,
    simulate_path,
    simulate_terminal,
    tipk_price,
    validate_model,
)
from ctmc_rates.cli import main as cli_main
from ctmc_rates.two_state import (
    closed_form_ad,
    closed_form_bonds,
    closed_form_hedge,
    closed_form_recovered_generator,
    closed_form_yield,
)

from conftest import random_model

GRID = [
    (lam, r, tau)
    for lam in (0.1, 0.5, 2.0)
    for r in (0.01, 0.1, 1.0)
    for tau in (0.1, 1.0, 10.0)
]


def deviation(x, y):
    """Max deviation of x from y: relative above magnitude 1, absolute below."""
    return float(np.max(np.abs(np.asarray(x) - y) / np.maximum(np.abs(y), 1.0)))


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def closed_form_pass():
    """Worst deviation of the engine from the two-state closed forms over GRID."""
    worst = 0.0
    for lam, r, tau in GRID:
        m = TwoStateModel(lam, r)
        G, rm = m.generator(), m.rate_map()
        A = arrow_debreu(G, rm, 0.0, tau)
        A_cf = closed_form_ad(m, 0.0, tau)
        B = bond_prices(G, rm, 0.0, tau)
        B_cf = closed_form_bonds(m, 0.0, tau)
        worst = max(worst, deviation(A, A_cf))
        worst = max(worst, deviation(B, B_cf))
        for k in (0, 1):
            plan = HedgePlan(G, rm, tau, BondBasis((1.5 * tau,)), ClaimPayoff(np.eye(2)[k], tau))
            D = plan.positions(0.0, 0)[0]
            D_cf = closed_form_hedge(m, 0.0, tau, 1.5 * tau, k)
            worst = max(worst, deviation(D, D_cf))
        Gp = recover_generator(perron_pair(G, rm), G).entries
        Gp_cf = closed_form_recovered_generator(m)
        worst = max(worst, deviation(Gp, Gp_cf))
    return worst


def test_criterion_1_closed_form_equivalence():
    # One wall-clock sample of identical work ranges from 0.03 s to 1.2 s on a
    # contended 2-core machine (BLAS thread hand-offs inside matrix_exponential),
    # so the time bound applies to the fastest of three passes.
    worsts, times = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        worsts.append(closed_form_pass())
        times.append(time.perf_counter() - t0)
    worst = max(worsts)
    ok = worst <= 1e-12 and min(times) < 1.0
    report(
        1,
        ok,
        f"max relative deviation {worst:.2e} (bound 1e-12, every pass), runtime per "
        f"pass {', '.join(f'{t:.2f}s' for t in times)} (fastest < 1.0s)",
    )


def test_criterion_2_yield_curve_reproduction(tmp_path, capsys):
    m = TwoStateModel(0.5, 0.1)
    model = tmp_path / "model.txt"
    model.write_text("states: 2\ngenerator:\n-0.5 0.5\n0.5 -0.5\nrates: 0.0 0.1\n")
    out = tmp_path / "curve.csv"
    code = cli_main(
        ["yield-curve", str(model), "--t", "0", "--T-grid", "0.1:50:0.1",
         "--output", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    T = data["T"]
    asym = data["asymptote"][0]
    ys = (data["yield_0"], data["yield_1"])
    monotone = bool(np.all(np.diff(ys[0]) > 0) and np.all(np.diff(ys[1]) < 0))
    toward = bool(np.all(ys[0] < asym) and np.all(ys[1] > asym))
    expected_asym = abs(asym - 0.047506) < 1e-6
    oracle = max(
        deviation(y, [closed_form_yield(m, 0.0, float(Tk), i) for Tk in T])
        for i, y in enumerate(ys)
    )
    # B_i(T) = c_i e^{rho T} (1 + O(e^{-gamma T})), c_{0,1} = (gamma + 2 lam +- r)/(2 gamma),
    # so T |y_i(T) - asymptote| = kappa_i + O(e^{-gamma T}) with kappa_i = |log c_i|:
    # the gaps decay like 1/T, and from T = 25 on the remainder is below 1e-12.
    gam = m.gamma
    kappa = (
        float(np.log((gam + 2 * m.lam + m.rate) / (2 * gam))),
        float(-np.log((gam + 2 * m.lam - m.rate) / (2 * gam))),
    )
    late = T >= 25.0
    scaled = [T * np.abs(y - asym) for y in ys]
    law = max(float(np.max(np.abs(s[late] - k))) for s, k in zip(scaled, kappa))
    ok = monotone and toward and expected_asym and oracle <= 1e-12 and law <= 1e-9
    states = "; ".join(
        f"state{i}: T*gap {s[-1]:.10f}, kappa {k:.10f}, gap reaches 1e-3 at "
        f"T = kappa/1e-3 = {k / 1e-3:.2f}"
        for i, (s, k) in enumerate(zip(scaled, kappa))
    )
    report(
        2,
        ok,
        f"monotone={monotone}, toward={toward}, asymptote={asym:.6f}, max deviation "
        f"from closed form {oracle:.1e} (bound 1e-12), max |T*gap - kappa| over "
        f"T >= 25 {law:.1e} (bound 1e-9); at T = {T[-1]:.2f}: {states}",
    )


def test_criterion_3_monte_carlo_pricing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    hits = 0
    total = 0
    for _ in range(20):
        G, r = random_model(rng, n_max=5, intensity_cap=2.0, rate_cap=0.2)
        T = float(rng.uniform(0.5, 5.0))
        states, integ = simulate_terminal(G, r, 0, T, 200_000, seed=rng.integers(2**31))
        disc = np.exp(-integ)
        for _ in range(3):
            phi = rng.uniform(-1.0, 2.0, size=G.n)
            analytic = price_claim(G, r, ClaimPayoff(phi, T), 0.0)[0]
            samples = disc * phi[states]
            est = samples.mean()
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            total += 1
            if abs(est - analytic) <= 3.5 * se:
                hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 57 and total == 60 and elapsed < 60.0
    report(3, ok, f"{hits}/{total} within 3.5 SE, runtime {elapsed:.1f}s")


def test_criterion_4_replication_convergence():
    m = TwoStateModel(0.5, 0.1)
    G, r = m.generator(), m.rate_map()
    T = 1.0
    basis = BondBasis((1.5,))
    payoff = ClaimPayoff(np.array([1.0, 0.0]), T)  # notional 1
    paths = []
    seed = 0
    while len(paths) < 10:
        path = simulate_path(G, 0, 1.5, seed, r=r)
        if sum(t < T for t in path.jump_times) >= 2:
            paths.append(path)
        seed += 1
    errs = {}
    for dt in (1e-3, 5e-4, 1e-4):
        errs[dt] = np.mean(
            [replicate_on_path(G, r, p, T, basis, payoff, dt).terminal_error for p in paths]
        )
    decay = errs[5e-4] < 0.6 * errs[1e-3]
    fine_ok = errs[1e-4] < 1e-3
    ok = decay and fine_ok
    report(
        4,
        ok,
        f"mean terminal error: dt=1e-3 {errs[1e-3]:.2e}, dt=5e-4 {errs[5e-4]:.2e} "
        f"(ratio {errs[5e-4] / errs[1e-3]:.2f} < 0.6), dt=1e-4 {errs[1e-4]:.2e} < 1e-3",
    )


def test_criterion_5_recovery_soundness():
    rng = np.random.default_rng(31415)
    worst_resid = 0.0
    all_valid = True
    zt_ok = 0
    tipk_ok = 0
    n_models = 20
    for _ in range(n_models):
        G, r = random_model(rng, n_max=5, rate_cap=0.3)
        pair = perron_pair(G, r)
        resid = np.linalg.norm((G.entries - r.diagonal) @ pair.pi - pair.rho * pair.pi)
        worst_resid = max(worst_resid, resid)
        rec = recover_generator(pair, G)
        all_valid &= validate_model(rec, RateMap(np.zeros(G.n))).ok

        T = 1.5
        states, integ = simulate_terminal(G, r, 0, T, 200_000, seed=rng.integers(2**31))
        Z = np.exp(-integ - pair.rho * T) * pair.pi[states] / pair.pi[0]
        se = Z.std(ddof=1) / np.sqrt(Z.size)
        if abs(Z.mean() - 1.0) <= 3.5 * se:
            zt_ok += 1

        phi = rng.uniform(0.0, 2.0, size=G.n)
        payoff = ClaimPayoff(phi, T)
        analytic = price_claim(G, r, payoff, 0.0)[0]
        est, se = tipk_price(pair, rec, payoff, 0.0, T, 0, 100_000, seed=rng.integers(2**31))
        if abs(est - analytic) <= 3.5 * se:
            tipk_ok += 1
    ok = (
        worst_resid <= 1e-10
        and all_valid
        and zt_ok == n_models
        and tipk_ok == n_models
    )
    report(
        5,
        ok,
        f"max eigen-residual {worst_resid:.2e}, generators valid={all_valid}, "
        f"E[Z_T] in band {zt_ok}/{n_models}, TIPK in band {tipk_ok}/{n_models}",
    )


def test_criterion_6_caplet_floorlet_parity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        G, r = random_model(rng)
        t, T, Tb = 0.0, float(rng.uniform(0.5, 2.0)), 0.0
        Tb = T + float(rng.uniform(0.5, 2.0))
        for K in (0.0, float(rng.uniform(0.0, 0.3)), 1.0):
            lhs = caplet(G, r, t, T, Tb, K) - floorlet(G, r, t, T, Tb, K)
            rhs = (
                bond_prices(G, r, t, T) - bond_prices(G, r, t, Tb)
            ) / (Tb - T) - K * bond_prices(G, r, t, Tb)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-10
    report(6, ok, f"max parity violation {worst:.2e} (bound 1e-10)")


def test_criterion_7_arrow_debreu_completeness():
    rng = np.random.default_rng(7)
    worst_rowsum = 0.0
    worst_identity = 0.0
    for _ in range(10):
        G, r = random_model(rng, n_max=8)
        t, T = 0.3, float(rng.uniform(0.5, 4.0))
        A = arrow_debreu(G, r, t, T)
        B = bond_prices(G, r, t, T)
        worst_rowsum = max(worst_rowsum, float(np.max(np.abs(A.sum(axis=1) - B))))
        A_T = arrow_debreu(G, r, T, T)
        worst_identity = max(worst_identity, float(np.max(np.abs(A_T - np.eye(G.n)))))
    ok = worst_rowsum <= 1e-10 and worst_identity <= 1e-12
    report(
        7,
        ok,
        f"max |rowsum - bond| {worst_rowsum:.2e} (bound 1e-10), "
        f"max |A_T^T - I| {worst_identity:.2e} (bound 1e-12)",
    )
