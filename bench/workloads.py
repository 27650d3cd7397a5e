"""Seeded model families, workload definitions and output oracles.

Every input the benchmark feeds the program is generated here from the
workload seed and written as a plain-text model file; the program sees only
those files and the argv. Each oracle recomputes what an operation should
print with plain NumPy (``eigh`` of a symmetrised reversible chain,
uniformization, a fresh eigen-residual) and never calls the package, so it
does not depend on the layer being timed.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# --- model families ---------------------------------------------------------


def birth_death(n: int, rng: np.random.Generator, intensity=(0.5, 1.5), rate_max=0.1):
    """Birth-death chain on the evenly spaced rate grid [0, rate_max].

    Birth and death intensities are iid uniform on ``intensity``. The grid
    spans the same range for every n, so a larger chain has finer rate
    steps; with the defaults, from about 150 states the Perron vector of
    G - R decays below 1e-16 of its maximum.
    """
    up = rng.uniform(*intensity, n - 1)
    down = rng.uniform(*intensity, n - 1)
    G = np.diag(up, 1) + np.diag(down, -1)
    np.fill_diagonal(G, -G.sum(axis=1))
    return G, np.linspace(0.0, rate_max, n)


def dense(n: int, rng: np.random.Generator):
    """Dense chain: off-diagonal intensities U(0,1)/n, rates U(0, 0.1).

    Intensities are rounded to six significant digits, the precision the
    model file carries, so the file and the in-memory model agree exactly.
    """
    Q = np.array([float(f"{x:.6g}") for x in rng.uniform(0.0, 1.0, n * n) / n]).reshape(n, n)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q, rng.uniform(0.0, 0.1, n)


def write_model(path: str, G: np.ndarray, rates: np.ndarray) -> None:
    def fmt(x: float) -> str:
        return "0" if x == 0.0 else repr(float(x))

    lines = [f"states: {G.shape[0]}", "generator:"]
    lines += [" ".join(fmt(x) for x in row) for row in G]
    lines.append("rates: " + " ".join(fmt(x) for x in rates))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- oracles ------------------------------------------------------------------


class ReversibleOracle:
    """e^{tau (G - R)} v for a birth-death chain via ``eigh``.

    With p the reversible law of G (p_{i+1}/p_i = g_{i,i+1}/g_{i+1,i}) and
    D = diag(sqrt p), S = D (G - R) D^{-1} is symmetric tridiagonal, so
    e^{tau M} = D^{-1} V e^{tau L} V^T D. This route shares nothing with the
    package's Pade ``expm``.
    """

    def __init__(self, G: np.ndarray, rates: np.ndarray):
        up, down = np.diag(G, 1), np.diag(G, -1)
        logp = np.concatenate([[0.0], np.cumsum(np.log(up) - np.log(down))])
        self.d = np.exp(0.5 * (logp - logp.max()))
        S = np.diag(np.diag(G) - rates) + np.diag(np.sqrt(up * down), 1) + np.diag(np.sqrt(up * down), -1)
        self.lam, self.V = np.linalg.eigh(S)

    def propagate(self, tau: float, v: np.ndarray) -> np.ndarray:
        w = self.V.T @ (self.d * v)
        return (self.V @ (np.exp(tau * self.lam) * w)) / self.d


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@dataclass
class Check:
    """Outcome of one output check: ``ok`` plus a one-line reason if not."""

    ok: bool
    detail: str = ""


def check_curve(text: str, ctx: dict) -> Check:
    oracle: ReversibleOracle = ctx["oracle"]
    grid: np.ndarray = ctx["grid"]
    header, rows = parse_csv(text)
    n = ctx["n"]
    if len(header) != n + 1 or len(rows) != grid.size:
        return Check(False, f"curve shape {len(rows)}x{len(header)}, expected {grid.size}x{n + 1}")
    got = np.array(rows, dtype=float)
    Ts = got[:, 0]
    if not np.allclose(Ts, grid, rtol=0, atol=1e-9):
        return Check(False, "maturity column differs from the grid")
    ones = np.ones(n)
    want_B = np.array([oracle.propagate(T, ones) for T in Ts])
    B = np.exp(-got[:, 1:] * Ts[:, None])
    if not (np.all(B > 0) and np.all(B <= 1 + 1e-15)):
        return Check(False, "bond price outside (0, 1]")
    want_y = -np.log(want_B) / Ts[:, None]
    err = float(np.max(np.abs(got[:, 1:] - want_y)))
    if not err <= CURVE_YIELD_TOL:
        return Check(False, f"yield differs from eigh oracle by {err:.3e}")
    return Check(True)


# Pade expm and the eigh route give yields within 6e-14 of each other
# (measured over 29 seeds); 1e-10 leaves three orders of headroom.
CURVE_YIELD_TOL = 1e-10
# Exposure identity residual, relative to 1 + sum|D|: rounding leaves about
# eps * sum|D| (below 2e-15 measured), so 1e-12 keeps two orders of
# headroom while positions off by 1e-6 fail.
HEDGE_TOL = 1e-12


def check_hedge(text: str, ctx: dict) -> Check:
    """Exposure matching: sum_k D_k (B_jk - B_ik) = U_j - U_i for all j != i."""
    oracle: ReversibleOracle = ctx["oracle"]
    T, basis, payoff, grid = ctx["T"], ctx["basis"], ctx["payoff"], ctx["grid"]
    n = payoff.size
    header, rows = parse_csv(text)
    if len(rows) != grid.size * n or len(header) != 3 + len(basis):
        return Check(False, f"hedge table has {len(rows)} rows, expected {grid.size * n}")
    ones = np.ones(n)
    worst = 0.0
    for r0 in range(0, len(rows), n):
        t = float(rows[r0][0])
        B = np.array([oracle.propagate(Tm - t, ones) for Tm in basis])  # bond x state
        U = oracle.propagate(T - t, payoff)
        for i in range(n):
            row = rows[r0 + i]
            if int(row[1]) != i or float(row[0]) != t:
                return Check(False, f"unexpected row order at t={t}")
            D = np.array(row[2:2 + len(basis)], dtype=float)
            resid = float(row[-1])
            scale = 1.0 + float(np.abs(D).sum())
            match = (D @ (B - B[:, [i]])) - (U - U[i])
            worst = max(worst, float(np.abs(match).max()) / scale,
                        abs(resid - (U[i] - D @ B[:, i])) / scale)
    if not worst <= HEDGE_TOL:
        return Check(False, f"exposure identity residual {worst:.3e}")
    return Check(True)


# Replication tolerance. The rebalancing grid is the dt mesh refined with the
# path's exact jump times, and positions are held over each step. Expanding
# the self-financing portfolio against the claim value U gives two error
# sources, both first order in dt (the paper's O(dt) convergence):
#   drift: each jump-free step loses (dt^2/2) |D'.(dB/dt - r B) + r^2 psi|,
#          psi = U - D.B the money-market residual, so at most dt * A over
#          [0, T] with A = (1/2) int_0^T max_s |...| dt;
#   jumps: positions set up to dt before a jump miss its exposure by at most
#          dt * Bj, Bj = max |D'.(B(s') - B(s))| over neighbours s' of s.
# A path with J jumps must end within REPLICATE_SAFETY * dt * (A + J * Bj);
# the factor 2 covers the O(dt^2) remainder of the expansion.
REPLICATE_SAFETY = 2.0


def replication_constants(oracle: ReversibleOracle, rates: np.ndarray, T: float,
                          basis, payoff: np.ndarray, h: float = 1e-3) -> tuple[float, float]:
    """(A, Bj) above for a birth-death chain, from the eigh oracle."""
    n = payoff.size

    def hedge(t):
        B = np.array([oracle.propagate(Tm - t, np.ones(n)) for Tm in basis])  # bond x state
        U = oracle.propagate(T - t, payoff)
        D = np.array([
            np.linalg.solve((B[:, oth] - B[:, [s]]).T, U[oth] - U[s])
            for s in range(n) for oth in [[j for j in range(n) if j != s]]
        ])
        return D, B, U

    A = Bj = 0.0
    D, B, U = hedge(0.0)
    for t in np.arange(h, T + h / 2, h):
        D1, B1, U1 = hedge(t)
        Dd = (D1 - D) / h
        dB = (B1 - B) / h
        psi = U - np.einsum("sk,ks->s", D, B)
        drift = np.einsum("sk,ks->s", Dd, dB - rates[None, :] * B) + rates**2 * psi
        A += 0.5 * h * float(np.abs(drift).max())
        for s in range(n):
            for s2 in (s - 1, s + 1):
                if 0 <= s2 < n:
                    Bj = max(Bj, abs(float(Dd[s] @ (B[:, s2] - B[:, s]))))
        D, B, U = D1, B1, U1
    return A, Bj


def check_replicate(text: str, ctx: dict) -> Check:
    header, rows = parse_csv(text)
    if header[:3] != ["path", "n_jumps", "terminal_error"] or len(rows) != ctx["N"]:
        return Check(False, f"replicate table has {len(rows)} rows, expected {ctx['N']}")
    A, Bj = ctx["constants"]
    for row in rows:
        err, jumps = float(row[2]), int(row[1])
        tol = REPLICATE_SAFETY * ctx["dt"] * (A + jumps * Bj)
        if not err <= tol:
            return Check(False, f"path {row[0]}: terminal error {err:.3e} above {tol:.3e}")
    return Check(True)


def check_recover(report: dict, G: np.ndarray, rates: np.ndarray) -> Check:
    """pi > 0, a fresh eigen-residual, and G^pi = (pi_j/pi_i) g_ij with zero row sums."""
    rho = float(report["rho"])
    pi = np.array(report["pi"], dtype=float)
    Gp = np.array(report["generator_p"], dtype=float)
    n = G.shape[0]
    if pi.shape != (n,) or Gp.shape != (n, n):
        return Check(False, "recover report has the wrong shape")
    if not np.all(pi > 0):
        return Check(False, f"pi has {int(np.sum(pi <= 0))} nonpositive entries")
    resid = float(np.linalg.norm((G - np.diag(rates)) @ pi - rho * pi))
    if not resid <= 1e-10:
        return Check(False, f"Perron residual {resid:.3e}")
    rows = float(np.abs(Gp.sum(axis=1)).max())
    if not rows <= 1e-12 * max(1.0, float(np.abs(Gp).max())):
        return Check(False, f"recovered generator row sum {rows:.3e}")
    off = Gp - np.diag(np.diag(Gp))
    want = (pi[None, :] / pi[:, None]) * (G - np.diag(np.diag(G)))
    dev = float(np.abs(off - want).max())
    if not dev <= 1e-12 * max(1.0, float(np.abs(want).max())):
        return Check(False, f"recovered generator differs from (pi_j/pi_i) g_ij by {dev:.3e}")
    return Check(True)


# occupancy check: each state's share within OCC_K standard errors
OCC_K = 6.0


def horizon_law(Gp: np.ndarray, initial: int, horizon: float) -> np.ndarray:
    """Law of J_horizon under Gp from a point mass, by uniformization.

    The stationary law of Gp is the horizon-infinity limit, but from a point
    mass at horizon 5 about e^{-2.5} of the paths have not jumped yet, so the
    occupancy is compared with this exact finite-horizon law instead.
    """
    q = float(np.max(-np.diag(Gp)))
    P = np.eye(Gp.shape[0]) + Gp / q
    v = np.zeros(Gp.shape[0])
    v[initial] = 1.0
    term = math.exp(-q * horizon)
    out = term * v
    k = 0
    while term > 1e-18 or k < q * horizon:
        k += 1
        v = v @ P
        term *= q * horizon / k
        out += term * v
    return out


def stationary_law(Gp: np.ndarray) -> np.ndarray:
    n = Gp.shape[0]
    A = np.vstack([Gp.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    return p


def check_simulate(text: str, law: np.ndarray, N: int) -> Check:
    header, rows = parse_csv(text)
    occ = np.array([float(r[2]) for r in rows if r[0] == "occupancy_at_horizon"])
    if occ.shape != law.shape:
        return Check(False, f"{occ.size} occupancy rows for {law.size} states")
    se = np.sqrt(np.maximum(law, 1.0 / N) * (1.0 - law) / N)
    z = float(np.max(np.abs(occ - law) / se))
    if not z <= OCC_K:
        return Check(False, f"occupancy {z:.1f} SE from the horizon law")
    for r in rows:
        if r[0] != "measure" and not math.isfinite(float(r[2])):
            return Check(False, f"non-finite {r[0]}")
    return Check(True)


# --- workloads ----------------------------------------------------------------


@dataclass
class Command:
    """One ctmc-rates invocation and the check its stdout must pass."""

    argv: list[str]
    check: Callable[[str], "Check"]


@dataclass
class Workload:
    """A timed operation (its commands, run in order) and untimed probes."""

    model: str  # the model file setup_s loads
    commands: list[Command]
    # untimed operations run once per run; their failures count in error_rate
    probes: list[Command] = field(default_factory=list)


HEDGE_BASIS = (2.0, 3.0, 4.0, 5.0)
HEDGE_PAYOFF = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
HEDGE_T = 1.0


def _hedge_chain(seed: int, workdir: str) -> tuple[str, np.ndarray, np.ndarray]:
    # 5 states with the 4-bond full basis; a 10-state chain with 9 bonds is
    # numerically unhedgeable by design (exit 3). Even at 5 states the basis
    # is well conditioned only when rates dominate the intensities: with the
    # curve chain's parameters about 1% of seeds need sum|D| > 1e6 and trip
    # the hedge residual gate (exit 3). Slow intensities and rates on [0, 1]
    # kept sum|D| below 1.7e4 over 600 seeds.
    G, rates = birth_death(5, np.random.default_rng([seed, 2]), intensity=(0.1, 0.3), rate_max=1.0)
    path = os.path.join(workdir, "bd5.txt")
    write_model(path, G, rates)
    return path, G, rates


def make_curve(seed: int, workdir: str) -> Workload:
    # The propagator dominates: 100 maturities x 50 states = 5,000 yields,
    # each its own 50x50 expm although only 100 distinct tau occur
    # (unique_frac 0.02). Traced, model.matrix_exponential is ~80% of the
    # self time and the pricing wrappers most of the rest. No hedge,
    # simulation or recovery runs. The grid stops at 10 years, not 25, so a
    # 30 s run holds about nine samples of each metric.
    G, rates = birth_death(50, np.random.default_rng([seed, 1]))
    path = os.path.join(workdir, "bd50.txt")
    write_model(path, G, rates)
    ctx = {"oracle": ReversibleOracle(G, rates), "grid": np.arange(1, 101) * 0.1, "n": 50}
    argv = ["yield-curve", path, "--T-grid", "0.1:10:0.1"]
    return Workload(path, [Command(argv, lambda out: check_curve(out, ctx))])


def make_hedge(seed: int, workdir: str) -> Workload:
    # The same propagator used differently: 15 expm calls of 5x5 matrices
    # per (t, state) cell over 1,005 cells. Traced, the 5x5 expm is ~50% of
    # the self time, HedgePlan.positions (the square 4x4 solves behind the
    # SVD gate) ~16% and the pricing wrappers ~30%. A propagator that wins on
    # one 50x50 matrix but loses on thousands of tiny ones shows here. The
    # t step is 0.005, not 0.0025, to keep about nine samples in a 30 s run.
    path, G, rates = _hedge_chain(seed, workdir)
    grid = np.arange(0, 201) * 0.005
    ctx = {"oracle": ReversibleOracle(G, rates), "T": HEDGE_T, "basis": HEDGE_BASIS,
           "payoff": HEDGE_PAYOFF, "grid": grid}
    argv = ["hedge", path, "--T", "1", "--basis", "2,3,4,5", "--payoff", "1,0,0,0,0",
            "--t-grid", "0:1:0.005"]
    return Workload(path, [Command(argv, lambda out: check_hedge(out, ctx))])


def make_replicate(seed: int, workdir: str) -> Workload:
    # The per-step hedge loop dominates: 12 paths, ~12k rebalance steps, and
    # replication.replicate_on_path is ~96% of the traced self time. The
    # propagator is ~3%, through cached step propagators, so a faster expm
    # should not move this workload while a batched hedge solve should.
    # 12 paths, not 40, keep about nine samples in a 30 s run.
    path, G, rates = _hedge_chain(seed, workdir)
    path_seed = int(np.random.default_rng([seed, 3]).integers(2**31))
    constants = replication_constants(ReversibleOracle(G, rates), rates, HEDGE_T,
                                      HEDGE_BASIS, HEDGE_PAYOFF)
    ctx = {"dt": 1e-3, "N": 12, "constants": constants}
    argv = ["replicate", path, "--T", "1", "--basis", "2,3,4,5", "--payoff", "1,0,0,0,0",
            "--dt", "1e-3", "--N", "12", "--seed", str(path_seed)]
    return Workload(path, [Command(argv, lambda out: check_replicate(out, ctx))])


def make_recover_mc(seed: int, workdir: str) -> Workload:
    # The only workload where parse/validate of a large model file, the
    # Perron eig, a multi-MB JSON report and simulate_terminal each take a
    # real share. Traced: cli.main self (argparse, formatting, the 7 MB
    # report) ~38%, the Perron eig ~26%, simulate_terminal ~20%, parsing the
    # ~1 MB model ~10%. Import is a large part of the cold time, and neither
    # the propagator nor the hedge layer runs.
    n, N, horizon = 500, 50000, 5.0
    G, rates = dense(n, np.random.default_rng([seed, 4]))
    path = os.path.join(workdir, "dense500.txt")
    write_model(path, G, rates)
    sim_seed = int(np.random.default_rng([seed, 5]).integers(2**31))
    state: dict = {}

    def check_rec(out: str) -> Check:
        report = json.loads(out)
        c = check_recover(report, G, rates)
        if c.ok:
            Gp = np.array(report["generator_p"], dtype=float)
            stat = stationary_law(Gp)
            if not (np.all(stat > 0) and float(np.abs(stat @ Gp).max()) <= 1e-12):
                return Check(False, "recovered generator has no positive stationary law")
            state["law"] = horizon_law(Gp, 0, horizon)
        return c

    def check_sim(out: str) -> Check:
        if "law" not in state:
            return Check(False, "no recovered generator to check occupancy against")
        return check_simulate(out, state["law"], N)

    # Perron probe: recover on the 500-state birth-death chain. Dense eig
    # returns pi entries <= 0 once they fall below ~1e-16 of the maximum,
    # which this family does from about 150 states; today it exits 1.
    Gb, rb = birth_death(n, np.random.default_rng([seed, 6]))
    probe_path = os.path.join(workdir, "bd500.txt")
    write_model(probe_path, Gb, rb)

    commands = [
        Command(["recover", path], check_rec),
        Command(["simulate", path, "--measure", "p", "--N", str(N), "--horizon", "5",
                 "--seed", str(sim_seed)], check_sim),
    ]
    probe = Command(["recover", probe_path], lambda out: check_recover(json.loads(out), Gb, rb))
    return Workload(path, commands, [probe])


WORKLOADS = {
    "curve": make_curve,
    "hedge": make_hedge,
    "replicate": make_replicate,
    "recover_mc": make_recover_mc,
}
