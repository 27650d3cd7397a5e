"""Command-line surface.

Exit codes: 0 success, 1 input/validation error, 2 recovery-hypothesis
violation, 3 unhedgeable basis. All numeric CSV output carries 17 significant
digits; stochastic commands require an explicit seed; every file output is
accompanied by a JSON run manifest.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

import numpy as np

from . import pricing, recovery, replication, two_state
from .errors import CtmcRatesError
from .model import RNG_ALGORITHM, simulate_path, simulate_terminal
from .modelfile import load_model
from .pricing import ClaimPayoff, mean_and_se


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; 2 is reserved for
    # recovery-hypothesis violations, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# characters per stdout write of _write_output
_CHUNK = 1 << 16


def _write_output(args, header: list[str], columns, params: dict) -> None:
    # equal-length columns, numeric ones as %.17g; one row template formats all cells in C
    arrays = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if a.dtype.kind in "biuf" else "%s" for a in arrays) + "\n"
    cells = zip(*(a.tolist() if a.dtype.kind in "biuf" else c for a, c in zip(arrays, columns)))
    text = ",".join(header) + "\n" + (row * len(arrays[0])) % tuple(chain.from_iterable(cells))
    out = getattr(args, "output", None)
    if out:
        # imported here: only a manifest needs them, and every command would
        # otherwise pay for importlib.metadata at start-up
        import datetime
        import hashlib
        from importlib.metadata import PackageNotFoundError, version

        try:
            tool_version = version("ctmc-rates")
        except PackageNotFoundError:  # running from a source tree
            tool_version = "0.1.0+src"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        model, model_sha256 = getattr(args, "model", None), None
        seed = getattr(args, "seed", None)
        if model:
            with open(model, "rb") as fh:
                model_sha256 = hashlib.sha256(fh.read()).hexdigest()
        manifest = {
            "model": model,
            "model_sha256": model_sha256,
            "command": args.command,
            "parameters": params,
            "seed": seed,
            "rng": RNG_ALGORITHM if seed is not None else None,
            "tool_version": tool_version,
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "output": out,
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        # in bounded chunks: a stdout that writes through (PYTHONUNBUFFERED=1)
        # drops the rest of a write the reader leaves partway, but the next
        # chunk raises BrokenPipeError
        for k in range(0, len(text), _CHUNK):
            sys.stdout.write(text[k:k + _CHUNK])


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise CtmcRatesError(f"grid must be start:stop:step, got {spec!r}")
    if not np.all(np.isfinite([start, stop, step])):
        raise CtmcRatesError(f"grid {spec!r} needs a finite start, stop and step")
    if step <= 0 or stop < start:
        raise CtmcRatesError(f"empty or invalid grid {spec!r}")
    # point k is start + k*step, within 2 eps (|start| + |stop|) of the exact
    # decimal point; arange's would carry k roundings of start
    grid = start + step * np.arange((stop + 0.5 * step - start) / step)
    grid = grid[grid <= stop + 3 * np.finfo(float).eps * (abs(start) + abs(stop))]
    if grid.size == 0:
        raise CtmcRatesError(f"grid {spec!r} contains no points")
    return grid


def _parse_payoff(spec: str, n: int, T: float) -> ClaimPayoff:
    values = np.array([float(p) for p in spec.split(",")])
    if values.shape[0] != n:
        raise CtmcRatesError(f"payoff has {values.shape[0]} entries for {n} states")
    return ClaimPayoff(values, T)


def cmd_price(args) -> int:
    spec = load_model(args.model)
    G, r = spec.generator, spec.rates
    t, T = args.t, args.T
    if args.caplet is not None or args.floorlet is not None:
        if args.Tb is None:
            raise CtmcRatesError("caplet/floorlet pricing requires --Tb")
        if args.caplet is not None:
            pv = pricing.caplet(G, r, t, T, args.Tb, args.caplet)
            kind = "caplet"
        else:
            pv = pricing.floorlet(G, r, t, T, args.Tb, args.floorlet)
            kind = "floorlet"
    elif args.payoff is not None:
        pv = pricing.price_claim(G, r, _parse_payoff(args.payoff, G.n, T), t)
        kind = "claim"
    else:
        pv = pricing.bond_prices(G, r, t, T)
        kind = "bond"
    _write_output(args, ["state", f"{kind}_price"], [spec.labels, pv],
                  {"t": t, "T": T, "Tb": args.Tb})
    return 0


def cmd_yield_curve(args) -> int:
    spec = load_model(args.model)
    G, r = spec.generator, spec.rates
    grid = _parse_grid(args.T_grid)
    grid = grid[grid > args.t]
    if grid.size == 0:
        raise CtmcRatesError("yield grid has no maturities after t")
    header = ["T"] + [f"yield_{nm}" for nm in spec.labels]
    asym = None
    if G.n == 2:
        asym = -recovery.perron_pair(G, r)[0] if np.any(r.rates) else 0.0
        header.append("asymptote")
    Y = pricing.yield_curve(G, r, args.t, grid)
    columns = [grid, *Y.T] + ([np.full(grid.size, asym)] if asym is not None else [])
    _write_output(args, header, columns, {"t": args.t, "T_grid": args.T_grid})
    return 0


def cmd_hedge(args) -> int:
    spec = load_model(args.model)
    G, r = spec.generator, spec.rates
    basis = replication.BondBasis(tuple(float(x) for x in args.basis.split(",")))
    payoff = _parse_payoff(args.payoff, G.n, args.T)
    plan = replication.HedgePlan(G, r, basis, payoff)
    grid = _parse_grid(args.t_grid)
    grid = grid[grid <= args.T]
    if grid.size == 0:
        raise CtmcRatesError("hedge grid has no times at or before T")
    header = (
        ["time", "state"]
        + ["position_T%.17g" % Tm for Tm in basis.maturities]
        + ["money_market_residual"]
    )
    D, residual = plan.schedule(grid)
    # the states of one row set print the same positions and residual at each
    # time (HedgePlan.row_set), so each time and each (time, row set) tail is
    # formatted once and indexed out to its rows as text
    first = np.flatnonzero(plan.row_set == np.arange(G.n))
    values = np.concatenate([D[:, first], residual[:, first, None]], axis=2)
    tail = ",".join(["%.17g"] * values.shape[2]) + "\n"
    tails = (tail * (grid.size * len(first)) % tuple(values.ravel().tolist())).split("\n")
    times = ("%.17g\n" * grid.size % tuple(grid.tolist())).split("\n")
    at = np.repeat(np.arange(grid.size), G.n)
    sets = np.tile(np.searchsorted(first, plan.row_set), grid.size)
    columns = [np.array(times, dtype=object)[at], spec.labels * grid.size,
               np.array(tails, dtype=object)[at * len(first) + sets]]
    _write_output(args, header, columns,
                  {"T": args.T, "basis": args.basis, "payoff": args.payoff,
                   "t_grid": args.t_grid})
    return 0


# G^pi cells per forked report worker, at the least. A warm recover gained
# nothing from a second worker at 10,000 cells and 2.4 ms at 19,600; in
# between, the fork and the drain of its pipe cost about what they take off
# the parent (BENCH_parallel_report.json)
_SPLIT_CELLS = 20_000


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_rows(row: str, block: np.ndarray, workers: dict) -> tuple[int, int]:
    """Fork a worker that writes ",\n" and `row` % each row of `block` to a pipe.

    Returns (pid, read end of the pipe). The worker formats its whole block
    before it writes, so it never waits on a parent still busy with the rows
    before it. It closes the read ends of the earlier `workers`, and every
    exit from it, an exception too, goes through os._exit: it never unwinds
    into the parent's frames, flushes the parent's stdout buffer or runs
    atexit hooks.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            for _, fd in workers.values():
                os.close(fd)
            text = memoryview("".join([",\n" + row % tuple(values.tolist()) for values in block])
                              .encode("ascii"))
            while text:
                text = text[os.write(wfd, text):]
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, rfd


def _reap(worker: tuple[int, int]) -> int:
    """Close a worker's pipe and wait for it; its wait status, 0 on success."""
    pid, fd = worker
    os.close(fd)
    return os.waitpid(pid, 0)[1]


def cmd_recover(args) -> int:
    spec = load_model(args.model)
    G, r = spec.generator, spec.rates
    rho, pi = recovery.perron_pair(G, r)
    entries = recovery.recover_generator(G, pi).entries
    # json.dumps(report, indent=2) written a row at a time, so only one row's text
    # is held; repr is json's text for a finite float, and pi and G^pi are validated
    n = G.n
    sep = ",\n    "
    row = "    [\n      " + ",\n      ".join(["%r"] * n) + "\n    ]"
    # the rows split into k contiguous blocks; the parent formats the first
    # and a forked worker each other one, which the parent then copies from
    # its pipe in row order
    k = max(1, min(_available_cpus(), n * n // _SPLIT_CELLS, n)) if hasattr(os, "fork") else 1
    bounds = [n * b // k for b in range(k + 1)]
    workers = {}  # first row of a block -> (pid, read end of its pipe)
    write = sys.stdout.write
    try:
        for a, b in zip(bounds[1:], bounds[2:]):
            try:
                workers[a] = _fork_rows(row, entries[a:b], workers)
            except OSError:  # no process or pipe to spare: the parent formats the rest
                break
        write('{\n  "rho": %r,\n  "pi": [\n    %s\n  ],\n  "generator_p": [\n'
              % (float(rho), sep.join(map(repr, pi.tolist()))))
        lead = ""
        for a, b in zip(bounds, bounds[1:]):
            if a not in workers:
                for values in entries[a:b]:
                    write(lead + row % tuple(values.tolist()))
                    lead = ",\n"
                continue
            while chunk := os.read(workers[a][1], 1 << 16):
                write(chunk.decode("ascii"))
            if _reap(workers.pop(a)):
                raise CtmcRatesError(f"the worker formatting report rows {a} to {b - 1} failed")
        write('\n  ],\n  "states": [\n    %s\n  ],\n  "validation": "ok"\n}\n'
              % sep.join(map(json.dumps, spec.labels)))
    finally:
        for worker in workers.values():
            _reap(worker)
    return 0


def cmd_simulate(args) -> int:
    spec = load_model(args.model)
    G, r = spec.generator, spec.rates
    if args.N < 1:
        raise CtmcRatesError(f"need at least one path, got N={args.N}")
    if args.measure == "p":
        G_sim = recovery.recover_generator(G, recovery.perron_pair(G, r)[1])
    else:
        G_sim = G
    states, integ = simulate_terminal(
        G_sim, r, args.initial, args.horizon, args.N, args.seed
    )
    counts = np.bincount(states, minlength=G.n)
    # the value column mixes a count, a word and floats, so it is text
    rows = [
        ["n_paths", "", "%.17g" % args.N],
        ["measure", "", args.measure],
    ]
    for i in range(G.n):
        rows.append(["occupancy_at_horizon", spec.labels[i], "%.17g" % (counts[i] / args.N)])
    for name, samples in (("integrated_rate", integ), ("discount_factor", np.exp(-integ))):
        mean, se = mean_and_se(samples)
        rows += [[f"mean_{name}", "", "%.17g" % mean], [f"se_{name}", "", "%.17g" % se]]
    _write_output(
        args, ["statistic", "state", "value"], list(zip(*rows)),
        {"measure": args.measure, "N": args.N, "horizon": args.horizon,
         "initial": args.initial},
    )
    return 0


def cmd_replicate(args) -> int:
    spec = load_model(args.model)
    G, r = spec.generator, spec.rates
    if args.N < 1:
        raise CtmcRatesError(f"need at least one path, got N={args.N}")
    basis = replication.BondBasis(tuple(float(x) for x in args.basis.split(",")))
    payoff = _parse_payoff(args.payoff, G.n, args.T)
    horizon = max(args.T, max(basis.maturities))
    rng = np.random.default_rng(args.seed)
    paths = [simulate_path(G, args.initial, horizon, rng) for _ in range(args.N)]
    reports = replication.replicate_paths(G, r, paths, basis, payoff, args.dt)
    _write_output(
        args,
        ["path", "n_jumps", "terminal_error", "max_tracking_error"],
        list(zip(*[[p, rep.n_jumps, rep.terminal_error, rep.max_tracking_error]
                   for p, rep in enumerate(reports)])),
        {"T": args.T, "basis": args.basis, "payoff": args.payoff, "dt": args.dt,
         "N": args.N, "initial": args.initial},
    )
    return 0


def cmd_demo(args) -> int:
    m = two_state.TwoStateModel(lam=args.lam, rate=args.rate)
    grid = _parse_grid(args.T_grid)
    grid = grid[grid > 0]
    Y = -two_state.closed_form_log_bonds(m, 0.0, grid) / grid[:, None]
    _write_output(
        args, ["T", "yield_state0", "yield_state1", "asymptote"],
        [grid, *Y.T, np.full(grid.size, two_state.limiting_yield(m))],
        {"lam": args.lam, "rate": args.rate, "T_grid": args.T_grid},
    )
    return 0


class _Subcommand:
    """A subcommand's parser, built only when argparse dispatches to it.

    argparse registers each subcommand through add_subparsers' parser_class
    hook but reads nothing from the parser except in parse_known_args, so
    the other commands' arguments are never added.
    """

    def __init__(self, *, fn, arguments, **kwargs):
        self.fn, self.arguments, self.kwargs = fn, arguments, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        parser.set_defaults(fn=self.fn)
        self.arguments(parser)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ctmc-rates", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def command(name, fn, help):
        def register(arguments):
            sub.add_parser(name, help=help, fn=fn, arguments=arguments)
        return register

    @command("price", cmd_price, "price a claim per state")
    def _(sp):
        sp.add_argument("model")
        sp.add_argument("--t", type=float, default=0.0)
        sp.add_argument("--T", type=float, required=True)
        sp.add_argument("--Tb", type=float, default=None)
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--bond", action="store_true")
        g.add_argument("--payoff", type=str, default=None)
        g.add_argument("--caplet", type=float, default=None, metavar="K")
        g.add_argument("--floorlet", type=float, default=None, metavar="K")
        sp.add_argument("--output", default=None)

    @command("yield-curve", cmd_yield_curve, "yield curve CSV over a maturity grid")
    def _(sp):
        sp.add_argument("model")
        sp.add_argument("--t", type=float, default=0.0)
        sp.add_argument("--T-grid", dest="T_grid", required=True, metavar="START:STOP:STEP")
        sp.add_argument("--output", default=None)

    @command("hedge", cmd_hedge, "hedge schedule CSV")
    def _(sp):
        sp.add_argument("model")
        sp.add_argument("--T", type=float, required=True)
        sp.add_argument("--basis", required=True, metavar="T1,T2,...")
        sp.add_argument("--payoff", required=True, metavar="v0,v1,...")
        sp.add_argument("--t-grid", dest="t_grid", required=True, metavar="START:STOP:STEP")
        sp.add_argument("--output", default=None)

    @command("recover", cmd_recover, "real-world generator report")
    def _(sp):
        sp.add_argument("model")

    @command("simulate", cmd_simulate, "path statistics under Q or the recovered P")
    def _(sp):
        sp.add_argument("model")
        sp.add_argument("--measure", choices=["q", "p"], default="q")
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--horizon", type=float, required=True)
        sp.add_argument("--initial", type=int, default=0)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--output", default=None)

    @command("replicate", cmd_replicate, "pathwise replication error CSV")
    def _(sp):
        sp.add_argument("model")
        sp.add_argument("--T", type=float, required=True)
        sp.add_argument("--basis", required=True)
        sp.add_argument("--payoff", required=True)
        sp.add_argument("--dt", type=float, required=True)
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--initial", type=int, default=0)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--output", default=None)

    @command("demo", cmd_demo, "two-state yield-curve dataset (closed form)")
    def _(sp):
        sp.add_argument("--lam", type=float, default=0.5)
        sp.add_argument("--rate", type=float, default=0.1)
        sp.add_argument("--T-grid", dest="T_grid", default="0.1:50:0.1")
        sp.add_argument("--output", default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout left, as `| head` does
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout at exit: send the text still
            # buffered to devnull, where it cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1
    except CtmcRatesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # e.g. a grid or path count too large to allocate
        sys.stderr.write(f"error: {exc or 'out of memory'}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
