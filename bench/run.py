"""ctmc-rates benchmark: end-to-end CLI timings and a per-layer traced run.

Run from the root of a source checkout::

    python3 bench/run.py --workload curve --seed 1 --seconds 30 --trace 0

One client drives the public CLI in a closed loop: each operation starts
after the previous one ended, and BLAS keeps its default thread count. The
models are generated from ``--seed`` into a scratch directory inside the
checkout; the program sees only those files and the argv, and every output
is checked against an oracle in ``workloads.py``.

``--trace 0`` times samples; a sample is one pass over the workload's
commands in order (``recover_mc`` has two: ``recover``, then ``simulate``):

* ``cli_wall_s``  - median wall time, each command a fresh
  ``python -m ctmc_rates.cli`` process (interpreter start, import, first-call
  costs, computation and output), what a CLI user waits for;
* ``warm_wall_s`` - median time of the same argv through ``cli.main`` in this
  warm interpreter, after a discarded warm-up operation;
* ``peak_rss_mb`` - median over cold samples of the largest per-child peak
  resident memory (``wait4`` rusage of that child alone);
* ``setup_s``     - median time for a fresh interpreter to import
  ``ctmc_rates.cli`` and ``load_model`` the workload's model.

Set-up, cold and warm samples alternate, so load on the machine hits all
alike. Every command run is one attempted operation; it fails on a nonzero
exit or a failed output check. ``error_rate`` (failed / attempted) is printed
and carried in the result's ``attempted`` and ``failed`` fields; it is not an
``end_to_end`` metric because it is 0 on three workloads. ``recover_mc`` also
runs an untimed probe that fails today (see ``workloads.make_recover_mc``).

``--trace 1`` runs the operation in a fresh child under ``tracing.py`` and
reports per-layer metrics ``<module>.<function>.<quantity>`` from the warm
traced passes, plus each layer's ``first_call_s`` from the first pass in the
process, and ``trace.overhead_frac`` (traced against untraced warm time).

The last stdout line is the JSON result; the lines before it carry the seed,
an environment fingerprint and a readable table.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# rounds of (set-up, cold, warm) samples per run, unless a contended machine
# makes them overrun --seconds twice over; more rounds run while the next one
# is expected to end within --seconds
MIN_ROUNDS = 3

END_TO_END = (("cli_wall_s", "s"), ("warm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (layer, quantities) reported by the traced run. Each comment names the
# workloads whose cli_wall_s and warm_wall_s the layer should move (peak_rss_mb
# too for simulate_terminal; setup_s for load_model); a layer absent from a
# workload reads 0 there.
LAYERS = (
    ("model.matrix_exponential", ("calls", "busy_s", "unique_frac")),  # curve, hedge
    ("pricing.zero_yield", ("calls", "self_s")),  # curve
    ("pricing.bond_prices", ("calls", "self_s")),  # curve, hedge
    ("pricing.price_claim", ("calls", "self_s")),  # curve, hedge
    ("replication.replicate_on_path", ("calls", "busy_s", "self_s")),  # replicate
    ("replication.HedgePlan.positions", ("calls", "busy_s", "self_s")),  # hedge
    ("replication.HedgePlan.money_market_residual", ("calls", "busy_s", "self_s")),  # hedge
    ("model.simulate_path", ("calls", "busy_s")),  # replicate
    ("model.simulate_terminal", ("calls", "busy_s")),  # recover_mc
    ("recovery.dominant_eigenpair", ("calls", "busy_s")),  # recover_mc
    ("recovery.perron_pair", ("calls", "busy_s")),  # recover_mc
    ("recovery.recover_generator", ("calls", "busy_s")),  # recover_mc
    ("modelfile.load_model", ("busy_s",)),  # setup_s everywhere
    ("model.validate_model", ("calls", "busy_s", "unique_frac")),  # replicate, recover_mc
    ("cli.main", ("self_s",)),  # recover_mc, curve
)
COUNTERS = (
    ("model.simulate_terminal.paths", "count"),
    ("replication.rebalance_steps", "count"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "unique_frac": "ratio", "first_call_s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for layer, quantities in LAYERS:
        for q in quantities + ("first_call_s",):
            names.append((f"{layer}.{q}", UNITS[q]))
    return names + list(COUNTERS)


# --- environment --------------------------------------------------------------


def openblas_info() -> tuple[str | None, int | None]:
    """(config string, thread count) of the OpenBLAS that numpy loaded."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    conf = getattr(lib, f"{prefix}get_config{suffix}")
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                conf.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return conf().decode(), threads()
    return None, None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "ctmc_rates")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(root: str, src: str) -> dict:
    import numpy

    blas, threads = openblas_info()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "openblas": blas,
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }


# --- running operations -------------------------------------------------------


class Runner:
    """Runs operations cold (fresh processes) or warm (in this interpreter)."""

    def __init__(self, src: str, workdir: str):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # failed output checks
        self.errors: list[str] = []  # nonzero exits of timed commands
        self.probe_errors: list[str] = []  # nonzero exits of untimed probes

    def spawn(self, args: list[str]) -> tuple[float, float, int, str, str]:
        """(wall s, peak RSS MB, exit code, stdout, stderr) of one child."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr

    def judge(self, command, code: int, stdout: str, stderr: str, probe: bool = False) -> bool:
        """Count one attempted command; True when it exited 0 and its output checks."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            (self.probe_errors if probe else self.errors).append(
                f"{command.argv[0]}: exit {code}: {stderr.strip()[:200]}")
            return False
        check = command.check(stdout)
        if not check.ok:
            self.failed += 1
            self.wrong.append(f"{command.argv[0]}: {check.detail}")
        return check.ok

    def cold(self, commands) -> tuple[float, float] | None:
        """One operation, each command in a fresh CLI process; (wall, peak RSS MB)."""
        wall = rss = 0.0
        ok = True
        for c in commands:
            w, m, code, out, err = self.spawn(["-m", "ctmc_rates.cli", *c.argv])
            ok = self.judge(c, code, out, err) and ok
            wall, rss = wall + w, max(rss, m)
        return (wall, rss) if ok else None

    def warm(self, main, commands) -> float | None:
        wall, codes, outs = tracing.run_pass(main, [c.argv for c in commands])
        ok = True
        for c, code, out in zip(commands, codes, outs):
            ok = self.judge(c, code, out, "") and ok
        return wall if ok else None

    def setup_time(self, model: str) -> float:
        """Wall time of a fresh interpreter importing the CLI and loading ``model``."""
        wall, _, rc, _, err = self.spawn(["-c", SETUP_CODE, model])
        if rc != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[:200]}")
        return wall


SETUP_CODE = ("import sys, ctmc_rates.cli\n"
              "from ctmc_rates.modelfile import load_model\n"
              "load_model(sys.argv[1])\n")


def measure(runner: Runner, wl, seconds: float) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, in rounds of set-up, cold and warm.

    Rounds continue until the next one is expected to end after ``seconds``.
    """
    import ctmc_rates.cli as cli

    runner.setup_time(wl.model)  # discarded: may compile bytecode
    runner.warm(cli.main, wl.commands)  # discarded warm-up
    setup, cold, warm = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        setup.append(runner.setup_time(wl.model))
        c = runner.cold(wl.commands)
        if c is not None:
            cold.append(c)
        w = runner.warm(cli.main, wl.commands)
        if w is not None:
            warm.append(w)
        rounds += 1
        if runner.errors or runner.wrong:
            break
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds and (rounds >= MIN_ROUNDS or elapsed > 2 * seconds):
            break
    if not cold or not warm:
        raise RuntimeError("no operation succeeded: " + "; ".join(runner.errors + runner.wrong)[:400])
    return {
        "cli_wall_s": [w for w, _ in cold],
        "warm_wall_s": warm,
        "setup_s": setup,
        "peak_rss_mb": [m for _, m in cold],
    }


def trace(runner: Runner, wl, seconds: float) -> tuple[dict, dict, dict]:
    spec_path = os.path.join(runner.workdir, "trace_spec.json")
    out_path = os.path.join(runner.workdir, "trace.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": [c.argv for c in wl.commands], "seconds": seconds}, fh)
    _, _, code, _, err = runner.spawn([os.path.join(HERE, "tracing.py"), spec_path, out_path])
    if code != 0:
        raise RuntimeError(f"traced run failed: {err.strip()[-400:]}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for k, c in enumerate(wl.commands):
        with open(f"{out_path}.out{k}", encoding="utf-8") as fh:
            runner.judge(c, result["first"]["codes"][k], fh.read(), "")
    passes = 1 + len(result["traced"]) + len(result["untraced"])
    runner.attempted += (passes - 1) * len(wl.commands)
    if result["mismatched"]:
        runner.failed += result["mismatched"]
        runner.wrong.append(f"{result['mismatched']} warm passes differ from the first")
    flat, table = tracing.aggregate(result)
    metrics = {}
    for name, unit in per_layer_names():
        layer, _, q = name.rpartition(".")
        if name in flat:
            value = flat[name]
        else:
            value = table.get(layer, {}).get(q, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, flat, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: kill and reap the running child, remove the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ctmc_rates", "cli.py")):
        sys.stderr.write(f"error: no ctmc-rates source tree under {src}; run from a checkout\n")
        return 2
    sys.path.insert(0, src)
    env = fingerprint(root, src)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(src, workdir)
        if args.trace:
            metrics, flat, table = trace(runner, wl, args.seconds)
        else:
            found = measure(runner, wl, args.seconds)
            metrics = {name: {"value": statistics.median(found[name]), "unit": unit}
                       for name, unit in END_TO_END}
        for probe in wl.probes:
            _, _, code, out, err = runner.spawn(["-m", "ctmc_rates.cli", *probe.argv])
            runner.judge(probe, code, out, err, probe=True)
        env["loadavg_after"] = os.getloadavg()
        run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
        print("# run " + json.dumps(run | env))
        if args.trace:
            ranked = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
            print(f"# {'layer':<44} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'first_s':>9}")
            for name, row in ranked:
                print(f"# {name:<44} {row['calls']:>8.0f} {row['busy_s']:>10.4f} "
                      f"{row['self_s']:>10.4f} {row['first_call_s']:>9.4f}")
            print(f"# self times sum to {flat['trace.self_sum_s']:.4f} s; untraced warm pass "
                  f"{flat['trace.untraced_wall_s']:.4f} s; overhead {flat['trace.overhead_frac']:+.3f}")
        else:
            for name, unit in END_TO_END:
                samples = found[name]
                print(f"# {name:<12} {statistics.median(samples):12.6f} {unit:<3} median of "
                      f"{len(samples)}: " + " ".join(f"{x:.4f}" for x in samples))
        for line in runner.errors + runner.wrong:
            print(f"# failed: {line}")
        for line in runner.probe_errors:
            print(f"# failed probe: {line}")
        print(f"# error_rate {runner.failed / runner.attempted:.6f} "
              f"({runner.failed} of {runner.attempted} operations)")
        # a probe may fail (a known defect counted in error_rate); a timed
        # command that exits nonzero or prints a wrong result may not
        result = {"correct": not runner.wrong and not runner.errors, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
