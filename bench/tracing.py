"""Per-layer tracing of ctmc-rates from outside the package.

Run as a child process::

    python3 bench/tracing.py SPEC.json OUT.json

SPEC names the argv of each command in one operation and a time budget. The
child imports the package, wraps every public function of its modules (plus
``HedgePlan.positions``, ``HedgePlan.money_market_residual`` and
``cli.main``) in every module that imported the name, and runs the operation:
once traced as the first call in the process, then alternating untraced and
traced warm passes until the budget is spent. Spans (layer, start, end,
parent) stay in memory and are written to OUT at the end; ``aggregate``
turns them into per-layer metrics. Nothing under ``src/`` is modified.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("model", "modelfile", "pricing", "replication", "recovery")
MIN_PASSES = 2  # warm traced and untraced passes, unless they overrun the budget twice
METHODS = (("replication", "HedgePlan", "positions"),
           ("replication", "HedgePlan", "money_market_residual"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.keys, self.counts = defaultdict(set), defaultdict(float)

    def call(self, layer, fn, args, kwargs):
        idx = len(self.spans)
        span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        hook = HOOKS.get(layer)
        if hook is not None:
            hook(self, args, kwargs, out)
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_expm(tr, args, kwargs, out):
    tr.keys["model.matrix_exponential"].add(hash(_arg(args, kwargs, 0, "M").tobytes()))


def _hook_validate(tr, args, kwargs, out):
    G, r = _arg(args, kwargs, 0, "G"), _arg(args, kwargs, 1, "r")
    tr.keys["model.validate_model"].add(hash(G.entries.tobytes() + r.rates.tobytes()))


def _hook_terminal(tr, args, kwargs, out):
    tr.counts["model.simulate_terminal.paths"] += _arg(args, kwargs, 4, "n_paths")


def _hook_replicate(tr, args, kwargs, out):
    tr.counts["replication.rebalance_steps"] += out.n_grid_points - 1


# layers whose arguments are hashed (for unique_frac) or counted
HOOKS = {
    "model.matrix_exponential": _hook_expm,
    "model.validate_model": _hook_validate,
    "model.simulate_terminal": _hook_terminal,
    "replication.replicate_on_path": _hook_replicate,
}


def _targets():
    """(layer name, function) or (layer name, (class, method name)) to trace."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"ctmc_rates.{short}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out.append((f"{short}.{name}", obj))
    for short, cls, meth in METHODS:
        owner = getattr(importlib.import_module(f"ctmc_rates.{short}"), cls)
        out.append((f"{short}.{cls}.{meth}", (owner, meth)))
    # only main in cli: its self time is argparse, formatting and writing
    cli = importlib.import_module("ctmc_rates.cli")
    out.append(("cli.main", cli.main))
    return out


class Patch:
    """Install or remove wrappers in every ctmc_rates module that holds a name."""

    def __init__(self, tracer: Tracer):
        self.swaps = []  # (owner, attribute, original, wrapper)
        mods = [m for n, m in sys.modules.items() if n == "ctmc_rates" or n.startswith("ctmc_rates.")]
        for layer, target in _targets():
            if isinstance(target, tuple):
                owner, attr = target
                orig = owner.__dict__[attr]
                self.swaps.append((owner, attr, orig, _wrap(tracer, layer, orig)))
                continue
            wrapper = _wrap(tracer, layer, target)
            for mod in mods:
                for attr, val in vars(mod).items():
                    if val is target:
                        self.swaps.append((mod, attr, target, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, orig, _ in self.swaps:
            setattr(owner, attr, orig)


def _wrap(tracer, layer, fn):
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs)

    traced.__name__ = fn.__name__
    traced.__wrapped__ = fn
    return traced


def run_pass(main, commands) -> tuple[float, list[int], list[str]]:
    """Run every command once in this interpreter; (wall, exit codes, stdout)."""
    codes, outs = [], []
    t0 = time.perf_counter()
    for argv in commands:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            codes.append(main(argv))
        outs.append(buf.getvalue())
    return time.perf_counter() - t0, codes, outs


def child(spec_path: str, out_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import ctmc_rates.cli as cli

    tracer = Tracer()
    patch = Patch(tracer)
    commands = spec["commands"]

    def traced_pass():
        tracer.reset()
        patch.install()
        try:
            wall, codes, outs = run_pass(cli.main, commands)
        finally:
            patch.remove()
        record = {"wall": wall, "codes": codes, "spans": tracer.spans,
                  "bytes": sum(len(o.encode()) for o in outs),
                  "unique": {k: len(v) for k, v in tracer.keys.items()},
                  "counts": dict(tracer.counts)}
        return record, outs

    first, first_outs = traced_pass()
    untraced, traced = [], []
    mismatched = 0
    start = time.perf_counter()
    while True:
        wall, codes, outs = run_pass(cli.main, commands)
        untraced.append(wall)
        mismatched += outs != first_outs or codes != first["codes"]
        rec, outs = traced_pass()
        traced.append(rec)
        mismatched += outs != first_outs or rec["codes"] != first["codes"]
        n, elapsed = len(traced), time.perf_counter() - start
        if elapsed * (n + 1) / n > spec["seconds"] and (n >= MIN_PASSES or elapsed > 2 * spec["seconds"]):
            break
    for k, text in enumerate(first_outs):
        with open(f"{out_path}.out{k}", "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"first": first, "traced": traced, "untraced": untraced,
                   "mismatched": mismatched}, fh)


# --- aggregation --------------------------------------------------------------


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """calls, busy (sum of durations) and self time (minus direct children) per layer."""
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for layer, t0, t1, parent in spans:
        s = stats[layer]
        s["calls"] += 1
        s["busy_s"] += t1 - t0
        s["self_s"] += t1 - t0
        if parent >= 0:
            stats[spans[parent][0]]["self_s"] -= t1 - t0
    return stats


def first_calls(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for layer, t0, t1, _ in spans:
        out.setdefault(layer, t1 - t0)
    return out


def aggregate(result: dict) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Median per-pass layer statistics over the warm traced passes.

    Returns (flat metrics, per-layer table). A layer that never ran reads 0.
    """
    passes = [layer_stats(p["spans"]) for p in result["traced"]]
    first = first_calls(result["first"]["spans"])
    table = {}
    for name in sorted({name for p in passes for name in p} | set(first)):
        row = {q: statistics.median(p[name][q] if name in p else 0.0 for p in passes)
               for q in ("calls", "busy_s", "self_s")}
        uniq = [p["unique"][name] / s[name]["calls"]
                for p, s in zip(result["traced"], passes) if name in p["unique"]]
        row["unique_frac"] = statistics.median(uniq) if uniq else 0.0
        row["first_call_s"] = first.get(name, 0.0)
        table[name] = row
    flat = {}
    for p in result["traced"]:
        for k, v in p["counts"].items():
            flat.setdefault(k, []).append(v)
    flat = {k: statistics.median(v) for k, v in flat.items()}
    flat["cli.output_bytes"] = statistics.median(p["bytes"] for p in result["traced"])
    traced_wall = statistics.median(p["wall"] for p in result["traced"])
    untraced_wall = statistics.median(result["untraced"])
    flat["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    flat["trace.untraced_wall_s"] = untraced_wall
    flat["trace.self_sum_s"] = sum(row["self_s"] for row in table.values())
    return flat, table


if __name__ == "__main__":
    child(sys.argv[1], sys.argv[2])
