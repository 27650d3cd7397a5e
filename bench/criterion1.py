"""Where acceptance criterion 1's runtime goes, pass by pass, in one process.

Run from the root of a source checkout::

    python3 bench/criterion1.py

Runs the body of ``tests/test_acceptance.py::test_criterion_1_closed_form_equivalence``
``PASSES`` times under the benchmark's tracer and prints, per pass, the wall and
CPU time and the layers with the most self time; for the first pass it also
prints every layer's first call. A slow first pass whose excess sits in the
first calls is lazy set-up; excess spread over many calls of one layer, with
CPU time near twice the wall time, is the BLAS worker thread waiting for a
core another process holds.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PASSES = 3  # the first pass in the process, then two warm ones to compare it with


def main() -> int:
    root = os.getcwd()
    for sub in ("src", "tests"):
        sys.path.insert(0, os.path.join(root, sub))
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import ctmc_rates.cli  # noqa: F401
    print(f"import ctmc_rates.cli {time.perf_counter() - t0:.3f} s")

    import test_acceptance
    import tracing

    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    patch.install()
    for k in range(PASSES):
        tracer.reset()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(AssertionError):
            test_acceptance.test_criterion_1_closed_form_equivalence()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        stats = tracing.layer_stats(tracer.spans)
        top = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:4]
        print(f"pass {k}: wall {wall:.3f} s, cpu {cpu:.3f} s; top self: "
              + ", ".join(f"{n} {s['self_s']:.4f} s/{s['calls']:.0f}" for n, s in top))
        if k == 0:
            first = sorted(tracing.first_calls(tracer.spans).items(), key=lambda kv: -kv[1])
            print("  first calls: " + ", ".join(f"{n} {d * 1e3:.1f} ms" for n, d in first[:6]))
    patch.remove()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
