import datetime
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np
import pytest

import ctmc_rates
from ctmc_rates import (GeneratorMatrix, ModelValidationError, RateMap, load_model, perron_pair,
                        recover_generator, recovery, validate_model)
from ctmc_rates import cli
from ctmc_rates.cli import _parse_grid, _write_output, main
from ctmc_rates.model import SUPPORT_EPS
from ctmc_rates.recovery import EIGEN_RESIDUAL_TOL

from conftest import pi_beyond_double_range

TWO_STATE = """\
states: 2
generator:
-0.5  0.5
 0.5 -0.5
rates: 0.0 0.1
"""

ZERO_RATE = TWO_STATE.replace("rates: 0.0 0.1", "rates: 0.0 0.0")
HIGH_RATE = TWO_STATE.replace("rates: 0.0 0.1", "rates: 0 1")


def perron_coefficients(lam, rate):
    """c_i with B_i(T) = c_i e^{rho T} (1 + O(e^{-gamma T})) in the two-state model."""
    gam = np.hypot(2 * lam, rate)
    return np.array([gam + 2 * lam + rate, gam + 2 * lam - rate]) / (2 * gam)


# |log c_1| for lam = 0.5, r = 0.1: T times the state-1 yield gap at large T
STATE1_KAPPA = float(abs(np.log(perron_coefficients(0.5, 0.1)[1])))

SCALAR = """\
states: 1
generator:
0
rates: 0.05
"""

# birth-death: the generator allows only i -> i +- 1
BIRTH_DEATH = """\
states: 5
generator:
-0.2   0.2   0     0     0
 0.1  -0.3   0.2   0     0
 0     0.15 -0.4   0.25  0
 0     0     0.3  -0.5   0.2
 0     0     0     0.1  -0.1
rates: 0 0.25 0.5 0.75 1
"""


def dense_text(seed=11, n=5, scale=1e6):
    """A dense chain at intensity `scale`, every number written with repr."""
    rng = np.random.default_rng(seed)
    Q = scale * rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rates = rng.uniform(0.01, 0.2, n)
    return (f"states: {n}\ngenerator:\n" + "\n".join(" ".join(map(repr, row.tolist())) for row in Q)
            + "\nrates: " + " ".join(map(repr, rates.tolist())) + "\n")


def model_text(Q, rates):
    """A model file's text for generator Q and rates, every number written with repr."""
    return (f"states: {len(Q)}\ngenerator:\n" + "\n".join(" ".join(map(repr, row.tolist())) for row in Q)
            + "\nrates: " + " ".join(map(repr, rates.tolist())) + "\n")


SLOW = "states: 2\ngenerator:\n-1e-9 1e-9\n1e-9 -1e-9\nrates: 0 1e3\n"


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text(TWO_STATE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(ctmc_rates.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestPrice:
    def test_bond_prices(self, capsys, model_file):
        code, out, _ = run(capsys, "price", model_file, "--T", "1.0", "--bond")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.9821813464961849, abs=1e-12)
        assert float(rows[1][1]) == pytest.approx(0.9220275299423587, abs=1e-12)

    def test_bond_at_maturity_is_one(self, capsys, model_file):
        code, out, _ = run(capsys, "price", model_file, "--t", "1.0", "--T", "1.0", "--bond")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_huge_strike_caplet_is_zero(self, capsys, model_file):
        code, out, _ = run(
            capsys, "price", model_file, "--T", "1.0", "--Tb", "2.0", "--caplet", "1e9"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(abs(float(r[1])) < 1e-12 for r in rows)

    def test_payoff_vector(self, capsys, model_file):
        code, out, _ = run(capsys, "price", model_file, "--T", "1.0", "--payoff", "1,0")
        assert code == 0
        _, rows = parse_csv(out)
        from oracles import closed_form_ad
        from ctmc_rates import TwoStateModel

        expected = closed_form_ad(TwoStateModel(0.5, 0.1), 0.0, 1.0)[0, 0]
        assert float(rows[0][1]) == pytest.approx(expected, abs=1e-12)

    def test_invalid_model_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(TWO_STATE.replace("-0.5  0.5", "-0.4  0.5"))
        code, _, err = run(capsys, "price", str(p), "--T", "1.0", "--bond")
        assert code == 1
        assert "sums to" in err


class TestYieldCurve:
    def test_curve_approaches_asymptote(self, capsys, model_file):
        code, out, _ = run(
            capsys, "yield-curve", model_file, "--T-grid", "10:60:10"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "yield_0", "yield_1", "asymptote"]
        asym = float(rows[0][3])
        assert asym == pytest.approx(0.04750621894395557, abs=1e-12)
        last = rows[-1]
        assert abs(float(last[1]) - asym) < 1e-3
        assert abs(float(last[2]) - asym) < 1e-3

    def test_long_maturity_curve_is_exact(self, capsys, tmp_path):
        # with rates (0, 1) the bonds fall below the smallest normal double
        # near T = 2500 and underflow to 0 past it; the yields, taken from
        # log bonds, must follow y_i(T) = -rho - log(c_i) / T
        p = tmp_path / "high.txt"
        p.write_text(HIGH_RATE)
        code, out, _ = run(capsys, "yield-curve", str(p), "--T-grid", "2500:2700:100")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == [2500.0, 2600.0, 2700.0]
        minus_rho = (1.0 + 1.0 - np.hypot(1.0, 1.0)) / 2
        c = perron_coefficients(0.5, 1.0)
        for row in rows:
            T = float(row[0])
            for i in (0, 1):
                assert abs(float(row[1 + i]) - (minus_rho - np.log(c[i]) / T)) <= 1e-12
        assert float(rows[0][1]) == pytest.approx(0.2928179282508686, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.2931704776856764, abs=1e-12)

    def test_bond_below_the_double_range_exits_1(self, tmp_path):
        # no Perron pair, so the killed chain takes every time; near T = 8 a
        # bond falls below the smallest double, where log gave -inf and a
        # divide-by-zero warning
        G, r = pi_beyond_double_range()
        p = tmp_path / "chain80.txt"
        p.write_text(model_text(G.entries, r.rates))
        argv = [sys.executable, "-W", "error", "-m", "ctmc_rates.cli", "yield-curve", str(p), "--T-grid"]
        ok = subprocess.run(argv + ["1:7:3"], env=child_env(), capture_output=True, text=True, timeout=120)
        assert (ok.returncode, ok.stderr, len(parse_csv(ok.stdout)[1])) == (0, "", 3)
        bad = subprocess.run(argv + ["7:8:1"], env=child_env(), capture_output=True, text=True, timeout=120)
        assert (bad.returncode, bad.stdout) == (1, "")
        assert bad.stderr == "error: bond price B(t, 65; T) at t = 0.0, T = 8.0 is below the double range\n"

    def test_scalar_model_flat_curve(self, capsys, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text(SCALAR)
        code, out, _ = run(capsys, "yield-curve", str(p), "--T-grid", "1:5:1")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[1]) == pytest.approx(0.05, abs=1e-12) for r in rows)

    def test_zero_rate_asymptote_is_zero(self, capsys, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text(ZERO_RATE)
        code, out, _ = run(capsys, "yield-curve", str(p), "--T-grid", "1:3:1")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["0", "0", "0"]

    def test_zero_rates_print_every_yield_as_0(self, capsys, tmp_path):
        # no mass is ever killed, so every yield is exactly +0: the stiff
        # chain printed -3.27e-11 and the fixture -0 when bonds were row sums
        stiff = "states: 2\ngenerator:\n-1e6 1e6\n2e6 -2e6\nrates: 0 0\n"
        for k, text in enumerate((ZERO_RATE, stiff)):
            p = tmp_path / f"zero{k}.txt"
            p.write_text(text)
            code, out, _ = run(capsys, "yield-curve", str(p), "--T-grid", "1:3:1")
            assert code == 0
            _, rows = parse_csv(out)
            assert [r[1:3] for r in rows] == [["0", "0"]] * 3

    def test_empty_grid_exit_1(self, capsys, model_file):
        code, _, err = run(capsys, "yield-curve", model_file, "--T-grid", "5:1:1")
        assert code == 1
        assert "grid" in err

    def test_non_finite_grid_exit_1(self, capsys, model_file):
        code, out, err = run(capsys, "yield-curve", model_file, "--T-grid", "1:inf:1")
        assert (code, out) == (1, "")
        assert err == "error: grid '1:inf:1' needs a finite start, stop and step\n"


def per_cell_csv(header, rows):
    """The per-cell rule the writer replaced: ints and floats %.17g, else str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(float(v), ".17g") if isinstance(v, (int, float, np.floating)) else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


class TestWriter:
    ROWS = [
        ['lo"w', np.inf, 0, 1.0, np.int64(7)],
        ["h\u00e9", -np.inf, 12, np.float64(0.1), -3],
        ["a,b", np.nan, np.int32(-5), -0.0, 0],
        ["\u72b6\u614b", 5e-324, 2**53 + 1, np.float64(1e16), np.int64(10**16)],
        ["", 1e-5, True, np.float32(0.1), 1],
    ]

    def write(self, capsys, header, columns):
        _write_output(types.SimpleNamespace(output=None), header, columns, {})
        return capsys.readouterr().out

    def test_matches_the_per_cell_rule(self, capsys):
        header = ["label", "x", "int", "mixed", "npint"]
        columns = list(zip(*self.ROWS))
        assert self.write(capsys, header, columns) == per_cell_csv(header, self.ROWS)
        arrays = [np.array(c, dtype=object if j == 0 else None) for j, c in enumerate(columns)]
        assert self.write(capsys, header, arrays) == per_cell_csv(header, self.ROWS)

    def test_truncated_unbuffered_output_exits_1(self):
        # with PYTHONUNBUFFERED=1 one write of the whole 12 MB text came back
        # whole after the reader left partway, and the command exited 0
        env = dict(child_env(), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen([sys.executable, "-m", "ctmc_rates.cli", "demo", "--T-grid", "0.01:2000:0.01"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (head, proc.returncode, err) == (b"T,yield_state0,yield", 1, b"")

    def test_numeric_arrays_and_empty_table(self, capsys):
        x = np.array([np.pi, -1e300, 2.5e-310, 123456789.123456789])
        out = self.write(capsys, ["a", "b"], [x, np.arange(4)])
        assert out == per_cell_csv(["a", "b"], zip(x.tolist(), range(4)))
        assert self.write(capsys, ["a", "b"], [np.zeros(0), ()]) == "a,b\n"


class TestGrid:
    def test_long_grid_keeps_its_endpoint(self):
        # arange overshoots 100000 by one ulp (1.5e-11)
        grid = _parse_grid("0.1:100000:0.1")
        assert grid.size == 10**6 and grid[-1] >= 100000.0

    def test_endpoint_carried_past_eps_stop_is_kept(self):
        # arange lands 3 ulps of 0.175 past 0.175 (more than eps * 0.175), and
        # 3.6e-11 past 998.854: its step carries a rounding error of 782.56
        assert _parse_grid("0.1:0.175:0.005").size == 16
        assert _parse_grid("782.56:998.854:0.3055").size == 709

    def test_point_past_stop_is_dropped(self):
        assert np.array_equal(_parse_grid("0:1.19:0.4"), [0.0, 0.4, 0.8])
        assert _parse_grid("0:0.99999999:0.1").size == 10

    def test_points_do_not_drift(self, capsys):
        # point k is start + k*step; arange's point 4 of 0.3:1:0.1 carried four
        # roundings of 0.3 and printed as 0.70000000000000018
        grid = _parse_grid("0.3:1:0.1")
        assert grid.tolist() == [0.3 + 0.1 * k for k in range(8)]
        assert grid[4] == 0.7 and grid[-1] == 1.0
        code, out, _ = run(capsys, "demo", "--T-grid", "0.3:1:0.1")
        assert code == 0 and [row[0] for row in parse_csv(out)[1]] == ["%.17g" % T for T in grid]
        assert "\n0.69999999999999996," in out

    @pytest.mark.parametrize("spec", ["0.1:10:0.1", "0:1:0.005", "0.1:50:0.1", "1:3:1", "2500:2700:100"])
    def test_usual_grids_are_unchanged(self, spec):
        start, stop, step = (float(p) for p in spec.split(":"))
        grid = np.arange(start, stop + 0.5 * step, step)
        assert np.array_equal(_parse_grid(spec), grid[grid <= stop + 1e-12])


class TestRecover:
    def test_report(self, capsys, model_file):
        code, out, _ = run(capsys, "recover", model_file)
        assert code == 0
        report = json.loads(out)
        assert report["rho"] == pytest.approx(-0.04750621894395557, abs=1e-12)
        Gp = np.array(report["generator_p"])
        assert Gp[0, 1] == pytest.approx(0.4524937810560445, abs=1e-12)
        assert report["validation"] == "ok"

    # the models of the layout tests: 1, 2, 5 and 30 states, then labels
    # that json escapes or % would read
    LAYOUT_TEXTS = [dense_text(seed=n, n=n, scale=1.0) for n in (1, 2, 5, 30)]
    LAYOUT_TEXTS.append(LAYOUT_TEXTS[2].replace("states: 5", 'states: lo"w b\\ack 50% h\u00e9 x'))

    @staticmethod
    def assert_reports_are_json(capsys, tmp_path, texts):
        """Each report is byte for byte json.dumps of the library's values; returns them."""
        outs = []
        for k, text in enumerate(texts):
            path = tmp_path / f"m{k}.txt"
            path.write_text(text, encoding="utf-8")
            spec = load_model(str(path))
            rho, pi = perron_pair(spec.generator, spec.rates)
            Gp = recover_generator(spec.generator, pi).entries
            report = {"rho": float(rho), "pi": pi.tolist(), "generator_p": Gp.tolist(),
                      "states": list(spec.labels), "validation": "ok"}
            code, out, err = run(capsys, "recover", str(path))
            assert (code, out, err) == (0, json.dumps(report, indent=2) + "\n", "")
            outs.append(out)
        return outs

    def test_report_layout_is_json_indent_2(self, capsys, tmp_path):
        # also for labels that json escapes or % would read, and for the -0.0
        # of a 1-state G^pi
        outs = self.assert_reports_are_json(capsys, tmp_path, self.LAYOUT_TEXTS)
        assert '"generator_p": [\n    [\n      -0.0\n    ]\n  ]' in outs[0]
        assert json.loads(outs[-1])["states"] == ['lo"w', "b\\ack", "50%", "h\u00e9", "x"]

    def test_split_report_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        # 300 states at the defaults: two blocks on a host with two CPUs
        self.assert_reports_are_json(capsys, tmp_path, [dense_text(seed=3, n=300, scale=1.0)])
        # forced: min(4 CPUs, n^2 cells, n rows) blocks, the parent's and a
        # worker's each; 7 rows split 1, 2, 2, 2
        forks = []
        fork = os.fork
        monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        self.assert_reports_are_json(capsys, tmp_path, self.LAYOUT_TEXTS + [dense_text(seed=7, n=7, scale=1.0)])
        assert len(forks) == 0 + 1 + 3 + 3 + 3 + 3

        # a fork that fails leaves its block and the ones after it to the parent
        def fork_once():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return fork()

        forks.clear()
        monkeypatch.setattr(os, "fork", fork_once)
        self.assert_reports_are_json(capsys, tmp_path, self.LAYOUT_TEXTS[3:4])
        assert len(forks) == 1

    def test_no_worker_is_left_behind(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "dense.txt"
        path.write_text(dense_text(seed=4, n=30, scale=1.0))
        monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 3)

        def assert_reaped():
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

        code, out, err = run(capsys, "recover", str(path))
        assert (code, err) == (0, "") and json.loads(out)["validation"] == "ok"
        assert_reaped()

        class Fails(io.TextIOBase):
            def __init__(self, exc):
                self.exc, self.writes = exc, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 3:  # in the parent's block, both workers forked
                    raise self.exc
                return len(text)

        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", Fails(OSError(28, "No space left on device")))
            with pytest.raises(OSError, match="No space left"):
                main(["recover", str(path)])
        assert_reaped()
        # a closed pipe is exit 1 with nothing on stderr
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", Fails(BrokenPipeError(32, "Broken pipe")))
            assert main(["recover", str(path)]) == 1
        assert capsys.readouterr().err == ""
        assert_reaped()

        # a worker whose os.write raises leaves through os._exit(1)
        def write(fd, data):
            raise OSError(5, "Input/output error")

        with monkeypatch.context() as m:
            m.setattr(os, "write", write)
            code, out, err = run(capsys, "recover", str(path))
        assert code == 1
        assert err == "error: the worker formatting report rows 10 to 19 failed\n"
        assert_reaped()

    def test_one_cpu_or_a_small_report_never_forks(self, capsys, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        # 30 states are 900 cells, under the default cell count
        self.assert_reports_are_json(capsys, tmp_path, self.LAYOUT_TEXTS)
        monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        self.assert_reports_are_json(capsys, tmp_path, self.LAYOUT_TEXTS)

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text(dense_text(seed=3, n=300, scale=1.0))
        cli_argv = [sys.executable, "-m", "ctmc_rates.cli"]
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as a shell pipe has it
        # the reader leaves after 20 bytes of a multi-MB report, as `| head -c 20` does
        proc = subprocess.Popen(cli_argv + ["recover", str(path)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (len(head), proc.returncode, err) == (20, 1, b"")
        # a reader gone before a short output, which stays buffered until the
        # flush; at interpreter exit that flush gave exit 120 and a warning
        two = tmp_path / "two.txt"
        two.write_text(TWO_STATE)
        for argv in (["demo", "--T-grid", "1:2:1"], ["recover", str(two)]):
            r, w = os.pipe()
            os.close(r)
            try:
                out = subprocess.run(cli_argv + argv, env=env, stdout=w, stderr=subprocess.PIPE, timeout=120)
            finally:
                os.close(w)
            assert (out.returncode, out.stderr) == (1, b"")

    def test_report_memory_is_the_arrays_plus_one_row(self, tmp_path, monkeypatch):
        # the peak is now load_model's on this repr-written file (8.95 x 8n^2);
        # formatting the whole report before writing it peaked at 15.3 x 8n^2
        n = 200
        path = tmp_path / "dense.txt"
        path.write_text(dense_text(seed=5, n=n, scale=1.0))

        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        for cells, cpus in ((cli._SPLIT_CELLS, 1), (1, 2)):  # one block, then two
            monkeypatch.setattr(cli, "_SPLIT_CELLS", cells)
            monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                code = main(["recover", str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 10 * 8 * n * n

    def test_nothing_is_written_before_the_checks(self, capsys, monkeypatch, model_file):
        def reject(G, pi):
            raise ModelValidationError("recovered generator is not admissible")

        monkeypatch.setattr(recovery, "recover_generator", reject)
        code, out, err = run(capsys, "recover", model_file)
        assert (code, out) == (1, "")
        assert "not admissible" in err

    def test_zero_rates_exit_2(self, capsys, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text(ZERO_RATE)
        code, _, err = run(capsys, "recover", str(p))
        assert code == 2
        assert "hypothesis" in err

    def test_stiff_chain_recovers(self, capsys, tmp_path):
        # |M pi - rho pi| is ~1.5e-10 here from rounding M pi alone; the gate
        # is entrywise, relative to |M| pi, so the report goes out
        p = tmp_path / "stiff.txt"
        p.write_text(dense_text())
        code, out, err = run(capsys, "recover", str(p))
        assert (code, err) == (0, "")
        report = json.loads(out)
        spec = load_model(str(p))
        M = spec.generator.entries - np.diag(spec.rates.rates)
        rho, pi = report["rho"], np.array(report["pi"])
        assert np.all(np.abs(M @ pi - rho * pi) <= EIGEN_RESIDUAL_TOL * (np.abs(M) @ pi))
        Gp = GeneratorMatrix(np.array(report["generator_p"]))
        assert validate_model(Gp, RateMap(np.zeros(len(pi)))) == ()

    def test_tiny_pi_scaled_intensities_recover(self, capsys, tmp_path):
        # pi = (1, 1e-12), so G^pi_01 = 1e-21 lies below SUPPORT_EPS; G^pi
        # still has G's edges, and both commands exited 1 on "not irreducible"
        p = tmp_path / "slow.txt"
        p.write_text(SLOW)
        code, out, err = run(capsys, "recover", str(p))
        assert (code, err) == (0, "")
        assert 0 < json.loads(out)["generator_p"][0][1] < SUPPORT_EPS
        code, out, err = run(capsys, "simulate", str(p), "--measure", "p", "--N", "100", "--horizon", "1",
                             "--seed", "1")
        assert (code, err) == (0, "")

    def test_scalar_model_rho(self, capsys, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text(SCALAR)
        code, out, _ = run(capsys, "recover", str(p))
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(-0.05, abs=1e-12)


class TestSimulate:
    def test_deterministic_output_files(self, capsys, model_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out_file in (a, b):
            code, _, _ = run(
                capsys, "simulate", model_file, "--N", "2000", "--horizon", "2.0",
                "--seed", "42", "--output", out_file,
            )
            assert code == 0
        assert Path(a).read_text() == Path(b).read_text()
        manifest = json.loads(Path(a + ".manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["rng"] == "numpy-pcg64"
        assert manifest["model_sha256"]

    def test_q_and_p_occupancies_differ(self, capsys, model_file):
        outs = {}
        for measure in ("q", "p"):
            code, out, _ = run(
                capsys, "simulate", model_file, "--measure", measure, "--N", "40000",
                "--horizon", "30.0", "--seed", "7",
            )
            assert code == 0
            _, rows = parse_csv(out)
            occ = {r[1]: float(r[2]) for r in rows if r[0] == "occupancy_at_horizon"}
            outs[measure] = occ
        # Q stationary is uniform; under the recovered measure state 0 (low
        # rate) is favoured: g01/g10 < 1
        assert abs(outs["q"]["0"] - 0.5) < 0.02
        assert outs["p"]["0"] > 0.53

    def test_stiff_chain_under_p(self, capsys, tmp_path):
        # about 200 jumps per path at intensity 1e6
        p = tmp_path / "stiff.txt"
        p.write_text(dense_text())
        code, out, err = run(capsys, "simulate", str(p), "--measure", "p", "--N", "200",
                             "--horizon", "1e-4", "--seed", "1")
        assert (code, err) == (0, "")
        occupancy = [float(r[2]) for r in parse_csv(out)[1] if r[0] == "occupancy_at_horizon"]
        assert len(occupancy) == 5 and sum(occupancy) == pytest.approx(1.0)

    def test_n_zero_exit_1(self, capsys, model_file):
        code, _, _ = run(
            capsys, "simulate", model_file, "--N", "0", "--horizon", "1.0", "--seed", "1"
        )
        assert code == 1

    def test_single_path_has_infinite_standard_errors(self, capsys, model_file):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "simulate", model_file, "--N", "1", "--horizon", "1.0", "--seed", "3"
            )
        assert code == 0 and err == ""
        stats = {r[0]: r[2] for r in parse_csv(out)[1]}
        assert stats["se_integrated_rate"] == stats["se_discount_factor"] == "inf"
        assert np.isfinite(float(stats["mean_discount_factor"]))


@pytest.mark.parametrize("argv, err", [
    (["simulate", "--N", "3", "--horizon", "inf", "--seed", "1"], "horizon must be finite, got inf"),
    (["simulate", "--N", "3", "--horizon", "nan", "--seed", "1"], "horizon must be finite, got nan"),
    (["replicate", "--T", "1", "--basis", "2,inf", "--payoff", "1,0", "--dt", "0.1", "--N", "1",
      "--seed", "1"], "basis maturities must be finite: (2.0, inf)"),
])
def test_non_finite_horizon_exit_1(model_file, argv, err):
    # in a child with a timeout, so a hang fails this test instead of stalling the suite
    out = subprocess.run(
        [sys.executable, "-m", "ctmc_rates.cli", argv[0], model_file, *argv[1:]],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stdout, out.stderr) == (1, "", f"error: {err}\n")


class TestReplicate:
    def test_error_halves_with_dt(self, capsys, model_file):
        errs = {}
        for dt in ("1e-3", "5e-4"):
            code, out, _ = run(
                capsys, "replicate", model_file, "--T", "1.0", "--basis", "1.5",
                "--payoff", "1,0", "--dt", dt, "--N", "12", "--seed", "3",
            )
            assert code == 0
            _, rows = parse_csv(out)
            errs[dt] = np.mean([float(r[2]) for r in rows])
        assert errs["5e-4"] < 0.75 * errs["1e-3"]

    def test_matches_per_path_replication(self, capsys, model_file):
        # the paths are drawn first, from the one seeded generator, then
        # replicated together; each row agrees with replicating its path alone
        code, out, _ = run(
            capsys, "replicate", model_file, "--T", "1.0", "--basis", "1.5",
            "--payoff", "1,0", "--dt", "1e-3", "--N", "6", "--seed", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["path", "n_jumps", "terminal_error", "max_tracking_error"]
        assert [(r[0], r[1]) for r in rows] == [
            ("0", "1"), ("1", "0"), ("2", "1"), ("3", "2"), ("4", "1"), ("5", "0")
        ]
        spec = ctmc_rates.load_model(model_file)
        G, r = spec.generator, spec.rates
        rng = np.random.default_rng(3)
        for row in rows:
            path = ctmc_rates.simulate_path(G, 0, 1.5, rng)
            rep = ctmc_rates.replicate_paths(
                G, r, [path], ctmc_rates.BondBasis((1.5,)),
                ctmc_rates.ClaimPayoff(np.array([1.0, 0.0]), 1.0), 1e-3,
            )[0]
            assert int(row[1]) == rep.n_jumps
            assert float(row[2]) == pytest.approx(rep.terminal_error, rel=0, abs=1e-9)
            assert float(row[3]) == pytest.approx(rep.max_tracking_error, rel=0, abs=1e-9)

    def test_singular_basis_exit_3(self, capsys, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text(ZERO_RATE)
        code, _, err = run(
            capsys, "replicate", str(p), "--T", "1.0", "--basis", "1.5",
            "--payoff", "1,0", "--dt", "1e-2", "--N", "1", "--seed", "3",
        )
        assert code == 3
        assert "basis" in err

    def test_nan_step_exit_1(self, capsys, model_file):
        code, _, err = run(
            capsys, "replicate", model_file, "--T", "1.0", "--basis", "1.5",
            "--payoff", "1,0", "--dt", "nan", "--N", "1", "--seed", "3",
        )
        assert code == 1
        assert "error: rebalance step dt must be positive" in err


class TestDemo:
    def test_demo_dataset(self, capsys):
        code, out, _ = run(capsys, "demo", "--T-grid", "0.1:50:0.1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "yield_state0", "yield_state1", "asymptote"]
        assert len(rows) == 500
        assert float(rows[0][0]) == pytest.approx(0.1)
        asym = float(rows[0][3])
        y0 = [float(r[1]) for r in rows]
        y1 = [float(r[2]) for r in rows]
        assert all(np.diff(y0) > 0) and all(np.diff(y1) < 0)
        assert abs(y0[-1] - asym) < 1e-3
        # the state-1 gap decays like kappa_1 / T with kappa_1 = |log c_1|
        T = float(rows[-1][0])
        assert abs(T * abs(y1[-1] - asym) - STATE1_KAPPA) <= 1e-9

    def test_long_maturity_demo_is_finite(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "demo", "--rate", "1", "--T-grid", "400:1000:200")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(np.isfinite(float(x)) for row in rows for x in row)

    @pytest.mark.parametrize("argv", [["--lam", "nan"], ["--lam", "inf"], ["--rate", "inf"]])
    def test_non_finite_parameters_exit_1(self, capsys, argv):
        code, out, err = run(capsys, "demo", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: lambda and rate must be positive and finite")


class TestHedge:
    def test_schedule_csv(self, capsys, model_file):
        code, out, _ = run(
            capsys, "hedge", model_file, "--T", "1.0", "--basis", "1.5",
            "--payoff", "1,0", "--t-grid", "0:0.8:0.4",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:2] == ["time", "state"]
        assert header[-1] == "money_market_residual"
        assert len(rows) == 6  # 3 times x 2 states
        # with a full basis the hedge is one system per time, so both states
        # print the same positions and residual, digit for digit
        for r0 in range(0, 6, 2):
            assert rows[r0][0] == rows[r0 + 1][0] and rows[r0][2:] == rows[r0 + 1][2:]

    def test_labels_print_as_written(self, capsys, tmp_path):
        # the rows are text columns filled in by a %s template: braces and %
        # in a label are text
        p = tmp_path / "labels.txt"
        p.write_text(TWO_STATE.replace("states: 2", "states: a{0} 5%}"))
        code, out, _ = run(capsys, "hedge", str(p), "--T", "1", "--basis", "1.5",
                           "--payoff", "1,0", "--t-grid", "0:0.5:0.5")
        assert code == 0
        assert [row[1] for row in parse_csv(out)[1]] == ["a{0}", "5%}"] * 2

    def test_grid_after_maturity_exit_1(self, capsys, model_file):
        code, out, err = run(
            capsys, "hedge", model_file, "--T", "1", "--basis", "1.5",
            "--payoff", "1,0", "--t-grid", "2:3:1",
        )
        assert (code, out) == (1, "")
        assert err == "error: hedge grid has no times at or before T\n"


@pytest.mark.parametrize("argv", [
    ["hedge", "--T", "1", "--basis", "2", "--payoff", "1,0", "--t-grid", "0:1:1e-15"],
    ["replicate", "--T", "1", "--basis", "2", "--payoff", "1,0", "--dt", "1e-15", "--N", "1",
     "--seed", "1"],
    ["yield-curve", "--T-grid", "1:2:1e-15"],
    ["simulate", "--N", "1000000000000000", "--horizon", "1", "--seed", "1"],
])
def test_oversized_input_is_an_error_line(capsys, model_file, argv):
    # 1e15 points need 8 PB, beyond any 64-bit user address space, so the
    # allocation fails at once whatever the machine's overcommit setting
    code, out, err = run(capsys, argv[0], model_file, *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


class TestSmallBasis:
    """A basis of K < n - 1 bonds hedges the jumps the generator allows."""

    DENSE = """\
states: 3
generator:
-1.5  1.0  0.5
 1.0 -1.5  0.5
 0.7  0.3 -1.0
rates: 0 0.5 1
"""
    OPTIONS = {
        "hedge": ["--t-grid", "0:1:0.25"],
        "replicate": ["--dt", "0.01", "--N", "4", "--seed", "3"],
    }

    @pytest.mark.parametrize("command", ["hedge", "replicate"])
    def test_dense_chain_exit_1(self, capsys, tmp_path, command):
        p = tmp_path / "dense.txt"
        p.write_text(self.DENSE)
        code, out, err = run(capsys, command, str(p), "--T", "1", "--basis", "2",
                             "--payoff", "1,0,0", *self.OPTIONS[command])
        assert (code, out) == (1, "")
        assert err == (
            "error: full replication of an 3-state model needs 2 bonds, got 1; "
            "state 0 has 2 exits\n"
        )

    def run_birth_death(self, capsys, tmp_path, command):
        p = tmp_path / "bd5.txt"
        p.write_text(BIRTH_DEATH)
        code, out, _ = run(capsys, command, str(p), "--T", "1", "--basis", "2,3",
                           "--payoff", "1,0,0,0,0", *self.OPTIONS[command])
        assert code == 0
        return str(p), *parse_csv(out)

    def test_birth_death_hedge_with_two_bonds(self, capsys, tmp_path):
        path, header, rows = self.run_birth_death(capsys, tmp_path, "hedge")
        assert header == ["time", "state", "position_T2", "position_T3", "money_market_residual"]
        assert len(rows) == 5 * 5
        # each position vector matches the claim across the one or two
        # neighbours the chain can jump to
        spec = ctmc_rates.load_model(path)
        G, r = spec.generator, spec.rates
        payoff = ctmc_rates.ClaimPayoff(np.eye(5)[0], 1.0)
        for row in rows:
            t, s = float(row[0]), int(row[1])
            D = np.array(row[2:4], dtype=float)
            U = ctmc_rates.price_claim(G, r, payoff, t)
            B = np.array([ctmc_rates.bond_prices(G, r, t, Tm) for Tm in (2.0, 3.0)]).T
            for j in (s - 1, s + 1):
                if 0 <= j < 5:
                    assert D @ (B[j] - B[s]) == pytest.approx(U[j] - U[s], abs=1e-9)

    def test_birth_death_replicate_with_two_bonds(self, capsys, tmp_path):
        _, _, rows = self.run_birth_death(capsys, tmp_path, "replicate")
        assert len(rows) == 4
        assert all(float(row[2]) < 1e-2 for row in rows)


class TestGoldenBytes:
    """sha256 of stdout and the exit code of each command on the fixture models.

    The pins were recorded before a refactor that must not change a byte, so
    they hold any later cleanup to the same output. The yield-curve-two,
    hedge and replicate pins were re-recorded when the propagator took runs
    of equal steps by doubling, which moves those numbers at ulp level. The
    hedge pins and the bd5 replicate pin were re-recorded again when the
    hedge became one cash-and-bond system per (time, row set): positions and
    residuals moved by at most 1.6e-12 of their column's largest value and
    replication errors by at most 3.4e-13; the two-state replicate output
    did not move. Both replicate pins were re-recorded once more when a time
    just off a run point became the first-order step X + delta M X instead
    of that run point: replication errors moved by at most 8.6e-14.
    replicate-two went from
    277ee6d9373340df62bc8391e49c9d4dbdafe408635a03ad6e024b5133d60ad1 to
    4da495d3e7c9069e2b9e1dea55ded73057ac6d79013b6dea08891c99aba4bd3b and
    replicate-bd5 from
    d74f47c808d34f362c3cf7251491e231071bae987035c592f8d94829bfee9076 to
    4d7702b112d087489c2e20cf621f9fd85783d3993c4b13e5f391e5f262c97e57.

    Nine pins were re-recorded when the propagator became the killed-chain
    Taylor step on the conservative matrix, and yields came from the killed
    mass. Distances to a 40-digit reference of the conservative model, max
    and rms relative over each output's numbers, before -> after:
    price-two bond 8.8e-17/6.4e-17 -> 9.0e-17/6.8e-17 (both below half an
    ulp), caplet 8.2e-15/8.1e-15 -> 2.4e-15/2.4e-15, payoff
    1.3e-16/1.0e-16 -> 1.1e-16/8.9e-17; yield-curve-two 2.8e-15/6.7e-16 ->
    3.6e-16/2.0e-16, yield-curve-scalar 8.3e-16/6.3e-16 -> 2.8e-16/1.6e-16;
    hedge-two 5.9e-15/4.0e-15 -> 2.0e-15/1.1e-15, hedge-bd5
    9.1e-13/3.8e-13 -> 3.8e-12/1.6e-12 (its positions solve a system whose
    own rounding, from correctly rounded bond prices, is 1.5e-12; the bond
    prices it solves from moved closer, 6.7e-16 -> 3.3e-16 absolute);
    replicate-two 3.1e-11/1.8e-11 -> 1.7e-11/9.9e-12, replicate-bd5
    1.1e-9/5.8e-10 -> 1.2e-9/4.9e-10. The digests, old -> new:
    price-two-0 263549e331851177804d6a6b7e0ce81a282cc571f1a9f2b149382e7bf23a3a11
    -> 47e9fe70dabd11e07c7d0baf29c8862756550dcefc50b704d8cb5a4f2b137ed2,
    price-two-1 f8bc5b0a70de1337b5e46f310be09e9f7d45a22114b5e6e7d13f91b62d9b504e
    -> 5842c3ffb450a9a4b0186fe99dd1e7feecd4c3722c953d7b583614325c24df03,
    price-two-2 f5137d782a7f302faadc94fb9d5c9878f66cf5d524f834ec4d4c108e3c7a2f8c
    -> 737b67dbd440e23ca7ccd10b85d034ce71db9df1c5dd01bf0c789c5d5d64623b,
    yield-curve-two-3 bca5dfd3751fa2f06eb29955a535ecc657c98337aed16d9f97ed4e688f5c56c4
    -> 9bb611bbb6397822757ae38f3b291c0e5ed2c44552caf35808bd539789f8acd5,
    yield-curve-scalar-4 b57b53e3264764f516cc3994d35e7e94763001772ac59cad6896caaab2eab4b1
    -> 1f5b4eafd323ba325471d9c2266e01c124abb7a1964385af2bc16ffec51c7107,
    hedge-two-5 f7951644b74ab947460cbb085f95f248e7f3fda7160353e74a68163d939b1fca
    -> c614141d7daedc10c07f3bfc873803cf39b24188cdd03dacc4f602c5ff0799a6,
    replicate-two-10 4da495d3e7c9069e2b9e1dea55ded73057ac6d79013b6dea08891c99aba4bd3b
    -> 481c2054d9a6eef8f24d2a9faf33cd047577110f05b4b86c78d7763e4c702150,
    hedge-bd5-12 edc05f3e0e6bbe6d4524985c2a4dbda44d6d63d6c8bd9f652b836b3de6848e41
    -> 75ca29c140b71a1ae0be126455e27ba28b2df265d2cbf09e0419a4a628106553,
    replicate-bd5-13 4d7702b112d087489c2e20cf621f9fd85783d3993c4b13e5f391e5f262c97e57
    -> 85cda0b457dd73cacdcffeb9aeb6fc7b75ce7ceca586b0e69612d4a4964a2e72.
    The recover, simulate and demo pins did not move, nor did any exit code.

    The demo pin was re-recorded when the two-state closed form stopped
    forming r + 2 lambda - gamma and its counterparts as differences: its
    distance to a 60-digit reference, max and rms relative, went from
    4.6e-15/1.7e-15 to 2.7e-16/1.4e-16, and demo-None-11 from
    6012906d9fabeb8cb70cb23c1878c1c3acbb3bcec8e5a6e1a22dbcc7f6f40b0c to
    fcecc3d18301a59859152f6845e23e08ab55ea7c9b81c4d01a01d9fe1f464d6e.
    The float digits come from numpy and its BLAS: on another numpy/OpenBLAS
    build (these pins are from numpy 2.4 with OpenBLAS on x86-64) a pin may
    move by the last digit.
    """

    MODELS = {"two": TWO_STATE, "high": HIGH_RATE, "zero": ZERO_RATE, "scalar": SCALAR,
              "bd5": BIRTH_DEATH, "dense12": dense_text(seed=12, n=12, scale=1.0)}
    CASES = [
        ("two", ["price", "--T", "1", "--bond"], 0,
         "47e9fe70dabd11e07c7d0baf29c8862756550dcefc50b704d8cb5a4f2b137ed2"),
        ("two", ["price", "--t", "0.25", "--T", "1", "--Tb", "1.5", "--caplet", "0.05"], 0,
         "5842c3ffb450a9a4b0186fe99dd1e7feecd4c3722c953d7b583614325c24df03"),
        ("two", ["price", "--T", "2", "--payoff", "1,3"], 0,
         "737b67dbd440e23ca7ccd10b85d034ce71db9df1c5dd01bf0c789c5d5d64623b"),
        ("two", ["yield-curve", "--T-grid", "0.5:20:0.5"], 0,
         "9bb611bbb6397822757ae38f3b291c0e5ed2c44552caf35808bd539789f8acd5"),
        ("scalar", ["yield-curve", "--T-grid", "1:5:1"], 0,
         "1f5b4eafd323ba325471d9c2266e01c124abb7a1964385af2bc16ffec51c7107"),
        ("two", ["hedge", "--T", "1", "--basis", "2", "--payoff", "1,0", "--t-grid", "0:1:0.125"], 0,
         "c614141d7daedc10c07f3bfc873803cf39b24188cdd03dacc4f602c5ff0799a6"),
        ("two", ["recover"], 0,
         "72345ea68d7d7aa103763256f7bbfabf75f94b9cd6ee222984e34fa1b3a9b34d"),
        ("high", ["recover"], 0,
         "d23c2e2b35f2461975394c8074dfb81b1e7ceb0898652ac9279a443205104bc2"),
        ("zero", ["recover"], 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("two", ["simulate", "--measure", "p", "--N", "2000", "--horizon", "2", "--seed", "7"], 0,
         "9b54039ca9955c1dfef14ce4a08113e517661c4e5cb7c56aed2a18db5372cb28"),
        ("two", ["replicate", "--T", "1", "--basis", "2", "--payoff", "1,0", "--dt", "0.01",
                 "--N", "4", "--seed", "3"], 0,
         "481c2054d9a6eef8f24d2a9faf33cd047577110f05b4b86c78d7763e4c702150"),
        (None, ["demo", "--T-grid", "0.5:20:0.5"], 0,
         "fcecc3d18301a59859152f6845e23e08ab55ea7c9b81c4d01a01d9fe1f464d6e"),
        # the full basis hedges every j != s, not only the generator's support
        ("bd5", ["hedge", "--T", "1", "--basis", "2,3,4,5", "--payoff", "1,0,0,0,0",
                 "--t-grid", "0:1:0.25"], 0,
         "75ca29c140b71a1ae0be126455e27ba28b2df265d2cbf09e0419a4a628106553"),
        ("bd5", ["replicate", "--T", "1", "--basis", "2,3,4,5", "--payoff", "1,0,0,0,0",
                 "--dt", "0.01", "--N", "4", "--seed", "3"], 0,
         "85cda0b457dd73cacdcffeb9aeb6fc7b75ce7ceca586b0e69612d4a4964a2e72"),
        ("dense12", ["recover"], 0,
         "40ef722d0f8590731b8460701dfbeb11c98e177dc257b861e4d7a1ad75e15520"),
    ]

    @pytest.mark.parametrize("model, argv, code, digest", CASES,
                             ids=[f"{argv[0]}-{model}-{k}" for k, (model, argv, *_) in enumerate(CASES)])
    def test_stdout_is_byte_identical(self, capsys, tmp_path, model, argv, code, digest):
        if model is not None:
            path = tmp_path / f"{model}.txt"
            path.write_text(self.MODELS[model])
            argv = [argv[0], str(path), *argv[1:]]
        got, out, _ = run(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


class TestParserPins:
    """Exit code and sha256 of stdout and stderr for help and usage errors.

    Recorded before the subcommand parsers were built lazily, with COLUMNS=80
    because argparse wraps help to the terminal width. The model path is
    never opened: argparse stops before any command runs.
    """

    EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    CASES = [
        (["--help"], 0, "e7e8ff8eaf4d3cce453c4c9a0f56e4237d49853682aa1d9d766dc6f391a9a466", EMPTY),
        (["price", "--help"], 0, "ef6a24182931191b05b32f65f9b70c6610c7eca450fdda0007a06821445f9ca3", EMPTY),
        (["yield-curve", "--help"], 0,
         "eab3eab0bbc87958c01dae27ce0ec5a2bb4903679d066aa03987c22942ec1e61", EMPTY),
        (["hedge", "--help"], 0, "1b3eb5f67e094b80c0c333b6dce2514a9ee7981599d967bfeb561cc39c860017", EMPTY),
        (["recover", "--help"], 0, "5727769fba5a2781ce97dadad8d63d9bbaeee75059e7943e9a3db2ad96405bf7", EMPTY),
        (["simulate", "--help"], 0, "3324c4ad1745be57b115577dfe3e2efa6c2df8850b164c9b3ab2eb6e458ba0b1", EMPTY),
        (["replicate", "--help"], 0, "0bfafd4e2b6f039e97b235497a4bf98b587087038ea1d88b9b244c48a5240045", EMPTY),
        (["demo", "--help"], 0, "698fd888778a2695f49634e49a674684a0c37cebf226f21099f4941df3e393df", EMPTY),
        ([], 1, EMPTY, "170c1a0ad6e47211056b54b5b6a37e4ed8bbe46408b4a3a99c3d1cf3c1aae308"),
        (["bogus"], 1, EMPTY, "fe8d46f7dd4c23cd29ccd5bd322614b2ff38be3e591dbdbaab6cf73fae90d8e6"),
        (["--bogus"], 1, EMPTY, "170c1a0ad6e47211056b54b5b6a37e4ed8bbe46408b4a3a99c3d1cf3c1aae308"),
        (["price", "m.txt"], 1, EMPTY, "86102d346c0a654a81cf430ea511b111bc04ab3d174ad1490efc9dd0bd68fc07"),
        (["recover"], 1, EMPTY, "aea5a1e9bafa3d9ad4f81232a20597a61260a86e03024feaca1510114659740d"),
        (["simulate", "m.txt", "--measure", "z", "--N", "1", "--horizon", "1", "--seed", "1"], 1, EMPTY,
         "927f3d2ee4b9c831fa7139e85aadc0eb79ba1afae45788f3b086d66cb4685a38"),
        (["hedge", "m.txt", "--T", "x", "--basis", "2", "--payoff", "1,0", "--t-grid", "0:1:1"], 1, EMPTY,
         "325c6b6689c0aac49e63f703d250a01cbe265545fbce8d95acc8e3bc4c8d70c8"),
        (["recover", "m.txt", "extra"], 1, EMPTY,
         "c3b25e2d2f59eec72dcb3a01b7dd022fb88047ad4a320ec86adf0a368780eb4e"),
        (["price", "m.txt", "--T", "1", "--bond", "--caplet", "1"], 1, EMPTY,
         "fbc38a1204684fe451945a63156747cdfab2ed70750f1d888f8ea0e8cf901313"),
        (["demo", "--lam"], 1, EMPTY, "4bc5128d26d96ee43a8df6b0bbc75a4c20262becf43b060ef2acebad48e98c25"),
    ]
    # runs every case through main in one child and prints [code, sha(out), sha(err)] per case
    CHILD = """\
import contextlib, hashlib, io, json, sys
from ctmc_rates.cli import main
results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code] + [hashlib.sha256(f.getvalue().encode()).hexdigest() for f in (out, err)])
print(json.dumps(results))
"""

    @pytest.fixture(scope="class")
    def outcomes(self):
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD], input=json.dumps([argv for argv, *_ in self.CASES]),
            env=dict(child_env(), COLUMNS="80"), capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    @pytest.mark.parametrize("k", range(len(CASES)), ids=[" ".join(c[0]) or "no-args" for c in CASES])
    def test_help_and_usage_errors_are_byte_identical(self, outcomes, k):
        assert outcomes[k] == list(self.CASES[k][1:])


class TestStartup:
    def test_public_names_are_pinned(self):
        names = sorted(
            name for name, value in vars(ctmc_rates).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert names == [
            "BondBasis", "ChainPath", "ClaimPayoff", "CtmcRatesError",
            "GeneratorMatrix", "HedgePlan", "ModelFileError", "ModelSpec",
            "ModelValidationError", "RateMap",
            "RecoveryHypothesisError", "ReplicationReport", "TwoStateModel",
            "UnhedgeableBasisError", "arrow_debreu", "bond_prices",
            "caplet", "floorlet", "forward_rate", "load_model",
            "mc_price_claim", "parse_model_text", "perron_pair", "price_claim",
            "price_forward_rate_option", "recover_generator", "replicate_paths",
            "simulate_path", "simulate_terminal", "tipk_price", "validate_model",
        ]

    def test_signatures_take_each_input_once(self):
        # T is payoff.maturity, rho, pi and G^pi come from (G, r), and a path
        # needs no rates: none of them is a parameter
        assert {f.__name__: list(inspect.signature(f).parameters) for f in (
            ctmc_rates.HedgePlan, ctmc_rates.replicate_paths, ctmc_rates.tipk_price,
            ctmc_rates.simulate_path,
        )} == {
            "HedgePlan": ["G", "r", "basis", "payoff"],
            "replicate_paths": ["G", "r", "paths", "basis", "payoff", "dt"],
            "tipk_price": ["G", "r", "payoff", "t", "i", "n_paths", "seed"],
            "simulate_path": ["G", "initial", "horizon", "seed"],
        }

    def test_cli_import_leaves_scipy_and_manifest_modules_out(self):
        code = (
            "import sys, ctmc_rates.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m in ('importlib.metadata', 'hashlib')))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_replicate_leaves_numpy_ma_out(self, model_file):
        # np.unique imports numpy.ma on its first call, ~18 ms of a cold
        # process; neither replicate nor hedge (grouping cells by row set) may
        code = (
            "import contextlib, io, sys\n"
            "from ctmc_rates.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['replicate', {model_file!r}, '--T', '1', '--basis', '2', '--payoff', '1,0',"
            " '--dt', '0.01', '--N', '4', '--seed', '3'])\n"
            f"    main(['hedge', {model_file!r}, '--T', '1', '--basis', '2', '--payoff', '1,0',"
            " '--t-grid', '0:1:0.125'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    def test_split_report_forks_without_warnings_or_process_modules(self, tmp_path):
        # 300 states split into two blocks on a host with two CPUs. OpenBLAS
        # stops its thread at fork, so Python >= 3.12 has no threads to warn of
        path = tmp_path / "dense.txt"
        path.write_text(dense_text(seed=3, n=300, scale=1.0))
        code = (
            "import json, sys\n"
            "from ctmc_rates.cli import main\n"
            f"code = main(['recover', {str(path)!r}])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in"
            " ('multiprocessing', 'concurrent', 'subprocess'))]))\n"
        )
        out = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code],
                             env=child_env(), capture_output=True, text=True, timeout=120)
        report, _, last = out.stdout.rstrip("\n").rpartition("\n")
        assert (out.returncode, out.stderr, last) == (0, "", "[0, []]")
        assert json.loads(report)["validation"] == "ok"

    def test_output_manifest_keys_and_tool_version(self, capsys, model_file, tmp_path):
        out_file = str(tmp_path / "curve.csv")
        code, _, _ = run(capsys, "yield-curve", model_file, "--T-grid", "1:3:1", "--output", out_file)
        assert code == 0
        text = Path(out_file).read_text(encoding="utf-8")
        manifest = json.loads(Path(out_file + ".manifest.json").read_text(encoding="utf-8"))
        assert list(manifest) == [
            "model", "model_sha256", "command", "parameters", "seed", "rng",
            "tool_version", "created_at", "output", "output_sha256",
        ]
        try:
            tool_version = version("ctmc-rates")
        except PackageNotFoundError:
            tool_version = "0.1.0+src"
        assert manifest["tool_version"] == tool_version
        assert manifest["model"] == model_file
        assert manifest["model_sha256"] == hashlib.sha256(Path(model_file).read_bytes()).hexdigest()
        assert manifest["command"] == "yield-curve"
        assert manifest["seed"] is None and manifest["rng"] is None
        assert manifest["output"] == out_file
        assert manifest["output_sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert datetime.datetime.fromisoformat(manifest["created_at"]).tzinfo is not None
