import datetime
import hashlib
import json
import os
import subprocess
import sys
import types
import warnings
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np
import pytest

import ctmc_rates
from ctmc_rates.cli import _parse_grid, _write_output, main

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


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text(TWO_STATE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_report_layout_is_json_indent_2(self, capsys, model_file, tmp_path):
        labelled = tmp_path / "labelled.txt"
        labelled.write_text(
            'states: lo"w mid h\u00e9\ngenerator:\n-1 0.5 0.5\n0.25 -0.5 0.25\n1 2 -3\n'
            "rates: 0.01 0.02 0.07\n",
            encoding="utf-8",
        )
        for path in (model_file, str(labelled)):
            code, out, _ = run(capsys, "recover", path)
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)["states"] == ['lo"w', "mid", "h\u00e9"]

    def test_zero_rates_exit_2(self, capsys, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text(ZERO_RATE)
        code, _, err = run(capsys, "recover", str(p))
        assert code == 2
        assert "hypothesis" in err

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
            path = ctmc_rates.simulate_path(G, 0, 1.5, rng, r=r)
            rep = ctmc_rates.replicate_paths(
                G, r, [path], 1.0, ctmc_rates.BondBasis((1.5,)),
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
        # the two-state hedge ratio is state-independent
        assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), rel=1e-10)

    def test_grid_after_maturity_exit_1(self, capsys, model_file):
        code, out, err = run(
            capsys, "hedge", model_file, "--T", "1", "--basis", "1.5",
            "--payoff", "1,0", "--t-grid", "2:3:1",
        )
        assert (code, out) == (1, "")
        assert err == "error: hedge grid has no times at or before T\n"


class TestStartup:
    def test_public_names_are_pinned(self):
        names = sorted(
            name for name, value in vars(ctmc_rates).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert names == [
            "BondBasis", "ChainPath", "ClaimPayoff", "CtmcRatesError", "DEFAULT_POLICY",
            "GeneratorMatrix", "HedgePlan", "ModelFileError", "ModelSpec",
            "ModelValidationError", "NumericPolicy", "PerronPair", "RateMap",
            "RecoveryHypothesisError", "ReplicationReport", "TwoStateModel",
            "UnhedgeableBasisError", "ValidationReport", "arrow_debreu", "bond_prices",
            "caplet", "floorlet", "forward_rate", "load_model", "matrix_exponential",
            "mc_price_claim", "parse_model_text", "perron_pair", "price_claim",
            "price_forward_rate_option", "recover_generator", "replicate_paths",
            "simulate_path", "simulate_terminal", "tipk_price", "transition_matrix",
            "validate_model",
        ]

    def test_cli_import_leaves_scipy_and_manifest_modules_out(self):
        src = str(Path(ctmc_rates.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, ctmc_rates.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m in ('importlib.metadata', 'hashlib')))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

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
