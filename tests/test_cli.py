import json
import warnings

import numpy as np
import pytest

from ctmc_rates.cli import main

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
        from ctmc_rates.two_state import closed_form_ad
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
        assert open(a).read() == open(b).read()
        manifest = json.loads(open(a + ".manifest.json").read())
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
