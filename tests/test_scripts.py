"""Smoke tests: the experiment scripts run end to end on small inputs."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replication_convergence(capsys):
    load("replication_convergence").main(["--n-paths", "1", "--dts", "1e-2,5e-3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "dt,mean_terminal_error,max_tracking_error"
    assert [ln.split(",")[0] for ln in lines[2:-1]] == ["0.01", "0.005"]
    errors = [float(ln.split(",")[1]) for ln in lines[2:-1]]
    assert errors[1] < errors[0]
    assert lines[-1].startswith("slope of log mean_terminal_error against log dt: ")


def test_replication_error_is_first_order_in_dt(capsys):
    load("replication_convergence").main(["--n-paths", "30", "--dts", "4e-3,2e-3,1e-3"])
    slope = float(capsys.readouterr().out.strip().splitlines()[-1].split(": ")[1])
    assert 0.8 <= slope <= 1.2


def test_recovery_check(capsys):
    load("recovery_check").main(["--n-models", "1", "--n-paths", "2000"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "model,n,rho,mean_Z,se_Z,tipk_err_in_se"
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(1.0, abs=5 * float(row[4]))
