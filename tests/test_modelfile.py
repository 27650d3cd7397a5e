import numpy as np
import pytest

from ctmc_rates import ModelFileError, parse_model_text
from ctmc_rates.cli import main as cli_main
from ctmc_rates.modelfile import load_model

GOOD = """\
# two-state example
states: 2
generator:
-0.5  0.5
 0.5 -0.5
rates: 0.0 0.1
"""


def test_parses_valid_file():
    spec = parse_model_text(GOOD)
    assert spec.labels == ("0", "1")
    assert np.allclose(spec.generator.entries, [[-0.5, 0.5], [0.5, -0.5]])
    assert np.allclose(spec.rates.rates, [0.0, 0.1])


def test_labels_accepted():
    text = GOOD.replace("states: 2", "states: low high")
    spec = parse_model_text(text)
    assert spec.labels == ("low", "high")
    assert spec.labels[1] == "high"


def test_row_sum_violation_is_line_anchored():
    bad = GOOD.replace("-0.5  0.5", "-0.4  0.5")
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(bad, path="model.txt")
    assert "model.txt:4" in str(exc.value)
    assert "sums to" in str(exc.value)


def test_negative_rate_is_line_anchored():
    bad = GOOD.replace("rates: 0.0 0.1", "rates: -0.2 0.1")
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(bad, path="m.txt")
    assert "m.txt:6" in str(exc.value)


def test_not_irreducible_anchored_to_generator():
    bad = GOOD.replace("-0.5  0.5", "0 0").replace(" 0.5 -0.5", "0 0")
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(bad, path="m.txt")
    assert "irreducible" in str(exc.value)


def test_wrong_entry_count_rejected():
    bad = GOOD.replace("rates: 0.0 0.1", "rates: 0.0 0.1 0.3")
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(bad)
    assert "3 rates for 2 states" in str(exc.value)


def test_garbage_rejected_with_line():
    with pytest.raises(ModelFileError) as exc:
        parse_model_text("states: 2\ngenerator:\n-1 one\n1 -1\nrates: 0 0.1\n", path="x")
    assert "x:3" in str(exc.value)


# one row sum, negative off-diagonal and positive diagonal on line 3, a
# reducible generator (line 2) and a negative rate (line 5)
FIVE_VIOLATIONS = "states: 2\ngenerator:\n0.5 -1.0\n0.0 0.0\nrates: -0.1 0.0\n"


def test_every_violation_is_anchored_to_its_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five.txt").write_text(FIVE_VIOLATIONS)
    assert cli_main(["price", "five.txt", "--T", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: five.txt:3: generator row 0 sums to -5.000e-01, not 0\n"
        "five.txt:3: generator entry (0,1) = -1.000e+00 is negative off-diagonal\n"
        "five.txt:3: generator diagonal (0,0) = 5.000e-01 is positive\n"
        "five.txt:2: generator is not irreducible (transition graph not strongly connected)\n"
        "five.txt:5: rate for state 0 is negative: -1.000e-01\n"
    )


@pytest.mark.parametrize("old, new, line", [
    (" 0.5 -0.5", " nan -0.5", 5),
    ("-0.5  0.5", "-inf  0.5", 4),
    ("rates: 0.0 0.1", "rates: 0.0 inf", 6),
    ("rates: 0.0 0.1", "rates: nan 0.1", 6),
])
def test_non_finite_value_is_line_anchored(old, new, line):
    with pytest.raises(ModelFileError, match=f"^m.txt:{line}: .* must be finite"):
        parse_model_text(GOOD.replace(old, new), path="m.txt")


def test_repeated_rates_rejected_with_line():
    with pytest.raises(ModelFileError, match=r"^m.txt:7: 'rates' already given on line 6$"):
        parse_model_text(GOOD + "rates: 0.0 0.2\n", path="m.txt")


def test_repeated_states_rejected_with_line():
    text = GOOD.replace("rates:", "states: 3\nrates:")
    with pytest.raises(ModelFileError, match=r"^m.txt:6: 'states' already given on line 2$"):
        parse_model_text(text, path="m.txt")


def test_unreadable_file_is_a_model_file_error(tmp_path):
    with pytest.raises(ModelFileError, match="No such file"):
        load_model(str(tmp_path / "missing.txt"))


def test_load_model_round_trip(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text(GOOD)
    spec = load_model(str(p))
    assert spec.generator.n == 2
