import math
import warnings

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


def _block_model(n, rows=None):
    """Model text on n states: a two-way ring with 0.25 on each edge, rows
    replaced by `rows` (generator row index -> text), and a comment line and
    a blank line before the block's sixth row."""
    lines = ["states: %d" % n, "generator:"]
    for i in range(n):
        if i == 5:
            lines.append("# the block may hold comments and blank lines")
            lines.append("")
        row = ["0"] * n
        row[(i - 1) % n] = row[(i + 1) % n] = "0.25"
        row[i] = "-0.5"
        lines.append((rows or {}).get(i, " ".join(row)))
    lines.append("rates: " + " ".join(["0.01"] * n))
    return "\n".join(lines) + "\n"


def _reference_generator(text, n):
    """The generator block read token by token with float(), or the error
    message the per-line reader gives for its first bad row."""
    lines = text.splitlines()
    lineno = lines.index("generator:") + 1
    rows = []
    while len(rows) < n:
        lineno += 1
        row_txt = lines[lineno - 1].split("#", 1)[0].strip()
        if not row_txt:
            continue
        try:
            row = [float(tok) for tok in row_txt.replace(",", " ").split()]
        except ValueError:
            return f"m.txt:{lineno}: could not parse generator row: {row_txt!r}"
        if not all(map(math.isfinite, row)):
            return f"m.txt:{lineno}: generator row must be finite: {row_txt!r}"
        if len(row) != n:
            return f"m.txt:{lineno}: generator row has {len(row)} entries, expected {n}"
        rows.append(row)
    return np.array(rows)


# tokens where a C number reader and float() may part ways
EDGE_TOKENS = ["1_000", "١٢", "１", "Infinity", "nan", "1e400", "1e-400", "-0.0",
               "4.9e-324", "0x10", "1d5", "1.2.3"]


@pytest.mark.parametrize("sep", [",", "\t", "\xa0", "\x0b"])
@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_block_reader_matches_per_token_float(token, sep):
    n, k = 64, 17
    try:
        value = float(token)
    except ValueError:
        value = 0.0
    rows = {}
    for i in range(n):
        row = ["0"] * n
        row[(i - 1) % n] = row[(i + 1) % n] = "0.25"
        if i == k:
            row[i + 2] = token
        row[i] = repr(-(0.5 + value)) if i == k else "-0.5"
        rows[i] = sep.join(row) + (" # trailing note" if i % 7 == 0 else "")
    text = _block_model(n, rows)
    expected = _reference_generator(text, n)
    if isinstance(expected, str):
        with pytest.raises(ModelFileError) as exc:
            parse_model_text(text, path="m.txt")
        assert str(exc.value) == expected
    else:
        got = parse_model_text(text, path="m.txt").generator.entries
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_generator_error_comes_before_a_later_bad_key():
    def with_bad_key(text):
        lines = text.splitlines()
        lines.insert(104, "bogus: 1")
        return "\n".join(lines) + "\n"

    text = with_bad_key(_block_model(100, {35: "0.25 -0.5 1.2.3" + " 0" * 97}))
    assert text.splitlines()[39].startswith("0.25 -0.5 1.2.3")
    assert text.splitlines()[104] == "bogus: 1"
    with pytest.raises(ModelFileError, match=r"^m.txt:40: could not parse generator row: '0.25 -0.5 1.2.3"):
        parse_model_text(text, path="m.txt")
    with pytest.raises(ModelFileError, match=r"^m.txt:105: unknown key 'bogus'$"):
        parse_model_text(with_bad_key(_block_model(100)), path="m.txt")


@pytest.mark.parametrize("row, text, match", [
    (72, "0 0.25 -0.5", r"^m.txt:77: generator row has 3 entries, expected 100$"),
    (53, "inf" + " 0" * 99, r"^m.txt:58: generator row must be finite: 'inf 0 0"),
    (0, "-0.5 0.25" + " 0" * 97 + " 0.25 0", r"^m.txt:3: generator row has 101 entries, expected 100$"),
])
def test_bad_row_in_a_large_block_names_its_line(row, text, match):
    with pytest.raises(ModelFileError, match=match):
        parse_model_text(_block_model(100, {row: text}), path="m.txt")


def test_short_block_names_the_generator_line():
    text = "\n".join(_block_model(100).splitlines()[:-2])  # no last row, no rates
    with pytest.raises(ModelFileError, match=r"^m.txt:2: generator needs 100 rows, found 99$"):
        parse_model_text(text, path="m.txt")


def test_block_of_separators_only_is_a_model_file_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's reader warns on a block with no data
        with pytest.raises(ModelFileError, match=r"^m.txt:3: generator row has 0 entries, expected 1$"):
            parse_model_text("states: 1\ngenerator:\n, ,\nrates: 0\n", path="m.txt")
