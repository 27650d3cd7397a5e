"""Plain-text model config files.

Format (comments with '#', blank lines ignored)::

    states: 2            # an integer, or a list of distinct labels
    generator:
    -0.5  0.5
     0.5 -0.5
    rates: 0.0 0.1

Every error names the offending line: malformed or non-finite input, a key
given twice, and each violated model invariant, which validate_model reports
with the generator row, the generator or the rates it concerns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelFileError
from .model import GeneratorMatrix, RateMap, validate_model


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model file; the labels are str(i) when the file gives a count."""

    labels: tuple[str, ...]
    generator: GeneratorMatrix
    rates: RateMap


def _fail(path: str, lineno: int, msg: str):
    raise ModelFileError(f"{path}:{lineno}: {msg}")


def _parse_floats(path: str, lineno: int, text: str, what: str) -> list[float]:
    parts = text.replace(",", " ").split()
    try:
        values = [float(p) for p in parts]
    except ValueError:
        _fail(path, lineno, f"could not parse {what}: {text!r}")
    if not np.all(np.isfinite(values)):
        _fail(path, lineno, f"{what} must be finite: {text!r}")
    return values


def _parse_generator(path: str, lineno: int, rows: list[tuple[int, str]], n: int) -> np.ndarray:
    """The n x n generator from its (line number, text) rows. numpy's C reader
    takes the whole block; it accepts a subset of float()'s syntax with equal
    values, so on any failure the per-line parser reads it again to name the line."""
    block = [t.replace(",", " ") for _, t in rows]
    if len(rows) == n and all(map(str.strip, block)):  # loadtxt warns on a blank block
        try:
            G = np.loadtxt(block, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if G.shape == (n, n) and np.isfinite(G).all():
                return G
    values = []
    for row_no, row_txt in rows:
        row = _parse_floats(path, row_no, row_txt, "generator row")
        if len(row) != n:
            _fail(path, row_no, f"generator row has {len(row)} entries, expected {n}")
        values.append(row)
    if len(values) < n:
        _fail(path, lineno, f"generator needs {n} rows, found {len(values)}")
    return np.array(values)


def parse_model_text(text: str, path: str = "<model>") -> ModelSpec:
    lines = text.splitlines()
    n = None
    labels = None
    key_line: dict[str, int] = {}
    gen = None
    rows: list[tuple[int, str]] = []  # generator (line number, comment-stripped text)
    rates = None

    idx = 0
    while idx < len(lines):
        lineno = idx + 1
        raw = lines[idx]
        idx += 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(path, lineno, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key in key_line:
            _fail(path, lineno, f"{key!r} already given on line {key_line[key]}")
        key_line[key] = lineno
        if key == "states":
            if not value:
                _fail(path, lineno, "states needs a count or a label list")
            tokens = value.replace(",", " ").split()
            if len(tokens) == 1 and tokens[0].lstrip("-").isdigit():
                n = int(tokens[0])
                if n < 1:
                    _fail(path, lineno, f"state count must be >= 1, got {n}")
            else:
                labels = tuple(tokens)
                if len(set(labels)) != len(labels):
                    _fail(path, lineno, "state labels must be distinct")
                n = len(labels)
        elif key == "generator":
            if n is None:
                _fail(path, lineno, "states must be declared before the generator")
            if value:
                _fail(path, lineno, "generator rows belong on the following lines")
            while len(rows) < n and idx < len(lines):
                row_txt = lines[idx].split("#", 1)[0].strip()
                idx += 1
                if row_txt:
                    rows.append((idx, row_txt))
            gen = _parse_generator(path, lineno, rows, n)
        elif key == "rates":
            rates = _parse_floats(path, lineno, value, "rates")
        else:
            _fail(path, lineno, f"unknown key {key!r}")

    if n is None:
        _fail(path, 1, "missing 'states' entry")
    if gen is None:
        _fail(path, 1, "missing 'generator' entry")
    if rates is None:
        _fail(path, 1, "missing 'rates' entry")
    if len(rates) != n:
        _fail(path, key_line["rates"], f"{len(rates)} rates for {n} states")

    G = GeneratorMatrix(gen)
    r = RateMap(np.array(rates))
    bad = validate_model(G, r)
    if bad:
        raise ModelFileError("\n".join(
            f"{path}:{rows[p][0] if isinstance(p, int) else key_line[p]}: {v}" for v, p in bad
        ))
    return ModelSpec(labels=labels or tuple(map(str, range(n))), generator=G, rates=r)


def load_model(path: str) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc.strerror}") from exc
    return parse_model_text(text, path=path)
