"""File formats and serialization.

Matrix files are JSON objects {"rows": n, "cols": m, "entries": [[re, im],
...]} in row-major order; CSV input with cells like "1.5+0.5i" is accepted,
writers emit JSON only.  Report, record and sweep values follow one rule: a
float becomes a decimal string with 17 significant digits (lossless for
binary64; infinities as "inf"), a complex an [re, im] pair of such strings,
and anything else passes through.  ``write_document`` writes every document
the CLI prints.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .bounds import BoundReport
from .errors import InvalidMatrix
from .experiments import SweepResult
from .linalg import EigenDecomposition, as_matrix


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits; round-trips binary64."""
    return format(float(x), ".17g")  # also "inf", "-inf" and "nan"


def _value(v):
    """The serialization rule for report, record and sweep values."""
    if isinstance(v, float):
        return fmt17(v)
    if isinstance(v, complex):
        return [fmt17(v.real), fmt17(v.imag)]
    return v


def _pairs(z: np.ndarray) -> list[list[float]]:
    """[re, im] of each entry of ``z`` in row-major order: the complex128
    array viewed as float64 pairs, so the Python floats are its bits (-0.0
    included)."""
    return np.ascontiguousarray(z, dtype=np.complex128).reshape(-1).view(
        np.float64).reshape(-1, 2).tolist()


def matrix_to_obj(m: np.ndarray) -> dict:
    m = as_matrix(m, "matrix")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": _pairs(m),
    }


def _json_name(kind: type) -> str:
    return {int: "a number", float: "a number", bool: "true/false", str: "a string",
            type(None): "null", list: "an array", dict: "an object"}.get(kind, kind.__name__)


def obj_to_matrix(obj: dict, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidMatrix(f"{name}: missing rows/cols/entries: {exc}") from exc
    # JSON integers only: int() would truncate 1.9 and accept true as 1
    if not all(type(v) is int for v in (rows, cols)):
        raise InvalidMatrix(f"{name}: rows and cols must be integers, "
                            f"got {rows!r} and {cols!r}")
    if rows < 1 or cols < 1:
        raise InvalidMatrix(f"{name}: need rows and cols >= 1, got {rows}x{cols}")
    bad = f"{name}: entries are not [re, im] number pairs"
    # JSON numbers only: float64 conversion would take true as 1 and "1.5" as 1.5
    if type(entries) is not list:
        raise InvalidMatrix(f"{bad}: found {_json_name(type(entries))}")
    kinds = (set(map(type, entries)) - {list}
             or set(map(type, chain.from_iterable(entries))) - {int, float})
    if kinds:
        raise InvalidMatrix(f"{bad}: found {', '.join(sorted(set(map(_json_name, kinds))))}")
    try:
        pairs = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrix(f"{bad}: {exc}") from exc
    if pairs.shape != (rows * cols, 2):
        raise InvalidMatrix(f"{name}: expected {rows * cols} [re, im] entries, "
                            f"got an array of shape {pairs.shape}")
    # each row-major [re, im] pair is one complex128, bit for bit
    return as_matrix(pairs.view(np.complex128).reshape(rows, cols), name)


def _parse_complex_cell(cell: str, row: int, col: int) -> complex:
    text = cell.strip().replace(" ", "")
    if not text:
        raise InvalidMatrix(f"row {row}, column {col}: empty cell")
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise InvalidMatrix(
            f"row {row}, column {col}: cannot parse {cell.strip()!r}") from exc


def parse_csv_matrix(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InvalidMatrix("CSV matrix: file is empty")
    rows = []
    width = None
    for rix, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InvalidMatrix(
                f"row {rix}: expected {width} cells, got {len(cells)}")
        rows.append([_parse_complex_cell(c, rix, cix)
                     for cix, c in enumerate(cells, start=1)])
    return as_matrix(np.array(rows, dtype=np.complex128), "matrix")


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    if path.suffix.lower() == ".csv" or not text.lstrip().startswith("{"):
        return parse_csv_matrix(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidMatrix(f"{path}: invalid JSON: {exc}") from exc
    del text  # the parsed lists hold the numbers now: free the text before converting them
    return obj_to_matrix(obj, str(path))


def save_matrix(path: str | Path, m: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(m)) + "\n")


def eig_to_obj(ed: EigenDecomposition) -> dict:
    return {
        "lambda": _pairs(ed.lam),
        "X": matrix_to_obj(ed.x),
        "V": matrix_to_obj(ed.v),
        "kappa_x": fmt17(ed.kappa_x),
    }


def report_to_obj(report: BoundReport) -> dict:
    """Flat JSON object with one key per report field, in field order."""
    return {f.name: _value(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _cell(value) -> str:
    return str(_value(value))


def sweep_to_csv(result: SweepResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_cell(row[c]) for c in result.columns))
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> dict:
    obj = {
        "columns": list(result.columns),
        "rows": [{c: _value(row[c]) for c in result.columns} for row in result.rows],
        "notes": list(result.notes),
    }
    if result.summary:
        obj["summary"] = {k: _value(v) for k, v in result.summary}
    return obj


def records_to_json(records: list[dict]) -> list[dict]:
    return [{k: _value(v) for k, v in rec.items()} for rec in records]


def write_document(doc, out: str | Path | None) -> None:
    """Write ``doc`` to the file ``out``, or to stdout when ``out`` is None.

    A str (CSV) is written as it is; anything else as JSON with indent 2 and
    a trailing newline, streamed chunk by chunk so its text is never held
    whole."""
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
