"""Report rows and their CSV/JSON serialisation.

The CLI emits one row schema, ``CLI_REPORT_COLUMNS``, plus per-index
trace files of ``index,norm,ratio`` rows.  CSV and JSON mirrors carry
identical field names and string values, so the two formats are
field-for-field comparable.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence


def format_number(v) -> str:
    """Canonical, deterministic text form: ints plain, rationals as p/q,
    floats via repr, infinities as inf."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    return str(v)


@dataclass
class ReportRow:
    """One CLI result row; deterministic given (job, seed) apart from the
    wall-time column, which the reproducible mode blanks."""

    context_id: str
    task: str
    inputs: str
    quantity: str
    value: str
    spread: str = ""
    exact: str = ""
    witness: str = ""
    seed: str = ""
    window: str = ""
    scheme: str = ""
    wall_time_ms: str = ""

    def as_dict(self, reproducible: bool = False) -> dict[str, str]:
        d = {c: getattr(self, c) for c in CLI_REPORT_COLUMNS}
        if reproducible:
            d["wall_time_ms"] = ""
        return d


CLI_REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def rows_to_csv(rows: Sequence[dict], columns: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def rows_to_json(rows: Sequence[dict], columns: Sequence[str]) -> str:
    ordered = [{c: row[c] for c in columns} for row in rows]
    return json.dumps(ordered, indent=2) + "\n"


class EmitError(Exception):
    pass


def emit(rows: Sequence[dict], fmt: str, path: str, columns: Sequence[str] = CLI_REPORT_COLUMNS) -> str:
    """Serialise rows to CSV or JSON; trailing newline, UTF-8.

    ``path='-'`` returns the text without writing.  Empty row lists are an
    error: a run that produced nothing is a bug, not an empty report.
    """
    if not rows:
        raise EmitError("refusing to emit an empty report")
    if fmt == "csv":
        text = rows_to_csv(rows, columns)
    elif fmt == "json":
        text = rows_to_json(rows, columns)
    else:
        raise EmitError(f"unknown format {fmt!r} (csv | json)")
    if path != "-":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def write_trace(path: str, rows: Sequence[tuple]) -> None:
    """Per-index trace file: (index, norm, ratio) rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "norm", "ratio"])
        for index, norm, ratio in rows:
            writer.writerow([index, format_number(norm), format_number(ratio)])

