"""Plain-text table / CSV rendering of experiment results.

Every experiment driver in :mod:`repro.experiments` produces its data as a
list of dictionaries (one per table row or curve point); these helpers turn
that into the aligned ASCII tables printed by the benchmark harness and into
CSV/JSON documents for further processing.  Keeping the formatting here means
the experiment modules stay purely computational -- and because every helper
takes plain row dictionaries, rows replayed from the result cache render
through exactly the same code as freshly computed ones.
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, Sequence

from .sweep import SweepResult


def format_value(value: object, *, precision: int = 3) -> str:
    """Render one cell: floats rounded, everything else via ``str``."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Format dictionaries as an aligned ASCII table.

    Parameters
    ----------
    rows:
        Table rows; missing keys render as empty cells.
    columns:
        Column order; defaults to the keys of the first row.
    title:
        Optional title printed above the table.
    precision:
        Significant digits used for floats.
    """
    if not rows:
        return (title + "\n(empty)\n") if title else "(empty)\n"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [format_value(row.get(column, ""), precision=precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), max(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines) + "\n"


def to_csv(rows: Sequence[Mapping[str, object]], *, columns: Sequence[str] | None = None) -> str:
    """Serialise rows as CSV text."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({column: row.get(column, "") for column in columns})
    return buffer.getvalue()


def to_json(rows: Sequence[Mapping[str, object]], *, indent: int | None = None) -> str:
    """Serialise rows as the same JSON document the result cache stores.

    Round-trips bit-identically through ``json.loads(...)["records"]`` /
    :meth:`repro.analysis.sweep.SweepResult.from_json`.
    """
    return SweepResult(records=[dict(row) for row in rows]).to_json(indent=indent)
