"""Plain-text table formatting.

Reports print plain-text tables with a "paper" column next to the
"model"/"measured" column; these helpers keep that formatting consistent. The
budgets each paper value is held to are in :mod:`repro.analysis.paper_data`,
checked by ``tests/paper/``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_table", "pivot_table"]


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render a list of rows as an aligned plain-text table, floats to three
    significant digits."""
    formatted_rows = []
    for row in rows:
        formatted = []
        for value in row:
            if isinstance(value, (float, np.floating)):
                formatted.append(f"{value:.3g}")
            else:
                formatted.append(str(value))
        formatted_rows.append(formatted)
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def pivot_table(
    records: list[dict],
    index: str,
    columns: str,
    value: str,
) -> str:
    """Render flat record dicts as an ``index`` x ``columns`` pivot of ``value``.

    Row and column headers appear in first-seen order; cells without a record
    show ``-``; when several records land in the same cell the last one
    wins. Used by :class:`repro.batch.SweepReport` for dt-vs-propagator grids.
    """
    row_keys: list = []
    col_keys: list = []
    cells: dict[tuple, object] = {}
    for record in records:
        if index not in record or columns not in record:
            raise KeyError(f"record missing pivot key {index!r} or {columns!r}: {record!r}")
        r, c = record[index], record[columns]
        if r not in row_keys:
            row_keys.append(r)
        if c not in col_keys:
            col_keys.append(c)
        cells[(r, c)] = record.get(value, "-")

    def _fmt(cell) -> str:
        return f"{cell:.3g}" if isinstance(cell, (float, np.floating)) else str(cell)

    headers = [f"{index} \\ {columns}"] + [_fmt(c) for c in col_keys]
    rows = [
        [_fmt(r)] + [_fmt(cells[(r, c)]) if (r, c) in cells else "-" for c in col_keys]
        for r in row_keys
    ]
    return format_table(headers, rows)

