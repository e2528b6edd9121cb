"""Plain-text table formatting.

Reports print plain-text tables with a "paper" column next to the
"model"/"measured" column; :func:`format_table` keeps that formatting
consistent. The budgets each paper value is held to are in
:mod:`repro.analysis.paper_data`, checked by ``tests/paper/``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_table"]


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

