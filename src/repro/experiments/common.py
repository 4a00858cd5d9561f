"""The published artifact format of the experiment suites.

``render_table`` / ``write_results`` write fixed-width text plus JSON side
by side, mirroring the paper artifact's ``/result`` folder.  The format is
pinned by golden-file tests (``tests/test_experiments_render.py``); any
change to it is a deliberate, versioned decision.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["render_table", "write_results"]


def render_table(rows: list[dict], *, float_format: str = "{:.3e}") -> str:
    """Render row dictionaries as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered_rows = []
    for row in rows:
        rendered = []
        for column in columns:
            value = row.get(column)
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [
        max(len(str(column)), max(len(r[i]) for r in rendered_rows))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered_rows
    )
    return "\n".join([header, separator, body])


def write_results(name: str, rows: list[dict], output_dir: str | Path = "results") -> Path:
    """Write ``rows`` as both text and JSON under ``output_dir``; returns the txt path."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    text_path = directory / f"{name}.txt"
    text_path.write_text(render_table(rows) + "\n")
    (directory / f"{name}.json").write_text(json.dumps(rows, indent=2, default=str))
    return text_path
