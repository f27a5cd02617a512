"""Plain-text report rendering shared by the CLI, benches and examples.

Nothing clever: fixed-width tables with a title banner, rendered the same
way on every surface.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(
    title: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Format a fixed-width table with a title banner."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(column) for column in header]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = ["", f"=== {title} ==="]
    lines.append(
        "  ".join(name.ljust(width) for name, width in zip(header, widths))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def print_table(
    title: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Render and print a table."""
    print(render_table(title, header, rows))
