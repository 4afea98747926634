"""Plain-text rendering of experiment outputs.

The paper's tables and figures are regenerated as aligned text tables and
numeric series — suitable for terminals, logs, and regression comparison
in EXPERIMENTS.md. No plotting dependency is required (or available
offline); every figure's underlying series is printed so the shape is
inspectable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_number(value, precision: int = 3) -> str:
    """Human-friendly numeric formatting (engineering-style for big/small)."""
    if value is None:
        return "N/A"
    if isinstance(value, list):
        return "; ".join(format_number(item, precision) for item in value)
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e5 or magnitude < 1e-3:
        return f"{value:.{precision}g}"
    if isinstance(value, int) or float(value).is_integer():
        if magnitude < 1e5:
            return str(int(value))
    return f"{value:.{precision}g}"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  ---
    1  2.5
    """
    formatted_rows: List[List[str]] = [
        [format_number(cell) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def render_series(
    name: str,
    points: Sequence[tuple],
    x_label: str = "x",
    y_labels: Optional[Sequence[str]] = None,
) -> str:
    """Render a figure's data series as a table.

    ``points`` is a sequence of tuples ``(x, y1, y2, ...)``.
    """
    if not points:
        return f"{name}: (no data)"
    columns = len(points[0])
    if y_labels is None:
        y_labels = [f"y{i}" for i in range(1, columns)]
    headers = [x_label, *y_labels]
    return render_table(headers, points, title=name)
