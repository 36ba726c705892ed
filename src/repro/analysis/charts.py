"""Dependency-free ASCII charts for sweep results.

The benches and examples print trade-off *curves*; a bar chart next to
the table makes the shape visible in a terminal and in the persisted
bench results without any plotting dependency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import format_cell

FULL, PARTIALS = "█", " ▏▎▍▌▋▊▉"


def _bar(fraction: float, width: int) -> str:
    fraction = max(0.0, min(1.0, fraction))
    cells = fraction * width
    whole = int(cells)
    remainder = cells - whole
    partial = PARTIALS[int(remainder * len(PARTIALS))] if whole < width else ""
    return FULL * whole + partial


def dual_chart(
    rows: Sequence[Dict[str, Any]],
    label: str,
    left: str,
    right: str,
    width: int = 28,
    title: Optional[str] = None,
) -> str:
    """Two mirrored bar columns per row — the shape of a trade-off.

        delta |#####      | msgs  ...  stale |   #####|
    """
    if not rows:
        return "(no rows)"
    left_values = [float(row[left]) for row in rows]
    right_values = [float(row[right]) for row in rows]
    left_top = max(left_values) or 1.0
    right_top = max(right_values) or 1.0
    labels = [format_cell(row[label]) for row in rows]
    label_width = max(len(text) for text in labels + [label])
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{label.rjust(label_width)}  "
        f"{left.center(width + 2)}  {right.center(width + 2)}"
    )
    lines.append(header)
    for text, lv, rv in zip(labels, left_values, right_values):
        lbar = _bar(lv / left_top, width).rjust(width)
        rbar = _bar(rv / right_top, width).ljust(width)
        lines.append(f"{text.rjust(label_width)}  |{lbar}|  |{rbar}|")
    return "\n".join(lines)
