"""ASCII rendering of histories in the paper's figure style.

The paper draws executions as one horizontal timeline per site with
operation labels at their effective times (Figures 1, 5, 6).  This module
reproduces that as fixed-width text, which the examples and the CLI use
to show executions and violations:

    Site 0 |-w0(B)4--------w0(C)6---r0(A)9--r0(B)5--|
    Site 1 |----r1(B)2--r1(A)0-----w1(A)9---r1(B)5--|
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.history import History
from repro.core.operations import Operation


def render_timeline(
    history: History,
    width: int = 100,
    mark: Optional[Operation] = None,
) -> str:
    """Render one line per site; ``mark`` highlights an operation with ^.

    Labels are placed proportionally to effective time; when two labels of
    a site would collide, the later one is pushed right (the axis is then
    only approximately to scale — good enough to read an execution).
    """
    if not history.operations:
        return "(empty history)"
    if width < 20:
        raise ValueError(f"width too small: {width}")
    t_min = min(op.time for op in history.operations)
    t_max = max(op.time for op in history.operations)
    span = (t_max - t_min) or 1.0

    def column(op: Operation) -> int:
        return int((op.time - t_min) / span * (width - 1))

    lines: List[str] = []
    marker_line: Optional[str] = None
    site_width = max(len(f"Site {s}") for s in history.sites)
    for site in history.sites:
        cells = ["-"] * width
        cursor = -1
        positions: Dict[Operation, int] = {}
        for op in history.site_ops(site):
            label = op.label()
            start = max(column(op), cursor + 2)
            if start + len(label) > width:
                cells.extend(["-"] * (start + len(label) - width))
            for i, ch in enumerate(label):
                cells[start + i] = ch
            positions[op] = start
            cursor = start + len(label) - 1
        prefix = f"Site {site}".ljust(site_width)
        lines.append(f"{prefix} |{''.join(cells)}|")
        if mark is not None and mark in positions:
            pad = " " * (site_width + 2 + positions[mark])
            marker_line = pad + "^" * len(mark.label())
            lines.append(marker_line)
    axis = (
        " " * site_width
        + f"  t={t_min:g}"
        + " " * max(1, width - len(f"t={t_min:g}") - len(f"t={t_max:g}"))
        + f"t={t_max:g}"
    )
    lines.append(axis)
    return "\n".join(lines)


def render_serialization(sequence: Sequence[Operation]) -> str:
    """Render a serialization as the paper's Figure 5(b)/6(b) style list,
    six operations a line."""
    if not sequence:
        return "(empty serialization)"
    labels = [op.label() for op in sequence]
    lines = []
    for i in range(0, len(labels), 6):
        lines.append("  " + "  ".join(labels[i : i + 6]))
    return "\n".join(lines)
