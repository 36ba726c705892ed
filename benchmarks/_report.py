"""Shared reporting for the benchmark suite.

Every bench calls :func:`report` with the rows/series the paper's
narrative describes; the rows are printed (visible with ``pytest -s``)
and appended to ``benchmarks/latest_results.txt`` so a normal
``pytest benchmarks/ --benchmark-only`` run leaves the full comparison
tables on disk.  EXPERIMENTS.md is the curated paper-vs-measured record.
"""

from __future__ import annotations

import pathlib
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import render_table

RESULTS_PATH = pathlib.Path(__file__).parent / "latest_results.txt"
_lock = threading.Lock()


def reset_results() -> None:
    RESULTS_PATH.write_text("")


def report(
    title: str,
    rows: Sequence[Dict[str, Any]],
    columns: Optional[List[str]] = None,
    notes: str = "",
) -> None:
    """Print and persist one experiment's result table."""
    text = render_table(rows, columns, title=title)
    if notes:
        text += f"\n{notes}"
    with _lock:
        with RESULTS_PATH.open("a") as fh:
            fh.write(text + "\n\n")
    print()
    print(text)

