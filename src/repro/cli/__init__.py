"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check TRACE.json --criterion tsc --delta 0.5`` — run a consistency
  checker on a recorded trace (see :mod:`repro.core.io` for the format);
* ``threshold TRACE.json`` — report the trace's delta thresholds;
* ``render TRACE.json`` — draw the execution as a paper-style timeline;
* ``figures`` — verify every worked example of the paper;
* ``sweep`` — run the Section 6 delta-vs-cost simulation;
* ``webcache`` — run the Section 4 web-cache policy comparison;
* ``serve`` — run a real TCP object server (``repro.net``);
* ``client`` — run a workload against a server and record a trace;
* ``net-demo`` — in-process TCP cluster with clock skew and fault
  injection, checker-verified (docs/NET_PROTOCOL.md);
* ``ring build/add/rebalance/serve-set/soak`` — consistent-hash ring
  management and the multi-server replicated deployment (docs/RING.md);
* ``obs dump/serve/diff`` — registry snapshots, the static ``/metrics``
  server, and counter deltas (docs/OBSERVABILITY.md);
* ``load run/report/compare`` — coordinated-omission-free load
  generation, the SLO-gated scenario engine, and BENCH result files
  (docs/LOAD.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import check, cluster, load, net, obs, ring, simulate, store

#: Command-group modules, in help-listing order.
COMMAND_MODULES = (check, simulate, net, ring, store, obs, cluster, load)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timed consistency for shared distributed objects "
        "(PODC '99 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in COMMAND_MODULES:
        module.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
