"""Every timed verdict, pinned: one digest over the checkers' answers.

``check_tsc``, ``check_tcc``, ``check_tcc_logical`` and ``check_timed``
all reduce to "the ordering criterion and every read on time", and
``min_timed_delta``/``min_timed_delta_logical`` to the same Definition 1/2
(or 6) inequality.  This test hashes what they say — criterion name,
verdict, violation text and parameters, plus the two thresholds — over the
paper's figures and a few hundred seeded random histories at several
(delta, epsilon) pairs.  A refactor that moves any verdict, any word of a
violation or any threshold changes the digest.
"""

import hashlib
import math
import random

from repro import paperdata
from repro.checkers import (
    check_pram,
    check_tcc,
    check_tcc_logical,
    check_timed,
    check_tsc,
)
from repro.clocks.vector import VectorTimestamp
from repro.clocks.xi import EuclideanXi, SumXi
from repro.core.history import History
from repro.core.operations import read, write
from repro.core.timed import min_timed_delta, min_timed_delta_logical
from repro.workloads.random_history import (
    random_history,
    random_linearizable_history,
    random_replica_history,
    random_sc_history,
)

#: Computed with the checkers as they stood before Definition 2's test and
#: the timed decomposition were each written once; one line moved since,
#: when PRAM's program order stopped breaking at an operation outside
#: ``H_{i+w}``: ``random_history/14``'s Timed-PRAM at (inf, 0) is still
#: violated, but first at ``H_(0+w)``, not ``H_(2+w)``.
DIGEST = "4b683ccc5346e399174f4926ef8ce8d3375e5e4e4b069cc27447f61e3292cab3"

#: (delta, epsilon) pairs in the random histories' time units (ops ~1 apart).
PAIRS = ((0.0, 0.0), (1.0, 1.0), (1.5, 0.0), (3.0, 0.4), (math.inf, 0.0))

#: Definition-6 deltas, in units of global activity.
LOGICAL_DELTAS = (0.0, 2.0, 6.0)

GENERATORS = (
    random_linearizable_history,
    random_sc_history,
    random_replica_history,
    random_history,
)


def with_vector_clocks(history):
    """The same history with a vector timestamp on every operation: in
    effective-time order each site ticks its own entry, and a read first
    merges the clock of the write it returns (when that came earlier)."""
    sites = sorted(history.sites)
    index = {site: i for i, site in enumerate(sites)}
    clocks = {site: [0] * len(sites) for site in sites}
    written = {}
    ops = []
    for op in sorted(history.operations, key=lambda o: o.time):
        clock = clocks[op.site]
        if op.is_read and (op.obj, op.value) in written:
            clock[:] = map(max, clock, written[op.obj, op.value])
        clock[index[op.site]] += 1
        stamp = VectorTimestamp(clock)
        if op.is_write:
            written[op.obj, op.value] = list(clock)
            ops.append(write(op.site, op.obj, op.value, op.time, ltime=stamp))
        else:
            ops.append(read(op.site, op.obj, op.value, op.time, ltime=stamp))
    return History(ops, initial_value=history.initial_value)


def histories():
    yield "figure1", paperdata.figure1(), ((60.0, 0.0), (320.0, 0.0), (100.0, 5.0))
    yield "figure5", paperdata.figure5(), ((50.0, 0.0), (96.0, 0.0), (97.0, 2.0))
    yield "figure6", paperdata.figure6(), ((30.0, 0.0), (300.0, 0.0), (50.0, 1.0))
    yield "figures2_3", paperdata.figures2_3().history, ((40.0, 0.0), (40.0, 40.0))
    for generator in GENERATORS:
        for seed in range(60):
            yield (f"{generator.__name__}/{seed}",
                   generator(random.Random(seed)), PAIRS)


def answers():
    """One line per verdict or threshold, in a fixed order."""
    for name, history, pairs in histories():
        yield name, "threshold", min_timed_delta(history)
        for delta, epsilon in pairs:
            for check in (check_tsc, check_tcc):
                yield name, verdict(check(history, delta, epsilon))
            yield name, verdict(check_timed(history, check_pram, delta, epsilon))
        logical = with_vector_clocks(history)
        for xi in (SumXi(), EuclideanXi()):
            yield name, xi.name, "threshold", min_timed_delta_logical(logical, xi)
            for delta in LOGICAL_DELTAS:
                yield name, verdict(check_tcc_logical(logical, delta, xi))


def verdict(result):
    return (result.criterion, result.satisfied, result.violation,
            sorted(result.parameters.items()))


def digest():
    h = hashlib.sha256()
    count = 0
    for answer in answers():
        h.update(repr(answer).encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


def test_no_timed_verdict_moves():
    count, got = digest()
    assert count > 4000
    assert got == DIGEST
