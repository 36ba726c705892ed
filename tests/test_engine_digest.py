"""The checking engine's every answer, pinned: witnesses and branch nodes.

``test_verdict_digest.py`` pins what the timed checkers *say*; this test
pins how the engine got there.  Over the same histories (the paper's
figures and the seeded random families) it hashes what ``check_sc`` and
``check_cc`` return with the write-order step switched off, so that the
engine decides everything the time order does not: criterion, verdict,
violation text, branch nodes and the labels of the witness, or of every
site's witness.  A change to the reachability structure, to how a branch
is undone or to the input the causal check gives the engine must leave
all of it in place.
"""

import hashlib

from repro.checkers import check_cc, check_sc, constraint
from tests.test_verdict_digest import histories

#: Computed with the engine as it stood before its reachability matrix
#: became int bitsets with an undo trail and ``check_cc`` ordered its
#: causal edges; ``check_cc`` has since stopped giving it the reduction of
#: causal order and gives it all of ``H`` with program order instead.
DIGEST = "a59a586d69c5fadd124f1b264bcc41313adc98a4b77e19fb8b3de541500b140f"


def answer(result):
    if result.witness is not None:
        witness = [op.label() for op in result.witness]
    elif result.site_witnesses is not None:
        witness = {
            site: [op.label() for op in ops]
            for site, ops in sorted(result.site_witnesses.items())
        }
    else:
        witness = None
    return (result.criterion, result.satisfied, result.violation,
            result.states_explored, witness)


def digest():
    h = hashlib.sha256()
    count = 0
    for name, history, _ in histories():
        for check in (check_sc, check_cc):
            h.update(repr((name, answer(check(history)))).encode())
            h.update(b"\n")
            count += 1
    return count, h.hexdigest()


def test_no_engine_answer_moves(monkeypatch):
    monkeypatch.setattr(constraint, "_by_write_order", lambda *args: None)
    count, got = digest()
    assert count == 488
    assert got == DIGEST
