"""Message kinds and payload schemas of the lifetime protocols.

Sizes are in abstract "units": control messages cost 1 unit, full object
transfers cost ``OBJECT_SIZE`` units, matching the paper's point that
validating by timestamp comparison "avoids the unnecessary sending of
large objects" (Section 5.2).
"""

from __future__ import annotations

#: Client -> server: cache miss, send me your current version.
FETCH = "fetch"
#: Server -> client: a full version in response to FETCH (or a push).
VERSION = "version"
#: Client -> server: if-modified-since — is my version (alpha) still valid?
VALIDATE = "validate"
#: Server -> client: your version is still current; omega/beta advanced.
STILL_VALID = "still-valid"
#: Client -> server: write-through of a locally applied update.
WRITE = "write"
#: Server -> client: the write has been installed (writes are synchronous).
WRITE_ACK = "write-ack"
#: Server -> client: push of a fresh version (push propagation policy).
PUSH = "push"
#: Server -> client: invalidation of an object (invalidation policy).
INVALIDATE = "invalidate"
#: Client -> server: several validations in one frame
#: (``items: [{obj, alpha}]``; a null ``alpha`` asks for the full version).
VALIDATE_BATCH = "validate-batch"
#: Server -> client: per-item results for a VALIDATE_BATCH (``results``:
#: a list of STILL_VALID / VERSION payloads, in item order).
VALIDATE_BATCH_ACK = "validate-batch-ack"

#: Cost (in size units) of shipping a full object version.
OBJECT_SIZE = 20
#: Cost of a control message (validate, still-valid, invalidate).
CONTROL_SIZE = 1

#: Message kinds that carry a full object copy.
BULK_KINDS = frozenset({VERSION, PUSH, WRITE})

#: Request kinds a server must answer exactly once: a retransmission of
#: one of these replays the cached reply instead of re-executing (the
#: reply cache in :mod:`repro.net.server`).  ``sync`` is deliberately
#: absent — a clock-sync exchange is time-sensitive and must re-execute.
DEDUP_KINDS = frozenset({FETCH, VALIDATE, WRITE, VALIDATE_BATCH})


def size_of(kind: str) -> int:
    """Size units for a message of the given kind."""
    return OBJECT_SIZE if kind in BULK_KINDS else CONTROL_SIZE
