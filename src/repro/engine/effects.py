"""Effect descriptions returned by the server engines.

An engine call never performs I/O; it returns an :class:`EngineResult`
whose fields the transport driver turns into real effects, in this
order:

1. ``wal`` — versions to append to the durable log *before* the reply is
   sent (log-before-ack: an acknowledged write is always recoverable);
2. ``reply`` — the reply frame to send to the requesting client;
3. ``installed`` — versions that actually took the install slot, to be
   recorded in the server-side trace and propagated to subscribers per
   the driver's push/invalidate policy.

``wal`` and ``installed`` differ exactly when the latest-write-wins rule
discards a write (a non-strictly-monotone clock stamped two writes
identically): the discarded stamp is still logged — the WAL is the
record of what was acknowledged — but never propagated or recorded as
the object's current version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence


@dataclass
class EngineResult:
    """Everything one ``execute()`` call asks the driver to do."""

    #: The reply frame (plain dict, ``kind`` + scalar/timestamp fields).
    reply: Dict[str, Any]
    #: Stamped versions to log before the reply leaves (may include
    #: LWW-discarded stamps; the WAL records acknowledgements).
    wal: Sequence[Any] = ()
    #: Versions that took the install slot: record + propagate these.
    installed: Sequence[Any] = ()
