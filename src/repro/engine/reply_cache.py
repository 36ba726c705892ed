"""The exactly-once reply cache (server half of request dedup)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

#: Replies kept, least recently used first out: far more than one
#: client's retransmit window, so a retransmission finds its reply.
REPLY_CACHE_SIZE = 1024


class ReplyCache:
    """An LRU of ``(client_id, req) -> reply frame`` — the server half of
    exactly-once request semantics.

    A client retransmits under the *same* request id; looking the id up
    here turns re-execution into replay, so a write whose ack was lost
    is installed once and every retransmission returns the original
    ``alpha`` (each write keeps one effective time ``T(w)``, Definition 1).
    Keyed by ``client_id`` rather than the connection so the replay
    survives a reconnect.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[int, int], Dict[str, Any]]" = OrderedDict()

    def get(self, key: Tuple[int, int]) -> Optional[Dict[str, Any]]:
        reply = self._entries.get(key)
        if reply is not None:
            self._entries.move_to_end(key)
        return reply

    def put(self, key: Tuple[int, int], reply: Dict[str, Any]) -> None:
        entries = self._entries
        if key in entries:  # a new key is inserted last already
            entries.move_to_end(key)
        entries[key] = reply
        while len(entries) > REPLY_CACHE_SIZE:
            entries.popitem(last=False)

    def discard(self, key: Optional[Tuple[int, int]]) -> None:
        """Forget ``key``'s reply: the driver could not make the request's
        effects durable, so a retransmission must re-execute.  ``None``
        (the key of a request that is never cached) is a no-op."""
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)
