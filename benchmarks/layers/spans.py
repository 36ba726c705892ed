"""Spans around the stack's public calls, recorded from outside ``src/``.

:class:`Tracer` patches class attributes and two module globals so that
every call into a layer boundary leaves one span
``(name, start, end, parent, site, req)`` in memory.  All of the stack
runs on one event-loop thread, so open spans form one stack and a span's
**self time** is its busy time minus the busy time of the spans opened
inside it.

A synchronous call is busy from entry to return.  A coroutine is busy
only while it is executing: the wrapper drives it step by step and
counts the time between each resume and the next suspension, so time
spent parked on an ``await`` (when the loop runs other tasks, whose own
spans account for it) is never billed twice.  That is what lets the
per-layer self times add up to the process's CPU time.

Parents: the innermost open span, else — for a task spawned inside a
``RingRouter`` operation — that operation, kept in a ``contextvars`` slot
which ``asyncio`` copies into child tasks.  Server-side spans have no
such parent; they join their client operation through ``(site, req)``.

The wrappers are written flat and repetitive on purpose: every bytecode
in them is paid ten times per operation, and the time a wrapper spends
outside its own clock readings lands in its parent's self time.
"""

from __future__ import annotations

import contextvars
import json
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import CacheEngine, ServerEngine
from repro.net import framing
from repro.net.client import NetCacheClient
from repro.net.framing import FrameConnection
from repro.net.ring_router import RingRouter
from repro.store import DurableStore

_perf = time.perf_counter
_cpu = time.process_time

# Finished span: a tuple of plain values (which the garbage collector
# stops scanning; a quarter of a million tracked lists made every
# collection of the traced run slow).
NAME, START, END, BUSY, CHILD, PARENT, SITE, REQ, CPU = range(9)
# Open span, on the stack: [index, busy time of children, own busy time, last end].

#: Every span name a traced run can produce.
SPAN_NAMES = (
    "client.read", "client.write", "ring.read", "ring.write",
    "cache.rule3", "cache.lookup", "cache.install_fetched",
    "cache.apply_still_valid", "cache.apply_write_ack",
    "framing.encode", "framing.decode", "transport.send",
    "server.execute",
    "store.log_write", "store.log_writes", "store.snapshot", "store.fsync",
)

#: Spans whose individual durations are reported (as a percentile).
DURATIONS_KEPT = ("store.fsync", "store.snapshot")

Ident = Callable[[tuple, Any], Tuple[Optional[int], Optional[int]]]


def _frame_req(frame: Any) -> Optional[int]:
    req = frame.get("req") if isinstance(frame, dict) else None
    return req if isinstance(req, int) else None


# How a wrapped call names its (site, req) from its arguments and result.
def _engine_self(args: tuple, result: Any):
    return args[0].site_id, None


def _client_self(args: tuple, result: Any):
    return args[0].client_id, None


def _encoded(args: tuple, result: Any):  # encode_frame(message)
    return None, _frame_req(args[0])


def _decoded(args: tuple, result: Any):  # decode_frame(payload) -> message
    return None, _frame_req(result)


def _sent(args: tuple, result: Any):  # FrameConnection.send(self, message)
    return None, _frame_req(args[1])


def _executed(args: tuple, result: Any):  # execute(self, client_id, frame)
    return args[1], _frame_req(args[2])


def _logged(args: tuple, result: Any):  # log_write(self, version)
    return args[1].writer, None


def _anonymous(args: tuple, result: Any):
    return None, None


class Tracer:
    """Installs the wrappers and holds the spans.  The patches are never
    undone: a traced run is a process of its own."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []
        self._op: contextvars.ContextVar = contextvars.ContextVar(
            "layers_ring_operation", default=None
        )

    # -- the wrappers -----------------------------------------------------------

    def _sync(self, name: str, fn: Callable, ident: Ident, cpu: bool = False):
        spans, stack, op_get = self.spans, self._stack, self._op.get

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            if stack:
                up = stack[-1]
                parent = up[0]
            else:
                up = None
                parent = op_get()
            me = [index, 0.0]
            stack.append(me)
            result = None
            cpu0 = _cpu() if cpu else 0.0
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _perf()
                used = _cpu() - cpu0 if cpu else 0.0
                stack.pop()
                busy = end - start
                if up is not None:
                    up[1] += busy
                site, req = ident(args, result)
                spans[index] = (name, start, end, busy, me[1], parent, site, req, used)

        wrapper.__wrapped__ = fn
        return wrapper

    @types.coroutine
    def _drive(self, coro: Any, me: list):
        """Run ``coro`` to completion, billing ``me`` for each step."""
        stack = self._stack
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            up = stack[-1] if stack else None
            stack.append(me)
            resumed = _perf()
            try:
                if error is None:
                    parked = coro.send(value)
                else:
                    parked = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                me[3] = suspended = _perf()
                stack.pop()
                step = suspended - resumed
                me[2] += step
                if up is not None:
                    up[1] += step
            try:
                value, error = (yield parked), None
            except BaseException as delivered:  # cancellation lands at the await
                value, error = None, delivered

    def _async(self, name: str, fn: Callable, ident: Ident, spawns_tasks: bool = False):
        spans, stack, op = self.spans, self._stack, self._op
        drive = self._drive

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else op.get()
            start = _perf()
            me = [index, 0.0, 0.0, start]
            token = op.set(index) if spawns_tasks else None
            try:
                return await drive(fn(*args, **kwargs), me)
            finally:
                if spawns_tasks:
                    op.reset(token)
                site, req = ident(args, None)
                spans[index] = (name, start, me[3], me[2], me[1], parent, site, req, 0.0)

        wrapper.__wrapped__ = fn
        return wrapper

    def on_fsync(self, elapsed: float) -> None:
        """``wal.on_fsync`` hook: the fsync as a child of the open store span."""
        end = _perf()
        up = self._stack[-1] if self._stack else None
        if up is not None:
            up[1] += elapsed
        self.spans.append((
            "store.fsync", end - elapsed, end, elapsed, 0.0,
            None if up is None else up[0], None, None, 0.0,
        ))

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        def patch(owner: Any, attr: str, name: str, wrap: Callable, *more: Any) -> None:
            # getattr raises AttributeError if the surface moved: fail loudly.
            setattr(owner, attr, wrap(name, getattr(owner, attr), *more))

        for method in ("rule3", "lookup", "install_fetched",
                       "apply_still_valid", "apply_write_ack"):
            patch(CacheEngine, method, f"cache.{method}", self._sync, _engine_self)
        patch(ServerEngine, "execute", "server.execute", self._sync, _executed)
        patch(framing, "encode_frame", "framing.encode", self._sync, _encoded)
        patch(framing, "decode_frame", "framing.decode", self._sync, _decoded)
        patch(FrameConnection, "send", "transport.send", self._async, _sent)
        for method in ("read", "write"):
            patch(NetCacheClient, method, f"client.{method}", self._async, _client_self)
            patch(RingRouter, method, f"ring.{method}", self._async, _client_self, True)
        patch(DurableStore, "log_write", "store.log_write", self._sync, _logged, True)
        patch(DurableStore, "log_writes", "store.log_writes", self._sync, _anonymous, True)
        patch(DurableStore, "snapshot", "store.snapshot", self._sync, _anonymous, True)

    # -- reading the spans back -------------------------------------------------

    def write_jsonl(self, path: str, first: int = 0) -> None:
        """One line per finished span from index ``first`` on.  A span that
        names no site of its own takes its parent's."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for index in range(first, len(spans)):
                s = spans[index]
                if s is None:
                    continue  # still open when the window closed
                site, up = s[SITE], s[PARENT]
                while site is None and up is not None and spans[up] is not None:
                    site, up = spans[up][SITE], spans[up][PARENT]
                fh.write(json.dumps({
                    "id": index, "name": s[NAME],
                    "start": round(s[START], 7), "end": round(s[END], 7),
                    "parent": s[PARENT], "site": site, "req": s[REQ],
                    "self_us": round((s[BUSY] - s[CHILD]) * 1e6, 2),
                }) + "\n")


def layer_totals(
    spans: List[Optional[tuple]], segments: List[Dict[str, float]]
) -> Dict[str, Dict[str, Any]]:
    """Per span name over the measured window: call count, total self
    seconds, total CPU seconds (taken for store spans only) and — for the
    spans a percentile is reported of — the busy durations as measured.

    ``segments`` gives, for each stretch of the window, the index of its
    first span and how slow the machine was during it; CPU-bound times
    are divided by that, as the end-to-end timings are — an fsync, a wait
    and not CPU, by how slow the disk was instead."""
    totals: Dict[str, Dict[str, Any]] = {}
    bounds = [segment["first_span"] for segment in segments] + [len(spans)]
    for segment, first, last in zip(segments, bounds, bounds[1:]):
        for s in spans[first:last]:
            if s is None:
                continue  # still open when the window closed
            name = s[NAME]
            scale = 1.0 / segment[
                "disk_slowdown" if name == "store.fsync" else "slowdown"]
            entry = totals.get(name)
            if entry is None:
                entry = totals[name] = {
                    "calls": 0, "self": 0.0, "cpu": 0.0, "busy": [],
                }
            entry["calls"] += 1
            entry["self"] += (s[BUSY] - s[CHILD]) * scale
            entry["cpu"] += s[CPU] * scale
            if name in DURATIONS_KEPT:
                entry["busy"].append(s[BUSY])
    return totals
