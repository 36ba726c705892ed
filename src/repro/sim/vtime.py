"""A virtual-time asyncio loop: the *unmodified* live stack, deterministic.

Everything under :mod:`repro.net`, :mod:`repro.cluster` and
:mod:`repro.ring` takes "now" from the running loop's ``time()`` (see
:mod:`repro.clocks.rebase`) and waits in ``call_later``/``asyncio.sleep``
timers.  :class:`VirtualTimeLoop` is a stock selector loop over real
loopback sockets whose selector, when no socket is ready, *adds* its
timeout to a counter instead of sleeping: a soak of seconds runs in
milliseconds and — loopback TCP delivers a sent frame before ``send``
returns, so what is readable never depends on the host's speed — to the
same trace every time.  That argument covers one process on 127.0.0.1:
a subprocess or a real network answers in wall time and loses the race
against the counter; a thread would too, so ``run_in_executor`` (an
fsync, a host *name*) runs inline, done at the next iteration.  Tests
pick this loop by calling :func:`run` in place of ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Coroutine, TypeVar

T = TypeVar("T")

#: Added by every reading, so no two are equal — ``time.monotonic()``
#: behaves so on Linux, and latest-write-wins needs distinct stamps for
#: two writes executed in one loop iteration.
TICK = 1e-6


class _SkippingSelector(selectors.DefaultSelector):
    now = 0.0  #: the loop's clock: virtual seconds since it was made

    def select(self, timeout=None):
        ready = super().select(0)
        if not ready and timeout is None:
            return super().select(None)  # no timer either: wait for a socket
        if not ready:
            self.now += timeout
        return ready


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """``time()`` is a counter from 0, advanced by idle selector timeouts."""

    def __init__(self) -> None:
        self._skipper = _SkippingSelector()
        super().__init__(self._skipper)

    def time(self) -> float:
        self._skipper.now += TICK
        return self._skipper.now

    def run_in_executor(self, executor: Any, func: Any, *args: Any) -> asyncio.Future:
        done = self.create_future()
        try:
            done.set_result(func(*args))
        except Exception as exc:
            done.set_exception(exc)
        return done


def run(main: Coroutine[Any, Any, T]) -> T:
    """``asyncio.run(main)`` on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(main)
    finally:
        left = asyncio.all_tasks(loop)
        for task in left:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*left, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        asyncio.set_event_loop(None)
        loop.close()
