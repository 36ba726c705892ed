"""Shared fixtures: the paper's example histories and small helpers.

Tests marked ``net`` open real sockets; a hung socket must fail the test,
not wedge the whole run, so ``_net_timeout`` arms a SIGALRM-based hard
per-test timeout for them (no third-party timeout plugin required).
Override the default with ``@pytest.mark.net(timeout=N)``.
"""

from __future__ import annotations

import random
import signal

import pytest

from repro.paperdata import figure1, figure5, figure6, figures2_3
from repro.workloads import random_sc_history

NET_TEST_TIMEOUT = 60.0  # seconds; generous — localhost runs take < 5s


@pytest.fixture(autouse=True)
def _net_timeout(request):
    marker = request.node.get_closest_marker("net")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = float(marker.kwargs.get("timeout", NET_TEST_TIMEOUT))

    def _expired(signum, frame):
        raise TimeoutError(
            f"net test exceeded its hard timeout of {seconds:g}s "
            "(hung socket or stuck event loop)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fig1():
    return figure1()


@pytest.fixture
def fig5():
    return figure5()


@pytest.fixture
def fig6():
    return figure6()


@pytest.fixture
def fig23():
    return figures2_3()


@pytest.fixture
def engine_history():
    """A 14-operation SC history whose recorded write order is no witness,
    so the constraint engine decides it: 2 branch nodes for SC, 5 for CC,
    with every site's CC reaching the engine.  (The paper's Figures 1 and
    5 are decided by their write order, with no branch node.)"""
    return random_sc_history(random.Random(2))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
