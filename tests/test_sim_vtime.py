"""The virtual-time loop, and what it makes of the live stack: one seed,
one schedule, one trace — over real loopback sockets, with nothing under
``repro.net``/``repro.cluster``/``repro.ring`` knowing which loop runs."""

import asyncio
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.core.io import dumps_history
from repro.net.workloads import ring_cluster
from repro.sim import vtime
from tests.test_net_channel import echo, opened, peer

#: The soak ROADMAP items 2 and 6 name: three skewed servers, three
#: ring-routed sites, SWIM agents, ~190 operations in ~1.3 virtual seconds.
SOAK = dict(
    n_servers=3, n_clients=3, replicas=2, delta=0.4, rounds=60, think=0.01,
    cluster=True,
)


def failover_fingerprint():
    """One kill-the-primary soak: a SHA-256 over every field of every
    operation of the merged history, the ``FaultOutcome``, the verdict
    and how long it all took on the loop's clock — as JSON, so a
    subprocess can print it (floats round-trip)."""

    async def soak():
        report = await ring_cluster(seed=3, kill_primary_midway=True, **SOAK)
        return report, asyncio.get_running_loop().time()

    report, virtual_s = vtime.run(soak())
    digest = hashlib.sha256()
    for op in report.history.operations:
        digest.update(repr((
            op.kind.value, op.site, op.obj, op.value, op.time, op.start, op.end,
        )).encode())
    return json.dumps({
        "trace": digest.hexdigest(), "operations": len(report.history),
        "fault": report.fault.to_dict(), "tsc": report.tsc.satisfied,
        "virtual_s": virtual_s,
    }, sort_keys=True)


@pytest.mark.net
class TestOneSeedOneTrace:
    def test_same_trace_twice_in_one_process_faster_than_real_time(self):
        walls, prints = [], []
        for _ in range(2):
            began = time.perf_counter()
            prints.append(failover_fingerprint())
            walls.append(time.perf_counter() - began)
        first, second = prints
        assert first == second
        outcome = json.loads(first)
        assert outcome["operations"] > 150
        assert outcome["fault"]["time_to_detect"] <= outcome["fault"]["detection_bound"]
        # ~0.2 s here for ~1.9 s on the real loop, which has to sleep
        # through every one of these seconds.
        assert min(walls) < outcome["virtual_s"]

    def test_same_trace_in_other_processes_under_other_hash_seeds(self):
        root = pathlib.Path(repro.__file__).parents[2]
        script = (
            "from tests.test_sim_vtime import failover_fingerprint; "
            "print(failover_fingerprint())"
        )
        here = failover_fingerprint()
        for hash_seed in ("1", "4242"):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), *sys.path]),
            )
            # asyncio's debug mode reads the clock too, and a reading is a
            # tick: compare like with like.
            dev = ["-X", "dev"] if sys.flags.dev_mode else []
            there = subprocess.run(
                [sys.executable, *dev, "-c", script], cwd=root, env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert there.returncode == 0, there.stderr
            assert there.stdout.strip() == here, hash_seed


#: ROADMAP item 2's sweep: the soak with one field changed per arm.  With
#: one engine per device the first four arms were violated on 41, 50, 41
#: and 50 of seeds 0..49; only the one-device arm, one engine per site by
#: construction, read 0.  The grow arm joins a fourth server mid-run
#: through the cluster.
SWEEP_ARMS = {
    "as-pinned": {},
    "replicas-1": {"replicas": 1},
    "no-swim": {"cluster": False},
    "replicas-1-no-swim": {"replicas": 1, "cluster": False},
    "one-device": {"n_servers": 1, "replicas": 1},
    "grow": {"add_device_midway": True},
}


def violated_seeds(seeds, **over):
    """The seeds whose soak the TSC or the SC checker rejects."""
    violated = []
    for seed in seeds:
        report = vtime.run(ring_cluster(seed=seed, **dict(SOAK, **over)))
        if not (report.tsc.satisfied and report.sc.satisfied):
            violated.append(seed)
    return violated


@pytest.mark.net
def test_three_router_soak_is_timed_serial():
    """ROADMAP item 2's witness, now the proof: with one ``Context`` per
    site, seed 0 no longer forces ``w2(apple)s2.13`` strictly between
    ``w1(apple)s1.12`` and ``r1(apple)s1.12``, nor does any seed after it."""
    assert violated_seeds(range(10)) == []


@pytest.mark.net
@pytest.mark.parametrize("arm", list(SWEEP_ARMS))
def test_every_sweep_arm_is_timed_serial(arm):
    assert violated_seeds(range(50), **SWEEP_ARMS[arm]) == []


@pytest.mark.net
def test_a_store_backed_soak_is_one_trace_though_its_fsyncs_run_on_a_worker(tmp_path):
    """A store syncs its log on a worker thread (``run_in_executor``);
    a real thread finishes in wall time, and the selector skips virtual
    time to the next timer meanwhile — retransmits and SWIM timeouts
    that never happened.  The virtual loop runs the job inline."""

    def merged(root):
        report = vtime.run(ring_cluster(
            n_servers=3, replicas=2, n_clients=2, rounds=20, seed=13,
            cluster=True, kill_primary_midway=True, store_root=str(root),
            fsync="always",
        ))
        return dumps_history(report.history).encode()

    first = merged(tmp_path / "first")
    assert first == merged(tmp_path / "second")
    assert len(json.loads(first)["operations"]) > 50


class TestTheLoop:
    def test_an_executor_job_runs_inline_and_completes_next_iteration(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            ran, began = [], loop.time()
            done = loop.run_in_executor(None, ran.append, "job")
            assert ran == ["job"] and done.done()
            assert await done is None
            failing = loop.run_in_executor(None, int, "not a number")
            with pytest.raises(ValueError):
                await failing
            return loop.time() - began

        assert vtime.run(scenario()) < 0.001

    def test_an_hour_long_timer_fires_at_once(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            fired = loop.create_future()
            loop.call_later(3600, fired.set_result, "fired")
            return await fired, loop.time()

        began = time.perf_counter()
        result, now = vtime.run(scenario())
        assert time.perf_counter() - began < 0.05
        assert result == "fired" and 3600 <= now < 3600.01

    def test_no_two_readings_are_equal(self):
        """``ServerEngine.install`` breaks ties by stamp: two writes
        executed in one loop iteration must not share one."""
        loop = vtime.VirtualTimeLoop()
        try:
            readings = [loop.time() for _ in range(1000)]
        finally:
            loop.close()
        assert all(a < b for a, b in zip(readings, readings[1:]))
        assert readings[-1] < 0.01  # and reading is not how time passes

    @pytest.mark.net
    def test_a_readable_reply_beats_its_request_timeout(self):
        """The selector is polled before the clock moves: a timer is
        only reached when no socket has anything to say."""

        async def answer_nothing(conn, frame):
            pass

        async def scenario():
            loop = asyncio.get_running_loop()
            async with peer(echo) as (port, _):
                async with opened(port) as channel:
                    began = loop.time()
                    for n in range(50):
                        reply = await channel.call({"kind": "ask", "n": n}, 0.5)
                        assert reply["of"] == n
                    answered = loop.time() - began
            async with peer(answer_nothing) as (port, _):
                async with opened(port) as channel:
                    began = loop.time()
                    with pytest.raises(TimeoutError):
                        await channel.call({"kind": "ask", "n": 0}, 0.5)
                    unanswered = loop.time() - began
            return answered, unanswered

        answered, unanswered = vtime.run(scenario())
        assert answered < 0.5  # fifty round trips, not one timeout reached
        assert 0.5 <= unanswered < 0.51

    def test_run_cancels_what_the_coroutine_left_behind(self):
        cancelled = []

        async def forever():
            try:
                await asyncio.sleep(1e9)
            except asyncio.CancelledError:
                cancelled.append(True)
                raise

        async def scenario():
            asyncio.ensure_future(forever())
            await asyncio.sleep(0)
            return "done"

        assert vtime.run(scenario()) == "done"
        assert cancelled == [True]
        with pytest.raises(RuntimeError):
            asyncio.get_running_loop()
