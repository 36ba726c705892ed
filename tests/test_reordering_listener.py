"""Tests for TraceRecorder listeners and the live judge they feed."""

from repro.checkers import check_sc
from repro.core.timed import late_reads
from repro.obs import Registry, TimedInstruments
from repro.protocol import Cluster
from repro.sim.trace import TraceRecorder
from repro.workloads import uniform_workload


class TestReorderingMonitor:
    """Live monitoring of a stream in completion order, which reorders
    operations against their effective times."""

    def test_live_cluster_monitoring_matches_offline(self):
        # Completion order is not effective-time order: a write is
        # recorded at its ack, after reads of its value at other sites.
        # Each such read waits for its writer inside the live judge.
        delta = 0.3
        cluster = Cluster(n_clients=4, n_servers=1, variant="sc", seed=3)
        live = TimedInstruments(Registry(), delta)
        verdicts = {}

        def on_operation(op):
            if op.is_write:
                live.on_write(op.obj, op.value, op.time)
            else:
                verdicts[op] = live.on_read(op.obj, op.value, op.time)

        cluster.recorder.add_listener(on_operation)
        cluster.spawn(uniform_workload(["A", "B"], n_ops=20, write_fraction=0.3))
        cluster.run()
        history = cluster.history()
        offline_late = late_reads(history, delta)
        counts = live.ontime.counts
        assert counts["on_time"] + counts["late"] == len(history.reads)
        assert counts["unjudged"] == 0
        assert counts["late"] == len(offline_late)
        # One read here arrived before its writer and waited for it.
        assert list(verdicts.values()).count(None) == 1
        # Every read judged on arrival agrees with the offline judge.
        judged = {r for r, v in verdicts.items()
                  if v is not None and not v.on_time}
        assert judged <= set(offline_late)


class TestRecorderListeners:
    def test_listener_sees_every_operation(self):
        recorder = TraceRecorder()
        seen = []
        recorder.add_listener(seen.append)
        recorder.record_write(0, "x", "v", 1.0)
        recorder.record_read(1, "x", "v", 2.0)
        assert [op.label() for op in seen] == ["w0(x)v", "r1(x)v"]

    def test_listener_does_not_disturb_history(self):
        recorder = TraceRecorder()
        recorder.add_listener(lambda op: None)
        recorder.record_write(0, "x", "v", 1.0)
        assert len(recorder.history()) == 1

    def test_cluster_run_with_listener_still_sc(self):
        cluster = Cluster(n_clients=3, n_servers=1, variant="sc", seed=6)
        count = [0]
        cluster.recorder.add_listener(lambda op: count.__setitem__(0, count[0] + 1))
        cluster.spawn(uniform_workload(["A"], n_ops=10, write_fraction=0.2))
        cluster.run()
        assert count[0] == len(cluster.history())
        assert check_sc(cluster.history())
