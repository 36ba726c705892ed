"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Event, SimulationError, Simulator, Timeout


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_at(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "nested"))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0


class TestEvents:
    def test_succeed_wakes_callbacks(self):
        sim = Simulator()
        event = sim.event()
        got = []
        event.add_callback(lambda e: got.append(e.value))
        sim.schedule(1.0, event.succeed, 42)
        sim.run()
        assert got == [42]

    def test_callback_after_trigger_fires_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        got = []
        event.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["x"]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()


class TestProcesses:
    def test_timeout_sequencing(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield sim.timeout(2.0)
            trace.append(("mid", sim.now))
            yield sim.timeout(3.0)
            trace.append(("end", sim.now))

        sim.process(proc())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_event_wait_receives_value(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def proc():
            value = yield event
            got.append((value, sim.now))

        sim.process(proc())
        sim.schedule(1.5, event.succeed, "hello")
        sim.run()
        assert got == [("hello", 1.5)]

    def test_waiting_on_a_triggered_event_resumes_at_once(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("done")
        got = []

        def proc():
            yield sim.timeout(1.0)
            got.append(((yield event), sim.now))

        sim.process(proc())
        sim.run()
        assert got == [("done", 1.0)]

    def test_every_waiter_on_one_event_resumes_with_its_value(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter(name):
            got.append((name, (yield event), sim.now))

        for name in ("a", "b"):
            sim.process(waiter(name))
        sim.schedule(2.0, event.succeed, 7)
        sim.run()
        assert got == [("a", 7, 2.0), ("b", 7, 2.0)]

    def test_process_waits_for_process(self):
        sim = Simulator()
        order = []

        def child():
            yield sim.timeout(2.0)
            order.append("child done")

        def parent():
            c = sim.process(child())
            yield c
            order.append("parent resumed")

        sim.process(parent())
        sim.run()
        assert order == ["child done", "parent resumed"]

    def test_done_flag_and_completion_event(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert not p.done
        sim.run()
        assert p.done
        assert p.completion.triggered

    def test_invalid_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield "not a timeout"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_step_processes_one_event_at_a_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        assert sim.step() and sim.now == 1.0 and sim.pending == 1
        assert sim.step() and sim.now == 2.0
        assert not sim.step()
        assert sim.events_processed == 2

    def test_time_source_closure(self):
        sim = Simulator()
        source = sim.time_source()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert source() == 3.0
