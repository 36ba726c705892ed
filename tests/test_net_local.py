"""The one localhost fixture (``repro.net.local``): stand-up that cleans
up after itself, one constructor path per device, teardown order, the
unmatched-read path and the verdict on what it records
(``repro.checkers.judge``), and pins that keep the harness sequences from
being written out a second time."""

import ast
import asyncio
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.net
from repro.checkers import (
    Judgement, check_cc, check_sc, check_tcc, check_tsc, judge, threshold_report,
)
from repro.cluster import ClusterConfig, SwimAgent
from repro.core.history import History
from repro.core.operations import read, write
from repro.core.serialization import is_legal, respects
from repro.core.timed import late_reads
from repro.load import engine as load_engine
from repro.net import local
from repro.net.local import LocalStack, merge_history
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer
from repro.net.workloads import RingReport, ring_cluster
from repro.obs.metrics import Registry
from repro.paperdata import figure5, figure6
from repro.sim.trace import TraceRecorder
from tests.test_verdict_digest import histories

SRC = pathlib.Path(repro.__file__).parent


async def pending_tasks():
    """Tasks that outlive a close.  A handler whose peer hung up unwinds
    over a few loop trips, so give the loop a moment first."""
    for _ in range(50):
        pending = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        if not pending:
            break
        await asyncio.sleep(0.01)
    return pending


@pytest.mark.net
class TestStartUp:
    def test_a_start_that_fails_half_way_closes_what_it_started(
        self, monkeypatch
    ):
        listeners = []
        real_start = NetObjectServer.start

        async def third_start_fails(server):
            if len(listeners) == 2:
                raise OSError("no third port")
            await real_start(server)
            listeners.append(server._server)
            return server

        monkeypatch.setattr(NetObjectServer, "start", third_start_fails)

        async def scenario():
            with pytest.raises(OSError, match="no third port"):
                async with LocalStack(servers=3, replicas=2):
                    pytest.fail("the stack must not come up")
            return await pending_tasks()

        assert asyncio.run(scenario()) == []
        assert len(listeners) == 2
        assert not any(listener.is_serving() for listener in listeners)

    def test_a_failed_agent_start_stops_agents_and_servers(self, monkeypatch):
        started = []
        real_start = SwimAgent.start

        async def second_start_fails(agent):
            if started:
                raise RuntimeError("agent 1 cannot start")
            started.append(await real_start(agent))
            return agent

        monkeypatch.setattr(SwimAgent, "start", second_start_fails)
        stacks = []

        async def scenario():
            stack = LocalStack(servers=2, replicas=2, cluster=ClusterConfig())
            stacks.append(stack)
            with pytest.raises(RuntimeError, match="cannot start"):
                async with stack:
                    pytest.fail("the stack must not come up")
            return await pending_tasks()

        assert asyncio.run(scenario()) == []
        assert started[0]._task is None  # the probe loop was stopped
        assert all(s._server is None for s in stacks[0].servers.values())

    @pytest.mark.parametrize("run", [
        lambda: ring_cluster(n_servers=3, replicas=2, rounds=1,
                             kill_primary_midway=True),
        lambda: ring_cluster(n_servers=3, replicas=2, rounds=1, cluster=True,
                             kill_primary_midway=True,
                             add_device_midway=True),
        lambda: ring_cluster(n_servers=2, replicas=3, rounds=1),
    ], ids=["kill-without-cluster", "kill-and-grow", "replicas>servers"])
    def test_bad_arguments_open_no_socket(self, monkeypatch, run):
        starts = []

        async def record_start(server):
            starts.append(server)
            raise AssertionError("a server was started")

        monkeypatch.setattr(NetObjectServer, "start", record_start)
        with pytest.raises(ValueError):
            asyncio.run(run())
        assert starts == []

    @pytest.mark.parametrize("kwargs", [
        {"servers": 0},
        {"servers": 2},
        {"servers": 2, "replicas": 3},
        {"cluster": ClusterConfig()},
    ])
    def test_the_fixture_rejects_them_in_its_constructor(self, kwargs):
        with pytest.raises(ValueError):
            LocalStack(**kwargs)


@pytest.mark.net
class TestOneConstructorPath:
    def test_a_grown_stack_labels_the_new_device_like_the_others(
        self, tmp_path
    ):
        registry = Registry()

        async def scenario():
            async with LocalStack(servers=3, replicas=2, registry=registry,
                                  store_root=str(tmp_path)) as stack:
                router = await stack.connect(100, delta=0.5, pipeline_depth=3)
                assert await stack.add_server() == 3
                await router.connect_device(3, *stack.endpoints[3])
                links = router.clients.values()
                assert {c.channel.window for c in links} == {3}
                assert not any(c.channel.subscribe for c in links)
                return stack.servers[3].clock.offset

        offset = asyncio.run(scenario())
        assert offset == local.default_skews(4, 0.02)[3]
        families = {
            family["name"]: [sample["labels"] for sample in family["samples"]]
            for family in registry.snapshot()["metrics"]
        }
        labels = [l for samples in families.values() for l in samples]
        served = {l["device"] for l in labels if l.get("side") == "server"}
        assert served == {"0", "1", "2", "3"}
        # The router speaks to the joiner as it does to the others.
        asking = {l["device"] for l in labels if l.get("side") == "client"}
        assert asking == {"0", "1", "2", "3"}
        for name in ("repro_net_request_rtt_seconds",
                     "repro_net_clock_error_seconds"):
            assert {l["device"] for l in families[name]} == asking, name
        # One engine per site, so its stats are the site's, not a device's.
        ops = families["repro_client_ops_total"]
        assert sorted(sorted(l.items()) for l in ops) == [
            [("kind", "read"), ("site", "100")],
            [("kind", "write"), ("site", "100")],
        ]
        stores = {l["store"] for l in labels if "store" in l}
        assert stores == {"dev0", "dev1", "dev2", "dev3"}
        assert (tmp_path / "dev3").is_dir()


@pytest.mark.net
class TestTeardown:
    def test_agents_stop_before_sites_before_servers(self, monkeypatch):
        order = []

        def recording(cls, method, tag):
            real = getattr(cls, method)

            async def wrapper(self, *args, **kwargs):
                order.append(tag)
                return await real(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        recording(SwimAgent, "stop", "agent")
        recording(RingRouter, "close", "site")
        recording(NetObjectServer, "close", "server")

        async def scenario():
            config = ClusterConfig(probe_period=0.05, suspect_timeout=0.1)
            async with LocalStack(servers=2, replicas=2,
                                  cluster=config) as stack:
                site = await stack.connect(0, delta=0.4)
                await site.write("x", "s0.1")
                assert await site.read("x") == "s0.1"
                # connect() set up what the harnesses used to: repairs
                # four times per delta (capped) and the epoch watch.
                assert site._anti_entropy_task is not None
                assert site._epoch_watch_task is not None
            return await pending_tasks()

        assert asyncio.run(scenario()) == []
        assert order == ["agent", "agent", "site", "server", "server"]

    def test_anti_entropy_period(self):
        assert local.anti_entropy_period(0.4) == 0.05
        assert local.anti_entropy_period(0.1) == pytest.approx(0.025)
        assert local.anti_entropy_period(float("inf")) == 0.05


def old_call_sites(history, delta, epsilon):
    """What ``net.demo._judge`` plus the hand-bolted ``check_tcc`` of
    ``ring_demo`` and ``load.engine`` computed, with the late reads from
    the one offline judge."""
    return (check_tsc(history, delta, epsilon), check_tcc(history, delta, epsilon),
            check_sc(history), late_reads(history, delta, epsilon))


def agreement_cases():
    """Figures 1, 5 and 6 and 48 seeded histories, each at its
    (delta, epsilon) pairs: some with late reads, some not SC."""
    for name, history, pairs in histories():
        family, _, seed = name.partition("/")
        if family in ("figure1", "figure5", "figure6") or (seed and int(seed) < 12):
            for delta, epsilon in pairs:
                yield history, delta, epsilon


def assert_same_judgement(got, expected):
    for new, old in zip(got[:3], expected[:3]):
        assert (new.criterion, new.satisfied, new.violation, new.parameters) \
            == (old.criterion, old.satisfied, old.violation, old.parameters)
    assert got.late_reads == expected[3]


class TestOneJudge:
    @pytest.mark.parametrize("history, delta, epsilon", [
        (figure5(), 50.0, 0.0),
        (figure5(), 100.0, 5.0),
        (figure6(), 30.0, 0.0),
    ], ids=["fig5-violated", "fig5-satisfied", "fig6"])
    def test_judge_matches_the_old_call_sites_on_the_figures(
        self, history, delta, epsilon
    ):
        assert_same_judgement(
            judge(history, delta, epsilon),
            old_call_sites(history, delta, epsilon),
        )

    @pytest.mark.net
    def test_judge_matches_the_old_call_sites_on_a_recorded_soak(self):
        report = asyncio.run(ring_cluster(
            n_servers=2, replicas=2, n_clients=2, rounds=8, seed=5,
        ))
        assert len(report.history) > 16
        assert report.fault is None and report.unmatched_reads == 0
        got = Judgement(
            report.tsc, report.tcc, report.sc, report.late_reads
        )
        assert_same_judgement(
            got, old_call_sites(report.history, report.delta, report.epsilon)
        )

    def test_one_search_agrees_with_three_on_seeded_histories(self):
        # judge searches for SC once and derives TSC and, when SC holds,
        # TCC's per-site witnesses from it; the separate checkers search
        # for each.  Same verdicts, violations and parameters, and every
        # derived site witness is a legal serialization of H_(i+w) that
        # respects causal order (docs/THEORY.md, Result 4).  threshold_report
        # takes CC from the same derivation.
        seen = {"late": 0, "not sc": 0, "derived": 0}
        for history, delta, epsilon in agreement_cases():
            got = judge(history, delta, epsilon)
            assert_same_judgement(got, old_call_sites(history, delta, epsilon))
            assert threshold_report(history, epsilon).cc_holds \
                == check_cc(history).satisfied
            seen["late"] += bool(got.late_reads)
            seen["not sc"] += not got.sc.satisfied
            if got.tcc.site_witnesses is None or not got.sc.satisfied:
                continue
            seen["derived"] += 1
            causal = [
                (p, op) for op, preds in history.causal_predecessors().items()
                for p in preds
            ]
            for site, witness in got.tcc.site_witnesses.items():
                assert sorted(map(id, witness)) == sorted(
                    map(id, history.site_plus_writes(site)))
                assert is_legal(witness, history.initial_value)
                assert respects(witness, causal)
        assert min(seen.values()) >= 10, seen

    def test_the_verdict_lives_in_the_checkers(self):
        assert names_in(SRC / "net" / "local.py") & {
            "judge", "Judgement", "check_sc", "check_cc", "check_timed",
        } == set()
        assert not hasattr(repro.net, "judge")
        # Result 4's derivation has one home, and the front-ends call it.
        assert callers_of("cc_given_sc") == {
            "checkers/cc.py", "checkers/hierarchy.py", "checkers/threshold.py",
        }

    def test_a_read_of_an_unrecorded_write_is_counted_and_dropped(self):
        # What a kill leaves behind: w0(x)s0.2 was installed but its
        # attempt raised, so only the read of it reached the recorder.
        recorder = TraceRecorder()
        recorder.record_write(0, "x", "s0.1", 1.0)
        recorder.record_read(1, "x", "s0.1", 1.2)
        recorder.record_read(1, "x", "s0.2", 1.5)
        recorder.record_write(0, "x", "s0.3", 2.0)
        recorder.record_read(1, "x", "s0.3", 2.1)
        with pytest.raises(ValueError, match="never written"):
            recorder.history()
        history, unmatched = merge_history([recorder.operations])
        assert unmatched == 1
        assert [op.value for op in history.operations] == [
            "s0.1", "s0.1", "s0.3", "s0.3",
        ]
        verdict = judge(history, delta=0.4, epsilon=0.0)
        assert verdict.tsc.satisfied and verdict.tcc.satisfied
        assert verdict.sc.satisfied and verdict.late_reads == []

    def test_a_read_stamped_before_its_writer_is_judged(self):
        # A live read is stamped on its site's clock and its writer on
        # the server's; within epsilon (Definition 2) the read's stamp may
        # precede the write's.  The history is valid and TSC holds.
        writer = write(1, "x", "a", 1.000)
        reader = read(2, "x", "a", 0.999)
        history = History([writer, reader])
        verdict = judge(history, delta=0.4, epsilon=0.005)
        assert check_tsc(history, 0.4, 0.005).satisfied
        assert verdict.tsc.satisfied
        assert verdict.late_reads == []

    def test_both_harnesses_report_the_one_fault_outcome(self):
        assert load_engine.FaultOutcome is local.FaultOutcome
        assert "fault" in RingReport.__dataclass_fields__
        assert "fault" in load_engine.LoadReport.__dataclass_fields__
        assert "unmatched_reads" in RingReport.__dataclass_fields__
        assert local.FaultOutcome("kill-primary", killed_device=2).to_dict() == {
            "fault": "kill-primary", "killed_device": 2,
            "time_to_detect": None, "time_to_recover": None,
            "failover_epoch": None, "promotions": 0, "detection_bound": None,
        }


def names_in(path):
    """Every identifier, attribute and imported name a module mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        else:
            names.add(getattr(node, "attr", None) or getattr(node, "id", None))
    return names


def callers_of(name, receiver_not=None):
    """Source files (relative to ``src/repro``) that call ``name(...)`` or
    ``<x>.name(...)``, skipping calls on an attribute ``receiver_not``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            receiver = getattr(getattr(func, "value", None), "attr", None)
            if called == name and (receiver_not is None
                                   or receiver != receiver_not):
                found.add(str(path.relative_to(SRC)))
    return found


class TestOneStandUp:
    """Replace, not fork: the harnesses hold workloads, the fixture holds
    the stack, and each sequence has one home."""

    STACK_PARTS = {
        "NetObjectServer", "SwimAgent", "ClusterView", "RingBuilder",
        "DurableStore",
    }

    @pytest.mark.parametrize("module", ["net/workloads.py", "load/engine.py"])
    def test_the_harnesses_name_no_part_of_the_stack(self, module):
        assert names_in(SRC / module) & self.STACK_PARTS == set()
        assert "LocalStack" in names_in(SRC / module)

    def test_each_sequence_is_written_once(self):
        assert callers_of("SwimAgent") == {"net/local.py", "cli/net.py"}
        assert callers_of("RingBuilder") == {
            "net/local.py", "ring/ring.py", "cli/ring.py",
        }
        # A server crash; ``transport.abort()`` is the framing layer's.
        assert callers_of("abort", receiver_not="transport") == {"net/local.py"}
        assert callers_of("start_agents") == {"net/local.py", "cli/ring.py"}
        sources = {
            str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
            for path in SRC.rglob("*.py")
        }
        assert [m for m, text in sources.items() if "min(0.05," in text] \
            == ["net/local.py"]
        assert sources["net/local.py"].count("min(0.05, delta / 4.0)") == 1
        assert [m for m, text in sources.items()
                if "class FaultOutcome" in text] == ["net/local.py"]

    def test_importing_the_package_stays_as_light_as_it_was(self):
        # benchmarks/layers imports repro.net.client, hence this package:
        # the cluster and observability layers must stay lazy.
        listed = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.net; print(*sorted(sys.modules))"],
            env={"PYTHONPATH": str(SRC.parent)}, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert "repro.net.local" in listed
        assert [m for m in listed
                if m.startswith(("repro.cluster", "repro.obs", "repro.load"))] == []

    def test_the_old_modules_and_the_private_judge_are_gone(self):
        assert not (SRC / "net" / "demo.py").exists()
        assert not (SRC / "net" / "ring_demo.py").exists()
        assert not hasattr(local, "_judge")
        for path in SRC.rglob("*.py"):
            assert "_merge_history" not in path.read_text(encoding="utf-8")


def time_reads(path):
    """``(enclosing function, attribute)`` for every use of the ``time``
    module in a source file (``from time import ...`` reads as a use of
    each name at module level)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "time"
    }
    found = [
        ("<module>", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "time"
        for alias in node.names
    ]

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((scope, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


class TestOneClock:
    """Under ``repro.net``, ``repro.cluster``, ``repro.ring`` and the load
    worker and engine "now" is the running loop's ``time()`` — directly,
    or through ``clocks.rebase.loop_time`` — so whichever loop runs the
    stack owns its time.  What still reads the ``time`` module says why."""

    LIVE = [
        *sorted((SRC / "net").glob("*.py")),
        *sorted((SRC / "cluster").glob("*.py")),
        *sorted((SRC / "ring").glob("*.py")),
        SRC / "load" / "worker.py",
        SRC / "load" / "engine.py",
    ]
    ALLOWED = {}

    def test_nothing_live_reads_the_time_module(self):
        assert {path.parent.name for path in self.LIVE} == {
            "net", "cluster", "ring", "load"}  # the walk saw the packages
        found = {
            (str(path.relative_to(SRC)), scope, attr)
            for path in self.LIVE for scope, attr in time_reads(path)
        }
        assert found == set(self.ALLOWED)

    def test_the_load_harness_spawns_no_process(self):
        # Its workers are tasks on the stack's loop: one clock, no
        # second interpreter to start or to agree an instant with.
        for path in (SRC / "load").glob("*.py"):
            assert names_in(path) & {
                "subprocess", "create_subprocess_exec", "executable",
            } == set(), path

    def test_the_scanner_sees_what_it_is_there_to_see(self, tmp_path):
        source = tmp_path / "m.py"
        source.write_text(
            "import time as _t\nfrom time import perf_counter\n"
            "class A:\n    def now(self):\n        return _t.monotonic()\n"
        )
        assert sorted(time_reads(source)) == [
            ("<module>", "perf_counter"), ("now", "monotonic"),
        ]

    def test_the_virtual_loop_is_stdlib_only_and_nothing_live_imports_it(self):
        tree = ast.parse((SRC / "sim" / "vtime.py").read_text(encoding="utf-8"))
        roots = {
            (alias.name if isinstance(node, ast.Import) else node.module)
            .partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert {"asyncio", "selectors"} <= roots <= set(sys.stdlib_module_names)
        for package in ("net", "cluster", "ring", "store", "load"):
            for path in (SRC / package).glob("*.py"):
                assert "vtime" not in names_in(path), path
