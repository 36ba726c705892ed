"""Guard the public API surface: every export resolves, docstrings exist."""

import ast
import importlib
import inspect
import re
import shutil
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.broadcast",
    "repro.checkers",
    "repro.clocks",
    "repro.core",
    "repro.protocol",
    "repro.sim",
    "repro.webcache",
    "repro.workloads",
]

MODULES = PACKAGES + [
    "repro.checkers.sessions",
    "repro.checkers.transactions",
    "repro.checkers.extensions",
    "repro.core.io",
    "repro.core.render",
    "repro.sim.vtime",
    "repro.broadcast.replicated_store",
    "repro.paperdata",
    "repro.cli",
]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} has no __all__"
        for export in module.__all__:
            assert hasattr(module, export), f"{name}.{export} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_is_sorted(self, name):
        module = importlib.import_module(name)
        exports = list(module.__all__)
        assert exports == sorted(exports), f"{name}.__all__ not sorted"


class TestDocumentation:
    @pytest.mark.parametrize("name", MODULES)
    def test_module_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), f"{name} undocumented"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_callables_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for export in getattr(module, "__all__", []):
            obj = getattr(module, export)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{name}.{export}")
        assert not undocumented, f"undocumented public items: {undocumented}"


#: The options (parameters with a default) of the live stack's
#: constructors, ClusterConfig's among them (a dataclass's constructor
#: takes its fields).  Beside Δ (``delta``)
#: each is a deployment setting (host, port, paths, registry), a fault
#: seam, or a choice some caller outside the tests makes two ways; a
#: value nothing varies is a module constant of its layer instead.  A new
#: option must be added here.
OPTIONS = {
    "repro.net.server.NetObjectServer": {
        "host", "port", "propagation", "recorder", "clock", "fault_factory",
        "registry", "metric_labels", "store",
    },
    "repro.net.client.NetCacheClient": {
        "delta", "mode", "recorder", "skew", "faults", "registry",
        "pipeline_depth",
    },
    "repro.net.ring_router.RingRouter": {
        "delta", "write_quorum", "read_policy", "recorder", "skew",
        "registry", "pipeline_depth",
    },
    "repro.net.local.LocalStack": {
        "servers", "replicas", "part_power", "propagation", "server_skew",
        "store_root", "fsync", "cluster", "registry", "fault_factory",
    },
    "repro.store.recovery.DurableStore": {
        "fsync", "recovery_delta", "registry", "metric_labels",
        "crash_after_appends",
    },
    "repro.store.wal.WriteAheadLog": {"fsync", "on_fsync"},
    "repro.ring.placement.ReplicatedPlacement": {
        "write_quorum", "delta", "clock",
    },
    "repro.engine.server.ServerEngine": {"initial_value", "wall"},
    "repro.engine.server.CausalServerEngine": {
        "initial_value", "zero_timestamp", "wall",
    },
    "repro.obs.metrics.Registry": set(),
    "repro.load.worker.LoadWorker": {
        "max_concurrency", "op_retries", "retryable",
    },
    "repro.cluster.swim.ClusterConfig": {
        "probe_period", "suspect_timeout", "seed",
    },
}


def _resolve(path):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def options_of(path):
    """The parameters of ``path``'s constructor that have a default."""
    return {
        name for name, p in inspect.signature(_resolve(path)).parameters.items()
        if p.default is not p.empty
    }


def option_counts():
    """Options per pinned constructor: what CI prints into the tier-1
    step summary."""
    return {path.rpartition(".")[2]: len(options_of(path)) for path in OPTIONS}


class TestOptions:
    @pytest.mark.parametrize("path", sorted(OPTIONS))
    def test_the_options_are_the_listed_ones(self, path):
        assert options_of(path) == OPTIONS[path]


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree):
    return {
        node.body[0].value for node in ast.walk(tree)
        if isinstance(node, (ast.Module,) + _DEFS) and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def unused_public_names(root=SRC):
    """Public ``def``/``class`` names of ``src/repro``, methods included,
    that no ``src/`` code uses, as ``"module.Qual.name"``.

    A use is a ``Name``, an ``Attribute``, an imported name or a word of
    a string constant (docstrings are prose, not uses) anywhere outside
    the definition itself.  A package ``__init__``'s imports and
    ``__all__`` re-export a name; they do not use it.  Matching is by
    name, so a name one class uses keeps another class's namesake too.
    """
    defined, uses = {}, {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        skipped = _docstrings(tree)
        if path.name == "__init__.py":
            for node in tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)
                ):
                    skipped.update(ast.walk(node))

        def visit(node, scope):
            if isinstance(node, _DEFS):
                qual = f"{scope[-1]}.{node.name}" if scope else node.name
                if not node.name.startswith("_"):
                    defined[f"{module}.{qual}"] = (module, qual, node.name)
                scope = scope + (qual,)
            if node not in skipped:
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = [node.asname or node.name.rpartition(".")[2]]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = _WORD.findall(node.value)
                else:
                    names = []
                for name in names:
                    uses.setdefault(name, set()).add((module, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())

    def used_outside(module, qual, name):
        return any(where != module or qual not in scope
                   for where, scope in uses.get(name, ()))

    return {path for path, found in defined.items()
            if not used_outside(*found)}


#: The public names no ``src/`` code uses, each with who it is for: a
#: benchmark or example, a reference the tests judge against, a harness
#: or fake the tests run the stack through, one of the paper's figures or
#: definitions, or a callback asyncio calls by name.  docs/API.md's last
#: table holds the same rows, and ``TestSurface`` checks that it does.
#: Anything else no ``src/`` code uses is deleted, so a new entry has to
#: be argued for here and there.
UNUSED_IN_SRC = {
    # Benchmarks and examples.
    "repro.analysis.charts.dual_chart": "bench_delta_cost_tradeoff, examples/delta_tradeoff",
    "repro.analysis.sweep.policy_comparison": "bench_staleness_policy",
    "repro.analysis.sweep.variant_comparison": "bench_invalidation_cost, examples/delta_tradeoff",
    "repro.broadcast.harness.run_broadcast_experiment": "bench_delta_causal_broadcast, examples/multimedia_broadcast",
    "repro.broadcast.replicated_store.ReplicatedStoreResult.totals": "bench_push_vs_pull",
    "repro.broadcast.replicated_store.run_replicated_store": "bench_push_vs_pull",
    "repro.checkers.extensions.check_pram": "bench_hierarchy",
    "repro.checkers.hierarchy.census": "bench_hierarchy",
    "repro.checkers.tcc.check_tcc_logical": "bench_logical_tcc (Definition 6)",
    "repro.clocks.xi.PNormXi": "bench_xi_maps",
    "repro.clocks.xi.SumXi": "bench_xi_maps, bench_logical_tcc, examples/paper_figures",
    "repro.clocks.xi.WeightedXi": "bench_xi_maps",
    "repro.clocks.xi.validate_xi": "bench_xi_maps, examples/paper_figures (Definition 5)",
    "repro.core.serialization.Serialization.covers": "bench_figure5, examples/paper_figures",
    "repro.core.timed.min_timed_delta_logical": "bench_logical_tcc (Definition 6)",
    "repro.net.client.DeviceLink.validate_many": "benchmarks/layers warms every device link with it",
    "repro.net.workloads.ClusterReport.totals": "examples/net_cluster",
    "repro.paperdata.figure6_late_read": "bench_figure6, examples/paper_figures",
    "repro.sim.network.Network.heal": "examples/mobile_disconnection",
    "repro.store.recovery.DurableStore.log_writes": "benchmarks/layers/spans.py times it by name",
    "repro.webcache.policies.AdaptiveTTL.effective_delta": "bench_webcache, examples/web_cache_dowjones",
    "repro.webcache.policies.CachePolicy.effective_delta": "bench_webcache, examples/web_cache_dowjones",
    "repro.webcache.policies.FixedTTL.effective_delta": "bench_webcache, examples/web_cache_dowjones",
    "repro.webcache.policies.PiggybackTTL": "bench_webcache, examples/web_cache_dowjones",
    "repro.webcache.policies.PollEveryTime.effective_delta": "bench_webcache, examples/web_cache_dowjones",
    "repro.webcache.policies.ServerInvalidation.effective_delta": "bench_webcache, examples/web_cache_dowjones",
    "repro.workloads.access.uniform_workload": "eight benches, examples/quickstart",
    "repro.workloads.random_history.random_history": "bench_hierarchy, bench_checker_scaling",
    "repro.workloads.random_history.random_replica_history": "bench_hierarchy",
    "repro.workloads.random_history.random_sc_history": "bench_hierarchy, bench_checker_scaling",
    "repro.workloads.ticker.ticker_workload": "bench_ticker_tcc, examples/web_cache_dowjones",
    "repro.workloads.virtual_env.virtual_env_workload": "examples/virtual_environment",
    # References the tests judge against.
    "repro.checkers.sessions.session_guarantee_report": "the four session guarantees in version order, against which protocol traces are judged",
    "repro.core.history.History.causal_pairs": "the causal order, against which tests check CC witnesses with respects",
    "repro.checkers.lin.check_interval_linearizability": "LIN over execution intervals, against which traces with intervals are judged",
    "repro.checkers.transactions.check_serializability": "section 2: LIN is strict serializability of singleton transactions",
    "repro.checkers.transactions.check_strict_serializability": "section 2: LIN is strict serializability of singleton transactions",
    "repro.checkers.transactions.singleton_transactions": "section 2: LIN is strict serializability of singleton transactions",
    "repro.core.timed.is_timed_serialization": "Definition 1 on one given sequence, the reference for late_reads",
    "repro.store.recovery.history_from_wal": "the acknowledged writes a WAL holds, against which crash tests judge recovery",
    # Harnesses and fakes the tests run the stack through.
    "repro.clocks.physical.ManualTime": "a hand-driven time source for clock tests",
    "repro.clocks.physical.ManualTime.advance": "a hand-driven time source for clock tests",
    "repro.core.io.dumps_history": "failover_fingerprint() hashes its bytes",
    "repro.net.faults.FaultInjector.heal": "the fault seam's undo: tests heal a link partition mid-run",
    "repro.net.workloads.random_net_cluster": "a seeded TCP cluster run the net tests judge",
    "repro.obs.expo.scrape": "the HTTP client tests scrape the live /metrics endpoint with",
    "repro.protocol.cache_client.SimCacheClient.snapshot_mutually_consistent": "section 5.1's cache invariant, sampled by tests during runs",
    "repro.ring.placement.MemoryTransport": "the placement engine's in-process test double",
    # The paper's figures and definitions.
    "repro.checkers.extensions.check_processor": "processor consistency, beside PRAM in the hierarchy",
    "repro.checkers.threshold.delta_spectrum": "the Figure 4b sweep: TSC and TCC as delta grows",
    "repro.clocks.base.compare_physical": "section 3.2: definitely-before under clock precision epsilon",
    "repro.clocks.lamport.LamportClock": "Lamport's logical clock (reference 26), the plausible-clock baseline",
    "repro.clocks.plausible.CombClock": "a plausible clock (reference 37, section 5.3)",
    "repro.clocks.plausible.CombClock.receive": "a plausible clock (reference 37, section 5.3)",
    "repro.clocks.plausible.CombTimestamp.meet": "a plausible clock (reference 37, section 5.3)",
    "repro.clocks.plausible.KLamportClock": "a plausible clock (reference 37, section 5.3)",
    "repro.clocks.xi.figure7_examples": "Figure 7's worked xi values",
    "repro.paperdata.figure6_serializations": "Figure 6(b)'s per-site serializations",
    # Callbacks called by name.
    "repro.net.framing.FrameConnection.buffer_updated": "asyncio.BufferedProtocol callback",
    "repro.net.framing.FrameConnection.connection_lost": "asyncio protocol callback",
    "repro.net.framing.FrameConnection.connection_made": "asyncio protocol callback",
    "repro.net.framing.FrameConnection.eof_received": "asyncio protocol callback",
    "repro.net.framing.FrameConnection.pause_writing": "asyncio protocol callback",
    "repro.sim.vtime._SkippingSelector.select": "the selector method asyncio's loop calls",
    "repro.store.wal._SyncWorker.submit": "the run_in_executor target",
}


def surface_size():
    """Public names no ``src/`` code uses: what CI prints into the
    tier-1 step summary."""
    return len(unused_public_names())


class TestSurface:
    def test_the_unused_names_are_the_listed_ones(self):
        assert unused_public_names() == set(UNUSED_IN_SRC)

    def test_every_listed_name_says_who_it_is_for(self):
        assert all(reason.strip() for reason in UNUSED_IN_SRC.values())

    def test_the_api_docs_list_the_same_names_and_reasons(self):
        text = (SRC.parent.parent / "docs" / "API.md").read_text()
        table = text.split("## Names no `src/` code uses", 1)[1]
        rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \|$", table, re.M)
        assert {f"repro.{name}": reason for name, reason in rows} == UNUSED_IN_SRC

    def test_a_new_unused_def_is_caught(self, tmp_path):
        shutil.copytree(SRC, tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(tmp_path / "repro" / "core" / "timed.py", "a") as fh:
            fh.write("\n\ndef nothing_calls_this():\n    return 0\n")
        assert unused_public_names(tmp_path / "repro") - set(UNUSED_IN_SRC) == {
            "repro.core.timed.nothing_calls_this"}
