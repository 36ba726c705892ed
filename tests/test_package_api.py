"""Guard the public API surface: every export resolves, docstrings exist."""

import importlib
import inspect

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
        "delta", "mode", "recorder", "skew", "faults", "site", "registry",
        "metric_labels", "pipeline_depth",
    },
    "repro.net.ring_router.RingRouter": {
        "delta", "write_quorum", "read_policy", "recorder", "skew",
        "registry", "instruments", "pipeline_depth",
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
        "probe_period", "suspect_timeout", "indirect_probes", "auto_failover",
        "seed",
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
