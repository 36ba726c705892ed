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
