"""Meta-tests on the public API surface: exports resolve, docs exist.

A release-quality library keeps its ``__all__`` lists honest and documents
every public item; these tests enforce both mechanically.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.core.config",
    "repro.core.norms",
    "repro.core.solvers",
    "repro.core.multi",
    "repro.engine",
    "repro.engine.backends",
    "repro.engine.cache",
    "repro.etcgen",
    "repro.alloc",
    "repro.alloc.heuristics",
    "repro.alloc.sensitivity",
    "repro.alloc.slowdown",
    "repro.hiperd",
    "repro.hiperd.nonlinear",
    "repro.hiperd.sensitivity",
    "repro.sim",
    "repro.faults",
    "repro.resilience",
    "repro.experiments",
    "repro.dynamics",
    "repro.io",
    "repro.cli",
    "repro.utils",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_version_string():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2
