"""The benchmark harness in perfbench/ reaches into the package by name:
its tracer patches the functions listed in ``spans._TARGETS``, and its
output checker imports public functions. A rename of one of them breaks
the benchmark's traced runs, so these tests fail first. They only read
perfbench/."""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_module(monkeypatch):
    """Import a module of perfbench/ as its scripts do (the directory first
    on sys.path), and forget every module so imported afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module
    for name in set(sys.modules) - before:
        module = sys.modules[name]
        if pathlib.Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_every_traced_name_resolves(perfbench_module):
    spans = perfbench_module("spans")
    missing = []
    for layer, names in spans._TARGETS.items():
        module = importlib.import_module(f"tracebounds.{layer}")
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if not callable(getattr(owner, attr, None)):
                missing.append(f"tracebounds.{layer}.{qual}")
    assert missing == []


def test_the_output_checker_imports(perfbench_module):
    check = perfbench_module("check")
    assert callable(check.check)
