"""The passcovert names the benchmark under perfbench/ wraps and calls.

The benchmark's smoke test runs it end to end and is not collected here. A
wrapped name that no longer exists is reported as missing there and silently
drops its per-layer metric group, so these checks import the benchmark modules
and look every name up without running anything.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_layer_boundary_exists():
    layers = importlib.import_module("layers")
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in layers.boundaries()
               if not hasattr(module, attr)]
    assert missing == []


def test_every_passcovert_name_the_checks_use_exists():
    # importing checks resolves its from-imports; module attributes are looked up here
    checks = importlib.import_module("checks")
    modules = {"benchmarks", "harness", "mwmp", "swsp", "pc_config"}
    used = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse((PERFBENCH / "checks.py").read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("benchmarks", "ula_channel"), ("benchmarks", "heuristic_pass_layout"),
            ("benchmarks", "evaluate"), ("harness", "read_records"),
            ("harness", "sample_scenarios"), ("pc_config", "config_from_dict")} <= used
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(getattr(checks, module), attr)]
    assert missing == []
