"""Every name a module exports through __all__ exists in it, and every
function the benchmark's tracer wraps still exists under its dotted name."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import skeldp

WORKER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "worker.py"


@pytest.mark.parametrize("name", sorted(
    f"skeldp.{m.name}" for m in pkgutil.iter_modules(skeldp.__path__)))
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _boundary_targets() -> list:
    """The dotted targets of bench/worker.py's BOUNDARIES list, read from
    its source: the benchmark package is not imported."""
    for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["BOUNDARIES"]:
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError(f"{WORKER} has no BOUNDARIES list")


@pytest.mark.parametrize("target", _boundary_targets())
def test_benchmark_boundaries_resolve(target):
    """A target the tracer cannot resolve is silently not wrapped, and its
    per-layer metrics read 0; resolve it as the tracer does: the longest
    importable module prefix, then attributes."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        assert callable(owner)
        return
    pytest.fail(f"no module prefix of {target} imports")
