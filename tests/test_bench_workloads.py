"""Smoke test of the benchmark's workloads at their "tiny" size.

bench/worker.py is loaded in this process, so its imports, once-per-process
set-up, operations and checks all run here; its speed clock starts only
when the file runs as a script.  A worker that cannot import, set up or
check shows here as an error, before any benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 12345                   # bench/selftest.py's seed


@pytest.fixture(scope="module")
def worker():
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)     # puts src/ and bench/ on sys.path
        yield module
    finally:
        sys.path[:] = saved_path


@pytest.mark.parametrize("workload", ["merton-desk", "pdsde-full", "fbm-coupling"])
def test_workload_runs_clean_at_tiny_size(worker, workload):
    refs = json.loads((BENCH / "references.json").read_text()).get(workload, {})
    run, setup, _ = worker.WORKLOADS[workload]
    setup()
    ops = worker.Ops(None)
    run(ops, "tiny", SEED, refs.get("tiny", {}))
    assert ops.attempted > 0
    assert (ops.failed, ops.failures) == (0, [])
