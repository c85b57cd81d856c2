#!/usr/bin/env python3
"""skeldp benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload merton-desk --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each exists):

  merton-desk   desk-scale collapsed Merton pipeline: solve, oracle, rollouts
  pdsde-full    full-history Case A solve and per-path Monte Carlo
  fbm-coupling  skeleton-driven fBm against its fine-grid reference

Each measured process is fresh and single-threaded (BLAS/OpenMP pools
pinned to one thread).  The run starts worker processes one after another
until their timed phases add up to at least --seconds; each metric is the
median over the run's workers.  Every output is checked against recorded
references; a failed check is a failed operation.

Times are reference seconds: wall seconds corrected for the host's
drifting speed by bench/speedclock.py; the wall seconds go to the details.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a run with every layer boundary wrapped.  Details (host, versions,
failures, per-phase accounting) go to bench/out/, and with --trace 1 the
spans themselves go to bench/out/*.npz.  Exit code 0 means a result was
printed; anything that prevents measuring (the program cannot be
imported, a worker crashes or overruns) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")
REFERENCES = os.path.join(BENCH, "references.json")
DEADLINE_S = 165.0

WORKLOADS = ("merton-desk", "pdsde-full", "fbm-coupling")

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("solver.build_tree.s", "s", "lower"),
    ("solver.build_tree.self_s", "s", "lower"),
    ("solver.build_tree.calls", "count", "lower"),
    ("solver.backward_dp.s", "s", "lower"),
    ("solver.backward_dp.self_s", "s", "lower"),
    ("solver.backward_dp.calls", "count", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.layer_nodes_max", "count", "lower"),
    ("solver.children", "count", "lower"),
    ("solver.tree_bytes", "bytes", "lower"),
    ("solver.nearest_bin_index.s", "s", "lower"),
    ("solver.nearest_bin_index.calls", "count", "lower"),
    ("solver.extract_policy_control.s", "s", "lower"),
    ("solver.extract_policy_control.calls", "count", "lower"),
    ("structures.step_stats.s", "s", "lower"),
    ("structures.step_stats.calls", "count", "lower"),
    ("structures.step_stats.forward_s", "s", "lower"),
    ("structures.step_stats.forward_calls", "count", "lower"),
    ("structures.step_stats.backward_s", "s", "lower"),
    ("structures.step_stats.backward_calls", "count", "lower"),
    ("structures.step.s", "s", "lower"),
    ("structures.step.calls", "count", "lower"),
    ("kernel.discretize_kernel.s", "s", "lower"),
    ("kernel.discretize_kernel.calls", "count", "lower"),
    ("density.inverse_cdf_tau.s", "s", "lower"),
    ("density.inverse_cdf_tau.calls", "count", "lower"),
    ("density.tau_draws", "count", "lower"),
    ("skeleton.sample_skeleton.s", "s", "lower"),
    ("skeleton.sample_skeleton.calls", "count", "lower"),
    ("skeleton.steps_used", "count", "lower"),
    ("skeleton.draw_use_ratio", "ratio", "higher"),
    ("skeleton.brownian_fine_path.s", "s", "lower"),
    ("skeleton.crossing_sample_skeleton.s", "s", "lower"),
    ("skeleton.crossing_sample_skeleton.calls", "count", "lower"),
    ("skeleton.events", "count", "lower"),
    ("fbm.get_table.s", "s", "lower"),
    ("fbm.get_table.calls", "count", "lower"),
    ("fbm.fbm_from_skeleton.s", "s", "lower"),
    ("fbm.fbm_ref_from_fine_path.s", "s", "lower"),
    ("evaluate.portfolio_policy_rollouts.s", "s", "lower"),
    ("evaluate.portfolio_policy_rollouts.self_s", "s", "lower"),
    ("evaluate.lookups", "count", "lower"),
    ("evaluate.lookup_misses", "count", "lower"),
    ("evaluate.lookup_miss_ratio", "ratio", "lower"),
    ("evaluate.merton_oracle.s", "s", "lower"),
    ("evaluate.policy_mc_value.s", "s", "lower"),
    ("evaluate.rollout.s", "s", "lower"),
    ("evaluate.rollout.calls", "count", "lower"),
    ("trace.pipeline_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class BenchError(Exception):
    """Something prevented measuring; no result is printed."""


def spawn(spec: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    spec = dict(spec, spawn_t=time.monotonic())
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker overran its {timeout:.0f} s budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("worker printed no report") from None


def host_info() -> dict:
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(d, f)).read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        if fields[1] != "Instruction":
            info[f"L{fields[0]}"] = fields[2]
    return info


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", refs: dict | None = None) -> dict:
    """Measure one workload; returns the printed result plus its details."""
    t_begin = time.monotonic()
    if refs is None:
        with open(REFERENCES) as fh:
            refs = json.load(fh).get(workload, {}).get(size, {})
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    base = {"workload": workload, "seed": seed, "size": size,
            "trace": trace, "refs": refs}

    def remaining():
        return DEADLINE_S - (time.monotonic() - t_begin)

    workers = []
    measured = 0.0
    while not workers or measured < seconds:
        if workers and 1.2 * workers[-1]["wall_s"] > remaining():
            break
        spec = dict(base)
        if trace:
            spec["trace_path"] = os.path.join(OUT, f"spans-{tag}-{len(workers)}.npz")
        t0 = time.monotonic()
        w = spawn(spec, remaining())
        w["wall_s"] = time.monotonic() - t0
        workers.append(w)
        measured += w["pipeline_s"]

    setups = [w["setup_s"] for w in workers]

    if trace:
        values = {}
        for name, unit, _ in PER_LAYER:
            got = [w["layers"][name] for w in workers if name in w["layers"]]
            if got:
                values[name] = (statistics.median(got), unit)
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(w["roles"]["solve_s"] for w in workers), "s"),
            "evaluate_s": (statistics.median(w["roles"]["evaluate_s"] for w in workers), "s"),
            "pipeline_s": (statistics.median(w["pipeline_s"] for w in workers), "s"),
            "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        }
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "size": size, "host": host_info(),
               "setups_s": setups, "workers": workers, "result": result}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    return details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # turn SIGTERM into SystemExit so spawn() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for w in details["workers"]:
        for msg in w["failures"]:
            print(f"FAILED {msg}")
    host = details["host"]
    walls = [round(w["pipeline_wall_s"], 2) for w in details["workers"]]
    print(f"# {args.workload} seed {args.seed}: {len(details['workers'])} worker(s), "
          f"{len(details['setups_s'])} set-up(s), pipeline wall s {walls}, "
          f"{host['nproc']} cpus ({host.get('cpu')}), {details['workers'][0]['versions']}")
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
