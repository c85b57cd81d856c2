#!/usr/bin/env python3
"""Quick self-test of the benchmark itself (about two minutes).

    python3 bench/selftest.py

Runs every workload at the "tiny" size (depth 3 solves, 4 coupled fBm
paths; the fBm table alone still costs ~30 s per process) and checks that

* BENCHMARK.json lists exactly the workloads and metrics run.py emits;
* an untraced run is correct and emits every end-to-end metric, all > 0,
  and its speed clock sampled set-up and every phase plausibly;
* a traced run emits every per-layer metric, every boundary wrap
  intercepts calls on the workload that exercises it, and every count
  repeats exactly in a second traced run with the same seed;
* in each traced phase, self time plus child spans account for the span;
* a deliberately wrong reference is reported as a failed operation.

Exits 1 and lists the problems if any check fails.
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 12345

# span names each workload must hit (calls > 0) when traced
EXPECTED_CALLS = {
    "merton-desk": ["solver.build_tree", "solver.backward_dp",
                    "solver.nearest_bin_index", "structures.step_stats",
                    "kernel.discretize_kernel", "density.inverse_cdf_tau",
                    "evaluate.portfolio_policy_rollouts", "evaluate.merton_oracle"],
    "pdsde-full": ["solver.build_tree", "solver.backward_dp",
                   "solver.extract_policy_control", "structures.step",
                   "kernel.discretize_kernel", "density.inverse_cdf_tau",
                   "skeleton.sample_skeleton", "evaluate.policy_mc_value",
                   "evaluate.rollout"],
    "fbm-coupling": ["skeleton.brownian_fine_path",
                     "skeleton.crossing_sample_skeleton", "fbm.get_table",
                     "fbm.fbm_from_skeleton", "fbm.fbm_ref_from_fine_path"],
}
# merton_oracle solves once per grid action through skeldp.evaluate's
# names, so these counts prove both wraps of each solver boundary intercept
EXACT_CALLS = {"merton-desk": {"solver.build_tree.calls": 42,
                               "solver.backward_dp.calls": 42}}


def check_benchmark_json(problems):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bj = json.load(fh)
    if sorted(w["name"] for w in bj["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in bj[key]]
        if got != declared:
            problems.append(f"BENCHMARK.json {key} differs from run.py")


def check_workload(name, problems):
    def fail(msg):
        problems.append(f"{name}: {msg}")

    details = run.run(name, SEED, 0, False, size="tiny")
    plain = details["result"]
    worker = details["workers"][0]
    for label, clock in [("set-up", worker["setup_clock"]), *worker["phase_clock"].items()]:
        if not (clock["speed"] > 0 and 0 <= clock["sampler_s"] < clock["wall_s"]):
            fail(f"speed clock of {label} implausible: {clock}")
    if not plain["correct"]:
        fail(f"untraced tiny run not correct: {plain}")
    for metric, _, _ in run.END_TO_END:
        value = plain["metrics"].get(metric, {}).get("value")
        if not (isinstance(value, float) and value > 0):
            fail(f"end-to-end metric {metric} missing or not > 0: {value}")

    traced = [run.run(name, SEED, 0, True, size="tiny") for _ in range(2)]
    first, second = (t["result"]["metrics"] for t in traced)
    for metric, unit, _ in run.PER_LAYER:
        if metric not in first:
            fail(f"per-layer metric {metric} missing")
        elif unit != "s" and first[metric] != second.get(metric):
            fail(f"{metric} does not repeat: {first[metric]} vs {second.get(metric)}")
    layers = traced[0]["workers"][0]["layers"]
    for span in EXPECTED_CALLS[name]:
        if not layers.get(f"{span}.calls", 0) > 0:
            fail(f"wrap {span} intercepted no calls")
    for metric, want in EXACT_CALLS.get(name, {}).items():
        if layers[metric] != want:
            fail(f"{metric} = {layers[metric]}, expected {want}")
    for phase, acc in traced[0]["workers"][0]["phases"].items():
        if abs(acc["self_s"] + acc["children_s"] - acc["s"]) > 1e-9 * max(acc["s"], 1.0):
            fail(f"phase {phase}: self {acc['self_s']} + children "
                 f"{acc['children_s']} != span {acc['s']}")
    if not all(t["result"]["correct"] for t in traced):
        fail("traced tiny run not correct")


def check_wrong_reference(name, problems):
    with open(run.REFERENCES) as fh:
        refs = copy.deepcopy(json.load(fh)[name]["tiny"])
    refs["root_value"] += 1e-9
    res = run.run(name, SEED, 0, False, size="tiny", refs=refs)["result"]
    if res["correct"] or res["failed"] < 1:
        problems.append(f"{name}: a wrong reference root was not reported: {res}")


def main() -> int:
    problems = []
    check_benchmark_json(problems)
    for name in EXPECTED_CALLS:
        check_workload(name, problems)
        print(f"{name}: checked", flush=True)
    for name in ("merton-desk", "pdsde-full"):
        check_wrong_reference(name, problems)
    for p in problems:
        print("PROBLEM", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
