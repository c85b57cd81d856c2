#!/usr/bin/env python3
"""Record the reference values the benchmark checks its outputs against.

    python3 bench/record_references.py            # writes bench/references.json

For merton-desk and pdsde-full, at the full and the self-test ("tiny")
size, this solves the workload's generated config once and stores the
root value, the per-layer node counts and (Merton) the constant-grid
oracle value.  The pdsde-full root is cross-checked against
evaluate.enumerate_oracle, an independent plain recursion over the same
tree, and nothing is written if the two differ by more than 1e-12.  These
references do not depend on the workload seed.  Run this outside timed
runs, and only when a change is meant to alter the recorded values.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import worker  # noqa: E402
from worker import evaluate, solver  # noqa: E402


def solve(cfg):
    structure, payoff, scfg, eps, _ = worker.build_problem(cfg)
    tree = solver.build_tree(structure, payoff, eps, scfg)
    res = solver.backward_dp(tree)
    return structure, payoff, scfg, eps, tree, res


def main():
    refs = {"merton-desk": {}, "pdsde-full": {}}
    for size in ("tiny", "full"):
        structure, _, scfg, eps, tree, res = solve(worker.merton_config(size))
        oracle = evaluate.merton_oracle(structure.spec, eps, scfg)
        refs["merton-desk"][size] = {
            "root_value": res.report.root_value,
            "const_grid_value": oracle.const_grid_value,
            "node_counts": [int(c) for c in res.report.node_counts]}

        structure, payoff, scfg, eps, tree, res = solve(worker.pdsde_config(size))
        enum = evaluate.enumerate_oracle(structure, payoff, tree)
        gap = abs(enum - res.report.root_value)
        if gap > worker.ROOT_TOL:
            sys.exit(f"pdsde-full {size}: backward_dp {res.report.root_value!r} "
                     f"!= enumerate_oracle {enum!r} (gap {gap:.3e})")
        refs["pdsde-full"][size] = {
            "root_value": res.report.root_value,
            "enumerate_oracle": enum,
            "node_counts": [int(c) for c in res.report.node_counts]}
        print(f"{size}: merton root {refs['merton-desk'][size]['root_value']!r}, "
              f"pdsde root {res.report.root_value!r} (enumeration gap {gap:.1e})",
              flush=True)
    path = os.path.join(worker.BENCH, "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
