"""Run one benchmark workload in this fresh, single-threaded process.

bench/run.py starts this file once per measured process:

    python3 bench/worker.py '<json spec>'

The spec names the workload, its size ("full" or the self-test's "tiny"),
the seed, whether to trace, the recorded references and the monotonic time
at which the parent spawned this process.  The last stdout line is one JSON
object: set-up seconds, seconds per phase, operations attempted and failed
(with the failure messages), peak RSS, the solve's node counts and, when
tracing, the per-layer metrics.  Set-up and phase seconds are reference
seconds (bench/speedclock.py); the wall seconds they come from are kept
beside them.

Set-up runs from process start to the first timed phase: interpreter
start, imports and the tables a workload builds once per process (the
inverse-CDF table of tau; the fBm Phi/Omega table in fbm-coupling).

Only the skeldp package under this checkout's ``src/`` is imported.
"""

import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

sys.path.insert(0, BENCH)
import numpy as np  # noqa: E402
from speedclock import SpeedClock  # noqa: E402

# sample the host's speed from here on, through the rest of set-up
CLOCK = SpeedClock()
if __name__ == "__main__":
    CLOCK.start()

import skeldp  # noqa: E402
from skeldp import density, evaluate, fbm, skeleton, solver, structures  # noqa: E402

if not os.path.abspath(skeldp.__file__).startswith(SRC + os.sep):
    sys.exit(f"skeldp imported from {skeldp.__file__}, not from {SRC}")

from tracer import Tracer  # noqa: E402

ROOT_TOL = 1e-12

# ---------------------------------------------------------------------------
# generated configs (same schema as the skeldp CLI's JSON configs)
# ---------------------------------------------------------------------------

MERTON_PROBLEM = {"kind": "portfolio", "r": 0.03, "alpha": 0.05, "sigma": 0.3,
                  "gamma_util": 0.5, "x0": 1.0, "a_bar": 1.0}
MERTON_SIZES = {"full": {"depth": 9, "n_paths": 100_000},
                "tiny": {"depth": 3, "n_paths": 2_000}}

PDSDE_PROBLEM = {"kind": "pd_sde", "drift": {"name": "linear", "scale": 0.2},
                 "diffusion": {"name": "constant", "value": 0.6},
                 "x0": [0.5], "payoff": {"name": "running_max_tanh"}}
PDSDE_SIZES = {"full": {"depth": 5, "n_paths": 4_000},
               "tiny": {"depth": 3, "n_paths": 200}}

FBM_H = 0.75
FBM_LEVELS = (3, 4, 5)
FBM_SIZES = {"full": {"n_paths": 200}, "tiny": {"n_paths": 4}}


def merton_config(size: str) -> dict:
    s = MERTON_SIZES[size]
    return {"skeleton": {"epsilon_k": 1.0 / 3, "d": 1, "horizon_T": 1.0},
            "problem": dict(MERTON_PROBLEM),
            "solve": {"action_grid": {"lo": -1.0, "hi": 1.0, "n": 41},
                      "depth": s["depth"], "Q": 8, "epsilon_total": 0.01,
                      "collapse": True, "refine": True, "node_cap": 3_000_000},
            "evaluate": {"n_paths": s["n_paths"]}}


def pdsde_config(size: str) -> dict:
    s = PDSDE_SIZES[size]
    return {"skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 2.0},
            "problem": dict(PDSDE_PROBLEM),
            "solve": {"action_grid": [-1.0, 0.0, 1.0], "depth": s["depth"],
                      "Q": 2},
            "evaluate": {"n_paths": s["n_paths"]}}


def build_problem(cfg: dict):
    """(structure, payoff, SolveConfig, eps, horizon) from a generated config."""
    sk = cfg["skeleton"]
    structure, payoff = structures.structure_from_config(
        cfg["problem"], sk["epsilon_k"], sk["horizon_T"])
    solve = dict(cfg["solve"])
    grid = solve.pop("action_grid")
    if isinstance(grid, dict):
        grid = np.linspace(grid["lo"], grid["hi"], grid["n"])
    scfg = solver.SolveConfig(action_grid=np.asarray(grid, dtype=float), **solve)
    return structure, payoff, scfg, sk["epsilon_k"], sk["horizon_T"]


def solve_counts(tree, res) -> dict:
    """Exact size of the solved tree: nodes, widest layer, children, bytes.

    Children are nodes x actions x kernel atoms over the non-leaf layers.
    Bytes are computed from the nbytes of the tree's numpy arrays (bin
    layers, value and policy layers); the full-history mode keeps its
    tables in dicts and reports 0 here.
    """
    counts = [int(c) for c in res.report.node_counts]
    arrays = {}
    for layers in (tree.layers, res.values.layers, res.policy.layers):
        for layer in layers:
            for a in (layer if isinstance(layer, tuple) else ()):
                if isinstance(a, np.ndarray):
                    arrays[id(a)] = a.nbytes
    return {"node_counts": counts, "nodes": sum(counts),
            "layer_nodes_max": max(counts),
            "children": sum(counts[:-1]) * len(tree.cfg.action_grid) * tree.n_atoms,
            "tree_bytes": sum(arrays.values())}


def _equal(name: str, got, want, tol: float = ROOT_TOL) -> list:
    if want is None:
        return [f"no recorded reference for {name}"]
    if isinstance(want, list):
        return [] if list(got) == want else [f"{name} {list(got)} != reference {want}"]
    return [] if abs(got - want) <= tol else [
        f"{name} {got!r} differs from reference {want!r} by {abs(got - want):.3e}"]


# ---------------------------------------------------------------------------
# operation bookkeeping
# ---------------------------------------------------------------------------

class Ops:
    """Counts operations, times phases and collects failures.

    An operation fails if it raises or if its check reports a problem.
    Phases collect their wall-clock intervals, converted to reference
    seconds when the run ends; with a tracer each phase is also a span.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.intervals: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            with self.tracer.span("phase." + name) if self.tracer else nullcontext():
                yield
        finally:
            self.intervals.setdefault(name, []).append((t0, time.perf_counter()))

    def run(self, label: str, fn, check=None):
        self.attempted += 1
        try:
            out = fn()
        except Exception as exc:  # a raising operation is a failed operation
            self._fail(label, [f"{type(exc).__name__}: {exc}"])
            return None
        problems = check(out) if check is not None else []
        if problems:
            self._fail(label, problems)
        return out

    def _fail(self, label: str, problems: list):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.extend(f"{label}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def setup_tau_table():
    density.inverse_cdf_tau(0.5)          # builds the inverse-CDF table


def setup_fbm_table():
    fbm.get_table(FBM_H)


def solve_op(ops: Ops, structure, payoff, scfg, eps: float, refs: dict,
             info: dict):
    """Phase "solve" (build_tree + backward_dp), checked against references.

    Returns (tree, result), or None if the operation raised.
    """
    def solve():
        with ops.phase("solve"):
            tree = solver.build_tree(structure, payoff, eps, scfg)
            return tree, solver.backward_dp(tree)

    def check(out):
        tree, res = out
        info.update(solve_counts(tree, res))
        return (_equal("root value", res.report.root_value, refs.get("root_value"))
                + _equal("node counts", info["node_counts"], refs.get("node_counts")))

    return ops.run("solve", solve, check)


def run_merton(ops: Ops, size: str, seed: int, refs: dict) -> dict:
    cfg = merton_config(size)
    structure, payoff, scfg, eps, _ = build_problem(cfg)
    spec = structure.spec
    n_paths = cfg["evaluate"]["n_paths"]
    info = {}
    solved = solve_op(ops, structure, payoff, scfg, eps, refs, info)

    def oracle():
        with ops.phase("oracle"):
            return evaluate.merton_oracle(spec, eps, scfg)

    def check_oracle(ref):
        problems = _equal("const-grid value", ref.const_grid_value,
                          refs.get("const_grid_value"))
        if solved is not None:
            gap = abs(solved[1].report.root_action - ref.fraction)
            if not gap <= 0.15:
                problems.append(f"root action is {gap:.4f} from the Merton fraction")
        return problems

    ops.run("oracle", oracle, check_oracle)

    def rollouts():
        tree, res = solved
        with ops.phase("evaluate"):
            return evaluate.portfolio_policy_rollouts(spec, eps, res, tree,
                                                      n_paths, seed, 1)

    def check_rollouts(pay):
        root = solved[1].report.root_value
        mc = float(np.mean(pay))
        se = float(np.std(pay, ddof=1) / math.sqrt(len(pay)))
        info["mc"] = {"mean": mc, "se": se}
        if len(pay) != n_paths or not math.isfinite(mc):
            return [f"{len(pay)} payoffs, mean {mc}"]
        bound = root - scfg.epsilon_total - 3 * se
        return [] if mc >= bound else [f"certificate fails: mc {mc} < {bound}"]

    ops.run("evaluate", rollouts, check_rollouts)
    return info


def run_pdsde(ops: Ops, size: str, seed: int, refs: dict) -> dict:
    cfg = pdsde_config(size)
    structure, payoff, scfg, eps, horizon = build_problem(cfg)
    n_paths = cfg["evaluate"]["n_paths"]
    info = {}
    solved = solve_op(ops, structure, payoff, scfg, eps, refs, info)

    def mc_value():
        tree, res = solved
        skel = skeleton.SkeletonConfig(eps, 1, horizon, scfg.depth)
        with ops.phase("evaluate"):
            return evaluate.policy_mc_value(structure, payoff, res, tree, skel,
                                            n_paths, seed, 1)

    def check_mc(mc):
        info["mc"] = {"mean": mc.mean, "se": mc.se}
        # running_max_tanh is bounded by 1 in absolute value
        if mc.n != n_paths or not (abs(mc.mean) <= 1.0 and math.isfinite(mc.se)):
            return [f"MC value {mc.mean} +- {mc.se} over {mc.n} paths"]
        return []

    ops.run("evaluate", mc_value, check_mc)
    return info


def run_fbm(ops: Ops, size: str, seed: int, refs: dict) -> dict:
    """Criterion-9 coupling: W_H^k from the skeleton against B_H^ref.

    One fine Brownian path per coupled path drives both sides.  The
    reference side (fine path, B_H^ref) is timed as phase "reference", the
    skeleton side (crossing detection and W_H^k for every level) as phase
    "skeleton".
    """
    n_paths = FBM_SIZES[size]["n_paths"]
    dt = (2.0 ** -max(FBM_LEVELS)) ** 2 / 400
    eval_times = np.linspace(0.05, 1.0, 32)
    sub = slice(None, None, 64)          # reference uses a 64x coarser path
    sums = dict.fromkeys(FBM_LEVELS, 0.0)
    done = 0

    def coupled_path(i):
        with ops.phase("reference"):
            t_g, bm = skeleton.brownian_fine_path(1, 1.0, dt, seed=seed * 10_000 + i,
                                                  stream=909)
            w_ref = fbm.fbm_ref_from_fine_path(t_g[sub], bm[0][sub], FBM_H, eval_times)
        errs = {}
        with ops.phase("skeleton"):
            for k in FBM_LEVELS:
                eps = 2.0 ** -k
                p = skeleton.crossing_sample_skeleton(eps, t_g, bm)
                w = fbm.fbm_from_skeleton(p.cum_times, p.signs.astype(float), eps,
                                          FBM_H, eval_times)
                errs[k] = float(np.max(np.abs(w - w_ref)))
        return errs

    def check_path(errs):
        nonlocal done
        if not all(math.isfinite(e) for e in errs.values()):
            return [f"non-finite sup error {errs}"]
        for k in FBM_LEVELS:
            sums[k] += errs[k]
        done += 1
        return []

    for i in range(n_paths):
        ops.run(f"path {i}", lambda: coupled_path(i), check_path)

    def score():
        with ops.phase("score"):
            return [sums[k] / max(done, 1) for k in FBM_LEVELS]

    def check_score(errs):
        if done != n_paths:
            return [f"only {done} of {n_paths} coupled paths usable"]
        if all(a > b for a, b in zip(errs, errs[1:])):
            return []
        return [f"strong errors {errs} not strictly decreasing over k={FBM_LEVELS}"]

    errs = ops.run("score", score, check_score)
    return {"strong_errors": errs}


# workload -> (phases, once-per-process set-up, phase behind solve_s and evaluate_s)
WORKLOADS = {
    "merton-desk": (run_merton, setup_tau_table,
                    {"solve_s": "solve", "evaluate_s": "evaluate"}),
    "pdsde-full": (run_pdsde, setup_tau_table,
                   {"solve_s": "solve", "evaluate_s": "evaluate"}),
    "fbm-coupling": (run_fbm, setup_fbm_table,
                     {"solve_s": "skeleton", "evaluate_s": "reference"}),
}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _tau_draws(args, kwargs, out):
    return np.size(args[0] if args else kwargs["u"])


def _rollout_lookups(args, kwargs, out):
    tree = args[3] if len(args) > 3 else kwargs["tree"]
    return len(out) * tree.cfg.depth


# (boundary looked up by the caller at call time, span name, work count)
BOUNDARIES = [
    ("skeldp.solver.build_tree", "solver.build_tree", None),
    ("skeldp.evaluate.build_tree", "solver.build_tree", None),
    ("skeldp.solver.backward_dp", "solver.backward_dp", None),
    ("skeldp.evaluate.backward_dp", "solver.backward_dp", None),
    ("skeldp.evaluate.nearest_bin_index", "solver.nearest_bin_index", None),
    ("skeldp.evaluate.extract_policy_control", "solver.extract_policy_control", None),
    ("skeldp.structures._PortfolioCollapse.step_stats", "structures.step_stats", None),
    ("skeldp.structures.CaseAStructure.step", "structures.step", None),
    ("skeldp.solver.discretize_kernel", "kernel.discretize_kernel", None),
    ("skeldp.density.inverse_cdf_tau", "density.inverse_cdf_tau", _tau_draws),
    ("skeldp.evaluate.sample_skeleton", "skeleton.sample_skeleton",
     lambda a, k, out: len(out)),
    ("skeldp.skeleton.brownian_fine_path", "skeleton.brownian_fine_path", None),
    ("skeldp.skeleton.crossing_sample_skeleton", "skeleton.crossing_sample_skeleton",
     lambda a, k, out: len(out)),
    ("skeldp.fbm.get_table", "fbm.get_table", None),
    ("skeldp.fbm.fbm_from_skeleton", "fbm.fbm_from_skeleton", None),
    ("skeldp.fbm.fbm_ref_from_fine_path", "fbm.fbm_ref_from_fine_path", None),
    ("skeldp.evaluate.portfolio_policy_rollouts", "evaluate.portfolio_policy_rollouts",
     _rollout_lookups),
    ("skeldp.evaluate.merton_oracle", "evaluate.merton_oracle", None),
    ("skeldp.evaluate.policy_mc_value", "evaluate.policy_mc_value", None),
    ("skeldp.evaluate.rollout", "evaluate.rollout", None),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, info: dict, phase_s: dict) -> dict:
    """Every per-layer metric whose boundary exists in the program."""
    tot = tracer.totals()
    out = {}
    for name, t in tot.items():
        if name.startswith("phase."):
            continue
        out[f"{name}.s"] = t["s"]
        out[f"{name}.self_s"] = t["self_s"]
        out[f"{name}.calls"] = t["calls"]
    for key in ("nodes", "layer_nodes_max", "children", "tree_bytes"):
        out[f"solver.{key}"] = info.get(key, 0)
    if "structures.step_stats" in tot:
        by = tracer.under("structures.step_stats",
                          ("solver.build_tree", "solver.backward_dp"))
        for side, anc in (("forward", "solver.build_tree"),
                          ("backward", "solver.backward_dp")):
            out[f"structures.step_stats.{side}_s"] = by[anc]["s"]
            out[f"structures.step_stats.{side}_calls"] = by[anc]["calls"]
    if "density.inverse_cdf_tau" in tot:
        out["density.tau_draws"] = tot["density.inverse_cdf_tau"]["work"]
    if "skeleton.sample_skeleton" in tot and "density.inverse_cdf_tau" in tot:
        used = tot["skeleton.sample_skeleton"]["work"]
        drawn = tracer.under("density.inverse_cdf_tau",
                             ("skeleton.sample_skeleton",))
        out["skeleton.steps_used"] = used
        out["skeleton.draw_use_ratio"] = _ratio(
            used, drawn["skeleton.sample_skeleton"]["work"])
    if "skeleton.crossing_sample_skeleton" in tot:
        out["skeleton.events"] = tot["skeleton.crossing_sample_skeleton"]["work"]
    if "evaluate.portfolio_policy_rollouts" in tot and "solver.nearest_bin_index" in tot:
        lookups = tot["evaluate.portfolio_policy_rollouts"]["work"]
        misses = tracer.under("solver.nearest_bin_index",
                              ("evaluate.portfolio_policy_rollouts",))
        out["evaluate.lookups"] = lookups
        out["evaluate.lookup_misses"] = misses["evaluate.portfolio_policy_rollouts"]["calls"]
        out["evaluate.lookup_miss_ratio"] = _ratio(out["evaluate.lookup_misses"], lookups)
    out["trace.pipeline_s"] = sum(phase_s.values())
    out["trace.spans"] = len(tracer.names)
    return out


def phase_accounting(tracer: Tracer) -> dict:
    """Per phase: span seconds, self seconds and seconds in child spans."""
    tot = tracer.totals()
    child = {}
    for i, p in enumerate(tracer.parent):
        if p >= 0 and tracer.names[p].startswith("phase."):
            nm = tracer.names[p]
            child[nm] = child.get(nm, 0.0) + tracer.end[i] - tracer.start[i]
    return {nm[len("phase."):]: {"s": t["s"], "self_s": t["self_s"],
                                 "children_s": child.get(nm, 0.0)}
            for nm, t in tot.items() if nm.startswith("phase.")}


# ---------------------------------------------------------------------------

def main(spec: dict) -> dict:
    run, setup, roles = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        for target, name, work in BOUNDARIES:
            tracer.wrap(target, name, work)
    setup()
    setup_end = time.perf_counter()
    setup_start = setup_end - (time.monotonic() - spec["spawn_t"])

    ops = Ops(tracer)
    info = run(ops, spec["size"], spec["seed"], spec["refs"])
    CLOCK.stop()
    if tracer is not None:
        tracer.restore()
    # converted after the run: a set-up shorter than MIN_SAMPLES periods
    # borrows the speed samples taken early in the first phase
    setup_clock = CLOCK.convert([(setup_start, setup_end)])
    clock = {name: CLOCK.convert(iv) for name, iv in ops.intervals.items()}
    phase_s = {name: c["ref_s"] for name, c in clock.items()}
    out = dict(
        setup_s=setup_clock["ref_s"], setup_clock=setup_clock,
        phase_s=phase_s, phase_clock=clock,
        pipeline_s=sum(phase_s.values()),
        pipeline_wall_s=sum(c["wall_s"] for c in clock.values()),
        roles={metric: phase_s.get(phase, 0.0) for metric, phase in roles.items()},
        attempted=ops.attempted, failed=ops.failed, failures=ops.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        info=info)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, info, phase_s)
        out["phases"] = phase_accounting(tracer)
        if spec.get("trace_path"):
            tracer.save(spec["trace_path"])
    from importlib.metadata import version    # after set-up: not timed
    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                       "scipy": version("scipy")}
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
