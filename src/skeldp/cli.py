"""Command-line front end.

Subcommands: density, skeleton, kernel, solve, evaluate, sweep, portfolio.
Every run writes a manifest.json (config hash, seed, versions) beside its
outputs; outputs are deterministic for a fixed (config, seed) regardless of
--threads, and floats are serialized with 17 significant digits.

Exit codes: 1 configuration or usage error (including a coefficient or
payoff functional that returns the wrong shape), 2 numerical failure
(including a non-finite user functional), 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, density, evaluate, kernel, skeleton, solver, structures
from .errors import (ConfigurationError, EvaluationError, NumericalError,
                     ResourceCapError)
from .structures import _int, _real, _reals, _reject_unknown, _value


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc


_TOP_SECTIONS = {"skeleton", "problem", "solve", "evaluate", "kernel", "sweep"}


def _require_top(cfg: dict, *required: str):
    """Refuse unknown or missing sections and any that is not an object."""
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {cfg!r}")
    _reject_unknown(cfg, _TOP_SECTIONS, "top level")
    for name in [*required, *cfg]:
        if not isinstance(section := _value(cfg, name, None, "config"), dict):
            raise ConfigurationError(f"{name} must be an object, got {section!r}")


def _write_manifest(out_dir: str, args, cfg: dict | None):
    """Everything needed to rerun: the full config, seed and versions."""
    payload = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config": cfg,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest() if cfg else None,
        "versions": {
            "skeldp": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


# ---------------------------------------------------------------------------
# skeleton / solve config builders
# ---------------------------------------------------------------------------

def _skeleton_cfg(section: dict, eps_override: float | None) -> skeleton.SkeletonConfig:
    _reject_unknown(section, {"epsilon_k", "d", "horizon_T", "n_steps"}, "skeleton")
    eps = (eps_override if eps_override is not None
           else _real(section, "epsilon_k", None, "skeleton"))
    n_steps = section.get("n_steps")
    return skeleton.SkeletonConfig(
        epsilon_k=eps, d=_int(section, "d", 1, "skeleton"),
        horizon_T=_real(section, "horizon_T", 1.0, "skeleton"),
        n_steps=n_steps if n_steps is None else _int(section, "n_steps", 0, "skeleton"))


def _solve_cfg(section: dict) -> solver.SolveConfig:
    allowed = {f.name for f in dataclasses.fields(solver.SolveConfig)}
    _reject_unknown(section, allowed, "solve")
    _value(section, "depth", None, "solve")        # the one field without a default
    grid_spec = _value(section, "action_grid", None, "solve")
    if isinstance(grid_spec, dict):
        _reject_unknown(grid_spec, {"lo", "hi", "n"}, "solve.action_grid")
        grid = np.linspace(_real(grid_spec, "lo", None, "solve.action_grid"),
                           _real(grid_spec, "hi", None, "solve.action_grid"),
                           _int(grid_spec, "n", None, "solve.action_grid"))
    else:
        grid = np.asarray(_reals(section, "action_grid", None, "solve"), dtype=float)
    kwargs = {k: section[k] for k in allowed & set(section) if k != "action_grid"}
    return solver.SolveConfig(action_grid=grid, **kwargs)


def _n_paths(esec: dict) -> int:
    """evaluate.n_paths, refused below 2 before any solve runs."""
    n_paths = _int(esec, "n_paths", 10_000, "evaluate")
    if n_paths < 2:
        raise ConfigurationError(f"evaluate needs n_paths >= 2, got {n_paths}")
    return n_paths


def _solve_setup(args):
    """A solve command's config, skeleton config, structure, payoff and
    solve config."""
    cfg = _load_config(args.config)
    _require_top(cfg, "skeleton", "problem", "solve")
    skel = _skeleton_cfg(cfg["skeleton"], None)
    structure, payoff = structures.structure_from_config(
        cfg["problem"], skel.epsilon_k, skel.horizon_T)
    return cfg, skel, structure, payoff, _solve_cfg(cfg["solve"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    out = _out_dir(args)
    try:
        xs = (np.asarray([float(v) for v in args.x.split(",")])
              if args.x else np.geomspace(0.05, 10.0, 60))
    except ValueError as exc:
        raise ConfigurationError(f"--x must be comma-separated numbers, "
                                 f"got {args.x!r}") from exc
    n = args.terms
    rows = [["x", "f", "bound", "cdf"]]
    for x in xs:
        rows.append([_fmt(x), _fmt(density.f_tau(x, n)),
                     _fmt(density.truncation_bound(x, n)),
                     _fmt(density.cdf_tau(x))])
    with open(os.path.join(out, "density.csv"), "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    _write_manifest(out, args, {"x": args.x, "terms": n})
    _say(args, f"wrote {out}/density.csv ({len(xs)} rows, {n} terms)")
    return 0


def cmd_skeleton(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args.config)
    _require_top(cfg, "skeleton")
    skel = _skeleton_cfg(cfg["skeleton"], args.epsilon)
    path = skeleton.sample_skeleton(skel, args.seed)
    with open(os.path.join(out, "skeleton.csv"), "w", encoding="utf-8") as fh:
        skeleton.path_to_csv(path, fh)
    stats = {
        "n_steps": len(path),
        "mean_delta_t": float(np.mean(path.delta_t)),
        "plus_sign_frequency": float(np.mean(path.signs == 1)),
        "coordinate_counts": {str(j): int(np.sum(path.coords == j))
                              for j in range(1, skel.d + 1)},
        "total_time": float(path.cum_times[-1]),
    }
    _write_json(os.path.join(out, "skeleton_stats.json"), stats)
    _write_manifest(out, args, cfg)
    _say(args, f"wrote {out}/skeleton.csv ({len(path)} steps)")
    return 0


def cmd_kernel(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args.config)
    _require_top(cfg, "skeleton")
    skel = _skeleton_cfg(cfg["skeleton"], args.epsilon)
    ksec = cfg.get("kernel", {})
    _reject_unknown(ksec, {"lags", "Q"}, "kernel")
    lags = np.atleast_1d(_reals(ksec, "lags", [0.0] * skel.d, "kernel")).astype(float)
    if len(lags) != skel.d:
        raise ConfigurationError(
            f"kernel.lags has {len(lags)} entries for d={skel.d}")
    disc = kernel.discretize_kernel(lags, skel.epsilon_k, _int(ksec, "Q", 8, "kernel"))
    rows = [["delta_t", "coord", "sign", "weight"]]
    for m in range(len(disc)):
        rows.append([_fmt(disc.delta_t[m]), int(disc.coords[m]),
                     int(disc.signs[m]), _fmt(disc.weights[m])])
    with open(os.path.join(out, "kernel_atoms.csv"), "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    mass = {"total_mass": float(disc.weights.sum()),
            "mean_delta_t": disc.mean_delta_t}
    if skel.d > 1:
        mass["first_fire"] = {
            str(j): kernel.first_fire_probability(lags, j, skel.epsilon_k)
            for j in range(1, skel.d + 1)}
    _write_json(os.path.join(out, "kernel_mass.json"), mass)
    _write_manifest(out, args, cfg)
    _say(args, f"wrote {out}/kernel_atoms.csv ({len(disc)} atoms)")
    return 0


def _dump_tables(out: str, res: solver.SolveResult, tree: solver.Tree):
    """value_policy.csv: one row per node, in node order.

    node_key is, in collapse mode, the node's bin indices in statistic
    order, separated by single spaces (node order is lexicographic bin
    order), and in full mode the repr of the node's history of (action
    index, atom index) pairs (node order is lexicographic history order,
    as itertools.product yields it).
    """
    pairs = [(ai, m) for ai in range(len(tree.cfg.action_grid))
             for m in range(tree.n_atoms)]
    rows = [["depth", "node_key", "value", "action"]]
    for depth, values in enumerate(res.values.layers):
        keys = (map(" ".join, tree.layers[depth].bins.astype(str).tolist())
                if tree.cfg.collapse
                else map(repr, itertools.product(pairs, repeat=depth)))
        actions = (res.policy.layers[depth]
                   if depth < len(res.policy.layers) else None)
        for i, key in enumerate(keys):
            rows.append([depth, key, _fmt(values[i]),
                         _fmt(actions[i]) if actions is not None else ""])
    with open(os.path.join(out, "value_policy.csv"), "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _summary_payload(res: solver.SolveResult, extra: dict | None = None) -> dict:
    """The solve report's fields, then any extras."""
    return {**dataclasses.asdict(res.report), **(extra or {})}


def cmd_solve(args) -> int:
    out = _out_dir(args)
    cfg, skel, structure, payoff, scfg = _solve_setup(args)
    tree = solver.build_tree(structure, payoff, skel.epsilon_k, scfg)
    res = solver.backward_dp(tree)
    _dump_tables(out, res, tree)
    _write_json(os.path.join(out, "summary.json"), _summary_payload(res))
    _write_manifest(out, args, cfg)
    _say(args, f"root value {res.report.root_value:.6f}, "
               f"root action {res.report.root_action:.4f}")
    return 0


def _policy_from_csv(path: str, structure, payoff, eps_k: float,
                     scfg: solver.SolveConfig):
    """Rebuild a collapse tree and its policy/value table from a solve CSV
    dump; the tree gets build_tree's checks, atoms and widths.

    Refuses, by line: a depth below 0, a node_key that is not k int64 bin
    indices separated by single spaces, a non-finite value, and below the
    last depth an action that is blank, not finite or outside the spec's
    [-a_bar, a_bar].
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"policy CSV not found: {path}")
    k = solver._collapse_ops(structure, payoff).n_stats
    per_depth: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["depth", "node_key", "value", "action"]]:
        raise ConfigurationError(f"bad policy CSV header: {rows[:1]!r}")
    for line, row in enumerate(rows[1:], start=2):
        try:
            depth_s, key_s, value_s, action_s = row
            depth, value = int(depth_s), float(value_s)
            key = tuple(np.array(key_s.split(" ")).astype(np.int64).tolist())
            entry = (key, value, float(action_s) if action_s else math.nan, line)
        except (ValueError, OverflowError) as exc:
            raise ConfigurationError(f"bad policy CSV line {line}: {row!r} ({exc})") from exc
        if depth < 0 or not math.isfinite(value):
            raise ConfigurationError(f"bad policy CSV line {line}: {row!r} "
                                     f"(depth below 0 or value not finite)")
        if len(key) != k:
            raise ConfigurationError(f"bad policy CSV line {line}: node_key "
                                     f"{key_s!r} is not {k} bin indices")
        per_depth.setdefault(depth, []).append(entry)
    if not per_depth:
        raise ConfigurationError(f"policy CSV has no node rows: {path}")
    depth_max = max(per_depth)
    if depth_max != scfg.depth:
        raise ConfigurationError(
            f"policy CSV depth {depth_max} != solve.depth {scfg.depth}")
    layers = [sorted(per_depth.get(depth, [])) for depth in range(depth_max + 1)]
    bins = [np.array([e[0] for e in es], dtype=np.int64).reshape(-1, k) for es in layers]
    tree = solver._setup_tree(structure, payoff, eps_k, scfg, bins)
    a_bar = getattr(getattr(structure, "spec", None), "a_bar", None)
    for _, _, action, line in itertools.chain(*layers[:-1]):
        if not math.isfinite(action):
            raise ConfigurationError(f"bad policy CSV line {line}: an action below "
                                     f"the last depth is blank or not finite")
        if a_bar is not None and abs(action) > a_bar + 1e-12:
            raise ConfigurationError(f"bad policy CSV line {line}: action {action!r} "
                                     f"leaves [-{a_bar}, {a_bar}]")
    values = [np.array([e[1] for e in es]) for es in layers]
    actions = [np.array([e[2] for e in es]) for es in layers[:-1]]
    return tree, solver._solve_result(tree, values, actions, math.nan)


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    cfg, skel, structure, payoff, scfg = _solve_setup(args)
    esec = cfg.get("evaluate", {})
    _reject_unknown(esec, {"n_paths", "antithetic", "policy_csv"}, "evaluate")
    n_paths = _n_paths(esec)
    antithetic = _value(esec, "antithetic", False, "evaluate")
    if not isinstance(antithetic, bool):
        raise ConfigurationError(f"evaluate.antithetic must be true or false, "
                                 f"got {antithetic!r}")
    if esec.get("policy_csv"):
        if not scfg.collapse:
            raise ConfigurationError("policy_csv evaluation needs collapse mode")
        tree, res = _policy_from_csv(esec["policy_csv"], structure, payoff,
                                     skel.epsilon_k, scfg)
    else:
        tree = solver.build_tree(structure, payoff, skel.epsilon_k, scfg)
        res = solver.backward_dp(tree)
    mc = evaluate.policy_mc_value(
        structure, payoff, res, tree,
        skeleton.SkeletonConfig(skel.epsilon_k, skel.d, skel.horizon_T, scfg.depth),
        n_paths, args.seed, threads=args.threads,
        antithetic=antithetic)
    payload = {
        "mc_mean": mc.mean, "mc_se": mc.se, "mc_ci_half": mc.ci_half,
        "n_paths": mc.n, "root_value": res.report.root_value,
        "gap_root_minus_mc": res.report.root_value - mc.mean,
    }
    _write_json(os.path.join(out, "evaluate_metrics.json"), payload)
    _write_manifest(out, args, cfg)
    _say(args, f"mc mean {mc.mean:.6f} +- {mc.ci_half:.6f} "
               f"(root {res.report.root_value:.6f})")
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args.config)
    _require_top(cfg, "skeleton", "problem", "solve", "sweep")
    ssec = cfg["sweep"]
    _reject_unknown(ssec, {"eps_list"}, "sweep")
    eps_list = [float(e) for e in np.atleast_1d(_reals(ssec, "eps_list", None, "sweep"))]
    base_skel = cfg["skeleton"]

    def make_problem(eps):
        skel = _skeleton_cfg({**base_skel, "epsilon_k": eps}, None)
        return structures.structure_from_config(cfg["problem"], skel.epsilon_k,
                                                skel.horizon_T)

    def make_cfg(eps):
        sc = dict(cfg["solve"])
        if sc.get("depth") is None:
            sc["depth"] = skeleton.SkeletonConfig(
                epsilon_k=eps, d=_int(base_skel, "d", 1, "skeleton"),
                horizon_T=_real(base_skel, "horizon_T", 1.0, "skeleton")).e_kT
        return _solve_cfg(sc)

    report = evaluate.convergence_sweep(make_problem, eps_list, make_cfg)
    rows = [["eps_k", "root_value", "root_action"]]
    for r in report["rows"]:
        rows.append([_fmt(r.eps_k), _fmt(r.root_value), _fmt(r.root_action)])
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    _write_json(os.path.join(out, "sweep.json"), {
        "diffs": report["diffs"], "stabilizing": report["stabilizing"]})
    _write_manifest(out, args, cfg)
    _say(args, f"sweep over {eps_list}: stabilizing={report['stabilizing']}")
    return 0


# series terms of the truncated stage function g_n behind the portfolio
# summary's stage_argmax_policy
_G_TERMS = 8


def cmd_portfolio(args) -> int:
    """End-to-end pipeline: solve, per-depth stage-argmax policy, references."""
    out = _out_dir(args)
    cfg, skel, structure, payoff, scfg = _solve_setup(args)
    if cfg["problem"].get("kind") != "portfolio":
        raise ConfigurationError("portfolio subcommand needs a portfolio problem")
    spec = structure.spec
    if not scfg.collapse:
        raise ConfigurationError("portfolio rollouts need solve.collapse: true")
    esec = cfg.get("evaluate", {})
    # the summary's mc figures are the plain estimator: antithetic is refused
    _reject_unknown(esec, {"n_paths"}, "evaluate")
    n_paths = _n_paths(esec)

    tree = solver.build_tree(structure, payoff, skel.epsilon_k, scfg)
    res = solver.backward_dp(tree)

    merton = evaluate.merton_oracle(spec, skel.epsilon_k, scfg)
    mc = evaluate.policy_mc_value(
        structure, payoff, res, tree,
        skeleton.SkeletonConfig(skel.epsilon_k, 1, spec.horizon_T, scfg.depth),
        n_paths, args.seed, threads=args.threads)

    # per-depth stage-argmax policy from the truncated stage function
    g_actions = []
    grid = scfg.action_grid
    for depth in range(scfg.depth):
        t_rep = depth * skel.epsilon_k**2  # representative elapsed time
        if t_rep >= spec.horizon_T:
            g_actions.append(g_actions[-1] if g_actions else 0.0)
            continue
        vals = [structures.stage_g(float(a), t_rep, spec, skel.epsilon_k,
                                   n_terms=_G_TERMS) for a in grid]
        g_actions.append(float(grid[int(np.argmax(vals))]))

    payload = _summary_payload(res, extra={
        "merton_fraction": merton.fraction,
        "const_grid_value": merton.const_grid_value,
        "const_grid_action": merton.const_grid_action,
        "extracted_fraction": res.report.root_action,
        "fraction_gap": abs(res.report.root_action - merton.fraction),
        "mc_mean": mc.mean, "mc_se": mc.se, "n_paths": n_paths,
        "stage_argmax_policy": g_actions,
    })
    _dump_tables(out, res, tree)
    _write_json(os.path.join(out, "portfolio_summary.json"), payload)
    _write_manifest(out, args, cfg)
    _say(args, f"root {res.report.root_value:.6f}, fraction "
               f"{res.report.root_action:.4f} (merton {merton.fraction:.4f}), "
               f"mc {mc.mean:.6f} +- {mc.ci_half:.6f}")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2 (numerical failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="skeldp")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("density", help="density/bound/cdf tables")
    common(p, config_required=False)
    p.add_argument("--x", default=None, help="comma-separated evaluation points")
    p.add_argument("--terms", type=int, default=25)
    p.set_defaults(fn=cmd_density)

    for name, fn in [("skeleton", cmd_skeleton), ("kernel", cmd_kernel),
                     ("solve", cmd_solve), ("evaluate", cmd_evaluate),
                     ("sweep", cmd_sweep), ("portfolio", cmd_portfolio)]:
        p = sub.add_parser(name)
        common(p)
        if name in ("skeleton", "kernel"):
            p.add_argument("--epsilon", type=float, default=None,
                           help="override skeleton.epsilon_k")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc} (estimate {exc.estimate})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
