"""Forward Monte Carlo evaluation, independent oracles, convergence sweeps.

The solver maximizes over a discretized tree; everything here evaluates
controls on exact (continuously sampled) skeleton draws, so agreement
between the two sides is a genuine consistency check rather than a
tautology.  Oracles:

* enumerate_oracle -- plain recursion over the same finite tree with no
  memoization, no layering and no vectorization; an independent code path
  for the DP value.
* merton_oracle -- the classical constant-fraction optimum for power
  utility (external reference) next to a constant-control grid search on
  the same tree (internal, assumption-free).

Every Monte Carlo here draws its paths a chunk at a time from
`sample_skeleton`, keyed by (seed, chunk index), so `mc_value`,
`policy_mc_value` and `portfolio_policy_rollouts` read the same paths for
the same seed and depth.  A collapsed policy has one reader,
`_collapse_payoffs`, batched over a chunk's paths.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ResourceCapError
from .skeleton import SkeletonConfig, SkeletonPath, sample_skeleton
from .solver import (SolveConfig, SolveResult, Tree, backward_dp, build_tree,
                     extract_policy_control, nearest_bin_index, _collapse_ops,
                     _quantize)
from .structures import (PortfolioSpec, PortfolioStructure, payoff_of,
                         power_utility_payoff)

__all__ = [
    "RolloutResult", "MCResult", "rollout", "mc_value", "policy_mc_value",
    "enumerate_oracle", "merton_oracle", "convergence_sweep",
    "portfolio_policy_rollouts",
]

_CHUNK = 4096          # fixed chunk size keeps reductions thread-count-free


@dataclass
class RolloutResult:
    payoff: float | np.ndarray          # one path: a float; a block: (paths,)
    state: object                       # the final state block
    actions: np.ndarray                 # (steps,) or (paths, steps)


@dataclass
class MCResult:
    mean: float
    se: float
    n: int

    @property
    def ci_half(self) -> float:
        return 1.96 * self.se


def _as_control(control):
    """Normalize a control to callable(depth, state, structure) -> action,
    a scalar or one action per row of the state block."""
    if callable(control):
        return control
    value = float(control) if np.ndim(control) == 0 else np.asarray(control, float)
    return lambda depth, state, structure: value


def rollout(structure, control, path: SkeletonPath, payoff=None) -> RolloutResult:
    """Deterministic forward pass of a control along realized paths.

    A block of paths steps as one state block: the first step fans the
    initial state out to one row per path.  One path gives a float payoff
    and (steps,) actions, a block (paths,) payoffs and (paths, steps)
    actions.
    """
    ctrl = _as_control(control)
    dts, coords, signs = (np.atleast_2d(x) for x in (path.delta_t, path.coords, path.signs))
    state = structure.init()
    actions = np.empty(dts.shape)
    for n in range(len(path)):
        actions[:, n] = ctrl(n, state, structure)
        state = structure.step(state, actions[:, n], dts[:, n], coords[:, n], signs[:, n])
    value = payoff_of(structure, payoff, state) if payoff is not None \
        else np.full(len(dts), math.nan)
    if path.delta_t.ndim == 1:
        return RolloutResult(float(value[0]), state, actions[0])
    return RolloutResult(value, state, actions)


def mc_value(structure, payoff, control, skel_cfg: SkeletonConfig, N: int,
             seed: int, threads: int = 1, antithetic: bool = False) -> MCResult:
    """Sample mean and standard error of the payoff under a control."""
    def values(paths):
        return rollout(structure, control, paths, payoff).payoff

    return _mc_value(values, skel_cfg, N, seed, threads, antithetic)


def policy_mc_value(structure, payoff, result: SolveResult, tree: Tree,
                    skel_cfg: SkeletonConfig, N: int, seed: int,
                    threads: int = 1, antithetic: bool = False) -> MCResult:
    """Monte Carlo value of a solved policy, either tree mode.

    The paths are those of `mc_value`, at most tree.cfg.depth steps long.
    Full mode reads each chunk's action sequences by nearest-atom
    projection in one walk of the tree and rolls the chunk out as one
    block; collapse mode (d = 1, the payoff the statistic computes) reads
    each chunk through `_collapse_payoffs`.  With antithetic, each path is
    averaged with its sign-flipped twin, along which the policy is read
    afresh.
    """
    if skel_cfg.n_steps > tree.cfg.depth:
        raise ConfigurationError(f"skeleton n_steps {skel_cfg.n_steps} exceeds "
                                 f"the policy's depth {tree.cfg.depth}")
    if tree.cfg.collapse:
        if skel_cfg.d != 1:
            raise ConfigurationError(f"collapse evaluation is one-dimensional, d={skel_cfg.d}")
        ops = _collapse_ops(structure, payoff)

        def values(paths):
            return _collapse_payoffs(ops, result, tree, paths)
    else:
        def values(paths):
            acts = extract_policy_control(result, tree, paths)
            return rollout(structure, lambda n, state, s: acts[:, n], paths,
                           payoff).payoff
    return _mc_value(values, skel_cfg, N, seed, threads, antithetic)


def _run_chunks(n: int, threads: int, run_chunk) -> list:
    """run_chunk(chunk_index, size) over fixed-size chunks of n items.

    Chunks are keyed by index, not by thread, and the results come back in
    chunk order, so whatever the caller reduces them to is bit-identical
    for any thread count.
    """
    chunks = [(c, min(_CHUNK, n - c * _CHUNK)) for c in range((n + _CHUNK - 1) // _CHUNK)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda chunk: run_chunk(*chunk), chunks))
    return [run_chunk(*chunk) for chunk in chunks]


def _mc_value(values, skel_cfg: SkeletonConfig, N: int, seed: int, threads: int,
              antithetic: bool = False) -> MCResult:
    """Chunked Monte Carlo of values(paths): one payoff per path of a
    chunk's `SkeletonPath` block.

    Each chunk's block is one `sample_skeleton` draw keyed by (seed, chunk
    index), so the result is bit-identical for any thread count.  With
    antithetic, the same block with its signs negated is valued too.  The
    variance merges each chunk's centred sum of squares in chunk order
    (Chan, Golub and LeVeque 1979), so a constant payoff has se 0.
    """
    if N < 2:
        raise ConfigurationError("mc_value needs N >= 2")

    def run_chunk(cidx, size):
        paths = sample_skeleton(skel_cfg, seed, cidx, size)
        vals = values(paths)
        if antithetic:
            vals = 0.5 * (vals + values(replace(paths, signs=-paths.signs)))
        # the path-order sum decides the mean's bits; the squares are
        # centred on the mean taken about the first value, which is that
        # value exactly for a constant payoff
        centre = vals[0] + np.mean(vals - vals[0])
        return size, float(np.cumsum(vals)[-1]), centre, float(np.sum((vals - centre) ** 2))

    n = 0
    total = mean = m2 = 0.0
    for size, s, centre, sq in _run_chunks(N, threads, run_chunk):     # chunk order
        total += s
        delta = centre - mean
        m2 += sq + delta * delta * (n * size / (n + size))
        n += size
        mean += delta * (size / n)
    return MCResult(total / N, math.sqrt(m2 / (N - 1) / N), N)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def enumerate_oracle(structure, payoff, tree: Tree, cap: int = 10_000_000) -> float:
    """Exact optimum over tree-adapted policies by direct leaf-to-root folding.

    Independent of backward_dp: plain recursion on explicit histories, one
    node (a 1-row state block) at a time, no memoization or layer storage.
    Refuses when the folding workload (sum over depths of branching^depth)
    exceeds the cap.
    """
    cfg = tree.cfg
    branch = len(cfg.action_grid) * tree.n_atoms
    work = 0
    level = 1
    for _ in range(cfg.depth + 1):
        work += level
        if work > cap:
            raise ResourceCapError("enumeration workload exceeds cap", estimate=work)
        level *= branch

    atoms = tree.atoms
    grid = cfg.action_grid

    def fold(state, depth):
        if depth == cfg.depth:
            return float(payoff_of(structure, payoff, state)[0])
        best = -math.inf
        for a in grid:
            acc = 0.0
            for m in range(len(atoms)):
                acc += atoms.weights[m] * fold(
                    structure.step(state, float(a), float(atoms.delta_t[m]),
                                   int(atoms.coords[m]), int(atoms.signs[m])),
                    depth + 1)
            if acc > best:
                best = acc
        return best

    return fold(structure.init(), 0)


@dataclass
class MertonRef:
    fraction: float
    const_grid_value: float
    const_grid_action: float


def merton_oracle(spec: PortfolioSpec, eps_k: float | None = None,
                  cfg: SolveConfig | None = None) -> MertonRef:
    """Closed-form constant fraction plus a constant-control grid search.

    The fraction (alpha - r) / ((1 - gamma) sigma^2), clipped to the action
    box, is the classical power-utility optimum under constant coefficients.
    When a solve config is supplied, every grid action is evaluated as a
    constant control on the same discretized tree (singleton-grid DP), an
    internal second oracle free of any optimality assumption.
    """
    al = spec.alpha_k(0.0)
    sg = spec.sigma_k(0.0)
    if sg == 0:
        raise ConfigurationError("merton_oracle needs sigma != 0")
    frac = (al - spec.r) / ((1.0 - spec.gamma_util) * sg**2)
    frac = float(np.clip(frac, -spec.a_bar, spec.a_bar))
    best_v, best_a = -math.inf, math.nan
    if cfg is not None:
        if eps_k is None:
            raise ConfigurationError("eps_k required for the grid search")
        structure = PortfolioStructure(spec, eps_k)
        payoff = power_utility_payoff(spec)
        for a in cfg.action_grid:
            sub = replace(cfg, action_grid=np.array([a]), collapse=True)
            res = backward_dp(build_tree(structure, payoff, eps_k, sub))
            if res.report.root_value > best_v:
                best_v, best_a = res.report.root_value, float(a)
    return MertonRef(frac, best_v, best_a)


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------

def convergence_sweep(make_problem, eps_list, make_cfg) -> dict:
    """Solve the same problem across epsilon levels.

    make_problem(eps) -> (structure, payoff); make_cfg(eps) -> SolveConfig.
    Returns each level's SolveReport as rows, plus a flag for monotonically
    stabilizing root values (|v_{i+1} - v_i| nonincreasing).
    """
    rows = []
    for eps in eps_list:
        structure, payoff = make_problem(eps)
        rows.append(backward_dp(build_tree(structure, payoff, eps, make_cfg(eps))).report)
    diffs = [abs(rows[i + 1].root_value - rows[i].root_value)
             for i in range(len(rows) - 1)]
    stabilizing = all(diffs[i + 1] <= diffs[i] + 1e-15 for i in range(len(diffs) - 1))
    return {"rows": rows, "diffs": diffs, "stabilizing": stabilizing}


# ---------------------------------------------------------------------------
# vectorized portfolio policy rollouts (exact law, binned-policy lookups)
# ---------------------------------------------------------------------------

def portfolio_policy_rollouts(spec: PortfolioSpec, eps_k: float,
                              result: SolveResult, tree: Tree, n_paths: int,
                              seed: int, threads: int = 1) -> np.ndarray:
    """Payoffs of the solved policy on n_paths exact skeleton draws.

    Statistics evolve exactly along the paths of `policy_mc_value` at the
    tree's depth, drawn a chunk at a time by `sample_skeleton`; only the
    policy lookup passes through the solve-time bins, in
    `_collapse_payoffs`.  The payoff is the statistic's own,
    exp(gamma * lw) / gamma, a few ulps from power_utility_payoff's
    exp(lw)**gamma / gamma on the same wealth.
    """
    if not tree.cfg.collapse:
        raise ConfigurationError("vectorized rollouts need a collapsed tree")
    if n_paths < 2:
        raise ConfigurationError("portfolio_policy_rollouts needs n_paths >= 2")
    ops = PortfolioStructure(spec, eps_k).ops
    skel_cfg = SkeletonConfig(eps_k, 1, spec.horizon_T, tree.cfg.depth)

    def run_chunk(cidx, size):
        return _collapse_payoffs(ops, result, tree,
                                 sample_skeleton(skel_cfg, seed, cidx, size))

    return np.concatenate(_run_chunks(n_paths, threads, run_chunk))


def _collapse_payoffs(ops, result: SolveResult, tree: Tree,
                      paths: SkeletonPath) -> np.ndarray:
    """Payoffs of a collapsed policy along a d = 1 block of paths.

    Per step, one `nearest_bin_index` call reads every path's binned
    statistic (a bin off the layer falls back by the solver's own rule),
    then the statistics step as a batch; ops.payoff_stats values the last.
    """
    dts, sgns = paths.delta_t, paths.signs
    stats = np.tile(ops.stat0(), (len(dts), 1))
    for n in range(dts.shape[1]):
        idx = nearest_bin_index(tree.layers[n], _quantize(stats, tree.bin_widths))
        acts = np.asarray(result.policy.layers[n])[idx]
        stats = ops.step_stats(stats, acts, dts[:, n], sgns[:, n])
    return ops.payoff_stats(stats)
