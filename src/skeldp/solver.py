"""Backward pathwise dynamic programming on the discretized skeleton tree.

Two tree representations share one recursion

    V_n(node) = max_a sum_atoms w * V_{n+1}(child(node, a, atom)),
    V_depth(leaf) = payoff(gamma(leaf)),

with ties broken toward the smallest grid index:

* full mode enumerates exact histories (tuples of (action_idx, atom_idx));
  feasible only for desk-scale trees and used as the reference solver.
* collapse mode quantizes the structure's sufficient statistic into bins
  (time component on an absolute grid of width eps^2/4, state components on
  the structure's own scale, relative 1e-3 for wealth-like quantities) and
  runs the recursion over layers of bins, vectorized per (action, atom).
  Each layer is a dense lattice: a row-major box over its bins whose cells
  map to node indices.  The forward pass marks child cells in a boolean
  box and reads the layer's nodes off it; the backward pass finds each
  child's node by its cell.  Row-major box order is the packed-key order,
  so a layer's packed keys (computed once, as its identity column) are
  sorted, and off-grid probes that land on an empty cell fall back to the
  packed-order nearest populated bin.

The Hamiltonian-type operator U F(node, a) = sum_w (F_{n+1}(child) -
F_n(node)) / eps^2 vanishes at the recorded maximizer by construction and is
nonpositive elsewhere; `hamiltonian` exposes it for residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ResourceCapError
from .kernel import DiscretizedKernel, discretize_kernel
from .skeleton import SkeletonPath

__all__ = [
    "SolveConfig", "ValueTable", "Policy", "SolveResult",
    "build_tree", "backward_dp", "hamiltonian", "vertical_gradient",
    "extract_policy_control", "nearest_bin_index",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class SolveConfig:
    """Knobs of one DP solve."""

    action_grid: np.ndarray
    depth: int
    Q: int = 8
    epsilon_total: float = 0.01
    collapse: bool = False
    rule: str = "quantile"
    refine: bool = False
    refine_iters: int = 16
    node_cap: int = 2_000_000
    time_bin_width: float | None = None     # default eps^2 / 4
    state_bin_width: float = math.log(1.0 + 1e-3)
    holder_c: float = 1.0
    holder_gamma: float = 1.0
    a_bar: float | None = None

    def __post_init__(self):
        self.action_grid = np.asarray(self.action_grid, dtype=float)
        if self.action_grid.ndim != 1 or len(self.action_grid) == 0:
            raise ConfigurationError("action_grid must be a nonempty 1-d array")
        if self.a_bar is not None and np.any(np.abs(self.action_grid) > self.a_bar + 1e-12):
            raise ConfigurationError("action_grid leaves [-a_bar, a_bar]")
        if self.depth < 0:
            raise ConfigurationError(f"depth must be >= 0, got {self.depth}")
        if self.epsilon_total <= 0:
            raise ConfigurationError("epsilon_total must be > 0")

    @property
    def grid_spacing(self) -> float:
        g = np.sort(self.action_grid)
        return float(np.max(np.diff(g))) if len(g) > 1 else 0.0


@dataclass
class ValueTable:
    """Per-depth map from node key to value."""

    mode: str
    layers: list                     # full: dict[key,float]; collapse: (packed, values)

    def value(self, depth: int, key):
        if self.mode == "full":
            return self.layers[depth][key]
        packed, values = self.layers[depth]
        idx = np.searchsorted(packed, key)
        if idx >= len(packed) or packed[idx] != key:
            raise KeyError(key)
        return values[idx]

    def root_value(self) -> float:
        if self.mode == "full":
            return self.layers[0][()]
        return float(self.layers[0][1][0])


@dataclass
class Policy:
    """Per-depth map from node key to the selected action."""

    mode: str
    layers: list                     # full: dict[key,(action, action_idx)]; collapse: arrays

    def action(self, depth: int, key):
        if self.mode == "full":
            return self.layers[depth][key][0]
        packed, actions = self.layers[depth]
        idx = np.searchsorted(packed, key)
        if idx >= len(packed) or packed[idx] != key:
            raise KeyError(key)
        return float(actions[idx])


@dataclass
class SolveReport:
    root_value: float
    root_action: float
    certified_epsilon: float
    stage_slack: float
    grid_term: float
    refined_gain_max: float
    node_counts: list
    depth: int
    Q: int
    eps_k: float


@dataclass
class SolveResult:
    values: ValueTable
    policy: Policy
    report: SolveReport

    def __iter__(self):  # allow `tables, policy = backward_dp(...)`
        return iter((self.values, self.policy))


# ---------------------------------------------------------------------------
# Tree handle
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    structure: object
    payoff: object
    atoms: DiscretizedKernel
    cfg: SolveConfig
    eps_k: float
    mode: str
    bin_widths: np.ndarray | None = None
    layers: list = field(default_factory=list)   # collapse: per-depth (packed, bins, reps)
    lattices: list = field(default_factory=list)  # collapse: per-depth Lattice

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def sign_vec(self, atom_idx: int) -> np.ndarray:
        d = int(self.atoms.coords.max())
        v = np.zeros(d, dtype=np.int64)
        v[self.atoms.coords[atom_idx] - 1] = self.atoms.signs[atom_idx]
        return v


def build_tree(structure, payoff, eps_k: float, cfg: SolveConfig,
               atoms: DiscretizedKernel | None = None, lags=None) -> Tree:
    """Assemble the layered tree handle; refuses infeasible enumerations.

    Without explicit atoms/lags the fresh-start kernel is used, with the
    Brownian dimension read off the structure.
    """
    if atoms is None:
        if lags is None:
            d = getattr(getattr(structure, "spec", None), "d", 1)
            lags = np.zeros(d)
        atoms = discretize_kernel(np.asarray(lags, dtype=float), eps_k,
                                  cfg.Q, cfg.rule)
    n_children = len(cfg.action_grid) * len(atoms)
    if not cfg.collapse:
        total = 0
        level = 1
        for _ in range(cfg.depth + 1):
            total += level
            if total > cfg.node_cap:
                raise ResourceCapError(
                    f"full tree needs > {cfg.node_cap} nodes "
                    f"(branching {n_children}, depth {cfg.depth})", estimate=total)
            level *= n_children
        return Tree(structure, payoff, atoms, cfg, eps_k, "full")
    ops = structure.collapse_ops()
    if ops is None:
        raise ConfigurationError("collapse mode needs the structure to expose "
                                 "a sufficient statistic")
    widths = np.empty(ops.n_stats)
    widths[0] = cfg.time_bin_width if cfg.time_bin_width is not None else eps_k**2 / 4.0
    widths[1:] = cfg.state_bin_width
    tree = Tree(structure, payoff, atoms, cfg, eps_k, "collapse", widths)
    _forward_layers(tree, ops)
    return tree


# ---------------------------------------------------------------------------
# collapse machinery
# ---------------------------------------------------------------------------

_PACK_BITS = {1: (62,), 2: (31, 31), 3: (21, 21, 20)}


def _pack(bins: np.ndarray) -> np.ndarray:
    """Lexicographic int64 encoding of small integer bin vectors."""
    k = bins.shape[1]
    if k not in _PACK_BITS:
        raise ConfigurationError(f"collapse supports at most 3 statistic components, got {k}")
    bits = _PACK_BITS[k]
    out = np.zeros(len(bins), dtype=np.int64)
    shift = 64 - 1
    for c, b in enumerate(bits):
        col = bins[:, c]
        half = np.int64(1) << (b - 1)
        if np.any((col < -half) | (col >= half)):
            raise ResourceCapError(f"bin index overflow in component {c}")
        shift -= b
        out |= (col.astype(np.int64) + half) << shift
    return out


def _unpack(packed: np.ndarray, k: int) -> np.ndarray:
    """Inverse of _pack: recover the (N, k) bin-index matrix."""
    bits = _PACK_BITS[k]
    out = np.empty((len(packed), k), dtype=np.int64)
    shift = 64 - 1
    for c, b in enumerate(bits):
        shift -= b
        half = np.int64(1) << (b - 1)
        mask = (np.int64(1) << b) - 1
        out[:, c] = ((packed >> shift) & mask) - half
    return out


def _quantize(stats: np.ndarray, widths: np.ndarray) -> np.ndarray:
    scaled = stats / widths
    return np.floor(scaled, out=scaled).astype(np.int64)


def _reps(bins: np.ndarray, widths: np.ndarray) -> np.ndarray:
    return (bins + 0.5) * widths


def _pack_weights(k: int) -> np.ndarray:
    """Packed-key distance of one unit step in each bin component."""
    shifts = 63 - np.cumsum(_PACK_BITS[k])
    return np.left_shift(np.int64(1), shifts.astype(np.int64))


def _cells(bins: np.ndarray, origin: np.ndarray, shape: tuple) -> np.ndarray:
    """Row-major index of bins in the box at origin; ValueError if one is off it."""
    return np.ravel_multi_index(
        tuple(bins[:, c] - origin[c] for c in range(len(shape))), shape)


@dataclass(frozen=True)
class Lattice:
    """Dense row-major box over one collapse layer's distinct bins.

    Row-major box order is the packed-key order, so the layer's node i is
    its i-th populated cell.
    """

    origin: np.ndarray          # (k,) lowest bin index per component
    shape: tuple                # box extent per component
    bins: np.ndarray            # (n, k) populated bins, in box order
    rank: np.ndarray            # (cells,) node index of each cell, -1 if empty
    before: np.ndarray          # (cells + 1,) populated cells ahead of each cell

    @classmethod
    def over(cls, bins: np.ndarray) -> "Lattice":
        if len(bins) == 0:
            raise ConfigurationError("a collapse layer needs at least one bin")
        origin = bins.min(axis=0)
        shape = tuple(int(e) for e in bins.max(axis=0) - origin + 1)
        cells = _cells(bins, origin, shape)
        if np.any(np.diff(cells) <= 0):
            raise ConfigurationError("layer bins must be distinct and in packed order")
        size = math.prod(shape)
        rank = np.full(size, -1, dtype=np.int64)
        rank[cells] = np.arange(len(bins))
        before = np.zeros(size + 1, dtype=np.int64)
        before[cells + 1] = 1
        return cls(origin, shape, bins, rank, np.cumsum(before))

    def locate(self, bins: np.ndarray) -> np.ndarray:
        """Node index of each bin row; -1 where the cell is empty or off the box."""
        try:
            return self.rank[_cells(bins, self.origin, self.shape)]
        except ValueError:
            rel = bins - self.origin
            inside = np.all((rel >= 0) & (rel < self.shape), axis=1)
            idx = np.full(len(bins), -1, dtype=np.int64)
            idx[inside] = self.rank[_cells(bins[inside], self.origin, self.shape)]
            return idx

    def nearest(self, bins: np.ndarray) -> np.ndarray:
        """Nearest populated bin of each row in packed-key distance.

        The neighbours are the populated bins just before and after the
        query in packed order; the one before wins ties.  A query off the
        box is placed where packed order puts it: the first component that
        leaves the box clamps it and every later component to that edge.
        """
        first = self.origin
        last = self.origin + self.shape - 1
        clamped = bins.copy()
        after = np.zeros(len(bins), dtype=np.int64)
        free = np.ones(len(bins), dtype=bool)
        for c in range(len(self.shape)):
            low = free & (bins[:, c] < first[c])
            high = free & (bins[:, c] > last[c])
            clamped[low, c:] = first[c:]
            clamped[high, c:] = last[c:]
            after[high] = 1
            free &= ~(low | high)
        ahead = self.before[_cells(clamped, self.origin, self.shape) + after]
        n = len(self.bins)
        pred = np.clip(ahead - 1, 0, n - 1)
        succ = np.clip(ahead, 0, n - 1)
        weights = _pack_weights(bins.shape[1])
        d_pred = (bins - self.bins[pred]) @ weights
        d_succ = (self.bins[succ] - bins) @ weights
        return np.where(d_pred <= d_succ, pred, succ)


def collapse_layer(bins: np.ndarray, widths: np.ndarray):
    """Layer arrays (packed, bins, reps) and lattice of distinct bins in packed order."""
    return (_pack(bins), bins, _reps(bins, widths)), Lattice.over(bins)


def layer_from_keys(packed: np.ndarray, widths: np.ndarray):
    """collapse_layer of the bins behind sorted packed keys."""
    return collapse_layer(_unpack(packed, len(widths)), widths)


def _child_bins(tree: Tree, ops, reps: np.ndarray, action, m: int) -> np.ndarray:
    return _quantize(ops.step_stats(reps, action, float(tree.atoms.delta_t[m]),
                                    int(tree.atoms.signs[m])), tree.bin_widths)


def _grow_box(origin: np.ndarray, occupied: np.ndarray, bins: np.ndarray,
              max_cells: int):
    """Widen a boolean occupancy box to cover bins, keeping its marks."""
    lo = np.minimum(origin, bins.min(axis=0))
    hi = np.maximum(origin + occupied.shape - 1, bins.max(axis=0))
    shape = tuple(int(e) for e in hi - lo + 1)
    if math.prod(shape) > max_cells:
        raise ResourceCapError("collapse layer bin box too large",
                               estimate=math.prod(shape))
    grown = np.zeros(shape, dtype=bool)
    at = origin - lo
    grown[tuple(slice(a, a + e) for a, e in zip(at, occupied.shape))] = occupied
    return lo, grown


def _forward_layers(tree: Tree, ops):
    """Enumerate reachable statistic bins layer by layer.

    Child bins are marked in a boolean box, grown whenever a child falls
    off it; the populated cells in row-major order are the next layer.
    """
    cfg = tree.cfg
    widths = tree.bin_widths
    max_cells = 40 * cfg.node_cap
    layer, lattice = collapse_layer(_quantize(ops.stat0()[None, :], widths), widths)
    tree.layers, tree.lattices = [layer], [lattice]
    for depth in range(cfg.depth):
        reps = layer[2]
        if len(reps) * len(cfg.action_grid) * tree.n_atoms > max_cells:
            raise ResourceCapError(
                f"collapse layer {depth} expansion too large",
                estimate=len(reps) * len(cfg.action_grid) * tree.n_atoms)
        origin = lattice.origin
        occupied = np.zeros(lattice.shape, dtype=bool)
        for a in cfg.action_grid:
            for m in range(tree.n_atoms):
                child = _child_bins(tree, ops, reps, float(a), m)
                try:
                    cells = _cells(child, origin, occupied.shape)
                except ValueError:
                    origin, occupied = _grow_box(origin, occupied, child, max_cells)
                    cells = _cells(child, origin, occupied.shape)
                occupied.reshape(-1)[cells] = True
        cells = np.flatnonzero(occupied)
        if len(cells) > cfg.node_cap:
            raise ResourceCapError(f"collapse layer {depth + 1} exceeds node cap",
                                   estimate=len(cells))
        bins = np.column_stack(np.unravel_index(cells, occupied.shape)) + origin
        layer, lattice = collapse_layer(bins, widths)
        tree.layers.append(layer)
        tree.lattices.append(lattice)


def _collapse_stage_values(tree: Tree, ops, reps: np.ndarray, action,
                           lattice: Lattice, next_values: np.ndarray,
                           allow_miss: bool = False) -> np.ndarray:
    """sum_atoms w * V_{n+1}(child) for one action (scalar or per-node array).

    Children of on-grid actions were enumerated by the forward pass, so a
    lookup miss there is an internal inconsistency; off-grid probes
    (refinement, residual checks at recorded actions) project misses to the
    nearest populated bin instead.
    """
    acc = np.zeros(len(reps))
    for m in range(tree.n_atoms):
        bins = _child_bins(tree, ops, reps, action, m)
        idx = lattice.locate(bins)
        miss = idx < 0
        if miss.any():
            if not allow_miss:
                raise NumericalError(
                    "forward/backward bin mismatch on a grid action")
            idx[miss] = lattice.nearest(bins[miss])
        acc += tree.atoms.weights[m] * next_values[idx]
    return acc


# ---------------------------------------------------------------------------
# backward recursion
# ---------------------------------------------------------------------------

def backward_dp(tree: Tree) -> SolveResult:
    if tree.mode == "full":
        return _backward_full(tree)
    return _backward_collapse(tree)


def _backward_full(tree: Tree) -> SolveResult:
    cfg = tree.cfg
    structure, payoff = tree.structure, tree.payoff
    values = [dict() for _ in range(cfg.depth + 1)]
    policy = [dict() for _ in range(cfg.depth)]
    grid = cfg.action_grid
    atoms = tree.atoms

    def solve(key, state, depth):
        if depth == cfg.depth:
            v = float(payoff(structure.payoff_input(state)))
            if not math.isfinite(v):
                raise NumericalError(f"payoff is not finite at leaf {key}")
            values[depth][key] = v
            return v
        best_v, best_i = -math.inf, 0
        for ai, a in enumerate(grid):
            acc = 0.0
            for m in range(len(atoms)):
                child_state = structure.step(state, float(a),
                                             float(atoms.delta_t[m]),
                                             tree.sign_vec(m))
                acc += atoms.weights[m] * solve(key + ((ai, m),), child_state,
                                                depth + 1)
            if acc > best_v:
                best_v, best_i = acc, ai
        values[depth][key] = best_v
        policy[depth][key] = (float(grid[best_i]), best_i)
        return best_v

    root = solve((), structure.init(), 0)
    grid_term = cfg.holder_c * cfg.grid_spacing**cfg.holder_gamma
    report = SolveReport(
        root_value=root,
        root_action=policy[0][()][0] if cfg.depth > 0 else math.nan,
        certified_epsilon=grid_term,
        stage_slack=0.0, grid_term=grid_term,
        refined_gain_max=0.0,
        node_counts=[len(v) for v in values], depth=cfg.depth, Q=cfg.Q,
        eps_k=tree.eps_k)
    return SolveResult(ValueTable("full", values), Policy("full", policy), report)


def _backward_collapse(tree: Tree) -> SolveResult:
    cfg = tree.cfg
    ops = tree.structure.collapse_ops()
    grid = cfg.action_grid
    packed_d, _, reps_d = tree.layers[cfg.depth]
    vals = ops.payoff_stats(reps_d)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("payoff not finite on a terminal bin")
    value_layers = [None] * (cfg.depth + 1)
    policy_layers = [None] * cfg.depth
    value_layers[cfg.depth] = (packed_d, vals)
    refined_gain_max = 0.0

    for depth in range(cfg.depth - 1, -1, -1):
        packed, _, reps = tree.layers[depth]
        lattice = tree.lattices[depth + 1]
        next_values = value_layers[depth + 1][1]
        stage = np.empty((len(grid), len(reps)))
        for ai, a in enumerate(grid):
            stage[ai] = _collapse_stage_values(tree, ops, reps, float(a),
                                               lattice, next_values)
        best_idx = np.argmax(stage, axis=0)          # ties: smallest index
        best_val = stage[best_idx, np.arange(len(reps))]
        best_act = grid[best_idx]
        if cfg.refine and len(grid) > 1:
            h = cfg.grid_spacing
            lo = np.maximum(best_act - h, grid[0])
            hi = np.minimum(best_act + h, grid[-1])
            ref_act, ref_val = _golden_refine(
                lambda act: _collapse_stage_values(tree, ops, reps, act,
                                                   lattice, next_values,
                                                   allow_miss=True),
                lo, hi, cfg.refine_iters)
            take = ref_val > best_val
            refined_gain_max = max(refined_gain_max,
                                   float(np.max(ref_val - best_val, initial=0.0)))
            best_val = np.where(take, ref_val, best_val)
            best_act = np.where(take, ref_act, best_act)
        value_layers[depth] = (packed, best_val)
        policy_layers[depth] = (packed, best_act)

    grid_term = cfg.holder_c * cfg.grid_spacing**cfg.holder_gamma
    report = SolveReport(
        root_value=float(value_layers[0][1][0]),
        root_action=float(policy_layers[0][1][0]) if cfg.depth > 0 else math.nan,
        certified_epsilon=grid_term,
        stage_slack=0.0, grid_term=grid_term,
        refined_gain_max=refined_gain_max,
        node_counts=[len(layer[0]) for layer in tree.layers],
        depth=cfg.depth, Q=cfg.Q, eps_k=tree.eps_k)
    return SolveResult(ValueTable("collapse", value_layers),
                       Policy("collapse", policy_layers), report)


def _golden_refine(stage_fn, lo: np.ndarray, hi: np.ndarray, iters: int):
    """Vectorized golden-section max of the stage map on per-node intervals."""
    a, b = lo.copy(), hi.copy()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = stage_fn(x1)
    f2 = stage_fn(x2)
    for _ in range(iters):
        take2 = f1 < f2
        a = np.where(take2, x1, a)
        b = np.where(take2, b, x2)
        x1n = np.where(take2, x2, b - _GOLDEN * (b - a))
        x2n = np.where(take2, a + _GOLDEN * (b - a), x1)
        fx = stage_fn(np.where(take2, x2n, x1n))
        f1n = np.where(take2, f2, fx)
        f2n = np.where(take2, fx, f1)
        x1, x2, f1, f2 = x1n, x2n, f1n, f2n
    xm = 0.5 * (x1 + x2)
    fm = stage_fn(xm)
    return xm, fm


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def hamiltonian(tree: Tree, values: ValueTable, depth: int, key, action_idx: int,
                action_value: float | None = None) -> float:
    """U V at (node, action): kernel-averaged forward difference over eps^2."""
    if tree.mode == "full":
        acc = 0.0
        for m in range(tree.n_atoms):
            acc += tree.atoms.weights[m] * values.value(depth + 1,
                                                        key + ((action_idx, m),))
        return (acc - values.value(depth, key)) / tree.eps_k**2
    ops = tree.structure.collapse_ops()
    packed, _, reps = tree.layers[depth]
    i = int(np.searchsorted(packed, key))
    if i >= len(packed) or packed[i] != key:
        raise KeyError(key)
    a = float(tree.cfg.action_grid[action_idx]) if action_value is None else action_value
    stage = _collapse_stage_values(tree, ops, reps[i:i + 1], a,
                                   tree.lattices[depth + 1],
                                   values.layers[depth + 1][1],
                                   allow_miss=action_value is not None)
    return float((stage[0] - values.layers[depth][1][i]) / tree.eps_k**2)


def vertical_gradient(F_n: float, F_prev: float, sign_vec, j: int,
                      eps_k: float) -> float:
    """One-step difference quotient along coordinate j (1-based), sign-scaled."""
    from .skeleton import aleph
    coord, sgn = aleph(sign_vec)
    if coord != j:
        return 0.0
    return (F_n - F_prev) / (eps_k * sgn)


# ---------------------------------------------------------------------------
# policy extraction
# ---------------------------------------------------------------------------

def nearest_bin_index(layer_packed: np.ndarray, layer_bins: np.ndarray,
                      query_bins: np.ndarray) -> int:
    """Index of the populated bin closest to query (time-major, then state)."""
    key = _pack(query_bins[None, :])[0]
    i = int(np.searchsorted(layer_packed, key))
    if i < len(layer_packed) and layer_packed[i] == key:
        return i
    # candidate window around the insertion point plus same-time extremes
    cand = np.unique(np.clip(np.arange(i - 4, i + 5), 0, len(layer_packed) - 1))
    diffs = layer_bins[cand].astype(float) - query_bins.astype(float)
    # time mismatch dominates state mismatch
    score = np.abs(diffs[:, 0]) * 1e6 + np.sum(np.abs(diffs[:, 1:]), axis=1)
    return int(cand[np.argmin(score)])


def extract_policy_control(result: SolveResult, tree: Tree, path: SkeletonPath,
                           depth: int | None = None) -> np.ndarray:
    """Step-by-step actions along a realized skeleton path.

    Off-tree increments are projected: full mode snaps each realized delta_t
    to the nearest kernel atom of the same (coord, sign); collapse mode bins
    the realized statistic and falls back to the nearest populated bin.
    """
    cfg = tree.cfg
    depth = min(cfg.depth, len(path)) if depth is None else min(depth, cfg.depth,
                                                                len(path))
    actions = np.empty(depth)
    if tree.mode == "full":
        key = ()
        state = tree.structure.init()
        for n in range(depth):
            a, ai = result.policy.layers[n][key]
            actions[n] = a
            dt, c, s = float(path.delta_t[n]), int(path.coords[n]), int(path.signs[n])
            same = np.flatnonzero((tree.atoms.coords == c) & (tree.atoms.signs == s))
            m = int(same[np.argmin(np.abs(tree.atoms.delta_t[same] - dt))])
            state = tree.structure.step(state, a, dt, _unit(c, s, path.d))
            key = key + ((ai, m),)
        return actions
    widths = tree.bin_widths
    state = tree.structure.init()
    for n in range(depth):
        stat = np.asarray(tree.structure.sufficient_statistic(state), dtype=float)
        bins = _quantize(stat[None, :], widths)[0]
        packed, layer_bins, _ = tree.layers[n]
        i = nearest_bin_index(packed, layer_bins, bins)
        actions[n] = float(result.policy.layers[n][1][i])
        state = tree.structure.step(state, actions[n], float(path.delta_t[n]),
                                    _unit(int(path.coords[n]), int(path.signs[n]),
                                          path.d))
    return actions


def _unit(coord: int, sign: int, d: int) -> np.ndarray:
    v = np.zeros(d, dtype=np.int64)
    v[coord - 1] = sign
    return v
