"""Backward pathwise dynamic programming on the discretized skeleton tree.

Two tree representations share one recursion

    V_n(node) = max_a sum_atoms w * V_{n+1}(child(node, a, atom)),
    V_depth(leaf) = payoff(gamma(leaf)),

with ties broken toward the smallest grid index.  In both modes a node is
its index in the layer, and value and policy layers are arrays in node order:

* full mode enumerates exact histories of grid (action ai, atom m) pairs;
  feasible only for desk-scale trees and used as the reference solver.
  With A actions and M atoms, node i has child (i * A + ai) * M + m, so
  the children of the node range [i0, i1) are the range [i0 A M, i1 A M).
  The recursion runs over such node-range blocks, not over nodes: one
  structure step takes a block's states to its children's (at most
  `_BLOCK` children at a time, so states are never held for a whole
  layer), and the children's values, reshaped to (nodes, A, M) and summed
  atom by atom, give the block's values and first-index argmax actions.
* collapse mode quantizes the structure's sufficient statistic into bins
  (time component on an absolute grid of width eps^2/4, state components on
  the structure's own scale, relative 1e-3 for wealth-like quantities) and
  runs the recursion over layers of bins.  Each layer is a dense lattice:
  a row-major box of time rows x state columns whose cells map to node
  indices.  A node's statistic is a function of its row and its column,
  and the structure's step splits into a per-row time step and a per-row
  ln-wealth increment, so each grid (action, atom) child map is computed
  once per row and once per (distinct increment, column), not per node,
  and cut into rectangles of cells that share one (row, column) shift.
  The forward pass ORs each rectangle's occupied cells, shifted, into the
  next layer's box; the backward pass adds the weighted, shifted block of
  the next layer's value box into a box accumulator, and the layer keeps
  only each node's running best grid action.  Off-grid probes (golden
  refinement, residual checks) step each node at its own action.  Time
  does not depend on the action, so each node's child time row per atom,
  as a flat cell of the next box, is computed once per layer, and the
  action's ln-wealth `rates` once per probe; each atom is then one
  quantize of the child's wealth, one clip to the box's columns and one
  `rank` gather.  A child that lands on an empty cell or off the box's
  columns goes to `nearest_bin_index`, the same nearest-populated-bin rule
  that every policy lookup uses.

The Hamiltonian-type operator U F(node, a) = sum_w (F_{n+1}(child) -
F_n(node)) / eps^2 vanishes at the recorded maximizer by construction and is
nonpositive elsewhere; `hamiltonian` gives it over a whole layer at one
action, or at one off-grid action per node, for residual checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ResourceCapError
from .kernel import DiscretizedKernel, discretize_kernel
from .skeleton import SkeletonPath, _count
from .structures import payoff_of

__all__ = [
    "SolveConfig", "ValueTable", "Policy", "SolveResult",
    "build_tree", "backward_dp", "hamiltonian",
    "extract_policy_control", "nearest_bin_index",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 16      # golden-section steps of a refinement
# children per structure step of a full-tree solve: bounds the states alive
# per depth (a depth-5, 248,832-leaf layer of states would take ~35 MB)
_BLOCK = 4096


@dataclass
class SolveConfig:
    """Knobs of one DP solve.

    epsilon_total is the error budget that acceptance criteria 6-7 and the
    benchmark's Merton check compare a solve against (README lists the
    three checks); the solve itself neither reads nor certifies it.
    """

    action_grid: np.ndarray
    depth: int
    Q: int = 8
    epsilon_total: float = 0.01
    collapse: bool = False
    refine: bool = False
    node_cap: int = 2_000_000
    time_bin_width: float | None = None     # default eps^2 / 4
    state_bin_width: float = math.log(1.0 + 1e-3)

    def __post_init__(self):
        self.action_grid = np.asarray(self.action_grid, dtype=float)
        if self.action_grid.ndim != 1 or len(self.action_grid) == 0:
            raise ConfigurationError("action_grid must be a nonempty 1-d array")
        # golden refinement brackets each node by grid[0] and grid[-1]
        if not np.all(np.isfinite(self.action_grid)) \
                or np.any(np.diff(self.action_grid) <= 0):
            raise ConfigurationError(f"action_grid must be finite and strictly "
                                     f"increasing, got {self.action_grid.tolist()}")
        for name, lo in (("depth", 0), ("Q", 1), ("node_cap", 1)):
            _count(name, getattr(self, name), lo)
        positive = {"epsilon_total": self.epsilon_total,
                    "state_bin_width": self.state_bin_width}
        if self.time_bin_width is not None:
            positive["time_bin_width"] = self.time_bin_width
        for name, value in positive.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def grid_spacing(self) -> float:
        return float(np.max(np.diff(self.action_grid), initial=0.0))


@dataclass
class ValueTable:
    """Per-depth node values, arrays in node order (see the module docstring)."""

    layers: list


@dataclass
class Policy:
    """Per-depth selected actions, arrays in node order (as in ValueTable)."""

    layers: list


@dataclass
class SolveReport:
    root_value: float
    root_action: float                  # NaN at depth 0
    refined_gain_max: float             # NaN for a policy read from a CSV
    node_counts: list
    depth: int
    Q: int
    eps_k: float


@dataclass
class SolveResult:
    values: ValueTable
    policy: Policy
    report: SolveReport


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
    ops: object = None                            # collapse: the statistic ops
    bin_widths: np.ndarray | None = None
    layers: list = field(default_factory=list)   # collapse: per-depth Lattice
    blocks: list = field(default_factory=list)    # collapse: per-depth (rects, starts)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def build_tree(structure, payoff, eps_k: float, cfg: SolveConfig) -> Tree:
    """`_setup_tree`, then the forward pass over a collapse tree's layers."""
    tree = _setup_tree(structure, payoff, eps_k, cfg)
    if cfg.collapse:
        _forward_layers(tree)
    return tree


def _setup_tree(structure, payoff, eps_k: float, cfg: SolveConfig,
                node_keys=None) -> Tree:
    """Tree handle with its checks, fresh-start kernel atoms, and for
    collapse its statistic ops and bin widths.

    Refuses a grid outside the spec's [-a_bar, a_bar], a full tree over
    cfg.node_cap nodes and a payoff the collapse statistic does not
    compute.  node_keys, per depth the packed bins of a value_policy.csv
    dump, give a collapse tree its layers without a forward pass.
    """
    spec = getattr(structure, "spec", None)
    a_bar = getattr(spec, "a_bar", None)
    if a_bar is not None and np.any(np.abs(cfg.action_grid) > a_bar + 1e-12):
        raise ConfigurationError(f"action_grid leaves [-{a_bar}, {a_bar}]")
    atoms = discretize_kernel(np.zeros(getattr(spec, "d", 1)), eps_k, cfg.Q)
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
        return Tree(structure, payoff, atoms, cfg, eps_k)
    ops = _collapse_ops(structure, payoff)
    widths = np.empty(ops.n_stats)
    widths[0] = cfg.time_bin_width if cfg.time_bin_width is not None else eps_k**2 / 4.0
    widths[1:] = cfg.state_bin_width
    layers = [Lattice.over(_unpack(keys, ops.n_stats)) for keys in node_keys or []]
    return Tree(structure, payoff, atoms, cfg, eps_k, ops, widths, layers)


def _collapse_ops(structure, payoff):
    """The structure's statistic evolution; collapse mode values paths by
    ops.payoff_stats, so a payoff off it at the root (relative 1e-12) is
    refused rather than silently replaced."""
    ops = structure.collapse_ops()
    if ops is None:
        raise ConfigurationError("collapse mode needs the structure to expose "
                                 "a sufficient statistic")
    own = float(ops.payoff_stats(ops.stat0()[None, :])[0])
    given = float(payoff_of(structure, payoff, structure.init())[0])
    if not math.isclose(given, own, rel_tol=1e-12):
        raise ConfigurationError(f"collapse mode values paths by the structure's "
                                 f"own payoff ({own!r} at the root), not {given!r}")
    return ops


# ---------------------------------------------------------------------------
# collapse machinery
# ---------------------------------------------------------------------------

_PACK_BITS = {1: (62,), 2: (31, 31), 3: (21, 21, 20)}


def _pack(bins: np.ndarray) -> np.ndarray:
    """Lexicographic int64 encoding of small integer bin vectors (the node
    key of the value/policy CSV)."""
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


def _cells(bins: np.ndarray, origin: np.ndarray, shape: tuple) -> np.ndarray:
    """Row-major index of bins in the box at origin; ValueError if one is off it."""
    return np.ravel_multi_index(
        tuple(bins[:, c] - origin[c] for c in range(len(shape))), shape)


@dataclass(frozen=True)
class Lattice:
    """One collapse layer: a dense row-major box over its distinct bins.

    Row-major box order is the packed-key order, so the layer's node i is
    its i-th populated cell.
    """

    origin: np.ndarray          # (k,) lowest bin index per component
    shape: tuple                # box extent per component
    bins: np.ndarray            # (n, k) populated bins, in box order
    rank: np.ndarray            # (cells,) node index of each cell, -1 if empty
    cells: np.ndarray           # (n,) box cell of each node, increasing

    @classmethod
    def over(cls, bins: np.ndarray) -> "Lattice":
        if len(bins) == 0:
            raise ConfigurationError("a collapse layer needs at least one bin")
        origin = bins.min(axis=0)
        shape = tuple(int(e) for e in bins.max(axis=0) - origin + 1)
        cells = _cells(bins, origin, shape)
        if np.any(np.diff(cells) <= 0):
            raise ConfigurationError("layer bins must be distinct and in packed order")
        rank = np.full(math.prod(shape), -1, dtype=np.int64)
        rank[cells] = np.arange(len(bins))
        return cls(origin, shape, bins, rank, cells)

    @property
    def occupied(self) -> np.ndarray:
        """Boolean box of the populated cells."""
        return (self.rank >= 0).reshape(self.shape)

    def locate(self, bins: np.ndarray) -> np.ndarray:
        """Node index of each bin row; -1 where the cell is empty or off the box."""
        rel = tuple(c - o for c, o in zip(bins.T, self.origin))
        inside = np.logical_and.reduce(
            [(r >= 0) & (r < e) for r, e in zip(rel, self.shape)])
        idx = self.rank[np.ravel_multi_index(rel, self.shape, mode="clip")]
        return np.where(inside, idx, -1)


def _axis(lattice: Lattice, c: int, width: float):
    """Bin indices of the box along component c, and their representatives."""
    idx = lattice.origin[c] + np.arange(lattice.shape[c])
    return idx, (idx + 0.5) * width


def _time_children(tree: Tree, t_rows: np.ndarray) -> list:
    """Per atom: child time bin of each time row, and whether its wealth moves."""
    out = []
    for dt in tree.atoms.delta_t:
        t_new, moves = tree.ops.time_step(t_rows, float(dt))
        out.append((_quantize(t_new, tree.bin_widths[0]), moves))
    return out


def _runs(*keys: np.ndarray):
    """(start, stop) of the maximal runs along which every key is constant."""
    change = np.zeros(len(keys[0]) - 1, dtype=bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    cut = (np.flatnonzero(change) + 1).tolist()
    return list(zip([0] + cut, cut + [len(keys[0])]))


def _trim(occupied: np.ndarray, i0: int, i1: int, j0: int, j1: int):
    """Bounding box (i0, i1, j0, j1) of the populated cells of a block, or None."""
    block = occupied[i0:i1, j0:j1]
    rows = np.flatnonzero(block.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(block[rows[0]:rows[-1] + 1].any(axis=0))
    return (i0 + int(rows[0]), i0 + int(rows[-1]) + 1,
            j0 + int(cols[0]), j0 + int(cols[-1]) + 1)


def _rectangles(occupied: np.ndarray, trimmed: dict, row_shift: np.ndarray,
                row_class: np.ndarray, col_shifts: list) -> np.ndarray:
    """Split a child map over the box into rectangles of one shift each.

    Row i of the box moves by row_shift[i] bins and its columns by
    col_shifts[row_class[i]]; every maximal run of rows sharing both,
    crossed with every maximal run of columns sharing a shift, is one
    rectangle, trimmed to the populated cells inside it (memoized in
    trimmed, since most pairs of a layer cut the box alike).  Returns rows
    (i0, i1, j0, j1, dr, dc): box cells [i0, i1) x [j0, j1) have their
    children dr time bins and dc state bins away.
    """
    col_runs = {}
    rects = []
    for i0, i1 in _runs(row_shift, row_class):
        cls = int(row_class[i0])
        shift = col_shifts[cls]
        if cls not in col_runs:
            col_runs[cls] = _runs(shift)
        for j0, j1 in col_runs[cls]:
            key = (i0, i1, j0, j1)
            if key not in trimmed:
                trimmed[key] = _trim(occupied, *key)
            if trimmed[key] is not None:
                rects.append(trimmed[key] + (int(row_shift[i0]), int(shift[j0])))
    return np.array(rects, dtype=np.int64).reshape(-1, 6)


def _layer_blocks(tree: Tree, lattice: Lattice):
    """Children of one collapse layer as shifted rectangles.

    Returns (rects, starts): the rectangles of (action ai, atom m) are
    rects[starts[p]:starts[p + 1]] with p = ai * n_atoms + m.

    A node's statistic is a function of its time row and its state column,
    so each (action, atom) step is evaluated once per row (the time step
    and the ln-wealth increment) and once per (distinct increment, column),
    with the same float expressions as a per-node step: the child bins are
    those of the per-node step, and a map that is not a shift just yields
    more, smaller rectangles.
    """
    widths = tree.bin_widths
    occupied = lattice.occupied
    rows, t_rows = _axis(lattice, 0, widths[0])
    cols, lw_cols = _axis(lattice, 1, widths[1])
    static = _quantize(lw_cols, widths[1]) - cols    # column shift of rows that do not move
    blocks = [[None] * tree.n_atoms for _ in tree.cfg.action_grid]
    trimmed = {}
    for m, (child_rows, moves) in enumerate(_time_children(tree, t_rows)):
        dt, sign = float(tree.atoms.delta_t[m]), int(tree.atoms.signs[m])
        for ai, a in enumerate(tree.cfg.action_grid):
            inc = tree.ops.log_increment(t_rows, float(a), dt, sign)
            classes = np.where(moves, 0, -1)
            if np.ndim(inc) == 0:                    # constant coefficients
                values = [inc]
            else:
                values, classes[moves] = np.unique(inc[moves], return_inverse=True)
            col_shifts = [_quantize(lw_cols + v, widths[1]) - cols for v in values]
            blocks[ai][m] = _rectangles(occupied, trimmed, child_rows - rows,
                                        classes, col_shifts + [static])
    parts = [r for per_atom in blocks for r in per_atom]
    return np.concatenate(parts), np.cumsum([0] + [len(r) for r in parts]).tolist()


def _targets(rects: np.ndarray):
    """First and past-last (row, column) of the rectangles' children,
    relative to the layer's box origin."""
    return rects[:, [0, 2]] + rects[:, 4:], rects[:, [1, 3]] + rects[:, 4:]


def _forward_layers(tree: Tree):
    """Enumerate reachable statistic bins layer by layer.

    Each (action, atom) rectangle of a layer ORs its populated cells,
    shifted, into the next layer's occupancy box; the populated cells in
    row-major order are the next layer.  Box corners that the node_key
    codec cannot encode are refused here, before any backward work.
    """
    cfg = tree.cfg
    widths = tree.bin_widths
    max_cells = 40 * cfg.node_cap
    root = _quantize(tree.ops.stat0()[None, :], widths)
    _pack(root)
    lattice = Lattice.over(root)
    tree.layers, tree.blocks = [lattice], []
    for depth in range(cfg.depth):
        n = len(lattice.bins)
        if n * len(cfg.action_grid) * tree.n_atoms > max_cells:
            raise ResourceCapError(
                f"collapse layer {depth} expansion too large",
                estimate=n * len(cfg.action_grid) * tree.n_atoms)
        rects, starts = _layer_blocks(tree, lattice)
        first, stop = _targets(rects)
        lo = lattice.origin + first.min(axis=0)
        shape = tuple(int(e) for e in lattice.origin + stop.max(axis=0) - lo)
        _pack(np.array([lo, lo + shape - 1]))
        if math.prod(shape) > max_cells:
            raise ResourceCapError("collapse layer bin box too large",
                                   estimate=math.prod(shape))
        source = lattice.occupied
        occupied = np.zeros(shape, dtype=bool)
        di, dj = (lattice.origin - lo).tolist()
        for i0, i1, j0, j1, dr, dc in rects.tolist():
            occupied[i0 + dr + di:i1 + dr + di, j0 + dc + dj:j1 + dc + dj] |= \
                source[i0:i1, j0:j1]
        cells = np.flatnonzero(occupied)
        if len(cells) > cfg.node_cap:
            raise ResourceCapError(f"collapse layer {depth + 1} exceeds node cap",
                                   estimate=len(cells))
        lattice = Lattice.over(np.column_stack(np.unravel_index(cells, shape)) + lo)
        tree.layers.append(lattice)
        tree.blocks.append((rects, starts))


def _grid_stage_values(tree: Tree, depth: int, next_values: np.ndarray):
    """Best grid action of every node of a layer: (best_idx, best_val).

    sum_atoms w * V_{n+1}(child) of each grid action comes from the
    layer's rectangles, each adding its weighted, shifted block of the next
    layer's value box into a box accumulator, atom by atom.  Actions are
    compared in grid order by a strict >, so ties go to the smallest
    index, and only the running best is kept.  A rectangle that leaves the
    next box, or a node whose child cell is empty (NaN in the value box),
    is a forward/backward inconsistency.
    """
    lattice, nxt = tree.layers[depth], tree.layers[depth + 1]
    rects, starts = tree.blocks[depth]
    v_box = np.full(nxt.rank.shape, np.nan)
    v_box[nxt.cells] = next_values
    v_box = v_box.reshape(nxt.shape)
    offset = lattice.origin - nxt.origin
    first, stop = _targets(rects)
    if np.any(first + offset < 0) or np.any(stop + offset > nxt.shape):
        raise NumericalError("forward/backward bin mismatch on a grid action")
    di, dj = offset.tolist()
    rows = rects.tolist()
    cells = lattice.cells
    best_idx = np.zeros(len(cells), dtype=np.int64)
    acc = np.empty(lattice.shape)
    for ai in range(len(tree.cfg.action_grid)):
        acc.fill(0.0)
        for m, w in enumerate(tree.atoms.weights):
            p = ai * tree.n_atoms + m
            for i0, i1, j0, j1, dr, dc in rows[starts[p]:starts[p + 1]]:
                acc[i0:i1, j0:j1] += w * v_box[i0 + dr + di:i1 + dr + di,
                                               j0 + dc + dj:j1 + dc + dj]
        stage = acc.reshape(-1)[cells]
        if np.isnan(stage.min()):                    # min propagates NaN
            raise NumericalError("forward/backward bin mismatch on a grid action")
        if ai == 0:
            best_val = stage
            continue
        better = stage > best_val
        best_val[better] = stage[better]
        best_idx[better] = ai
    return best_idx, best_val


def _node_probe(tree: Tree, depth: int):
    """Per-node inputs of probes at arbitrary actions, shared by every
    probe of the layer: the next layer, elapsed time, ln wealth, time row,
    and per atom the time rows' child bins, each node's moves mask and the
    flat next-box cell of its child's time row at wealth column 0.

    Time does not depend on the action, and every grid action's child rows
    are on the next layer, so a child row off the next box is a
    forward/backward inconsistency.
    """
    lattice, nxt = tree.layers[depth], tree.layers[depth + 1]
    reps = _reps(lattice.bins, tree.bin_widths)
    rows = lattice.bins[:, 0] - lattice.origin[0]
    _, t_rows = _axis(lattice, 0, tree.bin_widths[0])
    (o0, o1), (n0, n1) = nxt.origin.tolist(), nxt.shape
    atoms = []
    for child_rows, moves in _time_children(tree, t_rows):
        tb = child_rows[rows]
        if np.any((tb < o0) | (tb >= o0 + n0)):
            raise NumericalError("forward/backward bin mismatch: a child time "
                                 "row is off the next layer")
        atoms.append((child_rows, moves[rows], (tb - o0) * n1 - o1))
    return nxt, reps[:, 0], reps[:, 1], rows, atoms


def _probe_stage_values(tree: Tree, probe, action, next_values: np.ndarray,
                        allow_miss: bool) -> np.ndarray:
    """sum_atoms w * V_{n+1}(child) for one action per node (or a scalar).

    Each atom is one quantize, one clip of the wealth bin to the next
    box's columns and one `rank` gather.  Off-grid probes (refinement,
    residual checks at recorded actions) project children that miss the
    next layer to the nearest populated bin; at a grid action a miss is
    an internal inconsistency.
    """
    lattice, t, lw, rows, atoms = probe
    rates = tree.ops.rates(t, action)
    o1, n1 = int(lattice.origin[1]), lattice.shape[1]
    acc = np.zeros(len(t))
    for m, (child_rows, moves, base) in enumerate(atoms):
        inc = tree.ops.increment(rates, float(tree.atoms.delta_t[m]),
                                 int(tree.atoms.signs[m]))
        wb = _quantize(np.where(moves, lw + inc, lw), tree.bin_widths[1])
        col = np.clip(wb, o1, o1 + n1 - 1)
        idx = lattice.rank[base + col]
        miss = (idx < 0) | (col != wb)
        if miss.any():
            if not allow_miss:
                raise NumericalError(
                    "forward/backward bin mismatch on a grid action")
            idx[miss] = nearest_bin_index(lattice, np.column_stack(
                [child_rows[rows[miss]], wb[miss]]))
        acc += tree.atoms.weights[m] * next_values[idx]
    return acc


# ---------------------------------------------------------------------------
# backward recursion
# ---------------------------------------------------------------------------

def backward_dp(tree: Tree) -> SolveResult:
    if tree.cfg.collapse:
        return _backward_collapse(tree)
    return _backward_full(tree)


def _backward_full(tree: Tree) -> SolveResult:
    """The full-tree recursion over node-range blocks (module docstring)."""
    cfg = tree.cfg
    structure = tree.structure
    grid, atoms = cfg.action_grid, tree.atoms
    n_a, n_m = len(grid), len(atoms)
    fan = n_a * n_m
    values = [np.empty(fan**n) for n in range(cfg.depth + 1)]
    policy = [np.empty(fan**n) for n in range(cfg.depth)]
    per_step = max(1, _BLOCK // fan)
    # the step arguments (action, delta_t, coord, sign) of the children
    # (ai, m) of one node, in child order
    steps = [np.repeat(grid, n_m)] + [np.tile(x, n_a)
                                      for x in (atoms.delta_t, atoms.coords, atoms.signs)]

    def solve(depth, i0, block):
        """Values (and actions) of the nodes [i0, i0 + len(block)) of a depth."""
        if depth == cfg.depth:
            v = payoff_of(structure, tree.payoff, block)
            bad = np.flatnonzero(~np.isfinite(v))
            if len(bad):
                raise NumericalError(f"payoff is not finite at leaf {i0 + bad[0]}")
            values[depth][i0:i0 + len(v)] = v
            return
        for p0 in range(0, len(block), per_step):
            parents = block.rows(slice(p0, p0 + per_step))
            k = len(parents)
            c0 = (i0 + p0) * fan
            solve(depth + 1, c0, structure.step(parents, *(np.tile(x, k) for x in steps)))
            child = values[depth + 1][c0:c0 + k * fan].reshape(k, n_a, n_m)
            acc = 0.0
            for m in range(n_m):
                acc = acc + atoms.weights[m] * child[:, :, m]
            best = np.argmax(acc, axis=1)           # ties: smallest grid index
            values[depth][i0 + p0:i0 + p0 + k] = acc[np.arange(k), best]
            policy[depth][i0 + p0:i0 + p0 + k] = grid[best]

    solve(0, 0, structure.init())
    return _solve_result(tree, values, policy, 0.0)


def _backward_collapse(tree: Tree) -> SolveResult:
    cfg = tree.cfg
    grid = cfg.action_grid
    vals = tree.ops.payoff_stats(_reps(tree.layers[cfg.depth].bins, tree.bin_widths))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("payoff not finite on a terminal bin")
    value_layers = [None] * (cfg.depth + 1)
    policy_layers = [None] * cfg.depth
    value_layers[cfg.depth] = vals
    refined_gain_max = 0.0

    for depth in range(cfg.depth - 1, -1, -1):
        next_values = value_layers[depth + 1]
        best_idx, best_val = _grid_stage_values(tree, depth, next_values)
        best_act = grid[best_idx]
        if cfg.refine and len(grid) > 1:
            h = cfg.grid_spacing
            lo = np.maximum(best_act - h, grid[0])
            hi = np.minimum(best_act + h, grid[-1])
            probe = _node_probe(tree, depth)
            ref_act, ref_val = _golden_refine(
                lambda act: _probe_stage_values(tree, probe, act, next_values,
                                                allow_miss=True),
                lo, hi)
            take = ref_val > best_val
            refined_gain_max = max(refined_gain_max,
                                   float(np.max(ref_val - best_val, initial=0.0)))
            best_val = np.where(take, ref_val, best_val)
            best_act = np.where(take, ref_act, best_act)
        value_layers[depth] = best_val
        policy_layers[depth] = best_act

    return _solve_result(tree, value_layers, policy_layers, refined_gain_max)


def _solve_result(tree: Tree, values: list, policy: list,
                  refined_gain_max: float) -> SolveResult:
    """Value and policy layers with the report read off them."""
    report = SolveReport(
        root_value=float(values[0][0]),
        root_action=float(policy[0][0]) if policy else math.nan,
        refined_gain_max=refined_gain_max,
        node_counts=[len(v) for v in values],
        depth=tree.cfg.depth, Q=tree.cfg.Q, eps_k=tree.eps_k)
    return SolveResult(ValueTable(values), Policy(policy), report)


def _golden_refine(stage_fn, lo: np.ndarray, hi: np.ndarray):
    """Vectorized golden-section max of the stage map on per-node intervals,
    _REFINE_ITERS steps."""
    a, b = lo.copy(), hi.copy()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = stage_fn(x1)
    f2 = stage_fn(x2)
    for _ in range(_REFINE_ITERS):
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

def hamiltonian(tree: Tree, values: ValueTable, depth: int, action_idx: int,
                action_value: float | np.ndarray | None = None) -> np.ndarray:
    """U V over layer `depth` at one action, in node order: per node the
    kernel-averaged forward difference over eps^2.

    Full mode reads node i's children (i * A + ai) * M + m of the next
    layer.  In collapse mode action_value, a scalar or one action per node,
    replaces the grid action, and its children may miss the next layer;
    it must lie in [action_grid[0], action_grid[-1]].  A full tree has no
    such probe and refuses it.
    """
    if not 0 <= depth < tree.cfg.depth:
        raise ConfigurationError(f"depth {depth} is not a layer with children "
                                 f"(tree depth {tree.cfg.depth})")
    own = values.layers[depth]
    if not tree.cfg.collapse:
        if action_value is not None:
            raise ConfigurationError("a full tree has only grid actions")
        child = values.layers[depth + 1].reshape(
            len(own), len(tree.cfg.action_grid), tree.n_atoms)[:, action_idx]
        acc = 0.0
        for m, w in enumerate(tree.atoms.weights):
            acc = acc + w * child[:, m]
        return (acc - own) / tree.eps_k**2
    grid = tree.cfg.action_grid
    a = float(grid[action_idx]) if action_value is None else action_value
    if not np.all((grid[0] <= np.asarray(a)) & (np.asarray(a) <= grid[-1])):
        raise ConfigurationError(f"action_value must be finite and in "
                                 f"[{grid[0]}, {grid[-1]}]")
    stage = _probe_stage_values(tree, _node_probe(tree, depth), a,
                                values.layers[depth + 1],
                                allow_miss=action_value is not None)
    return (stage - own) / tree.eps_k**2


# ---------------------------------------------------------------------------
# policy extraction
# ---------------------------------------------------------------------------

def nearest_bin_index(lattice: Lattice, query_bins: np.ndarray) -> np.ndarray:
    """Node index of the populated bin closest to each (M, k) query row.

    The one nearest-bin rule of a collapse tree, for solver probes and
    policy lookups alike.  A query bin on the layer returns its own node.
    A miss goes to the nearest populated time row, the earlier one on
    ties; within that row it takes the query's node-order predecessor or
    successor, whichever is nearer in L1 state distance, the predecessor
    on ties.  With one state component that is the row's nearest bin.
    """
    idx = lattice.locate(query_bins)
    miss = np.flatnonzero(idx < 0)
    if len(miss) == 0:
        return idx
    q = query_bins[miss]
    t0, row_cells = lattice.origin[0], math.prod(lattice.shape[1:])

    def row_start(rows):         # first node at or after each box row
        return np.searchsorted(lattice.cells, (rows - t0) * row_cells)

    # the box's first and last rows are populated, so `after` is a node
    after = row_start(np.clip(q[:, 0], t0, t0 + lattice.shape[0] - 1))
    succ_row = lattice.bins[after, 0]
    pred_row = lattice.bins[np.maximum(after - 1, 0), 0]
    row = np.where(q[:, 0] - pred_row <= succ_row - q[:, 0], pred_row, succ_row)
    target = np.clip(q, lattice.origin, lattice.origin + lattice.shape - 1)
    target[:, 0] = row
    at = np.searchsorted(lattice.cells, _cells(target, lattice.origin, lattice.shape))
    first, last = row_start(row), row_start(row + 1) - 1
    pred = np.clip(at - 1, first, last)
    succ = np.clip(at, first, last)
    d_pred = np.abs(lattice.bins[pred, 1:] - q[:, 1:]).sum(axis=1)
    d_succ = np.abs(lattice.bins[succ, 1:] - q[:, 1:]).sum(axis=1)
    idx[miss] = np.where(d_pred <= d_succ, pred, succ)
    return idx


def extract_policy_control(result: SolveResult, tree: Tree,
                           path: SkeletonPath) -> np.ndarray:
    """Step-by-step actions of a full tree along realized skeleton paths.

    Each realized delta_t snaps to the nearest kernel atom m of the same
    (coord, sign), and the walk goes to child (i * A + ai) * M + m, ai the
    first grid index of the recorded action (full trees never refine).  A
    block of paths is walked at once and gives (paths, steps) actions, one
    path (steps,).  Collapsed policies are read by the rollouts in
    `evaluate`.
    """
    if tree.cfg.collapse:
        raise ConfigurationError("extract_policy_control needs a full tree; "
                                 "collapsed policies are read by the rollouts")
    grid, atoms = tree.cfg.action_grid, tree.atoms
    depth = min(tree.cfg.depth, len(path))
    dts, coords, signs = (np.atleast_2d(x)[:, :depth]
                          for x in (path.delta_t, path.coords, path.signs))
    actions = np.empty(dts.shape)
    i = np.zeros(len(dts), dtype=np.int64)
    for n in range(depth):
        actions[:, n] = result.policy.layers[n][i]
        ai = np.argmax(grid == actions[:, n, None], axis=1)
        same = (atoms.coords == coords[:, n, None]) & (atoms.signs == signs[:, n, None])
        if not same.any(axis=1).all():
            raise ConfigurationError(f"a step {n} (coord, sign) has no kernel atom")
        dist = np.where(same, np.abs(atoms.delta_t - dts[:, n, None]), np.inf)
        i = (i * len(grid) + ai) * tree.n_atoms + np.argmin(dist, axis=1)
    return actions if path.delta_t.ndim == 2 else actions[0]
