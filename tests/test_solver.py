import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeldp import solver
from skeldp.evaluate import rollout
from skeldp.errors import ConfigurationError, NumericalError, ResourceCapError
from skeldp.kernel import discretize_kernel
from skeldp.skeleton import SkeletonConfig, SkeletonPath, sample_skeleton
from skeldp.solver import (Policy, SolveConfig, ValueTable, backward_dp,
                           build_tree, extract_policy_control, hamiltonian)
from skeldp.structures import (CaseAStructure, PathView, PdSdeSpec,
                               PortfolioSpec, PortfolioStructure,
                               power_utility_payoff)


def pstruct(eps=1.0 / 3, **kw):
    base = dict(r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0,
                horizon_T=1.0)
    base.update(kw)
    spec = PortfolioSpec(**base)
    return PortfolioStructure(spec, eps), power_utility_payoff(spec)


def test_leaf_count_example():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=3, Q=2)
    res = backward_dp(build_tree(struct, payoff, 1.0 / 3, cfg))
    assert res.report.node_counts[3] == (2 * 2 * 3) ** 3 == 1728


def test_depth_zero_value_is_payoff_of_empty_path():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.array([0.0]), depth=0, Q=2)
    res = backward_dp(build_tree(struct, payoff, 1.0 / 3, cfg))
    assert res.report.root_value == pytest.approx(1.0 / 0.5, rel=1e-14)  # x0^g/g


def test_constant_payoff_constant_value_and_tiebreak():
    struct, _ = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=3, Q=2)
    res = backward_dp(build_tree(struct, lambda path: np.full(len(path), 4.25),
                                 1.0 / 3, cfg))
    for layer in res.values.layers:
        assert all(v == 4.25 for v in layer)
    # every action ties; the smallest grid index must win everywhere
    for layer in res.policy.layers:
        assert all(v == -1.0 for v in layer)


def test_monotone_in_payoff():
    struct, _ = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2)
    xi1 = lambda path: np.array([math.tanh(x) for x in path(1.0)[:, 0]])  # noqa: E731
    xi2 = lambda path: xi1(path) + 0.3                 # noqa: E731
    r1 = backward_dp(build_tree(struct, xi1, 1.0 / 3, cfg))
    r2 = backward_dp(build_tree(struct, xi2, 1.0 / 3, cfg))
    assert r1.report.root_value <= r2.report.root_value


def test_supermartingale_and_boundedness():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=3, Q=2)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    leaf_sup = max(abs(v) for v in res.values.layers[-1])
    for depth in range(cfg.depth):
        assert np.all(np.abs(res.values.layers[depth]) <= leaf_sup + 1e-12)
        on_grid = cfg.action_grid == res.policy.layers[depth][:, None]
        assert np.all(on_grid.any(axis=1))
        best_ai = np.argmax(on_grid, axis=1)
        for ai in range(len(cfg.action_grid)):
            u = hamiltonian(tree, res.values, depth, ai)
            assert u.shape == res.values.layers[depth].shape
            assert np.all(u <= 1e-10 / tree.eps_k**2)
            assert np.all(np.abs(u[best_ai == ai]) <= 1e-10 / tree.eps_k**2)


def test_hamiltonian_of_constant_functional_is_zero():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    const = ValueTable([np.ones(len(layer)) for layer in res.values.layers])
    u = hamiltonian(tree, const, 1, 0)
    assert len(u) == len(res.values.layers[1]) and np.all(u == 0.0)


def test_hamiltonian_refuses_off_grid_actions_on_a_full_tree():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    with pytest.raises(ConfigurationError, match="full tree"):
        hamiltonian(tree, res.values, 0, 0, action_value=0.0)


@pytest.mark.parametrize("bad", [5.0, np.nan], ids=["outside", "nan"])
def test_hamiltonian_refuses_actions_off_the_grid_range(bad):
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2, collapse=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    per_node = np.zeros(len(res.values.layers[1]))
    per_node[-1] = bad
    for action in (bad, per_node):
        with pytest.raises(ConfigurationError, match="action_value"):
            hamiltonian(tree, res.values, 1, 0, action_value=action)


@pytest.mark.parametrize("collapse", [False, True])
def test_hamiltonian_refuses_layers_without_children(collapse):
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2,
                      collapse=collapse)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    for depth in (-1, cfg.depth):
        with pytest.raises(ConfigurationError, match="not a layer"):
            hamiltonian(tree, res.values, depth, 0)


def test_hamiltonian_takes_one_action_per_node():
    """Per-node actions give each node the entry of its own action's layer
    call; grid actions as per-node actions give the grid call's bits."""
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=3, Q=2, collapse=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    for d in range(cfg.depth):
        n = len(res.values.layers[d])
        pick = np.arange(n) % len(cfg.action_grid)
        mixed = hamiltonian(tree, res.values, d, 0, action_value=cfg.action_grid[pick])
        per_action = np.array([hamiltonian(tree, res.values, d, ai)
                               for ai in range(len(cfg.action_grid))])
        assert np.array_equal(mixed, per_action[pick, np.arange(n)])
        off = np.linspace(-0.9, 0.9, n)
        assert np.array_equal(
            hamiltonian(tree, res.values, d, 0, action_value=off),
            [hamiltonian(tree, res.values, d, 0, action_value=float(a))[i]
             for i, a in enumerate(off)])


def test_collapse_agrees_with_full_on_small_instance():
    struct, payoff = pstruct()
    grid = np.linspace(-1, 1, 5)
    full = backward_dp(build_tree(struct, payoff, 1.0 / 3,
                                  SolveConfig(grid, depth=3, Q=2)))
    col = backward_dp(build_tree(struct, payoff, 1.0 / 3,
                                 SolveConfig(grid, depth=3, Q=2, collapse=True)))
    # binning at 1e-3 relative wealth: roots agree to ~gamma * bin width
    assert col.report.root_value == pytest.approx(full.report.root_value, abs=2e-3)
    # layer sizes are bounded by populated bins, not by branching^depth
    branching = 2 * 2 * len(grid)
    for n in range(4):
        assert full.report.node_counts[n] == branching**n
        assert col.report.node_counts[n] <= full.report.node_counts[n]
    assert col.report.node_counts[3] < branching**3 / 10


def test_determinism_exact():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 7), depth=4, Q=2,
                      collapse=True, refine=True)
    t1 = build_tree(struct, payoff, 1.0 / 3, cfg)
    t2 = build_tree(struct, payoff, 1.0 / 3, cfg)
    r1, r2 = backward_dp(t1), backward_dp(t2)
    for b1, b2, l1, l2 in zip(t1.layers, t2.layers, r1.values.layers, r2.values.layers):
        assert np.array_equal(b1.bins, b2.bins)
        assert np.array_equal(l1, l2)
    for p1, p2 in zip(r1.policy.layers, r2.policy.layers):
        assert np.array_equal(p1, p2)


def test_refinement_never_hurts():
    struct, payoff = pstruct()
    grid = np.linspace(-1, 1, 9)
    plain = backward_dp(build_tree(struct, payoff, 1.0 / 3,
                                   SolveConfig(grid, depth=4, Q=2, collapse=True)))
    refined = backward_dp(build_tree(struct, payoff, 1.0 / 3,
                                     SolveConfig(grid, depth=4, Q=2, collapse=True,
                                                 refine=True)))
    assert refined.report.root_value >= plain.report.root_value - 1e-14
    assert refined.report.refined_gain_max >= 0.0


def test_extract_policy_depth_one_returns_root_action():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=1, Q=2)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    for seed in range(5):
        path = sample_skeleton(SkeletonConfig(1.0 / 3, 1, 1.0, 1), seed)
        acts = extract_policy_control(res, tree, path)
        assert acts[0] == res.report.root_action


def test_extract_policy_constant_coefficients_flat_per_depth():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 9), depth=4, Q=2,
                      collapse=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    # well inside the horizon every bin at a given depth picks one action
    for depth in range(cfg.depth):
        actions = np.unique(res.policy.layers[depth])
        assert len(actions) == 1
    # so reading the policy along a path gives that action at each depth
    def reader(depth, state, structure):
        stat = np.column_stack([state.t_clip, state.log_payoff_wealth])
        bins = solver._quantize(stat, tree.bin_widths)
        return res.policy.layers[depth][solver.nearest_bin_index(tree.layers[depth],
                                                                 bins)]

    path = sample_skeleton(SkeletonConfig(1.0 / 3, 1, 1.0, 4), 12)
    acts = rollout(struct, reader, path).actions
    assert np.array_equal(acts, [res.policy.layers[d][0] for d in range(4)])
    # extraction walks full trees only; collapsed policies are read by the
    # rollouts
    with pytest.raises(ConfigurationError, match="needs a full tree"):
        extract_policy_control(res, tree, path)


def test_node_cap_refusal():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 41), depth=9, Q=8,
                      node_cap=1000)
    with pytest.raises(ResourceCapError) as err:
        build_tree(struct, payoff, 1.0 / 3, cfg)
    assert err.value.estimate is not None and err.value.estimate > 1000


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SolveConfig(action_grid=np.array([]), depth=2)
    with pytest.raises(ConfigurationError):
        SolveConfig(action_grid=np.array([0.0]), depth=-1)
    for bad in (0.0, 10**400):
        with pytest.raises(ConfigurationError, match="epsilon_total must be finite and > 0"):
            SolveConfig(action_grid=np.array([0.0]), depth=2, epsilon_total=bad)


@pytest.mark.parametrize("grid", [[0.0, np.nan], [-np.inf, 0.0], [1.0, 0.0, -1.0],
                                  [-1.0, 0.0, 0.0, 1.0]],
                         ids=["nan", "inf", "descending", "duplicate"])
def test_config_refuses_grids_not_finite_and_increasing(grid):
    with pytest.raises(ConfigurationError, match="finite and strictly increasing"):
        SolveConfig(action_grid=np.array(grid), depth=2)


@pytest.mark.parametrize("collapse", [False, True])
def test_build_tree_refuses_actions_outside_a_bar(collapse):
    struct, payoff = pstruct(a_bar=0.5)
    with pytest.raises(ConfigurationError, match=r"leaves \[-0.5, 0.5\]"):
        build_tree(struct, payoff, 1.0 / 3, SolveConfig(
            np.array([-1.0, 1.0]), depth=2, Q=2, collapse=collapse))
    tree = build_tree(struct, payoff, 1.0 / 3, SolveConfig(
        np.array([-0.5, 0.5]), depth=2, Q=2, collapse=collapse))
    assert backward_dp(tree).report.root_action in (-0.5, 0.5)


def test_collapse_needs_statistic():
    spec = PdSdeSpec(drift=lambda t, p, a: np.zeros(1),
                     diffusion=lambda t, p, a: np.ones((1, 1)),
                     x0=np.array([0.0]))
    struct = CaseAStructure(spec, 0.5, horizon_T=1.0)
    cfg = SolveConfig(action_grid=np.array([0.0]), depth=2, Q=2, collapse=True)
    with pytest.raises(ConfigurationError):
        build_tree(struct, lambda path: np.zeros(len(path)), 0.5, cfg)


def test_collapse_refuses_a_payoff_it_does_not_compute():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2)
    zero = lambda path: np.zeros(len(path))            # noqa: E731
    assert backward_dp(build_tree(struct, zero, 1.0 / 3, cfg)).report.root_value == 0.0
    with pytest.raises(ConfigurationError, match="own payoff"):
        build_tree(struct, zero, 1.0 / 3, SolveConfig(
            cfg.action_grid, depth=2, Q=2, collapse=True))
    # at x0 = 7, x0**g / g is one ulp from exp(g ln x0) / g, and passes
    struct7 = PortfolioStructure(PortfolioSpec(
        r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=7.0), 1.0 / 3)
    build_tree(struct7, power_utility_payoff(struct7.spec), 1.0 / 3, SolveConfig(
        cfg.action_grid, depth=2, Q=2, collapse=True))


def test_two_dimensional_solve_end_to_end():
    """d=2 tree: lagged-kernel atoms drive a two-coordinate Euler structure
    through the DP, and the independent fold agrees."""
    import math as _math
    from skeldp.evaluate import enumerate_oracle
    eps = 0.5
    spec = PdSdeSpec(
        drift=lambda t, p, a: 0.2 * np.atleast_1d(a) * np.ones(1),
        diffusion=lambda t, p, a: np.array([[1.0, 0.5]]),
        x0=np.array([0.0]), d=2)
    struct = CaseAStructure(spec, eps, horizon_T=4.0)
    payoff = lambda path: np.array([_math.tanh(x) for x in path(4.0)[:, 0]])  # noqa: E731
    cfg = SolveConfig(action_grid=np.array([-1.0, 1.0]), depth=2, Q=2)
    tree = build_tree(struct, payoff, eps, cfg)
    # fresh-start d=2 kernel: 2 nodes x 2 coords x 2 signs
    assert tree.n_atoms == 8
    assert set(np.unique(tree.atoms.coords)) == {1, 2}
    res = backward_dp(tree)
    assert res.report.node_counts[2] == (2 * 8) ** 2
    assert enumerate_oracle(struct, payoff, tree) == pytest.approx(
        res.report.root_value, abs=1e-12)
    # policy extraction along a sampled 2-d path
    path = sample_skeleton(SkeletonConfig(eps, 2, 4.0, 2), 3)
    acts = extract_policy_control(res, tree, path)
    assert acts.shape == (2,)
    assert set(acts).issubset({-1.0, 1.0})


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dp_dominates_any_fixed_action_sequence(seed):
    rng = np.random.default_rng(seed)
    struct, payoff = pstruct()
    grid = np.linspace(-1, 1, 3)
    cfg = SolveConfig(action_grid=grid, depth=3, Q=2)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    seq = rng.choice(grid, size=3)

    def fold(state, depth):
        if depth == 3:
            return payoff(struct.payoff_input(state))[0]
        acc = 0.0
        for m in range(tree.n_atoms):
            child = struct.step(state, float(seq[depth]), float(tree.atoms.delta_t[m]),
                                tree.atoms.coords[m], tree.atoms.signs[m])
            acc += tree.atoms.weights[m] * fold(child, depth + 1)
        return acc

    assert fold(struct.init(), 0) <= res.report.root_value + 1e-12


def test_collapse_depth3_merton_pinned():
    """Depth-3 desk Merton collapse solve: root, layer sizes and every array."""
    struct, payoff = pstruct(a_bar=1.0)
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 41), depth=3, Q=8,
                      collapse=True, refine=True, node_cap=3_000_000)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    assert res.report.root_value == 2.012545351249231
    assert res.report.node_counts == [1, 476, 6332, 15970]
    digest = hashlib.sha256()
    for depth in range(cfg.depth + 1):
        digest.update(tree.layers[depth].bins.tobytes())
        digest.update(res.values.layers[depth].tobytes())
        if depth < cfg.depth:
            digest.update(res.policy.layers[depth].tobytes())
    # recorded over the bins on the last solver that also packed them into
    # node keys, which hashed the same solve as the packed-key solver this
    # lattice replaced
    assert digest.hexdigest() == (
        "b0aa3444e8843957a142b1659ddba59f00d831c517416a6a8aaf652b673468aa")


def _refined_solve_digest(spec, n_actions, depth):
    """Refined depth-`depth` collapse solve (eps 1/3, Q 8): its report and a
    sha256 over every layer's bins, values and policies plus
    refined_gain_max."""
    struct, payoff = PortfolioStructure(spec, 1.0 / 3), power_utility_payoff(spec)
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, n_actions), depth=depth,
                      Q=8, collapse=True, refine=True, node_cap=3_000_000)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    digest = hashlib.sha256()
    for d in range(depth + 1):
        digest.update(tree.layers[d].bins.tobytes())
        digest.update(res.values.layers[d].tobytes())
        if d < depth:
            digest.update(res.policy.layers[d].tobytes())
    digest.update(np.float64(res.report.refined_gain_max).tobytes())
    return res.report, digest.hexdigest()


@pytest.mark.parametrize("time_dependent, n_actions, depth, root, gain, expected", [
    (False, 41, 9, 2.0312575810199482, 0.00017815190302794548,
     "e37eb6a2cc9eafe8293181f29dd9922ccef5f01a821695b9053bbc9b164dd2bf"),
    (True, 41, 5, 2.024138124409933, 0.00010861985679389008,
     "210b17215f34b19c3f260ae1a16bbf1d04adf05aa7b5b7ed796e8d7df691848b"),
])
def test_refined_collapse_solve_pinned(time_dependent, n_actions, depth, root,
                                       gain, expected):
    """The depth-9 desk solve and a time-dependent one, every layer pinned."""
    spec = _time_dependent_spec() if time_dependent else PortfolioSpec(
        r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0, horizon_T=1.0)
    report, digest = _refined_solve_digest(spec, n_actions, depth)
    assert report.root_value == root
    assert report.refined_gain_max == gain
    # recorded over the bins on the last solver that also packed them into
    # node keys (same solve bits as the per-atom log_increment probes)
    assert digest == expected


def _brute_nearest(bins, q):
    """Reference miss rule: its own bin if populated, else the nearest
    populated time row, then the nearest state bin in that row, the
    earlier one on ties (a first minimum over rows and bins in order)."""
    same = np.flatnonzero(np.all(bins == q, axis=1))
    if len(same):
        return int(same[0])
    rows = np.unique(bins[:, 0])
    row = rows[np.argmin(np.abs(rows - q[0]))]
    in_row = np.flatnonzero(bins[:, 0] == row)
    return int(in_row[np.argmin(np.abs(bins[in_row, 1:] - q[1:]).sum(axis=1))])


def test_lattice_miss_rule_by_row_then_state():
    # rows of unequal extent, a hole with equidistant neighbours in row 1,
    # and an empty row 3 equidistant from rows 2 and 4
    bins = np.array([[0, 0], [0, 1], [1, -3], [1, 1], [2, -5], [4, 2]],
                    dtype=np.int64)
    lattice = solver.Lattice.over(bins, 2_000_000)
    states = list(range(-6, 6)) + [-2**30, 2**30 - 1]
    queries = np.array([[t, s] for t in range(-1, 6) for s in states],
                       dtype=np.int64)
    located = lattice.locate(queries)
    nearest = solver.nearest_bin_index(lattice, queries)
    for q, hit, near in zip(queries, located, nearest):
        on_layer = np.flatnonzero(np.all(bins == q, axis=1))
        assert hit == (on_layer[0] if len(on_layer) else -1)
        assert near == _brute_nearest(bins, q), q
    # left of the box in row 1 goes to row 1's first bin, right of it in
    # row 0 stays in row 0, the tie at (1, -1) goes to the lower bin, far
    # right in row 1 stays at row 1's last bin, and row 3 goes to row 2
    picks = solver.nearest_bin_index(lattice, np.array(
        [[1, -6], [0, 5], [1, -1], [1, 2**30 - 1], [3, 2], [-7, 9], [9, -9]]))
    assert [tuple(bins[i]) for i in picks] == [(1, -3), (0, 1), (1, -3), (1, 1),
                                               (2, -5), (0, 1), (4, 2)]
    # node order is lexicographic bin order, and bins out of it are refused
    with pytest.raises(ConfigurationError, match="lexicographic"):
        solver.Lattice.over(bins[::-1], 2_000_000)


def _nearest_queries(rng, bins):
    """Hits, near misses, rows between populated rows, and queries off the
    layer's box on every side."""
    lo, hi = bins.min(axis=0), bins.max(axis=0)
    pick = bins[rng.integers(0, len(bins), 300)]
    near = pick + rng.integers(-3, 4, pick.shape)
    between = pick.copy()
    between[:, 0] = rng.integers(lo[0], hi[0] + 1, len(pick))
    off = []
    for c in range(bins.shape[1]):
        for edge, sign in ((lo, -1), (hi, 1)):
            q = bins[rng.integers(0, len(bins), 60)].copy()
            q[:, c] = edge[c] + sign * rng.integers(1, 40, 60)
            off.append(q)
    return np.concatenate([pick, near, between, bins[:3], bins[-3:],
                           bins[:3] - 1, bins[-3:] + 1] + off)


def test_nearest_bin_index_matches_brute_force_rule():
    rng = np.random.default_rng(17)
    struct, payoff = pstruct()
    tree = build_tree(struct, payoff, 1.0 / 3, SolveConfig(
        action_grid=np.linspace(-1, 1, 9), depth=4, Q=2, collapse=True))
    layers = [lat.bins for lat in tree.layers]
    assert len(layers[0]) == 1                          # the one-node root layer
    # a layer whose box has empty time rows; row 6 is equidistant from 3 and 9
    sparse = np.unique(np.column_stack([rng.choice([-4, -1, 0, 3, 9], 80),
                                        rng.integers(-8, 9, 80)]), axis=0)
    layers.append(sparse)
    counts = dict.fromkeys(["hit", "populated row", "empty row", "row tie",
                            "state tie", "off box"], 0)
    for bins in layers:
        queries = _nearest_queries(rng, bins)
        queries = np.concatenate([queries, [[-2, 0], [6, -3], [6, 20]]])
        got = solver.nearest_bin_index(solver.Lattice.over(bins, 2_000_000), queries)
        assert got.shape == (len(queries),)
        rows = np.unique(bins[:, 0])
        for q, i in zip(queries, got):
            assert i == _brute_nearest(bins, q), q
            dt = np.abs(rows - q[0])
            in_row = bins[bins[:, 0] == bins[i, 0], 1]
            ds = np.abs(in_row - q[1])
            counts["hit"] += bool(np.all(bins[i] == q))
            counts["populated row"] += dt.min() == 0 and ds.min() > 0
            counts["empty row"] += dt.min() > 0
            counts["row tie"] += np.sum(dt == dt.min()) > 1
            counts["state tie"] += np.sum(ds == ds.min()) > 1
            counts["off box"] += bool(np.any(q < bins.min(axis=0))
                                      or np.any(q > bins.max(axis=0)))
    assert min(counts.values()) > 0, counts


def _time_dependent_spec():
    return PortfolioSpec(r=0.03, alpha_k=lambda t: 0.05 + 0.02 * np.cos(3.0 * t),
                         sigma_k=lambda t: 0.3 + 0.05 * np.sin(2.0 * t),
                         gamma_util=0.5, x0=1.0, horizon_T=1.0)


@pytest.mark.parametrize("time_dependent, depth", [(False, 6), (True, 4)])
def test_hamiltonian_vanishes_exactly_at_the_recorded_policy(time_dependent, depth):
    """U V at each node's recorded action is 0.0 on every layer of a refined
    solve: the grid pass, golden refinement and hamiltonian's probe form
    the same sums bit for bit."""
    spec = _time_dependent_spec() if time_dependent else PortfolioSpec(
        r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0, horizon_T=1.0)
    struct, payoff = PortfolioStructure(spec, 1.0 / 3), power_utility_payoff(spec)
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 41), depth=depth, Q=8,
                      collapse=True, refine=True, node_cap=3_000_000)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    assert res.report.refined_gain_max > 0.0
    for d in range(depth):
        policy = res.policy.layers[d]
        u = hamiltonian(tree, res.values, d, 0, action_value=policy)
        assert np.all(u == 0.0), d
    # both the grid actions and the refined ones are recorded somewhere
    on_grid = np.isin(np.concatenate(res.policy.layers), cfg.action_grid)
    assert on_grid.any() and not on_grid.all()


def _crafted_tree(struct, payoff, eps, cfg, real, rows, cols):
    """The tree `real` with layer 2 replaced by the box rows x cols."""
    bins = np.array([(r, c) for r in rows for c in cols])
    return solver._setup_tree(struct, payoff, eps, cfg, node_bins=[
        real.layers[0].bins, real.layers[1].bins, bins]), bins


@pytest.mark.parametrize("layer", ["band", "holes"])
def test_probe_misses_take_the_nearest_populated_bin(layer):
    """Children on an empty cell, past the next box's last column and before
    its first read the nearest populated bin's value, as a per-node
    step_stats + _brute_nearest reference does, bit for bit.

    Layer 2 keeps every time row with every third column empty, over the
    middle third of its columns ("band") or over all of them and two more
    on each side, so that only empty cells are missed ("holes")."""
    struct, payoff = pstruct()
    eps = 1.0 / 3
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=2, Q=2, collapse=True)
    real = build_tree(struct, payoff, eps, cfg)
    rows, cols = np.unique(real.layers[2].bins[:, 0]), real.layers[2].bins[:, 1]
    third = (cols.max() - cols.min()) // 3
    lo, hi = ((cols.min() + third, cols.max() - third) if layer == "band"
              else (cols.min() - 2, cols.max() + 2))
    band = [c for c in range(lo, hi + 1) if c % 3 != 1]
    tree, crafted = _crafted_tree(struct, payoff, eps, cfg, real, rows, band)
    rng = np.random.default_rng(29)
    values = ValueTable([np.zeros(len(real.layers[0].bins)),
                         np.zeros(len(real.layers[1].bins)),
                         rng.normal(size=len(crafted))])
    reps = solver._reps(tree.layers[1].bins, tree.bin_widths)
    n = len(reps)
    probe = solver._node_probe(tree, 1, values.layers[2])
    kinds = dict.fromkeys(["hit", "empty cell", "past last", "before first"], 0)
    for action in [np.linspace(-1, 1, n), rng.uniform(-1, 1, n), 0.95, -1.0]:
        want = np.zeros(n)
        for m in range(tree.n_atoms):
            child = solver._quantize(tree.ops.step_stats(
                reps, action, float(tree.atoms.delta_t[m]), int(tree.atoms.signs[m])),
                tree.bin_widths)
            idx = [_brute_nearest(crafted, q) for q in child]
            want += tree.atoms.weights[m] * values.layers[2][idx]
            col = child[:, 1]
            kinds["hit"] += np.sum(tree.layers[2].locate(child) >= 0)
            kinds["empty cell"] += np.sum((lo <= col) & (col <= hi) & (col % 3 == 1))
            kinds["past last"] += np.sum(col > hi)
            kinds["before first"] += np.sum(col < lo)
        got = solver._probe_stage_values(tree, probe, action, allow_miss=True)
        assert np.array_equal(got, want)
        assert np.array_equal(
            hamiltonian(tree, values, 1, 0, action_value=action),
            (want - values.layers[1]) / tree.eps_k**2)
    off_box = kinds["past last"] + kinds["before first"]
    assert kinds["hit"] > 0 and kinds["empty cell"] > 0, kinds
    assert min(kinds.values()) > 0 if layer == "band" else off_box == 0, kinds
    # a grid action's child off the box is a miss even where the clipped
    # column is populated, as in the band without its empty columns
    no_holes, _ = _crafted_tree(struct, payoff, eps, cfg, real, rows, range(lo, hi + 1))
    for t in (tree, no_holes) if layer == "band" else (tree,):
        grid_values = ValueTable(values.layers[:2] + [np.ones(len(t.layers[2].bins))])
        for ai in (0, 4):
            with pytest.raises(NumericalError, match="mismatch on a grid action"):
                hamiltonian(t, grid_values, 1, ai)


@pytest.mark.parametrize("time_dependent", [False, True])
def test_solver_probe_misses_land_on_populated_rows(time_dependent, monkeypatch):
    """Refinement probes and off-grid hamiltonian probes never query a time
    row that the next layer lacks."""
    spec = _time_dependent_spec() if time_dependent else PortfolioSpec(
        r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0, horizon_T=1.0)
    struct, payoff = PortfolioStructure(spec, 1.0 / 3), power_utility_payoff(spec)
    misses = []
    lookup = solver.nearest_bin_index

    def spy(lattice, queries):
        assert np.all(lattice.locate(queries) < 0)
        assert np.all(np.isin(queries[:, 0], lattice.bins[:, 0])), queries
        misses.append(len(queries))
        return lookup(lattice, queries)

    monkeypatch.setattr(solver, "nearest_bin_index", spy)
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=3, Q=2,
                      collapse=True, refine=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    solve_calls = len(misses)
    for d in range(cfg.depth):
        hamiltonian(tree, res.values, d, 0, action_value=0.37)
    assert sum(misses[:solve_calls]) > 0 and sum(misses[solve_calls:]) > 0


def _per_node_reference(struct, eps, cfg):
    """Collapse DP with every child from a per-node step_stats + _quantize.

    Layers are the distinct child bins in lexicographic order (np.unique);
    children are found by a joint np.unique with the layer, and refinement
    probes that miss fall back to _brute_nearest.  Returns per-depth
    (bins, values, policy).
    """
    ops = struct.collapse_ops()
    widths = np.array([eps**2 / 4.0, ops.bin_width])
    atoms = discretize_kernel(np.zeros(1), eps, cfg.Q)
    grid = cfg.action_grid

    def children(reps, a, m):
        return solver._quantize(ops.step_stats(reps, a, float(atoms.delta_t[m]),
                                               int(atoms.signs[m])), widths)

    def find(layer, child):
        """Index of each child bin in the layer, -1 where it is absent: numpy
        orders complex numbers by real then imaginary part, which is the
        lexicographic order of (time bin, wealth bin)."""
        keys, key = layer @ [1, 1j], child @ [1, 1j]
        idx = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where(keys[idx] == key, idx, -1)

    bins = [solver._quantize(ops.stat0()[None, :], widths)]
    for _ in range(cfg.depth):
        reps = solver._reps(bins[-1], widths)
        kids = [children(reps, float(a), m) for a in grid for m in range(len(atoms))]
        bins.append(np.unique(np.concatenate(kids), axis=0))
    values = [None] * (cfg.depth + 1)
    policy = [None] * cfg.depth
    values[-1] = ops.payoff_stats(solver._reps(bins[-1], widths))
    for d in range(cfg.depth - 1, -1, -1):
        reps = solver._reps(bins[d], widths)

        def stage(a, grid_action):
            acc = np.zeros(len(reps))
            for m in range(len(atoms)):
                child = children(reps, a, m)
                idx = find(bins[d + 1], child)
                miss = idx < 0
                assert not (grid_action and miss.any())
                idx[miss] = [_brute_nearest(bins[d + 1], q) for q in child[miss]]
                acc += atoms.weights[m] * values[d + 1][idx]
            return acc

        table = np.array([stage(float(a), True) for a in grid])
        best = np.argmax(table, axis=0)
        val, act = table[best, np.arange(len(reps))], grid[best]
        if cfg.refine:
            h = cfg.grid_spacing
            ref_act, ref_val = solver._golden_refine(
                lambda a: stage(a, False), np.maximum(act - h, grid[0]),
                np.minimum(act + h, grid[-1]))
            val, act = (np.where(ref_val > val, ref_val, val),
                        np.where(ref_val > val, ref_act, act))
        values[d], policy[d] = val, act
    return bins, values, policy


def test_collapse_matches_per_node_reference_time_dependent(monkeypatch):
    """Rows with several increment classes still give the per-node bins."""
    monkeypatch.setattr(solver, "_REFINE_ITERS", 6)     # keeps the per-node reference fast
    spec = _time_dependent_spec()
    struct, payoff = PortfolioStructure(spec, 1.0 / 3), power_utility_payoff(spec)
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 9), depth=3, Q=4,
                      collapse=True, refine=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    bins, values, policy = _per_node_reference(struct, 1.0 / 3, cfg)
    for d in range(cfg.depth + 1):
        assert np.array_equal(tree.layers[d].bins, bins[d])
        assert np.array_equal(res.values.layers[d], values[d])
        if d < cfg.depth:
            assert np.array_equal(res.policy.layers[d], policy[d])
    # the layer's time rows carry more than one ln-wealth increment
    t_rows = np.unique(solver._reps(tree.layers[2].bins, tree.bin_widths)[:, 0])
    incs = struct.collapse_ops().log_increment(t_rows, 0.5, 0.1, 1)
    assert len(np.unique(incs[t_rows < 1.0])) > 1


def _covered_children(occupied, rects):
    """(row, column) box of the child cell of every populated cell the
    rectangles cover, -1 elsewhere, asserting that each populated cell is
    covered exactly once and that every rectangle edge row and column is
    populated (the rectangles are trimmed)."""
    count = np.zeros(occupied.shape, dtype=np.int64)
    child = np.full((2,) + occupied.shape, -1)
    grid = np.indices(occupied.shape)
    for i0, i1, j0, j1, dr, dc in rects.tolist():
        block = occupied[i0:i1, j0:j1]
        assert block[0].any() and block[-1].any()
        assert block[:, 0].any() and block[:, -1].any()
        count[i0:i1, j0:j1] += block
        for out, at, shift in zip(child, grid, (dr, dc)):
            out[i0:i1, j0:j1][block] = at[i0:i1, j0:j1][block] + shift
    assert np.array_equal(count, occupied)
    return child


def test_rectangles_cover_a_non_shift_map_exactly():
    rng = np.random.default_rng(3)
    occupied = rng.random((6, 9)) < 0.6
    occupied[2] = False                                  # an empty row
    row_shift = np.array([1, 1, 1, 2, 0, 0])
    row_class = np.array([0, 0, 1, 1, -1, 0])
    col_shifts = [np.array([0, 0, 1, 1, 1, -2, -2, 0, 0]),
                  np.array([3, 2, 1, 0, -1, -2, -3, -4, -5]),
                  np.zeros(9, dtype=np.int64)]
    # class c moves with increment c + 1; a frozen row (class -1) reads 0.0
    table = np.array([col_shifts[-1]] + col_shifts[:2])
    rects, starts = solver._cut_rectangles(
        occupied, row_shift[None], (row_class >= 0)[None], row_class[None] + 1.0,
        lambda v: table[v[:, 0].astype(np.int64)])
    assert starts == [0, len(rects)]
    i, j = np.nonzero(occupied)
    per_node = [i + row_shift[i], j + np.array(col_shifts)[row_class[i], j]]
    child = _covered_children(occupied, rects)
    assert np.array_equal(child[:, i, j], per_node)
    assert np.all(child[:, ~occupied] == -1)


@pytest.mark.parametrize("layer", ["desk", "singleton", "time-dependent"])
def test_layer_rectangles_are_the_per_node_children(layer):
    """Every (action, atom) map of a real layer covers each populated cell
    once, with the shift of the per-node child bin of step_stats."""
    depth, grid = 4, np.linspace(-1, 1, 41)
    spec = _time_dependent_spec() if layer == "time-dependent" else PortfolioSpec(
        r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0, horizon_T=1.0)
    if layer == "singleton":
        grid = np.array([0.35])
    if layer == "time-dependent":
        depth, grid = 3, np.linspace(-1, 1, 9)
    eps = 1.0 / 3
    struct, payoff = PortfolioStructure(spec, eps), power_utility_payoff(spec)
    cfg = SolveConfig(action_grid=grid, depth=depth, Q=8, collapse=True)
    tree = build_tree(struct, payoff, eps, cfg)
    lattice = tree.layers[depth]
    rects, starts = solver._layer_blocks(tree, lattice)
    reps = solver._reps(lattice.bins, tree.bin_widths)
    i, j = (lattice.bins - lattice.origin).T
    for ai, a in enumerate(grid):
        for m in range(tree.n_atoms):
            p = ai * tree.n_atoms + m
            child = _covered_children(lattice.occupied, rects[starts[p]:starts[p + 1]])
            per_node = solver._quantize(tree.ops.step_stats(
                reps, float(a), float(tree.atoms.delta_t[m]), int(tree.atoms.signs[m])),
                tree.bin_widths) - lattice.origin
            assert np.array_equal(child[:, i, j].T, per_node), (a, m)


@pytest.mark.parametrize("drop", ["interior", "edge"])
def test_corrupted_next_layer_raises_on_grid_action(drop):
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=2, Q=2,
                      collapse=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    bins = tree.layers[2].bins
    # an interior node leaves a hole in the box; the last one shrinks it
    gone = len(bins) // 2 if drop == "interior" else len(bins) - 1
    tree.layers[2] = solver.Lattice.over(np.delete(bins, gone, axis=0), cfg.node_cap)
    with pytest.raises(NumericalError, match="mismatch"):
        backward_dp(tree)


@pytest.mark.parametrize("cut", ["first", "last"])
def test_node_probe_refuses_child_rows_off_the_next_box(cut):
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=2, Q=2,
                      collapse=True, refine=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    bins = tree.layers[2].bins
    edge = bins[:, 0].min() if cut == "first" else bins[:, 0].max()
    tree.layers[2] = solver.Lattice.over(bins[bins[:, 0] != edge], cfg.node_cap)
    with pytest.raises(NumericalError, match="off the next layer"):
        solver._node_probe(tree, 1, res.values.layers[2])
    with pytest.raises(NumericalError, match="off the next layer"):
        hamiltonian(tree, res.values, 1, 0, action_value=0.37)


@pytest.mark.parametrize("equal", [True, False])
def test_grid_stage_values_is_the_first_argmax(equal):
    """The running strict > picks argmax's action, the smallest index on
    ties, with the stage value of a per-node probe at that action."""
    struct, payoff = pstruct()
    grid = np.linspace(-1, 1, 9)
    cfg = SolveConfig(action_grid=grid, depth=3, Q=2, collapse=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    n_next = len(tree.layers[3].bins)
    # random values on a coarse set of levels, so some actions tie
    nxt = np.full(n_next, 1.75) if equal else \
        np.random.default_rng(4).integers(0, 3, n_next) * 0.5
    probe = solver._node_probe(tree, 2, nxt)
    best_idx, best_val = solver._grid_stage_values(tree, 2, probe.box)
    table = np.array([solver._probe_stage_values(tree, probe, float(a), allow_miss=False)
                      for a in grid])
    if equal:
        assert np.all(best_idx == 0)
    else:
        assert np.any(np.sum(table == table.max(axis=0), axis=0) > 1)
    assert np.array_equal(best_idx, np.argmax(table, axis=0))
    assert np.array_equal(best_val, table.max(axis=0))


def test_collapse_keys_are_node_indices():
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=3, Q=2,
                      collapse=True, refine=True)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    res = backward_dp(tree)
    ops, widths = struct.collapse_ops(), tree.bin_widths
    for d in range(cfg.depth):
        n = len(tree.layers[d].bins)
        assert len(res.values.layers[d]) == len(res.policy.layers[d]) == n
        us = [hamiltonian(tree, res.values, d, ai)
              for ai in range(len(cfg.action_grid))]
        for i in sorted({0, n // 3, n - 1}):
            # U V from the layer arrays: children located on the next lattice
            rep = solver._reps(tree.layers[d].bins[i:i + 1], widths)
            for ai, a in enumerate(cfg.action_grid):
                acc = 0.0
                for m in range(tree.n_atoms):
                    child = solver._quantize(ops.step_stats(
                        rep, float(a), float(tree.atoms.delta_t[m]),
                        int(tree.atoms.signs[m])), widths)
                    j = tree.layers[d + 1].locate(child)[0]
                    assert j >= 0
                    acc += tree.atoms.weights[m] * res.values.layers[d + 1][j]
                want = (acc - res.values.layers[d][i]) / tree.eps_k**2
                assert us[ai][i] == want


def _steering(d):
    """Drift a, payoff -x(T)^2: the best action depends on the history."""
    spec = PdSdeSpec(drift=lambda t, p, a: 0.8 * np.atleast_1d(a) * np.ones(1),
                     diffusion=lambda t, p, a: np.array([[1.0, 0.5][:d]]),
                     x0=np.array([0.3]), d=d)
    payoff = lambda path: -path(4.0)[:, 0] ** 2                     # noqa: E731
    return CaseAStructure(spec, 0.5, horizon_T=4.0), payoff


def _history_walk(struct, payoff, tree, path, memo=None):
    """Actions along a path, each the argmax of a fold at the tree node
    that the path's history reaches (realized delta_t snapped to the
    nearest atom of its coordinate and sign, first maximum on ties).
    memo keeps each fold by its history of (action, atom) pairs."""
    atoms, grid, depth = tree.atoms, tree.cfg.action_grid, tree.cfg.depth
    memo = {} if memo is None else memo

    def fold(state, n, history):
        if history in memo:
            return memo[history]
        if n == depth:
            return float(payoff(struct.payoff_input(state))[0]), None
        best_v, best_a = -math.inf, None
        for a in grid:
            acc = 0.0
            for m in range(tree.n_atoms):
                child = struct.step(state, float(a), float(atoms.delta_t[m]),
                                    tree.atoms.coords[m], tree.atoms.signs[m])
                acc += atoms.weights[m] * fold(child, n + 1, history + ((float(a), m),))[0]
            if acc > best_v:
                best_v, best_a = acc, float(a)
        memo[history] = best_v, best_a
        return best_v, best_a

    state, actions, history = struct.init(), [], ()
    for n in range(min(depth, len(path))):
        actions.append(fold(state, n, history)[1])
        same = [m for m in range(tree.n_atoms)
                if atoms.coords[m] == path.coords[n] and atoms.signs[m] == path.signs[n]]
        m = min(same, key=lambda m: abs(atoms.delta_t[m] - path.delta_t[n]))
        state = struct.step(state, actions[-1], float(atoms.delta_t[m]),
                            tree.atoms.coords[m], tree.atoms.signs[m])
        history += ((actions[-1], m),)
    return actions


@pytest.mark.parametrize("d, depth", [(1, 3), (2, 2)])
def test_full_extract_policy_matches_history_walk(d, depth):
    struct, payoff = _steering(d)
    cfg = SolveConfig(action_grid=np.array([-1.0, 0.0, 1.0]), depth=depth, Q=2)
    tree = build_tree(struct, payoff, 0.5, cfg)
    res = backward_dp(tree)
    seen, memo = set(), {}
    for seed in range(12):
        path = sample_skeleton(SkeletonConfig(0.5, d, 4.0, depth), seed)
        acts = extract_policy_control(res, tree, path).tolist()
        assert acts == _history_walk(struct, payoff, tree, path, memo)
        seen.add(tuple(acts))
    assert len(seen) > 1                      # the walk visits different nodes


def _equal_layers(a, b):
    return all(np.array_equal(x, y) for x, y in zip(
        a.values.layers + a.policy.layers, b.values.layers + b.policy.layers))


def test_full_extract_policy_across_blocks(monkeypatch):
    """A depth-4 tree (20,736 leaves) solved in blocks of 4,096 and of 24
    children, and a block of 12 paths read in one walk."""
    struct, payoff = _steering(1)
    tree = build_tree(struct, payoff, 0.5, SolveConfig(
        action_grid=np.array([-1.0, 0.0, 1.0]), depth=4, Q=2))
    res = backward_dp(tree)
    assert res.report.node_counts[4] == 12**4 == 20_736
    monkeypatch.setattr(solver, "_BLOCK", 24)      # 2 nodes per structure step
    assert _equal_layers(res, backward_dp(tree))
    paths = [sample_skeleton(SkeletonConfig(0.5, 1, 4.0, 4), seed) for seed in range(12)]
    block = SkeletonPath(0.5, 1, *(np.array([getattr(p, f) for p in paths])
                                   for f in ("delta_t", "coords", "signs")))
    acts = extract_policy_control(res, tree, block)
    assert acts.shape == (12, 4)
    memo = {}
    for path, row in zip(paths, acts):
        assert row.tolist() == _history_walk(struct, payoff, tree, path, memo)
    assert len({tuple(row) for row in acts.tolist()}) > 1


def _node_values(struct, payoff, tree):
    """Every node's value, per depth in node order, folded one node (a
    1-row state block) at a time."""
    atoms, grid, depth = tree.atoms, tree.cfg.action_grid, tree.cfg.depth
    layers = [[] for _ in range(depth + 1)]

    def fold(state, n):
        if n == depth:
            best = float(payoff(struct.payoff_input(state))[0])
        else:
            best = -math.inf
            for a in grid:
                acc = 0.0
                for m in range(tree.n_atoms):
                    acc += atoms.weights[m] * fold(struct.step(
                        state, float(a), float(atoms.delta_t[m]), atoms.coords[m],
                        atoms.signs[m]), n + 1)
                if acc > best:
                    best = acc
        layers[n].append(best)
        return best

    fold(struct.init(), 0)
    return layers


def test_two_dimensional_blocks_match_per_node_fold(monkeypatch):
    from skeldp.evaluate import enumerate_oracle
    struct, payoff = _steering(2)
    tree = build_tree(struct, payoff, 0.5, SolveConfig(
        action_grid=np.array([-1.0, 1.0]), depth=3, Q=2))
    res = backward_dp(tree)
    monkeypatch.setattr(solver, "_BLOCK", 32)      # 2 nodes per structure step
    small = backward_dp(tree)
    assert tree.n_atoms == 8 and small.report.node_counts[3] == 16**3
    assert _equal_layers(res, small)
    assert small.report.root_value == enumerate_oracle(struct, payoff, tree)
    for got, want in zip(small.values.layers, _node_values(struct, payoff, tree)):
        assert np.array_equal(got, want)
