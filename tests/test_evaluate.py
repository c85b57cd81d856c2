import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from skeldp import density, evaluate, solver, structures
from skeldp.errors import ConfigurationError, ResourceCapError
from skeldp.evaluate import (MertonRef, convergence_sweep, enumerate_oracle,
                             mc_value, merton_oracle, policy_mc_value,
                             portfolio_policy_rollouts, rollout)
from skeldp.skeleton import SkeletonConfig, SkeletonPath, sample_skeleton
from skeldp.solver import SolveConfig, backward_dp, build_tree
from skeldp.structures import (CaseAStructure, PdSdeSpec, PortfolioSpec,
                               PortfolioStructure, power_utility_payoff,
                               structure_from_config)


def pstruct(eps=1.0 / 3, **kw):
    base = dict(r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0,
                horizon_T=1.0)
    base.update(kw)
    spec = PortfolioSpec(**base)
    return PortfolioStructure(spec, eps), power_utility_payoff(spec)


def test_rollout_zero_control_risk_free_growth():
    struct, payoff = pstruct()
    path = sample_skeleton(SkeletonConfig(1.0 / 3, 1, 1.0, 9), 4)
    res = rollout(struct, 0.0, path, payoff)
    # effective horizon: last step time inside T, or the final step time
    cum = path.cum_times
    t_eff = cum[-1] if cum[-1] <= 1.0 else cum[np.searchsorted(cum, 1.0, "right") - 1]
    expect = (1.0 * math.exp(0.03 * t_eff)) ** 0.5 / 0.5
    assert res.payoff == pytest.approx(expect, rel=1e-12)


def test_rollout_replay_identical():
    struct, payoff = pstruct()
    path = sample_skeleton(SkeletonConfig(1.0 / 3, 1, 1.0, 9), 11)
    a = rollout(struct, 0.4, path, payoff)
    b = rollout(struct, 0.4, path, payoff)
    assert a.payoff == b.payoff
    assert np.array_equal(a.actions, b.actions)


def test_mc_value_deterministic_payoff_zero_se():
    # no-noise structure: payoff constant, SE must be exactly 0
    spec = PdSdeSpec(drift=lambda t, p, a: np.zeros(1),
                     diffusion=lambda t, p, a: np.zeros((1, 1)),
                     x0=np.array([0.7]))
    struct = CaseAStructure(spec, 0.5, horizon_T=1.0)
    payoff = lambda path: np.array([math.tanh(x) for x in path(1.0)[:, 0]])  # noqa: E731
    mc = mc_value(struct, payoff, 0.0, SkeletonConfig(0.5, 1, 1.0, 4), 64, seed=0)
    assert mc.se == 0.0
    assert mc.mean == pytest.approx(math.tanh(0.7), rel=1e-12)


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_value_constant_payoff_zero_se_over_uneven_chunks(monkeypatch, threads):
    monkeypatch.setattr(evaluate, "_CHUNK", 7)      # 300 paths, the last chunk 6
    cfg = SkeletonConfig(0.5, 1, 1.0, 4)
    mc = evaluate._mc_value(lambda paths: np.full(len(paths.delta_t), 0.1), cfg,
                            300, 0, threads)
    assert mc.se == 0.0
    assert mc.mean == pytest.approx(0.1, rel=1e-15)


def test_mc_value_se_is_the_exact_sample_se(monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK", 7)      # 300 paths, the last chunk 6
    cfg = SkeletonConfig(1.0 / 3, 1, 1.0, 4)
    seen = []

    def values(paths):
        # a large mean over a small spread: a one-pass variance cancels
        seen.append(1e8 + paths.delta_t.sum(axis=1))
        return seen[-1]

    mc = evaluate._mc_value(values, cfg, 300, 3, 1)
    exact = [Fraction(v) for v in np.concatenate(seen).tolist()]
    mean = sum(exact) / len(exact)
    var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    # the chunk means near 1e8 round to ~1.5e-8, ~1e-7 of the spread; a
    # one-pass variance there loses every digit
    assert mc.se == pytest.approx(math.sqrt(var / len(exact)), rel=1e-6)


def test_mc_ci_scaling():
    struct, payoff = pstruct()
    cfg = SkeletonConfig(1.0 / 3, 1, 1.0, 4)
    m1 = mc_value(struct, payoff, 0.5, cfg, 4000, seed=5)
    m2 = mc_value(struct, payoff, 0.5, cfg, 16000, seed=6)
    # doubling N twice halves the CI, within stochastic slack
    assert m2.ci_half == pytest.approx(0.5 * m1.ci_half, rel=0.2)


def test_mc_threads_bit_identical(monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK", 64)    # 600 paths in 10 chunks
    struct, payoff = pstruct()
    cfg = SkeletonConfig(1.0 / 3, 1, 1.0, 4)
    a = mc_value(struct, payoff, 0.5, cfg, 600, seed=9, threads=1)
    b = mc_value(struct, payoff, 0.5, cfg, 600, seed=9, threads=8)
    assert a.mean == b.mean and a.se == b.se


def test_mc_antithetic_consistent():
    struct, payoff = pstruct()
    cfg = SkeletonConfig(1.0 / 3, 1, 1.0, 4)
    plain = mc_value(struct, payoff, 0.5, cfg, 6000, seed=21)
    anti = mc_value(struct, payoff, 0.5, cfg, 6000, seed=21, antithetic=True)
    assert abs(anti.mean - plain.mean) <= 3 * (plain.se + anti.se)


def test_mc_antithetic_threads_bit_identical(monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK", 64)    # 300 paths in 5 chunks
    struct, payoff = pstruct()
    cfg = SkeletonConfig(1.0 / 3, 1, 1.0, 4)
    got = [mc_value(struct, payoff, 0.5, cfg, 300, seed=9, threads=t, antithetic=True)
           for t in (1, 2)]
    # recorded when each chunk became one sample_skeleton block; the se
    # re-recorded for the merged centred variance (was 3.3380288606309194e-4)
    want = (2.015159046828105, 0.00033380288606669464, 300)
    assert [(m.mean, m.se, m.n) for m in got] == [want] * 2


def test_policy_mc_value_threads_bit_identical_both_modes(monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK", 64)    # 300 paths in 5 chunks
    struct, payoff = pstruct()
    eps = 1.0 / 3
    tree = build_tree(struct, payoff, eps, SolveConfig(
        action_grid=np.linspace(-1, 1, 5), depth=3, Q=2, collapse=True))
    res = backward_dp(tree)
    skel = SkeletonConfig(eps, 1, 1.0, 3)
    col = [policy_mc_value(struct, payoff, res, tree, skel, 300, 4, threads=t)
           for t in (1, 2)]
    sde, sde_payoff = structure_from_config(
        {"kind": "pd_sde", "drift": {"name": "linear", "scale": 0.2},
         "diffusion": {"name": "constant", "value": 0.6}, "x0": [0.5],
         "payoff": {"name": "running_max_tanh"}}, 0.5, 2.0)
    ftree = build_tree(sde, sde_payoff, 0.5, SolveConfig(
        action_grid=np.array([-1.0, 0.0, 1.0]), depth=3, Q=2))
    fres = backward_dp(ftree)
    fskel = SkeletonConfig(0.5, 1, 2.0, 3)
    full = [policy_mc_value(sde, sde_payoff, fres, ftree, fskel, 300, 7, threads=t)
            for t in (1, 2)]
    # recorded when each chunk became one sample_skeleton block; the
    # collapse se re-recorded for the Hermite-start tau quantile, then both
    # se for the merged centred variance (were 0.004787719828125862 and
    # 0.009433580586237621)
    for got, want in ((col, (2.01128145873668, 0.004787719828125719, 300)),
                      (full, (0.6485934590942638, 0.009433580586237713, 300))):
        assert [(m.mean, m.se, m.n) for m in got] == [want] * 2
    with pytest.raises(ConfigurationError):
        policy_mc_value(sde, sde_payoff, fres, ftree, fskel, 1, 7)


def test_enumerate_depth_one_by_hand():
    struct, payoff = pstruct()
    grid = np.linspace(-1, 1, 3)
    cfg = SolveConfig(action_grid=grid, depth=1, Q=2)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    val = enumerate_oracle(struct, payoff, tree)
    # direct: max over 3 one-step expectations
    best = -math.inf
    for a in grid:
        acc = 0.0
        for m in range(tree.n_atoms):
            st = struct.step(struct.init(), float(a), float(tree.atoms.delta_t[m]),
                             tree.atoms.coords[m], tree.atoms.signs[m])
            acc += tree.atoms.weights[m] * payoff(struct.payoff_input(st))[0]
        best = max(best, acc)
    assert val == pytest.approx(best, rel=1e-14)
    assert backward_dp(tree).report.root_value == pytest.approx(val, abs=1e-12)


def test_enumerate_zero_payoff():
    struct, _ = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=2, Q=2)
    zero = lambda path: np.zeros(len(path))            # noqa: E731
    tree = build_tree(struct, zero, 1.0 / 3, cfg)
    assert enumerate_oracle(struct, zero, tree) == 0.0


def test_enumerate_cap():
    struct, payoff = pstruct()
    # the tree handle itself is lazy, so a generous node_cap lets it build;
    # the oracle's own workload cap must still refuse
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 5), depth=6, Q=4,
                      node_cap=10**11)
    tree = build_tree(struct, payoff, 1.0 / 3, cfg)
    with pytest.raises(ResourceCapError):
        enumerate_oracle(struct, payoff, tree, cap=1000)


def test_merton_examples():
    spec = PortfolioSpec(r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5,
                         x0=1.0)
    assert merton_oracle(spec).fraction == pytest.approx(0.02 / (0.5 * 0.09), rel=1e-12)
    flat = PortfolioSpec(r=0.03, alpha_k=0.03, sigma_k=0.3, gamma_util=0.5, x0=1.0)
    assert merton_oracle(flat).fraction == 0.0
    big = PortfolioSpec(r=0.0, alpha_k=0.5, sigma_k=0.3, gamma_util=0.5, x0=1.0)
    assert merton_oracle(big).fraction == 1.0   # clipped to the action box
    degenerate = PortfolioSpec(r=0.0, alpha_k=0.1, sigma_k=1e-9, gamma_util=0.5,
                               x0=1.0)
    # sigma == 0 exactly is rejected at spec construction; the oracle guard
    # fires for a zero callable
    with pytest.raises(ConfigurationError):
        merton_oracle(PortfolioSpec(r=0.0, alpha_k=0.1, sigma_k=lambda t: 0.0,
                                    gamma_util=0.5, x0=1.0))


def test_policy_rollout_against_root_value_module_scale():
    eps = 1.0 / 3
    struct, payoff = pstruct()
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 21), depth=5, Q=4,
                      collapse=True)
    tree = build_tree(struct, payoff, eps, cfg)
    res = backward_dp(tree)
    pay = portfolio_policy_rollouts(struct.spec, eps, res, tree, 20_000, seed=3)
    se = pay.std(ddof=1) / math.sqrt(len(pay))
    # the Q slack as the acceptance fixture takes it: |root(Q) - root(2Q)|
    res_2q = backward_dp(build_tree(struct, payoff, eps, dataclasses.replace(cfg, Q=8)))
    slack = abs(res.report.root_value - res_2q.report.root_value)
    assert res.report.root_value - pay.mean() <= 0.01 + 3 * se + slack + 2e-3


@pytest.fixture(scope="module")
def desk5():
    eps = 1.0 / 3
    struct, payoff = pstruct(eps)
    tree = build_tree(struct, payoff, eps, SolveConfig(
        action_grid=np.linspace(-1, 1, 21), depth=5, Q=4, collapse=True))
    return struct, payoff, tree, backward_dp(tree)


def test_policy_rollouts_pinned(desk5):
    struct, _, tree, res = desk5
    pay = portfolio_policy_rollouts(struct.spec, 1.0 / 3, res, tree, 20_000, seed=3)
    # recorded when every lookup miss went to the nearest populated time
    # row, then the nearest state bin in it; re-recorded for the
    # Hermite-start tau quantile
    assert hashlib.sha256(pay.tobytes()).hexdigest() == (
        "50078048528de4868b6ae8380ec1b68387a1684b0774f282fa7791160a739f51")


def test_policy_mc_value_reads_the_rollouts_paths(desk5, monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK", 64)    # 300 paths in 5 chunks
    struct, payoff, tree, res = desk5
    eps = 1.0 / 3
    mc = policy_mc_value(struct, payoff, res, tree,
                         SkeletonConfig(eps, 1, 1.0, tree.cfg.depth), 300, 5)
    pay = portfolio_policy_rollouts(struct.spec, eps, res, tree, 300, seed=5)
    assert mc.mean == pytest.approx(float(np.mean(pay)), rel=1e-12)
    assert mc.se == pytest.approx(float(np.std(pay, ddof=1) / math.sqrt(300)), rel=1e-9)


def scalar_reader(res, tree):
    """A collapsed policy read from the states: bin each state's
    (t_clip, ln payoff wealth) and look it up by the nearest-bin rule."""
    def control(depth, state, structure):
        stat = np.column_stack([state.t_clip, state.log_payoff_wealth])
        bins = solver._quantize(stat, tree.bin_widths)
        i = evaluate.nearest_bin_index(tree.layers[depth], bins)
        return res.policy.layers[depth][i]
    return control


def test_policy_rollouts_match_scalar_reader(desk5, monkeypatch):
    struct, payoff, tree, res = desk5
    eps, n, seed, depth = 1.0 / 3, 500, 3, tree.cfg.depth
    misses = {"vector": 0, "scalar": 0}
    side = "vector"
    lookup = evaluate.nearest_bin_index

    def counting_lookup(lattice, queries):
        misses[side] += int(np.sum(lattice.locate(queries) < 0))
        return lookup(lattice, queries)

    monkeypatch.setattr(evaluate, "nearest_bin_index", counting_lookup)
    final = []
    payoff_stats = structures._PortfolioCollapse.payoff_stats

    def keeping_payoff_stats(ops, stats):
        final.append(stats)
        return payoff_stats(ops, stats)

    monkeypatch.setattr(structures._PortfolioCollapse, "payoff_stats",
                        keeping_payoff_stats)
    pay = portfolio_policy_rollouts(struct.spec, eps, res, tree, n, seed)
    # the same draws as the rollouts' chunk 0
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed, 40_000], dtype=np.uint64)))
    u = gen.random((n, depth, 2))
    dts = eps**2 * density.inverse_cdf_tau(np.clip(u[:, :, 0], 1e-16, 1 - 1e-16))
    sgns = np.where(u[:, :, 1] < 0.5, 1, -1)
    side = "scalar"
    paths = SkeletonPath(eps, 1, dts, np.ones((n, depth), dtype=np.int64), sgns)
    runs = rollout(struct, scalar_reader(res, tree), paths, payoff)
    stats = np.column_stack([runs.state.t_clip, runs.state.log_payoff_wealth])
    assert np.array_equal(stats, final[0])
    scalar_pay = runs.payoff
    # exp(g * lw) / g against exp(lw)**g / g
    assert np.all(np.abs(scalar_pay - pay) <= 4 * np.spacing(pay))
    assert misses["vector"] == misses["scalar"] > 0


def test_collapse_policy_mc_value_matches_scalar_reader(desk5, monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK", 64)    # 300 paths in 5 chunks
    struct, payoff, tree, res = desk5
    skel = SkeletonConfig(1.0 / 3, 1, 1.0, tree.cfg.depth)
    for antithetic in (False, True):
        for threads in (1, 2):
            got = policy_mc_value(struct, payoff, res, tree, skel, 300, 8,
                                  threads=threads, antithetic=antithetic)
            ref = mc_value(struct, payoff, scalar_reader(res, tree), skel, 300, 8,
                           threads=threads, antithetic=antithetic)
            # the payoffs differ by a few ulps (exp(g * lw) / g against
            # exp(lw)**g / g)
            assert abs(got.mean - ref.mean) <= 4 * np.spacing(ref.mean)
            assert got.se == pytest.approx(ref.se, rel=1e-9, abs=0)
            assert got.n == ref.n == 300


def test_policy_mc_value_refuses_what_it_cannot_read(desk5):
    struct, payoff, tree, res = desk5
    eps = 1.0 / 3
    skel = SkeletonConfig(eps, 1, 1.0, 5)
    with pytest.raises(ConfigurationError, match="own payoff"):
        policy_mc_value(struct, lambda path: np.zeros(len(path)), res, tree, skel, 10, 0)
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        policy_mc_value(struct, payoff, res, tree, SkeletonConfig(eps, 2, 1.0, 5), 10, 0)
    full = build_tree(struct, payoff, eps, SolveConfig(
        action_grid=np.linspace(-1, 1, 3), depth=3, Q=2))
    for t, r in ((tree, res), (full, backward_dp(full))):
        with pytest.raises(ConfigurationError, match="n_steps 9 exceeds"):
            policy_mc_value(struct, payoff, r, t, SkeletonConfig(eps, 1, 1.0, 9), 10, 0)


def test_policy_rollouts_refuse_fewer_than_two_paths(desk5):
    struct, _, tree, res = desk5
    for n in (1, 0, -3):
        with pytest.raises(ConfigurationError, match="n_paths >= 2"):
            portfolio_policy_rollouts(struct.spec, 1.0 / 3, res, tree, n, seed=3)


def test_sweep_no_noise_root_independent_of_eps():
    # zero drift, zero diffusion: value = tanh(x0) for every epsilon
    def make_problem(eps):
        spec = PdSdeSpec(drift=lambda t, p, a: np.zeros(1),
                         diffusion=lambda t, p, a: np.zeros((1, 1)),
                         x0=np.array([0.7]))
        struct = CaseAStructure(spec, eps, horizon_T=1.0)
        return struct, (lambda path: np.array([math.tanh(x) for x in path(1.0)[:, 0]]))

    def make_cfg(eps):
        return SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=3, Q=2)

    rep = convergence_sweep(make_problem, [0.5, 0.35, 0.25], make_cfg)
    vals = [r.root_value for r in rep["rows"]]
    assert max(vals) - min(vals) <= 1e-12
    assert rep["stabilizing"]


def test_oracle_triangle_no_noise():
    spec = PdSdeSpec(drift=lambda t, p, a: np.zeros(1),
                     diffusion=lambda t, p, a: np.zeros((1, 1)),
                     x0=np.array([0.7]))
    struct = CaseAStructure(spec, 0.5, horizon_T=1.0)
    payoff = lambda path: np.array([math.tanh(x) for x in path(1.0)[:, 0]])  # noqa: E731
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 3), depth=3, Q=2)
    tree = build_tree(struct, payoff, 0.5, cfg)
    dp = backward_dp(tree).report.root_value
    enum = enumerate_oracle(struct, payoff, tree)
    # constant-control fold
    def const_val(a):
        def fold(state, depth):
            if depth == 3:
                return payoff(struct.payoff_input(state))[0]
            return sum(tree.atoms.weights[m]
                       * fold(struct.step(state, a, float(tree.atoms.delta_t[m]),
                                          tree.atoms.coords[m], tree.atoms.signs[m]),
                              depth + 1)
                       for m in range(tree.n_atoms))
        return fold(struct.init(), 0)
    const = max(const_val(float(a)) for a in cfg.action_grid)
    assert dp == pytest.approx(enum, abs=1e-12)
    assert dp == pytest.approx(const, abs=1e-12)


def test_merton_sweep_cauchy_module_scale():
    base = dict(r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0,
                horizon_T=1.0)

    def make_problem(eps):
        spec = PortfolioSpec(**base)
        return PortfolioStructure(spec, eps), power_utility_payoff(spec)

    def make_cfg(eps):
        depth = SkeletonConfig(eps, 1, 1.0).e_kT
        return SolveConfig(action_grid=np.linspace(-1, 1, 21), depth=depth,
                           Q=4, collapse=True)

    rep = convergence_sweep(make_problem, [1.0 / 2, 1.0 / 3, 1.0 / 4], make_cfg)
    assert rep["stabilizing"]
    acts = [r.root_action for r in rep["rows"]]
    # root action drifts toward the Merton fraction 0.444
    assert abs(acts[-1] - 0.4444) <= abs(acts[0] - 0.4444) + 0.101




def test_merton_oracle_keeps_every_other_field(monkeypatch):
    seen = []
    real_build = evaluate.build_tree

    def spy(structure, payoff, eps_k, cfg):
        seen.append(cfg)
        return real_build(structure, payoff, eps_k, cfg)

    monkeypatch.setattr(evaluate, "build_tree", spy)
    struct, _ = pstruct(a_bar=0.5)
    cfg = SolveConfig(action_grid=np.linspace(-0.5, 0.5, 3), depth=2, Q=2,
                      collapse=False, refine=False)
    ref = merton_oracle(struct.spec, 1.0 / 3, cfg)
    assert ref.const_grid_action in cfg.action_grid
    assert [c.action_grid.tolist() for c in seen] == [[a] for a in cfg.action_grid]
    for sub in seen:
        assert sub.collapse
        for f in dataclasses.fields(SolveConfig):
            if f.name not in ("action_grid", "collapse"):
                assert getattr(sub, f.name) == getattr(cfg, f.name), f.name
