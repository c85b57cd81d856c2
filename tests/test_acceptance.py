"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Merton instance (criteria 6/7) is solved once
in a session fixture and shared.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from skeldp import density, evaluate, fbm, kernel, skeleton, solver, structures
from skeldp.cli import main as cli_main
from skeldp.evaluate import enumerate_oracle, merton_oracle, portfolio_policy_rollouts
from skeldp.kernel import KernelQuery, first_fire_probability, kernel_prob
from skeldp.skeleton import (SkeletonConfig, brownian_fine_path,
                             crossing_event_stream, crossing_sample_skeleton,
                             sample_skeleton)
from skeldp.solver import SolveConfig, backward_dp, build_tree, hamiltonian
from skeldp.structures import (CaseAStructure, PdSdeSpec, PortfolioSpec,
                               PortfolioStructure, power_utility_payoff,
                               stage_truncation_gap)

GX64, GW64 = leggauss(64)

MERTON = dict(r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0,
              horizon_T=1.0)
MERTON_FRACTION = 0.02 / (0.5 * 0.09)     # (alpha - r) / ((1 - gamma) sigma^2)


def report(num, ok, detail):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared Merton solve (criteria 5c, 6, 7, 11)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def merton_solution():
    eps = 1.0 / 3
    spec = PortfolioSpec(**MERTON)
    struct = PortfolioStructure(spec, eps)
    payoff = power_utility_payoff(spec)
    cfg = SolveConfig(action_grid=np.linspace(-1, 1, 41), depth=9, Q=8,
                      epsilon_total=0.01, collapse=True, refine=True,
                      node_cap=3_000_000)
    tree = build_tree(struct, payoff, eps, cfg)
    res = backward_dp(tree)
    cfg16 = SolveConfig(action_grid=cfg.action_grid, depth=9, Q=16,
                        epsilon_total=0.01, collapse=True, refine=True,
                        node_cap=3_000_000)
    res16 = backward_dp(build_tree(struct, payoff, eps, cfg16))
    q_slack = abs(res.report.root_value - res16.report.root_value)
    return dict(eps=eps, spec=spec, struct=struct, payoff=payoff, cfg=cfg,
                tree=tree, res=res, q_slack=q_slack)


# ---------------------------------------------------------------------------
# criterion 1: density correctness (< 5 s)
# ---------------------------------------------------------------------------

def test_criterion_1_density():
    t0 = time.time()
    mass = density.integrate_f_tau(0.0, np.inf)
    mean = density._moment_piece(0.0, density.CROSSOVER) + density.tail_moment(
        density.CROSSOVER)
    x = density.CROSSOVER
    ell = np.arange(25)
    s1 = 2 / np.sqrt(2 * np.pi * x**3) * np.sum(
        (-1.0) ** ell * (2 * ell + 1) * np.exp(-(2 * ell + 1) ** 2 / (2 * x)))
    s2 = (np.pi / 2) * np.sum(
        (-1.0) ** ell * (2 * ell + 1) * np.exp(-np.pi**2 * x * (2 * ell + 1) ** 2 / 8))
    dominated = True
    for xg in np.geomspace(0.08, 6.0, 40):
        ref = density.f_tau(xg, 50)
        noise = 8 * np.finfo(float).eps * max(abs(ref), 1.0)
        for n in range(1, 11):
            if abs(ref - density.f_tau(xg, n)) > density.truncation_bound(xg, n) + noise:
                dominated = False
    elapsed = time.time() - t0
    ok = (abs(mass - 1.0) <= 1e-8 and abs(mean - 1.0) <= 1e-6
          and abs(s1 - s2) <= 1e-10 and dominated and elapsed < 5.0)
    report(1, ok, f"mass err {abs(mass-1):.1e}, mean err {abs(mean-1):.1e}, "
                  f"series gap {abs(s1-s2):.1e}, bound dominated={dominated}, "
                  f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: skeleton law (< 30 s)
# ---------------------------------------------------------------------------

def test_criterion_2_skeleton_law():
    t0 = time.time()
    n = 1_000_000
    cfg = SkeletonConfig(epsilon_k=1.0, d=1, horizon_T=1.0, n_steps=n)
    path = sample_skeleton(cfg, seed=20240)
    se_dt = path.delta_t.std(ddof=1) / math.sqrt(n)
    mean_ok = abs(path.delta_t.mean() - 1.0) <= 3 * se_dt
    freq = float(np.mean(path.signs == 1))
    freq_ok = abs(freq - 0.5) <= 3 * math.sqrt(0.25 / n)
    # coupled crossing-detection check on 100 paths
    eps, T = 0.25, 1.0
    dt = eps**2 / 400
    tol = 6 * math.sqrt(dt)
    sup_ok = True
    worst = 0.0
    for seed in range(100):
        t_grid, bm = brownian_fine_path(1, T, dt, seed=seed, stream=11)
        p = crossing_sample_skeleton(eps, t_grid, bm)
        lvl = np.concatenate([[0.0], eps * np.cumsum(p.signs)])
        idx = np.searchsorted(p.cum_times, t_grid, side="right")
        gap = float(np.max(np.abs(lvl[idx] - bm[0])))
        worst = max(worst, gap)
        sup_ok = sup_ok and gap <= eps + tol
    elapsed = time.time() - t0
    ok = mean_ok and freq_ok and sup_ok and elapsed < 30.0
    report(2, ok, f"mean dt {path.delta_t.mean():.5f} (3se {3*se_dt:.5f}), "
                  f"sign freq {freq:.5f}, worst sup gap {worst:.4f} "
                  f"<= {eps + tol:.4f}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 3: kernel mass + MC conditional frequencies (< 2 min)
# ---------------------------------------------------------------------------

def test_criterion_3_kernel():
    t0 = time.time()
    eps = 1.0
    lag_configs = [[0.0, 0.0], [0.0, 0.5], [0.25, 1.0], [1.5, 0.1], [2.0, 2.0]]
    mass_ok = True
    worst_mass = 0.0
    for lags in lag_configs:
        total = sum(kernel_prob(KernelQuery(np.asarray(lags), j, s, (0.0, np.inf)),
                                eps) for j in (1, 2) for s in (1, -1))
        worst_mass = max(worst_mass, abs(total - 1.0))
        mass_ok = mass_ok and abs(total - 1.0) <= 1e-6

    # conditioned Monte Carlo from the crossing-detection oracle: simulate
    # two independent coordinates, merge, bin realized lag states, compare
    # next-event (coordinate, sign) frequencies per bin
    dt = eps**2 / 2000
    t_total = 26_000.0
    ev = [crossing_event_stream(eps, dt, t_total, seed=77, stream=j)
          for j in (0, 1)]
    times = np.concatenate([ev[0][0], ev[1][0]])
    coords = np.concatenate([np.zeros(len(ev[0][0]), dtype=int),
                             np.ones(len(ev[1][0]), dtype=int)])
    signs = np.concatenate([ev[0][1], ev[1][1]])
    order = np.argsort(times, kind="stable")
    times, coords, signs = times[order], coords[order], signs[order]
    last_hit = np.full(2, np.nan)
    rows = []           # (lag_other, next_fired_is_other, next_sign)
    for i in range(len(times) - 1):
        last_hit[coords[i]] = times[i]
        other = 1 - coords[i]
        if np.isnan(last_hit[other]):
            continue
        lag_other = times[i] - last_hit[other]
        rows.append((lag_other, 1 if coords[i + 1] == other else 0, signs[i + 1]))
    rows = np.asarray(rows)

    mc_ok = True
    details = []
    for lo_u, hi_u in [(0.2, 0.4), (0.4, 0.6), (0.6, 1.0), (1.0, 2.0)]:
        sel = (rows[:, 0] >= lo_u * eps**2) & (rows[:, 0] < hi_u * eps**2)
        m = int(sel.sum())
        if m < 500:
            mc_ok = False
            details.append(f"bin {lo_u}-{hi_u}: too few draws ({m})")
            continue
        lag_mean = float(rows[sel, 0].mean())
        p_hat = float(rows[sel, 1].mean())
        p_form = first_fire_probability(np.array([0.0, lag_mean]), 2, eps)
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-6) / m)
        ok_bin = abs(p_hat - p_form) <= 4 * se
        s_hat = float(np.mean(rows[sel, 2] == 1))
        ok_sign = abs(s_hat - 0.5) <= 4 * math.sqrt(0.25 / m)
        mc_ok = mc_ok and ok_bin and ok_sign
        details.append(f"lag~{lag_mean:.2f}: mc {p_hat:.4f} vs kernel "
                       f"{p_form:.4f} (4se {4*se:.4f}) n={m}")
    elapsed = time.time() - t0
    ok = mass_ok and mc_ok and elapsed < 120.0
    report(3, ok, f"worst mass err {worst_mass:.2e}; " + "; ".join(details)
           + f"; {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criteria 4 + 5: DP vs enumeration, HJB residual (< 1 min)
# ---------------------------------------------------------------------------

def _random_instance(seed):
    """Random small Case A instance with a bounded Hoelder payoff."""
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.3, 0.6))
    a_lin = float(rng.uniform(-0.5, 0.5))
    a_act = float(rng.uniform(-0.5, 0.5))
    b0 = float(rng.uniform(0.2, 1.0))
    b_lin = float(rng.uniform(-0.5, 0.5))
    spec = PdSdeSpec(
        drift=lambda t, p, a: a_lin * np.atleast_1d(p(t)) + a_act * np.atleast_1d(a),
        diffusion=lambda t, p, a: b0 + b_lin * np.atleast_1d(p(t))[:, None] * 0.3,
        x0=np.array([float(rng.uniform(-1, 1))]))
    struct = CaseAStructure(spec, eps, horizon_T=2.0)
    w1 = float(rng.uniform(0.3, 1.0))
    w2 = float(rng.uniform(0.0, 0.7))
    payoff = lambda path, w1=w1, w2=w2: (                        # noqa: E731
        w1 * np.array([math.tanh(x) for x in path(2.0)[:, 0]])
        + w2 * np.array([math.tanh(x) for x in path.running_max()[:, 0]]))
    depth = int(rng.integers(1, 4))
    n_act = int(rng.integers(1, 4))
    grid = np.sort(rng.choice(np.array([-1.0, 0.0, 1.0]), size=n_act,
                              replace=False))
    cfg = SolveConfig(action_grid=grid, depth=depth, Q=2)
    return struct, payoff, cfg, eps


def test_criterion_4_dp_equals_enumeration():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        struct, payoff, cfg, eps = _random_instance(seed)
        tree = build_tree(struct, payoff, eps, cfg)
        dp = backward_dp(tree).report.root_value
        enum = enumerate_oracle(struct, payoff, tree)
        worst = max(worst, abs(dp - enum))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    report(4, ok, f"20 instances, worst |dp - enum| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_hjb_residual(merton_solution):
    t0 = time.time()
    worst_max = 0.0   # max over nodes of |max_a U V|
    worst_pos = 0.0   # most positive U V over all (node, action)
    for seed in range(20):
        struct, payoff, cfg, eps = _random_instance(seed)
        tree = build_tree(struct, payoff, eps, cfg)
        res = backward_dp(tree)
        for depth in range(cfg.depth):
            us = np.array([hamiltonian(tree, res.values, depth, ai)
                           for ai in range(len(cfg.action_grid))])
            worst_max = max(worst_max, float(np.max(np.abs(us.max(axis=0)))))
            worst_pos = max(worst_pos, float(us.max()))
    # every node of three layers of the solved Merton tree: grid actions
    # plus each node's recorded (refined) action
    ms = merton_solution
    tree, res = ms["tree"], ms["res"]
    for depth in [0, 4, 8]:
        us = np.array([hamiltonian(tree, res.values, depth, ai)
                       for ai in range(0, 41, 5)]
                      + [hamiltonian(tree, res.values, depth, 0,
                                     action_value=res.policy.layers[depth])])
        worst_max = max(worst_max, float(np.max(np.abs(us.max(axis=0)))))
        worst_pos = max(worst_pos, float(us.max()))
    elapsed = time.time() - t0
    ok = worst_max <= 1e-10 and worst_pos <= 1e-10
    report(5, ok, f"max |sup_a U V| = {worst_max:.2e}, most positive U V = "
                  f"{worst_pos:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 6: Merton reproduction at desk scale (< 10 min)
# ---------------------------------------------------------------------------

def test_criterion_6_merton(merton_solution):
    t0 = time.time()
    ms = merton_solution
    res = ms["res"]
    frac_ok = abs(res.report.root_action - MERTON_FRACTION) <= 0.15
    ref = merton_oracle(ms["spec"], ms["eps"], ms["cfg"])
    pay = portfolio_policy_rollouts(ms["spec"], ms["eps"], res, ms["tree"],
                                    30_000, seed=606)
    se = pay.std(ddof=1) / math.sqrt(len(pay))
    budget = ms["cfg"].epsilon_total + 3 * se + ms["q_slack"]
    value_ok = abs(res.report.root_value - ref.const_grid_value) <= budget
    elapsed = time.time() - t0
    ok = frac_ok and value_ok
    report(6, ok,
           f"fraction {res.report.root_action:.4f} vs {MERTON_FRACTION:.4f} "
           f"(tol 0.15); root {res.report.root_value:.6f} vs const-grid "
           f"{ref.const_grid_value:.6f} (budget {budget:.4f}), {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 7: epsilon-certificate (MC of the extracted policy)
# ---------------------------------------------------------------------------

def test_criterion_7_epsilon_certificate(merton_solution):
    t0 = time.time()
    ms = merton_solution
    res = ms["res"]
    pay = portfolio_policy_rollouts(ms["spec"], ms["eps"], res, ms["tree"],
                                    100_000, seed=707)
    mc = float(pay.mean())
    se = float(pay.std(ddof=1) / math.sqrt(len(pay)))
    eps_budget = ms["cfg"].epsilon_total
    bound = res.report.root_value - eps_budget - 3 * se - ms["q_slack"]
    elapsed = time.time() - t0
    ok = mc >= bound
    report(7, ok, f"mc {mc:.6f} >= root {res.report.root_value:.6f} - eps {eps_budget} "
                  f"- 3se {3*se:.5f} - qslack {ms['q_slack']:.5f} "
                  f"= {bound:.6f}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 8: Case A strong convergence (< 5 min)
# ---------------------------------------------------------------------------

def test_criterion_8_case_a_convergence():
    t0 = time.time()
    a_c, b_c, x0, T = 0.1, 0.5, 1.0, 1.0
    eps_levels = [0.5, 0.35, 0.25]
    n_paths = 10_000
    dt = min(eps_levels) ** 2 / 400
    n_grid = int(math.ceil(T / dt))
    sums = {e: 0.0 for e in eps_levels}
    batch = 100
    for b0 in range(0, n_paths, batch):
        key = np.array([np.uint64(808), np.uint64(b0)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        incs = gen.standard_normal((batch, n_grid)) * math.sqrt(dt)
        bms = np.concatenate([np.zeros((batch, 1)), np.cumsum(incs, axis=1)],
                             axis=1)
        t_grid = dt * np.arange(n_grid + 1)
        for eps in eps_levels:
            for i in range(batch):
                p = crossing_sample_skeleton(eps, t_grid, bms[i:i + 1])
                x = x0
                t_now = 0.0
                sup = 0.0
                for n in range(len(p)):
                    # linear SDE Euler on the event partition (d = 1 freeze
                    # reduces to the previous state)
                    x = x + a_c * x * p.delta_t[n] + b_c * x * eps * p.signs[n]
                    t_now += p.delta_t[n]
                    idx = min(int(round(t_now / dt)), n_grid)
                    exact = x0 * math.exp((a_c - 0.5 * b_c**2) * t_now
                                          + b_c * bms[i, idx])
                    sup = max(sup, abs(x - exact))
                sums[eps] += sup
    errs = [sums[e] / n_paths for e in eps_levels]
    elapsed = time.time() - t0
    ok = errs[0] > errs[1] > errs[2] and elapsed < 300.0
    report(8, ok, "E sup|X^k - X| = " + ", ".join(
        f"{e:.4f}@eps={ep}" for e, ep in zip(errs, eps_levels))
        + f", strictly decreasing={errs[0] > errs[1] > errs[2]}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 9: fBm driver convergence (< 10 min)
# ---------------------------------------------------------------------------

def test_criterion_9_fbm_convergence():
    t0 = time.time()
    H, T = 0.75, 1.0
    ks = [3, 4, 5]
    n_paths = 200
    dt = (2.0 ** -max(ks)) ** 2 / 400
    n_grid = int(math.ceil(T / dt))
    t_grid = dt * np.arange(n_grid + 1)
    eval_times = np.linspace(0.05, 1.0, 32)
    sub = slice(None, None, 64)      # reference uses a 64x coarser fine path
    sums = {k: 0.0 for k in ks}
    for seed in range(n_paths):
        t_g, bm = brownian_fine_path(1, T, dt, seed=seed, stream=909)
        w_ref = fbm.fbm_ref_from_fine_path(t_g[sub], bm[0][sub], H, eval_times)
        for k in ks:
            eps = 2.0 ** -k
            p = crossing_sample_skeleton(eps, t_g, bm)
            w_skel = fbm.fbm_from_skeleton(p.cum_times, p.signs.astype(float),
                                           eps, H, eval_times)
            sums[k] += float(np.max(np.abs(w_skel - w_ref)))
    errs = [sums[k] / n_paths for k in ks]
    elapsed = time.time() - t0
    ok = errs[0] > errs[1] > errs[2] and elapsed < 600.0
    report(9, ok, "E sup|W_H^k - B_H^ref| = " + ", ".join(
        f"{e:.4f}@k={k}" for e, k in zip(errs, ks))
        + f", strictly decreasing={errs[0] > errs[1] > errs[2]}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 10: portfolio stage truncation decay (< 1 min)
# ---------------------------------------------------------------------------

def test_criterion_10_stage_truncation():
    t0 = time.time()
    spec = PortfolioSpec(**MERTON)
    eps = 1.0 / 3
    a_grid = np.linspace(-1, 1, 401)
    gaps = []
    for n in range(1, 7):
        gaps.append(max(stage_truncation_gap(float(a), 0.0, spec, eps, n)
                        for a in a_grid))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    xs = np.array([(2 * n + 1) ** 2 for n in range(1, 7)], dtype=float)
    slope = float(np.polyfit(xs, np.log(gaps), 1)[0])
    elapsed = time.time() - t0
    ok = decreasing and slope <= -0.4 and elapsed < 60.0
    report(10, ok, f"gaps {gaps[0]:.2e}..{gaps[-1]:.2e}, decreasing="
                   f"{decreasing}, log-gap slope vs (2n+1)^2 = {slope:.3f} "
                   f"<= -0.4, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 11: thread-count determinism of CLI outputs
# ---------------------------------------------------------------------------

def _cli_bytes(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = fh.read()
    return found


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    # criterion-4 style config: small full-mode solve
    cfg4 = {
        "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 2.0},
        "problem": {"kind": "pd_sde", "drift": {"name": "linear", "scale": 0.2},
                    "diffusion": {"name": "constant", "value": 0.6},
                    "x0": [0.5], "payoff": {"name": "terminal_tanh"}},
        "solve": {"action_grid": [-1.0, 0.0, 1.0], "depth": 3, "Q": 2},
        "evaluate": {"n_paths": 2000},
    }
    # criterion-6 config: the full Merton instance
    cfg6 = {
        "skeleton": {"epsilon_k": 1.0 / 3, "d": 1, "horizon_T": 1.0},
        "problem": {"kind": "portfolio", "r": 0.03, "alpha": 0.05,
                    "sigma": 0.3, "gamma_util": 0.5, "x0": 1.0, "a_bar": 1.0},
        "solve": {"action_grid": {"lo": -1, "hi": 1, "n": 41}, "depth": 9,
                  "Q": 8, "epsilon_total": 0.01, "collapse": True,
                  "refine": True, "node_cap": 3000000},
        "evaluate": {"n_paths": 5000},
    }
    all_ok = True
    details = []
    for label, cfg, sub in [("c4", cfg4, "solve"), ("c4-ev", cfg4, "evaluate"),
                            ("c6", cfg6, "solve")]:
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for threads in (1, 8):
            out = str(tmp_path / f"{label}-t{threads}")
            rc = cli_main([sub, "--config", str(cfg_path), "--out-dir", out,
                           "--seed", "11", "--threads", str(threads), "--quiet"])
            assert rc == 0
            outs.append(_cli_bytes(out))
        same = outs[0] == outs[1]
        all_ok = all_ok and same
        details.append(f"{label}:{'byte-identical' if same else 'DIFFER'}")
    elapsed = time.time() - t0
    report(11, all_ok, ", ".join(details) + f", {elapsed:.0f} s")
