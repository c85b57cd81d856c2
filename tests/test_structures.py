import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from skeldp import density, structures
from skeldp.errors import ConfigurationError, EvaluationError
from skeldp.skeleton import SkeletonConfig, sample_skeleton
from skeldp.structures import (CaseAStructure, FbmSpec, FbmStructure, PdSdeSpec,
                               PortfolioSpec, PortfolioStructure, power_utility_payoff,
                               stage_g, stage_truncation_gap,
                               structure_from_config)

GX, GW = leggauss(64)


def unit(c, s):
    """The (coord, sign) of a step."""
    return c, s


# ---------------------------------------------------------------------------
# Case A
# ---------------------------------------------------------------------------

def test_case_a_degenerate_ode():
    c = 0.7
    spec = PdSdeSpec(drift=lambda t, p, a: np.array([c]),
                     diffusion=lambda t, p, a: np.zeros((1, 1)),
                     x0=np.array([2.0]))
    struct = CaseAStructure(spec, epsilon_k=0.3, horizon_T=10.0)
    state = struct.init()
    for dt in [0.1, 0.4, 0.25]:
        state = struct.step(state, 0.0, dt, *unit(1, 1))
    assert state.values[0, -1, 0] == pytest.approx(2.0 + c * 0.75, rel=1e-14)


def test_case_a_pure_noise():
    eps = 0.3
    spec = PdSdeSpec(drift=lambda t, p, a: np.zeros(1),
                     diffusion=lambda t, p, a: np.ones((1, 1)),
                     x0=np.array([1.0]))
    struct = CaseAStructure(spec, epsilon_k=eps, horizon_T=10.0)
    state = struct.init()
    signs = [1, -1, -1, 1, 1]
    for s in signs:
        state = struct.step(state, 0.0, 0.2, *unit(1, s))
    assert state.values[0, -1, 0] == pytest.approx(1.0 + eps * sum(signs), rel=1e-14)


def test_case_a_growth_bound():
    # |dX| <= |alpha|_inf dt + |sigma|_inf eps per step for bounded coefficients
    eps = 0.25
    spec = PdSdeSpec(drift=lambda t, p, a: np.sin(t) + a,
                     diffusion=lambda t, p, a: np.cos(t)[:, :, None],
                     x0=np.array([0.0]))
    struct = CaseAStructure(spec, eps, horizon_T=10.0)
    rng = np.random.default_rng(3)
    state = struct.init()
    for _ in range(60):
        dt = float(rng.uniform(0.01, 0.3))
        a = float(rng.uniform(-1, 1))
        s = int(rng.choice([-1, 1]))
        new = struct.step(state, a, dt, *unit(1, s))
        dx = abs(new.values[0, -1, 0] - state.values[0, -1, 0])
        assert dx <= 2.0 * dt + 1.0 * eps + 1e-12
        state = new


def test_case_a_diffusion_frozen_at_last_hit():
    # d=2: the column of the firing coordinate must read the path and the
    # action from that coordinate's previous own hit
    eps = 0.5
    seen = []

    def diffusion(t, path, a):
        seen.append((float(t[0, 0]), float(path(t)[0, 0]), float(a[0, 0])))
        return np.array([[1.0, 2.0]])

    spec = PdSdeSpec(drift=lambda t, p, a: np.zeros(1), diffusion=diffusion,
                     x0=np.array([0.0]), d=2)
    struct = CaseAStructure(spec, eps, horizon_T=10.0)
    state = struct.init()
    state = struct.step(state, 10.0, 0.3, *unit(1, 1))   # coord 1 fires
    state = struct.step(state, 20.0, 0.2, *unit(2, 1))   # coord 2 fires
    state = struct.step(state, 30.0, 0.4, *unit(1, -1))  # coord 1 again
    # third call: coord 1 last hit at step 1 (time 0.3), action chosen there
    # is a_1 = 20.0 (the action supplied at that step's end is a_1);
    # the frozen path value is the state after step 1
    t3, x3, a3 = seen[2]
    assert t3 == pytest.approx(0.3)
    assert a3 == 20.0
    assert x3 == pytest.approx(eps * 1.0)   # value after the first jump


def test_case_a_nan_raises_with_step():
    spec = PdSdeSpec(drift=lambda t, p, a: np.array([float("nan")]),
                     diffusion=lambda t, p, a: np.zeros((1, 1)),
                     x0=np.array([0.0]))
    struct = CaseAStructure(spec, 0.5, horizon_T=1.0)
    with pytest.raises(EvaluationError) as err:
        struct.step(struct.init(), 0.0, 0.1, *unit(1, 1))
    assert err.value.step == 1


def test_case_a_refuses_a_drift_of_one_value_per_row():
    # an (N,) drift against (N, 1) states would broadcast to (N, N)
    spec = PdSdeSpec(drift=lambda t, p, a: p(t)[:, 0],
                     diffusion=lambda t, p, a: np.ones((1, 1)),
                     x0=np.array([0.5]))
    struct = CaseAStructure(spec, 0.5, horizon_T=1.0)
    with pytest.raises(ConfigurationError, match=r"drift returned shape \(3,\)"):
        struct.step(struct.init(), np.array([-1.0, 0.0, 1.0]), 0.1, *unit(1, 1))


def test_payoff_must_return_one_value_per_path():
    struct = PortfolioStructure(pspec(), 0.5)
    block = struct.step(struct.init(), np.array([0.0, 0.5]), 0.1, *unit(1, 1))
    payoff = power_utility_payoff(struct.spec)
    assert structures.payoff_of(struct, payoff, block).shape == (2,)
    with pytest.raises(ConfigurationError, match=r"payoff returned shape \(2, 1\)"):
        structures.payoff_of(struct, lambda path: path(1.0), block)


def _case_a_d2():
    spec = PdSdeSpec(
        drift=lambda t, p, a: 0.3 * a - 0.2 * p(t) + np.sin(t),
        diffusion=lambda t, p, a: np.concatenate(
            [1 + 0.1 * a * p.running_max(), 0.5 + np.cos(t) * p(t)], axis=1)[:, None, :],
        x0=np.array([0.2]), d=2)
    return CaseAStructure(spec, 0.5, horizon_T=1.0), 2


def _fbm():
    spec = FbmSpec(H=0.75, sigma=0.8, drift=lambda t, p, a: a - 0.5 * p(t), x0=0.1)
    return FbmStructure(spec, 0.5, horizon_T=1.0), 1


def _portfolio():
    return PortfolioStructure(pspec(), 0.5), 1


STRUCTURES = {"case_a": _case_a_d2, "fbm": _fbm, "portfolio": _portfolio}


@pytest.mark.parametrize("make", STRUCTURES.values(), ids=STRUCTURES.keys())
def test_block_step_equals_row_steps(make):
    """A block steps each row as a 1-row block would, fanning out rows."""
    struct, d = make()
    rng = np.random.default_rng(7)
    steps = []
    for n_rows in (6, 6, 6):
        steps.append((rng.choice([-1.0, 0.0, 1.0], size=n_rows),
                      rng.uniform(0.05, 0.4, size=n_rows),
                      rng.integers(1, d + 1, size=n_rows), rng.choice([-1, 1], size=n_rows)))
    block = struct.init()
    for acts, dts, coords, signs in steps:
        block = struct.step(block, acts, dts, coords, signs)
    for i in range(6):
        row = struct.init()
        for acts, dts, coords, signs in steps:
            row = struct.step(row, acts[i], dts[i], coords[i], signs[i])
        for f in dataclasses.fields(row):
            assert np.array_equal(getattr(row, f.name)[0], getattr(block, f.name)[i]), f.name


@pytest.mark.parametrize("make", STRUCTURES.values(), ids=STRUCTURES.keys())
@pytest.mark.parametrize("bad", ["coord-0", "coord-d+1", "sign-0"])
def test_step_refuses_a_bad_coord_or_sign(make, bad):
    struct, d = make()
    coord, sign = {"coord-0": (0, 1), "coord-d+1": (d + 1, 1), "sign-0": (1, 0)}[bad]
    with pytest.raises(ConfigurationError, match="a step moves a coordinate"):
        struct.step(struct.init(), 0.0, 0.1, coord, sign)
    with pytest.raises(ConfigurationError, match="a step moves a coordinate"):
        struct.step(struct.init(), np.zeros(2), 0.1, np.array([1, coord]), np.array([1, sign]))


def coupled_linear_error(eps, n_paths=60, seed0=0):
    """E max_n |X^k(T_n) - X(T_n)| for the linear SDE on coupled paths."""
    from skeldp.skeleton import brownian_fine_path, crossing_sample_skeleton
    a_c, b_c, x0, T = 0.1, 0.5, 1.0, 1.0
    spec = PdSdeSpec(drift=lambda t, p, a: a_c * np.atleast_1d(p(t)),
                     diffusion=lambda t, p, a: b_c * np.atleast_1d(p(t))[:, None],
                     x0=np.array([x0]))
    struct = CaseAStructure(spec, eps, horizon_T=T)
    dt = eps**2 / 400
    errs = []
    for seed in range(seed0, seed0 + n_paths):
        t_grid, bm = brownian_fine_path(1, T, dt, seed=seed, stream=2)
        path = crossing_sample_skeleton(eps, t_grid, bm)
        state = struct.init()
        sup = 0.0
        for n in range(len(path)):
            state = struct.step(state, 0.0, float(path.delta_t[n]),
                                *unit(1, int(path.signs[n])))
            tn = state.times[0, -1]
            idx = min(int(round(tn / dt)), len(t_grid) - 1)
            exact = x0 * math.exp((a_c - 0.5 * b_c**2) * tn + b_c * bm[0, idx])
            sup = max(sup, abs(state.values[0, -1, 0] - exact))
        errs.append(sup)
    return float(np.mean(errs))


def test_case_a_coupled_error_shrinks_module_scale():
    assert coupled_linear_error(0.5) > coupled_linear_error(0.25)


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------

def pspec(**kw):
    base = dict(r=0.03, alpha_k=0.05, sigma_k=0.3, gamma_util=0.5, x0=1.0,
                horizon_T=1.0)
    base.update(kw)
    return PortfolioSpec(**base)


def test_portfolio_zero_control_risk_free():
    spec = pspec()
    struct = PortfolioStructure(spec, 0.5)
    state = struct.init()
    for dt in [0.2, 0.3, 0.1]:
        state = struct.step(state, 0.0, dt, *unit(1, 1))
    assert math.exp(state.log_payoff_wealth[0]) == pytest.approx(
        math.exp(0.03 * 0.6), rel=1e-14)


def terminal_wealth(spec, eps, actions, dts, signs):
    struct = PortfolioStructure(spec, eps)
    state = struct.init()
    for a, dt, s in zip(actions, dts, signs):
        state = struct.step(state, a, dt, *unit(1, s))
    return math.exp(state.log_wealth[0, -1])


def test_portfolio_x0_scaling_exact():
    eps = 0.5
    actions, dts, signs = [0.3, -0.8, 1.0], [0.2, 0.4, 0.1], [1, -1, 1]
    w1 = terminal_wealth(pspec(), eps, actions, dts, signs)
    w7 = terminal_wealth(pspec(x0=7.0), eps, actions, dts, signs)
    assert w7 == pytest.approx(7.0 * w1, rel=1e-14)


def test_portfolio_one_step_value():
    # a=1, sigma=0.2, alpha=r, eps=0.5, sign +1, s=0.25
    spec = pspec(alpha_k=0.03, sigma_k=0.2)
    w = terminal_wealth(spec, 0.5, [1.0], [0.25], [1])
    assert w == pytest.approx(math.exp(0.03 * 0.25 - 0.005 + 0.1), rel=1e-14)


def test_portfolio_positivity():
    spec = pspec()
    struct = PortfolioStructure(spec, 1.0 / 3)
    cfg = SkeletonConfig(epsilon_k=1.0 / 3, d=1, n_steps=9)
    rng = np.random.default_rng(0)
    for seed in range(30):
        path = sample_skeleton(cfg, seed)
        state = struct.init()
        for n in range(len(path)):
            a = float(rng.uniform(-1, 1))
            state = struct.step(state, a, float(path.delta_t[n]),
                                *unit(1, int(path.signs[n])))
            assert math.exp(state.log_wealth[0, -1]) > 0


def test_portfolio_horizon_clipping():
    spec = pspec()
    struct = PortfolioStructure(spec, 0.5)
    state = struct.init()
    state = struct.step(state, 0.5, 0.7, *unit(1, 1))
    lw_before = state.log_payoff_wealth[0]
    # this step straddles T = 1: the payoff keeps the pre-step wealth
    state = struct.step(state, 1.0, 0.8, *unit(1, 1))
    assert state.log_payoff_wealth[0] == lw_before
    assert state.t_clip[0] == spec.horizon_T
    # absorbed afterwards
    state2 = struct.step(state, -1.0, 0.3, *unit(1, -1))
    assert state2.log_payoff_wealth[0] == lw_before
    payoff = power_utility_payoff(spec)
    assert payoff(struct.payoff_input(state2))[0] == pytest.approx(
        math.exp(0.5 * lw_before) / 0.5, rel=1e-12)


def test_collapse_ops_match_scalar_steps():
    spec = pspec()
    eps = 1.0 / 3
    struct = PortfolioStructure(spec, eps)
    ops = struct.collapse_ops()
    rng = np.random.default_rng(5)
    stats = np.tile(ops.stat0(), (1, 1))
    state = struct.init()
    for _ in range(12):
        a = float(rng.uniform(-1, 1))
        dt = float(rng.uniform(0.05, 0.4))
        s = int(rng.choice([-1, 1]))
        stats = ops.step_stats(stats, a, dt, s)
        state = struct.step(state, a, dt, *unit(1, s))
        assert stats[0, 0] == state.t_clip[0]
        assert stats[0, 1] == state.log_payoff_wealth[0]


@pytest.mark.parametrize("time_dependent", [False, True])
def test_increment_of_rates_is_the_one_wealth_law(time_dependent):
    """increment(rates(t, a), dt, s) is log_increment and the single
    expression it was written as, bit for bit, for scalar and array
    arguments."""
    spec = PortfolioSpec(r=0.03, alpha_k=lambda t: 0.05 + 0.02 * np.cos(3.0 * t),
                         sigma_k=lambda t: 0.3 + 0.05 * np.sin(2.0 * t),
                         gamma_util=0.5, x0=1.0) if time_dependent else pspec()
    eps = 1.0 / 3
    ops = PortfolioStructure(spec, eps).collapse_ops()
    rng = np.random.default_rng(11)
    n = 500
    t, a = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    dt, s = rng.uniform(0.01, 0.4, n), rng.choice([-1, 1], n)

    def written_out(t, a, dt, s):
        al, sg = spec.alpha_k(t), spec.sigma_k(t)
        return (a * (al - spec.r) + spec.r) * dt - 0.5 * (a * sg) ** 2 * dt \
            + a * sg * eps * s

    for args in [(t, a, dt, s), (t, float(a[0]), float(dt[0]), int(s[0])),
                 (float(t[1]), float(a[1]), float(dt[1]), int(s[1]))]:
        got = ops.increment(ops.rates(args[0], args[1]), args[2], args[3])
        assert np.array_equal(got, ops.log_increment(*args))
        assert np.array_equal(got, written_out(*args))
        assert np.shape(got) == np.shape(written_out(*args))
    # one rates for every atom of a probe
    rates = ops.rates(t, a)
    for d, sign in [(0.05, 1), (0.3, -1)]:
        assert np.array_equal(ops.increment(rates, d, sign),
                              written_out(t, a, d, sign))


def test_argmax_invariant_under_x0():
    # stage ordering free of x0: the payoff factors as x0^gamma * rest
    eps = 1.0 / 3
    grid = np.linspace(-1, 1, 9)
    from skeldp.solver import SolveConfig, backward_dp, build_tree
    roots = {}
    for x0 in (1.0, 7.0):
        struct = PortfolioStructure(pspec(x0=x0), eps)
        res = backward_dp(build_tree(struct, power_utility_payoff(pspec(x0=x0)),
                                     eps, SolveConfig(grid, depth=3, Q=2)))
        roots[x0] = res
    acts1 = roots[1.0].policy.layers[0].tolist()
    acts7 = roots[7.0].policy.layers[0].tolist()
    assert acts1 == acts7
    assert roots[7.0].report.root_value == pytest.approx(
        7.0**0.5 * roots[1.0].report.root_value, rel=1e-10)


# ---------------------------------------------------------------------------
# stage functions
# ---------------------------------------------------------------------------

def test_stage_g_at_zero_action():
    spec = pspec()
    eps = 1.0 / 3
    g = stage_g(0.0, 0.0, spec, eps)
    # cosh(0) = 1; direct quadrature of the same integral as oracle
    q = spec.gamma_util * spec.r * eps**2
    upper = 1.0 * eps**-2
    edges = np.linspace(5e-3, upper, 201)
    tot = 0.0
    for i in range(200):
        half = 0.5 * (edges[i + 1] - edges[i])
        u = 0.5 * (edges[i + 1] + edges[i]) + half * GX
        tot += half * float(np.sum(GW * np.exp(q * u) * density.f_tau(u, 60)))
    assert g == pytest.approx(tot / spec.gamma_util, rel=1e-8)


def test_stage_g_vs_monte_carlo():
    # g(a) = (1/gamma) E[G] over (delta-t, sign) at a = 0.5, t = 0
    spec = pspec()
    eps = 1.0 / 3
    a = 0.5
    n = 400_000
    rng = np.random.default_rng(17)
    u = rng.random(n)
    taus = density.inverse_cdf_tau(np.clip(u, 1e-12, 1 - 1e-12))
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    g_util, sg, al, r = spec.gamma_util, 0.3, 0.05, 0.03
    expo = (g_util * a * sg * eps * signs
            + g_util * (a * (al - r) + r) * taus * eps**2
            - 0.5 * g_util * (a * sg) ** 2 * taus * eps**2)
    vals = np.exp(expo) * (taus < eps**-2)   # in-horizon draws only
    mc = vals.mean() / g_util
    se = vals.std(ddof=1) / math.sqrt(n) / g_util
    assert abs(stage_g(a, 0.0, spec, eps) - mc) <= 4 * se


def test_stage_gap_decreasing_and_matches_direct():
    spec = pspec()
    eps = 1.0 / 3
    gaps = [max(stage_truncation_gap(a, 0.0, spec, eps, n)
                for a in np.linspace(-1, 1, 41)) for n in range(1, 7)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # where no cancellation bites (n = 1, 2), the direct difference agrees
    for n in (1, 2):
        direct = max(abs(stage_g(a, 0.0, spec, eps) -
                         stage_g(a, 0.0, spec, eps, n_terms=n))
                     for a in np.linspace(-1, 1, 21))
        tail = max(stage_truncation_gap(a, 0.0, spec, eps, n)
                   for a in np.linspace(-1, 1, 21))
        assert direct == pytest.approx(tail, rel=1e-4)


def test_stage_gap_sup_below_tolerance_at_n6():
    spec = pspec()
    eps = 1.0 / 3
    sup_gap = max(abs(stage_g(a, 0.0, spec, eps)
                      - stage_g(a, 0.0, spec, eps, n_terms=6))
                  for a in np.linspace(-1, 1, 401))
    assert sup_gap < 1e-6


def test_stage_g_time_domain_errors():
    spec = pspec()
    with pytest.raises(ConfigurationError):
        stage_g(0.0, 1.0, spec, 0.5)
    with pytest.raises(ConfigurationError):
        stage_g(0.0, 0.5, spec, 0.5, n_terms=0)


def test_stage_g_truncated_refuses_horizon():
    spec = pspec()
    for t in (spec.horizon_T, spec.horizon_T + 0.5):
        with pytest.raises(ConfigurationError, match="horizon"):
            stage_g(0.0, t, spec, 0.5, n_terms=3)


# ---------------------------------------------------------------------------
# non-anticipativity (all structures)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_non_anticipativity(seed):
    """The state after n steps never depends on actions supplied later."""
    rng = np.random.default_rng(seed)
    n_steps = 6
    dts = rng.uniform(0.05, 0.3, size=n_steps)
    signs = rng.choice([-1, 1], size=n_steps)
    acts_a = rng.uniform(-1, 1, size=n_steps)
    acts_b = acts_a.copy()
    cut = int(rng.integers(1, n_steps))
    acts_b[cut:] = rng.uniform(-1, 1, size=n_steps - cut)

    defs = [
        PortfolioStructure(pspec(), 0.4),
        CaseAStructure(PdSdeSpec(
            drift=lambda t, p, a: np.atleast_1d(a) * 0.2 + 0.1 * np.atleast_1d(p(t)),
            diffusion=lambda t, p, a: (1 + np.atleast_1d(p(t))[:, None]**2) * 0.3,
            x0=np.array([0.5])), 0.4, horizon_T=10.0),
    ]
    for struct in defs:
        sa = struct.init()
        sb = struct.init()
        for n in range(cut):
            sa = struct.step(sa, float(acts_a[n]), float(dts[n]), *unit(1, int(signs[n])))
            sb = struct.step(sb, float(acts_b[n]), float(dts[n]), *unit(1, int(signs[n])))
        assert np.array_equal(struct.payoff_input(sa)(100.0), struct.payoff_input(sb)(100.0))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_structure_from_config_kinds():
    s, p = structure_from_config(
        {"kind": "portfolio", "r": 0.03, "alpha": 0.05, "sigma": 0.3,
         "gamma_util": 0.5, "x0": 1.0}, 0.5, 1.0)
    assert isinstance(s, PortfolioStructure)
    s, p = structure_from_config(
        {"kind": "pd_sde", "drift": {"name": "linear", "scale": 0.1},
         "diffusion": {"name": "constant", "value": 0.5}, "x0": [1.0]}, 0.5, 1.0)
    assert isinstance(s, CaseAStructure)
    s, p = structure_from_config(
        {"kind": "fbm", "H": 0.75, "sigma": 1.0, "drift": "zero", "x0": 0.0},
        0.25, 1.0)
    assert s.spec.H == 0.75


def test_structure_from_config_rejects_unknown():
    with pytest.raises(ConfigurationError):
        structure_from_config({"kind": "portfolio", "r": 0.03, "alpha": 0.05,
                               "sigma": 0.3, "gamma_util": 0.5, "x0": 1.0,
                               "alpha_typo": 1.0}, 0.5, 1.0)
    with pytest.raises(ConfigurationError):
        structure_from_config({"kind": "mystery"}, 0.5, 1.0)
    with pytest.raises(ConfigurationError):
        structure_from_config({"kind": "pd_sde", "drift": {"name": "nope"},
                               "diffusion": "constant", "x0": [0.0]}, 0.5, 1.0)


@pytest.mark.parametrize("a_bar", [0.0, -1.0])
def test_portfolio_spec_refuses_nonpositive_a_bar(a_bar):
    with pytest.raises(ConfigurationError, match="a_bar must be > 0"):
        pspec(a_bar=a_bar)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        pspec(gamma_util=1.5)
    with pytest.raises(ConfigurationError):
        pspec(x0=-1.0)
    with pytest.raises(ConfigurationError):
        pspec(sigma_k=0.0)
    with pytest.raises(ConfigurationError):
        structures.FbmSpec(H=0.4, sigma=1.0, drift=lambda t, p, a: 0.0, x0=0.0)
