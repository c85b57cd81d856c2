import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import stats

from skeldp import density, skeleton
from skeldp.errors import ConfigurationError, NumericalError
from skeldp.skeleton import (SkeletonConfig, SkeletonPath, brownian_fine_path,
                             crossing_sample_skeleton, elapsed_times,
                             path_from_csv, path_to_csv, sample_skeleton)


def test_config_defaults_and_validation():
    cfg = SkeletonConfig(epsilon_k=0.5, d=2, horizon_T=1.0)
    assert cfg.e_kT == 2 * int(np.ceil(0.5**-2 * 1.0)) == 8
    assert cfg.n_steps == 8
    for bad in (0.0, 10**400):
        with pytest.raises(ConfigurationError, match="epsilon_k must be finite and > 0"):
            SkeletonConfig(epsilon_k=bad)
    with pytest.raises(ConfigurationError):
        SkeletonConfig(epsilon_k=1.0, d=0)
    with pytest.raises(ConfigurationError):
        SkeletonConfig(epsilon_k=1.0, n_steps=0)
    # counts must be ints: 1.5 would run with n_steps 6.0, True as d = 1
    for bad in ({"d": 1.5}, {"d": True}, {"d": 2.0}, {"n_steps": 4.0},
                {"n_steps": True}, {"n_steps": "4"}):
        with pytest.raises(ConfigurationError, match="must be an int >= 1"):
            SkeletonConfig(0.5, **bad)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_refuses_seed_outside_philox_key(seed):
    with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
        sample_skeleton(SkeletonConfig(0.5), seed)


def test_reproducibility():
    cfg = SkeletonConfig(epsilon_k=0.5, d=3, n_steps=200)
    a = sample_skeleton(cfg, seed=99)
    b = sample_skeleton(cfg, seed=99)
    assert np.array_equal(a.delta_t, b.delta_t)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.signs, b.signs)
    c = sample_skeleton(cfg, seed=100)
    assert not np.array_equal(a.delta_t, c.delta_t)


def test_merged_times_are_sorted_union():
    cfg = SkeletonConfig(epsilon_k=0.5, d=3, n_steps=300)
    path = sample_skeleton(cfg, seed=5)
    merged = path.cum_times
    union = np.sort(np.concatenate([path.cum_times[path.coords == j]
                                    for j in range(1, 4)]))
    assert np.array_equal(merged, union)
    assert np.all(np.diff(merged) > 0)


def test_step_law_module_scale():
    one = sample_skeleton(SkeletonConfig(epsilon_k=1.0, d=1, n_steps=100_000), seed=7)
    block = sample_skeleton(SkeletonConfig(epsilon_k=1.0, d=1, n_steps=50), 7,
                            chunk=3, size=2_000)
    assert block.delta_t.shape == block.signs.shape == (2_000, 50)
    assert np.all(block.coords == 1)
    for dts, signs in ((one.delta_t, one.signs), (block.delta_t, block.signs)):
        se = dts.std(ddof=1) / np.sqrt(dts.size)
        assert abs(dts.mean() - 1.0) <= 3 * se
        freq = np.mean(signs == 1)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / signs.size)


def test_coordinates_balanced(monkeypatch):
    path = sample_skeleton(SkeletonConfig(epsilon_k=0.7, d=2, n_steps=40_000), seed=21)
    frac1 = np.mean(path.coords == 1)
    assert abs(frac1 - 0.5) <= 3 * np.sqrt(0.25 / len(path))
    cfg = SkeletonConfig(epsilon_k=0.7, d=2, n_steps=40)
    plain = sample_skeleton(cfg, 21, chunk=0, size=2_000)
    rounds = []

    def four(n, d):           # four events per coordinate and round
        rounds.append(n)
        return 4

    monkeypatch.setattr(skeleton, "_draw_length", four)
    block = sample_skeleton(cfg, 21, chunk=1, size=2_000)
    assert len(rounds) > 1
    for b in (plain, block):
        assert b.delta_t.shape == b.coords.shape == (2_000, 40)
        assert np.all(np.diff(b.cum_times, axis=1) > 0)
        for arr in (b.coords == 1, b.signs == 1):
            assert abs(arr.mean() - 0.5) <= 3 * np.sqrt(0.25 / arr.size)
        # the first merged step is the smaller of two eps^2 * tau draws
        first = b.delta_t[:, 0] / cfg.epsilon_k**2
        assert stats.kstest(first, lambda x: 1 - density.survival_tau(x)**2).pvalue > 1e-3
    # extended rows reach the n-th event in the same law as unextended ones
    assert stats.ks_2samp(plain.cum_times[:, -1], block.cum_times[:, -1]).pvalue > 1e-3


def steps_path(d, steps):
    """The SkeletonPath of a list of (delta_t, coord, sign) steps."""
    dts, coords, signs = zip(*steps) if steps else ((), (), ())
    return SkeletonPath(0.5, d, dts, coords, signs)


def test_last_hit_indices():
    # the last-hit time of a coordinate sums the steps up to its last hit
    assert np.all(elapsed_times(steps_path(1, []))[1] == 0.0)
    d1 = [(0.1, 1, 1), (0.2, 1, -1), (0.4, 1, 1)]
    assert elapsed_times(steps_path(1, d1))[1] == pytest.approx([0.7])
    # coords (1, 2, 1): coordinate 2 last hit at step 2, coordinate 1 at step 3
    d2 = [(0.1, 1, 1), (0.2, 2, -1), (0.4, 1, -1)]
    t_n, t_lam, lags = elapsed_times(steps_path(2, d2))
    assert t_lam == pytest.approx([0.7, 0.3])
    assert lags == pytest.approx([0.0, 0.4])


def test_elapsed_times_examples():
    t_n, t_lam, lags = elapsed_times(steps_path(2, []))
    assert t_n == 0.0 and np.all(t_lam == 0) and np.all(lags == 0)
    # d=1: two steps
    t_n, t_lam, lags = elapsed_times(steps_path(1, [(0.3, 1, 1), (0.2, 1, 1)]))
    assert t_n == pytest.approx(0.5)
    assert lags[0] == 0.0
    # d=2: 0.3 on coord 1, then 0.2 on coord 2
    t_n, t_lam, lags = elapsed_times(steps_path(2, [(0.3, 1, 1), (0.2, 2, 1)]))
    assert t_n == pytest.approx(0.5)
    assert lags[0] == pytest.approx(0.2)   # coord 1 last hit at 0.3
    assert lags[1] == pytest.approx(0.0)   # coord 2 just fired


def test_coupled_crossing_detection_20_paths():
    eps = 0.25
    dt = eps**2 / 400
    for seed in range(20):
        t_grid, bm = brownian_fine_path(1, 1.0, dt, seed=seed)
        path = crossing_sample_skeleton(eps, t_grid, bm)
        # reconstruct A on the fine grid and compare to B pointwise
        a_vals = np.zeros_like(t_grid)
        cum = path.cum_times
        lvl = np.concatenate([[0.0], eps * np.cumsum(path.signs)])
        idx = np.searchsorted(cum, t_grid, side="right")
        a_vals = lvl[idx]
        gap = np.max(np.abs(a_vals - bm[0]))
        assert gap <= eps + 6 * np.sqrt(dt), f"seed {seed}: {gap}"


def test_crossing_matches_direct_law():
    # moderate-sample check of the oracle law: grid detection records exits
    # late by about 1.04 * eps * sqrt(dt) (two one-sided boundary-crossing
    # corrections), so compare with that allowance and verify it shrinks
    eps = 0.5
    means = []
    for dt_div in [400, 1600]:
        dt = eps**2 / dt_div
        dts = []
        for seed in range(40):
            t_grid, bm = brownian_fine_path(1, 30.0, dt, seed=seed, stream=1)
            path = crossing_sample_skeleton(eps, t_grid, bm)
            dts.extend(path.delta_t.tolist())
        dts = np.array(dts)
        se = dts.std(ddof=1) / np.sqrt(len(dts))
        bias_allow = 1.5 * eps * np.sqrt(dt)
        assert abs(dts.mean() - eps**2) <= 4 * se + bias_allow
        means.append(dts.mean())
    # finer grid detects exits earlier (smaller upward bias)
    assert means[1] < means[0]


def test_crossings_independent_of_scan_window():
    """The first crossing of a scan does not depend on the window, so every
    window gives the same events, also for a path cut in two pieces with the
    level carried over, as crossing_event_stream observes it."""
    eps, dt = 0.125, 0.125**2 / 400
    _, bm = brownian_fine_path(1, 1.0, dt, seed=4, stream=909)
    x = bm[0]
    derived = skeleton._crossing_window(eps, dt)
    assert derived == 800
    cut = 12_345
    runs = []
    for window in (64, derived, 4096):
        whole = skeleton._crossings(x, 0.0, eps, window, start=1)
        head = skeleton._crossings(x[:cut], 0.0, eps, window, start=1)
        tail = skeleton._crossings(x[cut:], head[2], eps, window)
        assert np.array_equal(whole[0], np.concatenate([head[0], cut + tail[0]]))
        assert np.array_equal(whole[1], np.concatenate([head[1], tail[1]]))
        assert whole[2] == tail[2]
        runs.append((whole, skeleton._crossings(x, -0.375, eps, window, start=5000)))
    events = runs[0][0][0]
    assert len(events) > 40 and events[0] < cut < events[-1]
    for whole, late in runs[1:]:
        for got, want in zip((whole, late), runs[0]):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]


def test_crossing_skeleton_refuses_tied_coordinates():
    """Two coordinates crossing at one grid instant cannot be ordered.  Of 40
    d = 2 paths (eps 0.25, dt = eps^2 / 400, stream 0), seed 32 crosses both
    at grid index 4566 and is refused; on every other path each
    coordinate's recorded signs sum to its final level."""
    eps = 0.25
    dt = eps**2 / 400
    for seed in range(40):
        t_grid, bm = brownian_fine_path(2, 1.0, dt, seed=seed, stream=0)
        if seed == 32:
            with pytest.raises(NumericalError, match=r"coordinates \[1, 2\] cross "
                                                     r"at the same grid .*index 4566"):
                crossing_sample_skeleton(eps, t_grid, bm)
            continue
        path = crossing_sample_skeleton(eps, t_grid, bm)
        window = skeleton._crossing_window(eps, dt)
        for j in (1, 2):
            *_, level = skeleton._crossings(bm[j - 1], 0.0, eps, window, start=1)
            assert eps * path.signs[path.coords == j].sum() == level, (seed, j)


def test_crossing_event_stream_bits_pinned():
    # recorded with the fixed 4,096-point scan window
    times, signs = skeleton.crossing_event_stream(1.0, 1.0 / 2000, 300.0, seed=77,
                                                  stream=1, block=100_000)
    assert len(times) == 271
    digest = hashlib.sha256(times.tobytes() + signs.tobytes()).hexdigest()
    assert digest == "0c28c558d9a46b8fa17834bbaea2bde60f4ff5a8fd442757a631095645a6a6da"


BAD_POSITIVE = [0.0, -0.25, float("nan"), float("inf"),
                pytest.param(10**400, id="huge-int")]


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_crossing_skeleton_refuses_eps_that_is_not_positive(bad):
    t_grid, bm = brownian_fine_path(1, 1.0, 1e-3, seed=1)
    with pytest.raises(ConfigurationError, match="eps must be finite and > 0"):
        crossing_sample_skeleton(bad, t_grid, bm)


@pytest.mark.parametrize("bad", BAD_POSITIVE)
@pytest.mark.parametrize("name", ["eps", "dt", "t_total"])
def test_crossing_event_stream_refuses_arguments_that_are_not_positive(name, bad):
    args = {"eps": 0.5, "dt": 0.01, "t_total": 1.0} | {name: bad}
    with pytest.raises(ConfigurationError, match=f"{name} must be finite and > 0"):
        skeleton.crossing_event_stream(seed=1, **args)


@pytest.mark.parametrize("bad", BAD_POSITIVE)
@pytest.mark.parametrize("name", ["T", "dt"])
def test_brownian_fine_path_refuses_arguments_that_are_not_positive(name, bad):
    args = {"T": 1.0, "dt": 0.01} | {name: bad}
    with pytest.raises(ConfigurationError, match=f"{name} must be finite and > 0"):
        brownian_fine_path(1, seed=1, **args)


@pytest.mark.parametrize("bad", BAD_POSITIVE + [True])
def test_skeleton_path_refuses_epsilon_that_is_not_positive(bad):
    with pytest.raises(ConfigurationError, match="epsilon_k must be finite and > 0"):
        SkeletonPath(bad, 1, [0.1], [1], [1])
    text = path_to_csv(SkeletonPath(0.5, 1, [0.1], [1], [1]))
    with pytest.raises(ConfigurationError, match="epsilon_k must be finite and > 0"):
        path_from_csv(text, bad, 1)


def test_csv_roundtrip():
    cfg = SkeletonConfig(epsilon_k=0.5, d=2, n_steps=17)
    path = sample_skeleton(cfg, seed=13)
    text = path_to_csv(path)
    back = path_from_csv(text, 0.5, 2)
    assert np.array_equal(back.delta_t, path.delta_t)
    assert np.array_equal(back.coords, path.coords)
    assert np.array_equal(back.signs, path.signs)
    with pytest.raises(ConfigurationError):
        path_from_csv("a,b\n1,2\n", 0.5, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=60))
def test_sample_invariants(seed, d, n_steps):
    cfg = SkeletonConfig(epsilon_k=0.8, d=d, n_steps=n_steps)
    path = sample_skeleton(cfg, seed=seed)
    assert len(path) == n_steps
    assert np.all(path.delta_t > 0)
    assert np.all(np.diff(path.cum_times) > 0)
    assert set(np.unique(path.coords)).issubset(set(range(1, d + 1)))
    # per-coordinate times partition the merged times
    union = np.sort(np.concatenate([path.cum_times[path.coords == j]
                                    for j in range(1, d + 1)]))
    assert np.array_equal(union, path.cum_times)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=2.0),
                          st.integers(min_value=1, max_value=3),
                          st.sampled_from([-1, 1])), max_size=30))
def test_elapsed_consistency(steps):
    d = 3
    t_n, t_lam, lags = elapsed_times(steps_path(d, steps))
    assert t_n == pytest.approx(sum(s for s, _, _ in steps), rel=1e-12)
    assert np.all(lags >= 0)
    for lam in range(1, d + 1):
        p = max((i + 1 for i, (_, c, _) in enumerate(steps) if c == lam), default=0)
        expect = sum(s for s, _, _ in steps[:p])
        assert t_lam[lam - 1] == pytest.approx(expect, rel=1e-12, abs=1e-15)
