import hashlib
import time

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


def _float_rule(x, lev, eps, start=0):
    """The crossing rule point by point: the reference `_crossings` keeps."""
    idx, sgn = [], []
    for k in range(start, len(x)):
        if abs(float(x[k]) - lev) >= eps:
            sign = 1 if x[k] > lev else -1
            lev += sign * eps
            idx.append(k)
            sgn.append(sign)
    return idx, sgn, lev


def assert_same_crossings(got, want):
    assert got[0].dtype == got[1].dtype == np.int64
    assert got[0].tolist() == list(want[0])
    assert got[1].tolist() == list(want[1])
    assert got[2] == want[2]


BLOCK = skeleton._BLOCK


@st.composite
def crossing_inputs(draw):
    """Paths `_crossings` must read like the point-by-point rule: Brownian
    walks whose steps reach 1.5 eps (jumps over several cells), values on
    the lattice (products k * eps, or sums of +-eps like the level's own),
    non-dyadic eps, carried levels, start offsets and lengths around the
    block size."""
    eps = draw(st.sampled_from([0.1, 1 / 3, 0.35, 0.7, 2.0**-5]) | st.floats(0.01, 2.0))
    n = draw(st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
             | st.integers(0, 8 * BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "lattice", "lattice-sum"]))
    if kind == "walk":
        x = np.cumsum(rng.standard_normal(n) * eps * draw(st.sampled_from([0.05, 0.5, 1.5])))
    elif kind == "lattice":
        x = eps * np.cumsum(rng.integers(-2, 3, n)).astype(float)
    else:
        x = np.cumsum(rng.integers(-2, 3, n) * eps)
    lev = draw(st.sampled_from([0.0, -0.375, eps, -2 * eps, 0.1 + 0.2]))
    start = draw(st.integers(0, min(n, 3)))
    return x, lev, eps, start


@settings(max_examples=300, deadline=None)
@given(crossing_inputs())
def test_crossings_equal_point_by_point_rule(case):
    x, lev, eps, start = case
    assert_same_crossings(skeleton._crossings(x, lev, eps, start=start),
                          _float_rule(x, lev, eps, start))


def test_crossings_dense_path_in_bounded_time():
    """1e5 points with step sd 2 eps cross at most points, so nearly every
    block is stepped through exactly; the guess only ever resumes on a
    bounded run of blocks, so the scan stays near the point-by-point cost."""
    eps = 0.1
    x = np.cumsum(density._philox(5, 5).standard_normal(100_000) * 2 * eps)
    t0 = time.time()
    got = skeleton._crossings(x, 0.0, eps)
    elapsed = time.time() - t0
    want = _float_rule(x, 0.0, eps)
    assert_same_crossings(got, want)
    assert len(want[0]) > 50_000
    assert elapsed < 30.0


def test_crossings_independent_of_cuts_and_block_alignment():
    """A path cut in two, its tail read from the head's final level, gives
    the whole path's events, as crossing_event_stream observes it; every
    cut and every start moves the block boundaries, so the events do not
    depend on where the blocks fall."""
    eps, dt = 0.125, 0.125**2 / 400
    _, bm = brownian_fine_path(1, 1.0, dt, seed=4, stream=909)
    x = bm[0]
    whole = skeleton._crossings(x, 0.0, eps, start=1)
    events = whole[0]
    assert len(events) > 40
    for cut in 12_345 + np.arange(BLOCK + 1):
        head = skeleton._crossings(x[:cut], 0.0, eps, start=1)
        tail = skeleton._crossings(x[cut:], head[2], eps)
        assert np.array_equal(whole[0], np.concatenate([head[0], cut + tail[0]]))
        assert np.array_equal(whole[1], np.concatenate([head[1], tail[1]]))
        assert whole[2] == tail[2]
        shifted = skeleton._crossings(x, head[2], eps, start=cut)
        assert np.array_equal(shifted[0], cut + tail[0])
        assert np.array_equal(shifted[1], tail[1]) and shifted[2] == tail[2]
    assert events[0] < 12_345 < events[-1]
    assert_same_crossings(skeleton._crossings(x, -0.375, eps, start=5000),
                          _float_rule(x, -0.375, eps, 5000))


def test_crossing_skeleton_reads_its_own_start():
    """A path observed from t_grid[0] = 5 at levels bm[:, 0] off zero: each
    coordinate's events are the point-by-point rule anchored at bm[j, 0]
    and the first waiting time counts from t_grid[0], not from 0."""
    eps, dt = 0.25, 0.25**2 / 400
    t_grid, bm = brownian_fine_path(2, 1.0, dt, seed=6, stream=1)
    t_grid = t_grid + 5.0
    bm = bm + np.array([[0.3], [-1.7]])
    path = crossing_sample_skeleton(eps, t_grid, bm)
    k, c, s = [], [], []
    for j in range(2):
        idx, sgn, _ = _float_rule(bm[j], float(bm[j, 0]), eps, start=1)
        k += idx
        c += [j + 1] * len(idx)
        s += sgn
    order = np.argsort(k, kind="stable")
    t = t_grid[np.array(k)[order]]
    assert len(t) > 20
    assert path.coords.tolist() == np.array(c)[order].tolist()
    assert path.signs.tolist() == np.array(s)[order].tolist()
    assert path.delta_t.tolist() == np.diff(t, prepend=t_grid[0]).tolist()
    assert path.cum_times[0] < 1.0


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
        for j in (1, 2):
            *_, level = skeleton._crossings(bm[j - 1], 0.0, eps, start=1)
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


BAD_COUNT = [0, -3, 1.5, True]


@pytest.mark.parametrize("bad", BAD_COUNT)
def test_brownian_fine_path_refuses_dimension_that_is_not_a_count(bad):
    # d = 0 returned an empty (0, n + 1) path, d = 1.5 a TypeError
    with pytest.raises(ConfigurationError, match="d must be an int >= 1"):
        brownian_fine_path(bad, 1.0, 0.01, seed=1)


@pytest.mark.parametrize("bad", BAD_COUNT)
def test_crossing_event_stream_refuses_block_that_is_not_a_count(bad):
    with pytest.raises(ConfigurationError, match="block must be an int >= 1"):
        skeleton.crossing_event_stream(0.5, 0.01, 1.0, seed=1, block=bad)


@pytest.mark.parametrize("seed", [1.5, True, 1.0, "1"])
def test_samplers_refuse_seed_that_is_not_an_integer(seed):
    # 1.5 and True used to draw seed 1's stream bit for bit
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        sample_skeleton(SkeletonConfig(0.5, 1, 1.0, 5), seed)
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        brownian_fine_path(1, 1.0, 0.01, seed)


def test_samplers_accept_numpy_integer_seed():
    cfg = SkeletonConfig(0.5, 2, 1.0, 6)
    a, b = sample_skeleton(cfg, np.int64(7)), sample_skeleton(cfg, 7)
    assert np.array_equal(a.delta_t, b.delta_t) and np.array_equal(a.coords, b.coords)
    assert np.array_equal(brownian_fine_path(1, 1.0, 0.1, np.uint32(7))[1],
                          brownian_fine_path(1, 1.0, 0.1, 7)[1])


# SHA-256 of t_grid and B of brownian_fine_path(d, T, dt, seed, stream),
# recorded from a separately drawn, scaled and summed increment array
FINE_PATH_SHA256 = {
    (2, 1.0, 1e-4, 11, 909): "e3698fb94dabbfb912d284530e83ab5bf7582c6d8465f9773d8eb840fcd47546",
    (3, 0.5, 1e-3, 2, 0): "91586edc7fcf295253302a53144fbb7b5cc1f56e15f7704c0d048104a9b7dd72",
}


@pytest.mark.parametrize("args", sorted(FINE_PATH_SHA256))
def test_brownian_fine_path_bits_pinned(args):
    t_grid, bm = brownian_fine_path(*args)
    digest = hashlib.sha256(t_grid.tobytes() + bm.tobytes()).hexdigest()
    assert digest == FINE_PATH_SHA256[args]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_brownian_fine_path_drawn_in_place_equals_separate_increments(d):
    dt, n = 1e-3, 777
    t_grid, bm = brownian_fine_path(d, n * dt, dt, seed=9, stream=4)
    for a, shape in ((t_grid, (n + 1,)), (bm, (d, n + 1))):
        assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
    incs = density._philox(9, 10_004).standard_normal((d, n)) * np.sqrt(dt)
    want = np.concatenate([np.zeros((d, 1)), np.cumsum(incs, axis=1)], axis=1)
    assert want.tobytes() == bm.tobytes()
    assert t_grid.tobytes() == (np.arange(n + 1) * dt).tobytes()


def _unreadable_paths():
    t_grid, bm = brownian_fine_path(2, 1.0, 1e-3, seed=1)
    nan, inf, start = bm.copy(), bm.copy(), bm.copy()
    nan[1, 500] = np.nan
    inf[0, -1] = np.inf
    start[1, 0] = -np.inf
    repeated, t_nan, t_inf = t_grid.copy(), t_grid.copy(), t_grid.copy()
    repeated[7] = repeated[6]
    t_nan[300] = np.nan
    t_inf[-1] = np.inf
    long_t = np.arange(skeleton._CHUNK + 9, dtype=float)
    long_t[skeleton._CHUNK] = long_t[skeleton._CHUNK - 1]   # across a chunk edge
    shape = "bm must have shape"
    return [(t_grid[:-1], bm, shape), (t_grid, bm[0], shape), (t_grid, bm[:0], shape),
            (t_grid[:0], bm[:, :0], shape),
            (t_grid, nan, "must be finite"), (t_grid, inf, "must be finite"),
            (t_grid, start, "must be finite"),
            (repeated, bm, "t_grid must be"), (t_nan, bm, "t_grid must be"),
            (t_inf, bm, "t_grid must be"), (t_grid[::-1], bm, "t_grid must be"),
            (long_t, np.zeros((1, long_t.size)), "t_grid must be")]


@pytest.mark.parametrize("t_grid, bm, match", _unreadable_paths())
def test_crossing_skeleton_refuses_paths_it_cannot_read(t_grid, bm, match):
    """A short t_grid used to raise IndexError, a 1-D bm TypeError, and a
    NaN in bm never crossed, so a path came back silently."""
    with pytest.raises(ConfigurationError, match=match):
        crossing_sample_skeleton(0.25, t_grid, bm)


@pytest.mark.parametrize("bad", BAD_POSITIVE + [True])
def test_skeleton_path_refuses_epsilon_that_is_not_positive(bad):
    with pytest.raises(ConfigurationError, match="epsilon_k must be finite and > 0"):
        SkeletonPath(bad, 1, [0.1], [1], [1])
    text = path_to_csv(SkeletonPath(0.5, 1, [0.1], [1], [1]))
    with pytest.raises(ConfigurationError, match="epsilon_k must be finite and > 0"):
        path_from_csv(text, bad, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_skeleton_path_refuses_non_finite_delta_t(bad):
    """A NaN waiting time used to pass (NaN <= 0 is False) and made every
    cumulative time NaN."""
    with pytest.raises(ConfigurationError, match="delta_t must be finite and > 0"):
        SkeletonPath(0.5, 1, [bad, 0.2], [1, 1], [1, -1])
    with pytest.raises(ConfigurationError, match="delta_t must be finite and > 0"):
        SkeletonPath(0.5, 1, [[0.1, 0.2], [0.3, bad]], [[1, 1]] * 2, [[1, -1]] * 2)
    text = path_to_csv(SkeletonPath(0.5, 1, [0.1, 0.2], [1, 1], [1, -1]))
    text = text.replace("0.20000000000000001", repr(bad))
    assert repr(bad) in text
    with pytest.raises(ConfigurationError, match="delta_t must be finite and > 0"):
        path_from_csv(text, 0.5, 1)


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
