import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from skeldp import fbm, skeleton
from skeldp.errors import ConfigurationError
from skeldp.skeleton import brownian_fine_path, crossing_sample_skeleton
from skeldp.structures import FbmSpec, FbmStructure


def unit(s):
    """The (coord, sign) of a one-dimensional step."""
    return 1, s


# SHA-256 of FbmTable(0.75)._phi.tobytes(), recorded on the cumulative
# z-rule build (one 16-node Gauss rule per grid cell).
PHI_075_SHA256 = "d71d79d9d5543df52f70c6eaa3d69f1b6ba2b7fd0bc05e7a7df328b146df43c2"

_GX, _GW = leggauss(64)


def scalar_inner_kernel_integral(t, s, H):
    """Reference: the inner integral for one lower limit, one node at a time."""
    if t <= s:
        return 0.0
    q = 1.0 / (H - 0.5)
    wmax = (t - s) ** (H - 0.5)
    w = 0.5 * wmax * (1.0 + _GX)
    u = s + w**q
    return float(0.5 * wmax * q * np.sum(_GW * u ** (H - 0.5)))


def test_rho_domain_checks():
    with pytest.raises(ConfigurationError):
        fbm.rho_H(1.0, 0.5, H=0.4)
    with pytest.raises(ConfigurationError):
        fbm.rho_H(0.5, 0.5, H=0.75)
    with pytest.raises(ConfigurationError):
        fbm.rho_H(0.5, 0.0, H=0.75)
    assert math.isfinite(fbm.rho_H(1.0, 0.5, H=0.75))


def test_phi_table_bits_pinned():
    phi = fbm.get_table(0.75)._phi
    assert len(phi) == 1201
    assert hashlib.sha256(phi.tobytes()).hexdigest() == PHI_075_SHA256


def quad_phi(H, xs):
    """Reference: Phi at increasing points xs by adaptive quad of rho_H, split
    at every x and at log-spaced points into both ends; the last piece takes
    the (1-w)^{H-3/2} term with quad's algebraic end-point weight."""
    pts = np.unique(np.concatenate([xs, np.geomspace(xs[0], 0.5, 22),
                                    1.0 - np.geomspace(1e-9, 0.5, 18), [1.0]]))
    dph = H - 0.5
    opts = dict(epsabs=1e-15, epsrel=1e-10, limit=200)
    pieces = [quad(lambda w: fbm.rho_H(1.0, w, H), a, b, **opts)[0]
              for a, b in zip(pts[:-2], pts[1:-1])]
    a = pts[-2]
    regular = quad(lambda w: dph * (H - 0.5) * w ** (-H - 0.5)
                   * fbm.inner_kernel_integral(1.0, w, H), a, 1.0, **opts)[0]
    singular = quad(lambda w: -dph * w ** (-H - 0.5), a, 1.0, weight="alg",
                    wvar=(0.0, H - 1.5), **opts)[0]
    tails = np.cumsum((pieces + [regular + singular])[::-1])[::-1]
    return tails[np.searchsorted(pts, xs)]


def test_table_cache_keys_by_exact_parameters():
    """A neighbouring H gets its own table; one H is built once."""
    assert fbm.get_table(0.75).H == 0.75
    assert fbm.get_table(0.75 + 1e-13).H == 0.75 + 1e-13
    assert fbm.get_table(0.75) is fbm.get_table(0.75)


@pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
def test_phi_table_matches_adaptive_quadrature(H):
    table = fbm.get_table(H)
    targets = [1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99,
               1 - 1e-4, 1 - 1e-6, 1 - 1e-8]
    idx = np.unique(np.minimum(np.searchsorted(table._x, targets), len(table._x) - 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # quad must converge on every piece
        ref = quad_phi(H, table._x[idx])
    np.testing.assert_allclose(table._phi[idx], ref, rtol=1e-7, atol=0.0)


def test_phi_head_constant():
    """Phi(x) ~ -x^{1/2-H} / 2 as x -> 0, which the head below x_min uses."""
    H = 0.75
    table = fbm.get_table(H)
    head = table._phi[0] * table._x[0] ** (H - 0.5)
    assert head == pytest.approx(-0.5, abs=1e-4)


@pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
def test_inner_kernel_integral_array_matches_scalar_calls(H):
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 1.2, size=(4, 50))    # some s past t = 1: zero
    s[0, 0] = 1.0
    got = fbm.inner_kernel_integral(1.0, s, H)
    assert got.shape == s.shape
    for idx, s_i in np.ndenumerate(s):
        assert got[idx] == fbm.inner_kernel_integral(1.0, s_i, H)
        assert got[idx] == scalar_inner_kernel_integral(1.0, s_i, H)
    assert np.all(got[s >= 1.0] == 0.0) and np.all(got[s < 1.0] > 0.0)
    with pytest.raises(ConfigurationError):
        fbm.inner_kernel_integral(1.0, s, 1.0)


def test_phi_table_matches_pointwise_kernel():
    """Phi'(x) = -rho_H(1, x): check the table against direct quadrature of
    int_x^y rho(1, w) dw on an interior interval (no endpoint issues)."""
    table = fbm.get_table(0.75)
    x, y = 0.3, 0.6
    from numpy.polynomial.legendre import leggauss
    gx, gw = leggauss(64)
    w = 0.5 * (x + y) + 0.5 * (y - x) * gx
    piece = 0.5 * (y - x) * float(np.sum(gw * np.array(
        [fbm.rho_H(1.0, wi, 0.75) for wi in w])))
    assert table.phi(x) - table.phi(y) == pytest.approx(piece, rel=2e-4)


def test_representation_reproduces_fbm_covariance():
    """Ratios E[B_H(1) B_H(u)] / Var B_H(1) must match the fBm law
    (1 + u^{2H} - (1-u)^{2H}) / 2 independently of d_H."""
    H = 0.75
    table = fbm.get_table(H)
    var1 = table.variance_at_one()
    for u in (0.25, 0.5, 0.75):
        gs = np.unique(np.concatenate([np.geomspace(1e-9, 0.05 * u, 200),
                                       np.linspace(0.05 * u, u * (1 - 1e-9), 600)]))
        cov = np.trapezoid(table.phi(gs) * u**(H - 0.5) * table.phi(gs / u), gs)
        expect = 0.5 * (1 + u**(2 * H) - (1 - u)**(2 * H))
        assert cov / var1 == pytest.approx(expect, abs=2e-3)


def test_representation_reproduces_fbm_covariance_to_5e_5():
    """Ratios E[B_H(1) B_H(u)] / Var B_H(1) must match the fBm law
    (1 + u^{2H} - (1-u)^{2H}) / 2 independently of d_H, to 5e-5.

    The numerator int_0^u Phi(w) u^{H-1/2} Phi(w/u) dw is the table's own,
    by quad split at its grid points in w and in w/u, plus the power-law
    piece below x_min * u."""
    H = 0.75
    table = fbm.get_table(H)
    var1 = table.variance_at_one()
    x = table._x
    for u in (0.25, 0.5, 0.75):
        def f(w):
            return float(table.phi(w) * u**(H - 0.5) * table.phi(w / u))

        lo = x[0] * u
        points = np.unique(np.concatenate([x, u * x]))
        points = points[(points > lo) & (points < u)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = (quad(f, 0.0, lo)[0]
                   + quad(f, lo, u, points=points, limit=4 * len(points))[0])
        expect = 0.5 * (1 + u**(2 * H) - (1 - u)**(2 * H))
        assert cov / var1 == pytest.approx(expect, abs=5e-5), u


@pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
def test_variance_at_one_integrates_the_table_exactly(H):
    """Var B_H(1) is int_0^1 Phi^2 of the table itself, head included."""
    table = fbm.get_table(H)
    x = table._x

    def sq(w):
        return float(table.phi(w)) ** 2

    ref = (quad(sq, 0.0, x[0])[0]
           + quad(sq, x[0], 1.0, points=x[1:-1], limit=4 * len(x))[0])
    assert table.variance_at_one() == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_fine_reference_refuses_eval_past_path_end():
    t_fine = np.linspace(0.0, 1.0, 11)
    b_fine = np.cos(t_fine)
    out = fbm.fbm_ref_from_fine_path(t_fine, b_fine, 0.75, [0.5, 1.0])
    assert np.all(np.isfinite(out))
    with pytest.raises(ConfigurationError, match="past the fine path"):
        fbm.fbm_ref_from_fine_path(t_fine, b_fine, 0.75, [0.5, 1.05])


# Criterion-9 coupled paths (H 0.75, dt = 2^-10 / 400, fine path stream 909):
# seed -> (SHA-256 of B_H^ref on the coarse reference path,
#          {k: (SHA-256 of crossing indices + signs, SHA-256 of W^k_H)}),
# the crossings recorded with a fixed 4,096-point crossing scan window and
# per-eval-time Phi and Omega table calls, B_H^ref and W^k_H re-recorded on
# the cumulative z-rule Phi table.
COUPLING_SHA256 = {
    0: ('ccfe6ce3021ac0c00588850ce3ee90331a799a5d55b6a693928df86607e846bb',
        {3: ('99b8313cc49f438d11c7f4ba5e11fd9ef7efd62495afc50cbc78d2534bd3b59f',
             'fce35dee4940124f5e12eb6ba67e3efc96d928adc269006da3caa7846edab663'),
         4: ('382a74e70d366585e17e66d92f3b7f1e165ae009efd8588d0b594e9c5949c158',
             '87f746ffcaa86ba5845add467b6fa40f5de1ea93fdf9879950d7281c69f74e64'),
         5: ('0f555ad312e622a3bfb03f041dd7c068a5f5c7c318c9a488921192f41b8829e1',
             '74a2c05eea479431a8156535bc319c856777d314df5a3f4b861fb36dddfed84e')}),
    1: ('08decc2e3843b121312231e0d42cf6cf9c964898bd635a69ca7f9d921728babd',
        {3: ('648a98cac8604fac530a713c2699c175f5b28842de2c03f49c700645c552cab9',
             '814b198c4593b8eb076653160750b72ff27f7d312cc67ce1928465aa27996850'),
         4: ('02e739c21bfcacb8a21a37723aaeef1e0dd154c203a271a56286f5ace1933f13',
             'a6508b88410d3a0a2e97457cc1a5789e27cf0543a3e1642706b954115d511479'),
         5: ('b378d055209f1abf547d9eb4f084c860467719fd8add59921c00baea18d62e11',
             '60cb9fd784bd9e7ed62a909ab6912c65f15ce90c737462f1ac06d8f6ad3bdb14')}),
    2: ('0dde15db203ad08dcad2e8afc1cd4e33912f3451952ea7b9e57544fe884c0b69',
        {3: ('8268ef7b0dc66c894df61ead0339c922be008300872232daf9cd76eab298b8b1',
             '07d80031a916590e94900b932493abbcddebf4e1d42fda895516be8359c6d85d'),
         4: ('f4b6febd42998ac4bb20257125c43322c5608ebb3fb4e0e5c4b0c0ad66b29245',
             '6dbe11c31c9da646b8c51f2238c0face5ba02d9396a6682cccfce343e1b7a309'),
         5: ('abcaf48132ce0c101fd0e3564bbb8c4ed2d115cac390d2c24f5010dc338b62ff',
             '8427130d24aa953630b161877b8d9cdbfd2b957e554ea35c397b28b06d62fa6b')}),
}


def sha256(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("seed", sorted(COUPLING_SHA256))
def test_coupling_bits_pinned(seed):
    H, dt = 0.75, 2.0**-10 / 400
    eval_times = np.linspace(0.05, 1.0, 32)
    sub = slice(None, None, 64)
    t_grid, bm = brownian_fine_path(1, 1.0, dt, seed=seed, stream=909)
    w_ref = fbm.fbm_ref_from_fine_path(t_grid[sub], bm[0][sub], H, eval_times)
    ref_digest, per_level = COUPLING_SHA256[seed]
    assert sha256(w_ref) == ref_digest
    for k, (crossing_digest, w_digest) in per_level.items():
        eps = 2.0**-k
        idx, sgn, _ = skeleton._crossings(bm[0], 0.0, eps, start=1)
        assert sha256(idx, sgn) == crossing_digest, k
        path = crossing_sample_skeleton(eps, t_grid, bm)
        assert np.array_equal(path.cum_times, t_grid[idx])
        w = fbm.fbm_from_skeleton(path.cum_times, path.signs.astype(float), eps, H,
                                  eval_times)
        assert sha256(w) == w_digest, k


def test_skeleton_w_rejects_mismatched_lengths():
    with pytest.raises(ConfigurationError, match="event signs"):
        fbm.fbm_from_skeleton([0.3, 0.7], [1.0], 0.5, 0.75, [1.0])


def test_skeleton_w_rejects_decreasing_event_times():
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        fbm.fbm_from_skeleton([0.7, 0.3], [1.0, -1.0], 0.5, 0.75, [0.5, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_skeleton_w_rejects_non_finite_times(bad):
    # a NaN passes the non-decreasing check: np.diff(...) < 0 is False for it
    with pytest.raises(ConfigurationError, match="event times must be finite"):
        fbm.fbm_from_skeleton([0.1, bad], [1, 1], 0.1, 0.75, [0.5])
    with pytest.raises(ConfigurationError, match="eval times must be finite"):
        fbm.fbm_from_skeleton([0.1, 0.2], [1, 1], 0.1, 0.75, [0.5, bad])


def test_fine_reference_rejects_mismatched_lengths():
    with pytest.raises(ConfigurationError, match="fine values"):
        fbm.fbm_ref_from_fine_path([0.0, 0.5, 1.0], [0.0, 1.0], 0.75, [1.0])


@pytest.mark.parametrize("t_fine, eval_times", [([], [0.5]), ([[0.0, 1.0]], [0.5]),
                                                ([0.0, 1.0], 0.5),
                                                ([0.0, 1.0], [[0.5]])])
def test_fine_reference_rejects_shapes_it_cannot_read(t_fine, eval_times):
    # an empty path used to raise IndexError, a scalar eval time TypeError
    with pytest.raises(ConfigurationError, match="one non-empty row"):
        fbm.fbm_ref_from_fine_path(t_fine, t_fine, 0.75, eval_times)


def test_fine_reference_rejects_repeated_node():
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        fbm.fbm_ref_from_fine_path([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 2.0],
                                   0.75, [1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("which, name", [(0, "fine times"), (1, "fine values"),
                                         (2, "eval times")])
def test_fine_reference_refuses_non_finite_input(which, name, bad):
    """A NaN eval time used to give B_H = 0 there and a NaN fine time or
    value a NaN: comparisons with NaN are False, so no check refused it.
    The refusal comes before the Omega memo is read."""
    args = [np.linspace(0.0, 1.0, 101), np.sin(np.linspace(0.0, 3.0, 101)),
            np.array([0.5, 0.75])]
    args[which][1] = bad
    misses = fbm._omega_weights.cache_info().misses
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        fbm.fbm_ref_from_fine_path(args[0], args[1], 0.75, args[2])
    assert fbm._omega_weights.cache_info().misses == misses


@pytest.mark.parametrize("H", [0.4, 0.5, 1.0, float("nan")])
def test_fine_reference_refuses_H_outside_half_one(H):
    fbm._omega_weights.cache_clear()
    with pytest.raises(ConfigurationError, match="H must lie in"):
        fbm.fbm_ref_from_fine_path(np.linspace(0.0, 1.0, 11), np.zeros(11), H, [0.5])
    assert fbm._omega_weights.cache_info().currsize == 0


def uncached_fbm_ref(t_fine, b_fine, H, eval_times):
    """B_H^ref with the Omega increments computed afresh on every call."""
    slopes = np.diff(b_fine) / np.diff(t_fine)
    out = np.zeros(len(eval_times))
    live = np.flatnonzero(eval_times > t_fine[0])
    t_live = eval_times[live]
    ks = np.searchsorted(t_fine, t_live, side="left")
    starts = np.cumsum(ks + 1) - (ks + 1)
    x = np.ones((ks + 1).sum())
    for t, k, lo in zip(t_live, ks, starts):
        np.divide(t_fine[:k], t, out=x[lo:lo + k])
    o = fbm.get_table(H).omega(x)
    om = o[1:] - o[:-1]
    for i, t, k, lo in zip(live, t_live, ks, starts):
        out[i] = t ** (H + 0.5) * float(slopes[:k] @ om[lo:lo + k])
    return out


def test_fine_reference_omega_memo_keeps_the_last_grid():
    """Grids A, B, A, then A with a changed eval set: every answer is the
    uncached one bit for bit, the memo holds one entry, and a repeated grid
    reuses it."""
    H = 0.75
    t_a, b = brownian_fine_path(1, 1.0, 1e-4, seed=3, stream=909)
    t_a, b_a = t_a[::8], b[0][::8]
    t_b = np.sort(np.concatenate([[0.0], np.random.default_rng(1).uniform(0, 1.2, 800)]))
    b_b = np.cumsum(np.random.default_rng(2).standard_normal(t_b.size)) * 0.03
    ev_a, ev_b = np.linspace(0.05, 1.0, 16), np.array([0.0, 0.3, 0.9, 1.1])
    fbm._omega_weights.cache_clear()
    calls = [(t_a, b_a, ev_a), (t_b, b_b, ev_b), (t_a, b_a, ev_a), (t_a, b_a, ev_b[:-1]),
             (t_a, -b_a, ev_b[:-1])]
    for t, v, ev in calls:
        assert fbm.fbm_ref_from_fine_path(t, v, H, ev).tobytes() == \
            uncached_fbm_ref(t, v, H, ev).tobytes()
    info = fbm._omega_weights.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 4, 1, 1)
    # another H is another key
    assert fbm.fbm_ref_from_fine_path(t_a, b_a, 0.6, ev_a).tobytes() == \
        uncached_fbm_ref(t_a, b_a, 0.6, ev_a).tobytes()
    assert fbm._omega_weights.cache_info().misses == 5


def test_fine_reference_sees_arrays_changed_in_place():
    H = 0.75
    t_fine = np.linspace(0.0, 1.0, 401)
    b_fine = np.sin(7.0 * t_fine)
    ev = np.linspace(0.1, 1.0, 10)
    first = fbm.fbm_ref_from_fine_path(t_fine, b_fine, H, ev)
    t_fine[1:-1] **= 1.5                     # still increasing, same ends
    second = fbm.fbm_ref_from_fine_path(t_fine, b_fine, H, ev)
    assert second.tobytes() == uncached_fbm_ref(t_fine, b_fine, H, ev).tobytes()
    assert not np.array_equal(first, second)
    ev[3] = 0.0
    third = fbm.fbm_ref_from_fine_path(t_fine, b_fine, H, ev)
    assert third.tobytes() == uncached_fbm_ref(t_fine, b_fine, H, ev).tobytes()
    assert third[3] == 0.0


def test_w_starts_at_zero():
    out = fbm.fbm_from_skeleton([0.3, 0.7], [1.0, -1.0], 0.5, 0.75, [0.0, 0.1])
    assert out[0] == 0.0
    assert out[1] == 0.0    # before the first event W is frozen at 0


def test_skeleton_vs_fine_reference_small():
    """Module-scale coupled check: the skeleton W_H stays near the fine-grid
    reference of the same Brownian path."""
    H, eps = 0.75, 1.0 / 8
    dt = eps**2 / 400
    t_eval = np.linspace(0.05, 1.0, 20)
    sups = []
    for seed in range(8):
        t_grid, bm = brownian_fine_path(1, 1.0, dt, seed=seed, stream=3)
        path = crossing_sample_skeleton(eps, t_grid, bm)
        w_skel = fbm.fbm_from_skeleton(path.cum_times, path.signs, eps, H, t_eval)
        # subsample the fine path for the reference integral
        sub = slice(None, None, 16)
        w_ref = fbm.fbm_ref_from_fine_path(t_grid[sub], bm[0][sub], H, t_eval)
        sups.append(np.max(np.abs(w_skel - w_ref)))
    scale = np.sqrt(fbm.get_table(H).variance_at_one())
    assert np.mean(sups) < 0.5 * scale


def test_self_similarity_variance():
    """Sample variance of W^k_H(1) within 15% of the representation's own
    fine-grid limit; d_H-free by construction."""
    H, eps = 0.75, 1.0 / 8
    n_paths = 4000
    rng_cfg_seed = 10
    from skeldp import density
    key = np.array([np.uint64(rng_cfg_seed), np.uint64(77)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    n_steps = int(np.ceil(eps**-2)) + 30
    vals = np.empty(n_paths)
    for i in range(n_paths):
        u = gen.random((n_steps, 2))
        dts = eps**2 * density.inverse_cdf_tau(np.clip(u[:, 0], 1e-12, 1 - 1e-12))
        times = np.cumsum(dts)
        signs = np.where(u[:, 1] < 0.5, 1.0, -1.0)
        vals[i] = fbm.fbm_from_skeleton(times, signs, eps, H, [1.0])[0]
    target = fbm.get_table(H).variance_at_one()
    assert abs(np.var(vals) - target) / target < 0.15


def test_fbm_structure_reductions():
    H, eps = 0.75, 0.25
    # alpha = 0: X = x0 + sigma * W_H exactly
    spec = FbmSpec(H=H, sigma=2.0, drift=lambda t, p, a: 0.0, x0=1.5)
    struct = FbmStructure(spec, eps, horizon_T=10.0)
    state = struct.init()
    dts = [0.2, 0.3, 0.15]
    signs = [1, -1, 1]
    for dt, s in zip(dts, signs):
        state = struct.step(state, 0.0, dt, *unit(s))
    times = np.cumsum(dts)
    w = fbm.fbm_from_skeleton(times, np.array(signs, float), eps, H,
                              [times[-1]])[0]
    assert state.values[0, -1, 0] == pytest.approx(1.5 + 2.0 * w, rel=1e-10)
    # sigma = 0: plain ODE Euler
    spec0 = FbmSpec(H=H, sigma=0.0, drift=lambda t, p, a: 0.7, x0=2.0)
    struct0 = FbmStructure(spec0, eps, horizon_T=10.0)
    state0 = struct0.init()
    for dt, s in zip(dts, signs):
        state0 = struct0.step(state0, 0.0, dt, *unit(s))
    assert state0.values[0, -1, 0] == pytest.approx(2.0 + 0.7 * times[-1], rel=1e-12)


def test_fbm_structure_step_is_one_table_call(monkeypatch):
    """One step of a block evaluates Phi once, and each row's W^k_H is
    fbm_from_skeleton's at the row's newest event, bit for bit."""
    H, eps = 0.75, 0.25
    struct = FbmStructure(FbmSpec(H=H, sigma=1.0, drift=lambda t, p, a: a, x0=0.0),
                          eps, horizon_T=10.0)
    rng = np.random.default_rng(3)

    def fan(state):              # four children per row
        n = 4 * len(state)
        return struct.step(state, rng.uniform(-1, 1, n), rng.uniform(0.01, 0.2, n),
                           1, rng.choice([-1, 1], n))

    state = fan(fan(fan(struct.init())))
    calls = []
    phi = fbm.FbmTable.phi

    def spy(self, x):
        calls.append(np.shape(x))
        return phi(self, x)

    monkeypatch.setattr(fbm.FbmTable, "phi", spy)
    child = fan(state)
    assert calls == [(256, 4)]
    monkeypatch.undo()
    for i in range(len(child)):
        want = fbm.fbm_from_skeleton(child.times[i], child.signs[i], eps, H,
                                     [child.times[i, -1]])[0]
        assert child.w_h[i] == want, i


def test_mean_reversion_reduces_variance():
    H, eps = 0.75, 0.25
    n_paths = 300
    from skeldp import density
    terminals = {"free": [], "revert": []}
    for name, drift in [("free", lambda t, p, a: 0.0),
                        ("revert", lambda t, p, a: -p(t))]:
        spec = FbmSpec(H=H, sigma=1.0, drift=drift, x0=0.0)
        struct = FbmStructure(spec, eps, horizon_T=2.0)
        key = np.array([np.uint64(4), np.uint64(5)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        for _ in range(n_paths):
            u = gen.random((20, 2))
            dts = eps**2 * density.inverse_cdf_tau(np.clip(u[:, 0], 1e-12, 1 - 1e-12))
            sgn = np.where(u[:, 1] < 0.5, 1, -1)
            state = struct.init()
            for dt, s in zip(dts, sgn):
                state = struct.step(state, 0.0, float(dt), *unit(int(s)))
            terminals[name].append(state.values[0, -1, 0])
    assert np.var(terminals["revert"]) < np.var(terminals["free"])
