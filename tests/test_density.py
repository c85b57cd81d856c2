import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import stats
from scipy.special import erfc

from skeldp import density
from skeldp.errors import ConfigurationError
from skeldp.skeleton import SkeletonConfig, sample_skeleton

CROSS = 2.0 / np.pi


def series_small(x, n):
    """Independent re-statement of the small-x partial sum (test oracle)."""
    ell = np.arange(n)
    return 2.0 / np.sqrt(2 * np.pi * x**3) * np.sum(
        (-1.0) ** ell * (2 * ell + 1) * np.exp(-(2 * ell + 1) ** 2 / (2 * x)))


def series_large(x, n):
    ell = np.arange(n)
    return (np.pi / 2) * np.sum(
        (-1.0) ** ell * (2 * ell + 1) * np.exp(-np.pi**2 * x * (2 * ell + 1) ** 2 / 8))


def test_crossover_agreement_25_terms():
    assert abs(series_small(CROSS, 25) - series_large(CROSS, 25)) <= 1e-10
    # the implementation takes the small branch strictly below 2/pi
    assert density.f_tau(CROSS, 25) == pytest.approx(series_large(CROSS, 25), abs=1e-14)
    assert density.f_tau(CROSS - 1e-12, 25) == pytest.approx(series_small(CROSS, 25), rel=1e-9)


def test_density_normalization():
    assert density.integrate_f_tau(0.0, np.inf) == pytest.approx(1.0, abs=1e-8)


def test_mean_is_one():
    mean = density._moment_piece(0.0, CROSS) + density.tail_moment(CROSS)
    assert mean == pytest.approx(1.0, abs=1e-6)


def test_truncation_bound_dominates_observed_error():
    # reference = 50-term partial sum; the subtraction itself carries a few
    # ulp of the reference value, so allow that much measurement noise
    for x in [0.1, 0.3, 0.5, 1.0, 2.0]:
        ref = density.f_tau(x, 50)
        noise = 8 * np.finfo(float).eps * max(abs(ref), 1.0)
        for n in range(1, 11):
            err = abs(ref - density.f_tau(x, n))
            assert err <= density.truncation_bound(x, n) + noise


def test_truncation_bound_second_branch_value():
    # direct substitution into the large-x branch at x = 1, n = 4
    expected = (np.pi / 2) * 9 * np.exp(-np.pi**2 * 81 / 8.0)
    assert density.truncation_bound(1.0, 4) == pytest.approx(expected, rel=1e-14)


def test_truncation_bound_monotone_in_n():
    for x in [0.1, 0.5, 1.0, 2.0]:
        bounds = [density.truncation_bound(x, n) for n in range(1, 21)]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_partial_sums_bracket_limit():
    # f(x, n) >= -bound(x, n): partial sums of the alternating series stay
    # within one omitted term of the (nonnegative) limit
    xs = np.geomspace(0.05, 10, 50)
    for n in [1, 2, 5, 10]:
        vals = density.f_tau(xs, n)
        bnds = density.truncation_bound(xs, n)
        assert np.all(vals >= -bnds - 1e-300)


def test_both_series_agree_near_crossover():
    for x in np.linspace(CROSS - 0.05, CROSS + 0.05, 11):
        n = 30
        budget = 2 * (density.truncation_bound(max(x, 1e-3), n) + 1e-16)
        # evaluate both raw representations regardless of branch
        assert abs(series_small(x, n) - series_large(x, n)) <= max(budget, 1e-12)


def test_cdf_monotone_and_limits():
    xs = np.linspace(1e-3, 25, 1000)
    cdf = density.cdf_tau(xs)
    assert np.all(np.diff(cdf) >= -1e-15)
    assert density.cdf_tau(1e-6) == 0.0
    assert density.survival_tau(20.0) < 1e-9


def test_inverse_cdf_roundtrip():
    for x in [0.2, 0.6366, 1.5, 3.0]:
        assert density.inverse_cdf_tau(density.cdf_tau(x)) == pytest.approx(x, abs=1e-8)
    assert density.cdf_tau(density.inverse_cdf_tau(0.5)) == pytest.approx(0.5, abs=1e-10)


def test_sample_mean():
    # the skeleton's d = 1 steps, delta_t / eps^2, are i.i.d. copies of tau
    eps = 0.5
    s = sample_skeleton(SkeletonConfig(eps, 1, 1.0, 50), 2024, size=4_000).delta_t.ravel()
    s = s / eps**2
    se = s.std(ddof=1) / np.sqrt(s.size)
    assert abs(s.mean() - 1.0) <= 3 * se
    assert stats.kstest(s, density.cdf_tau).pvalue > 1e-3


def test_quantize_single_node_is_mean():
    q = density.quantize_tau(1)
    assert q.weights[0] == 1.0
    assert q.nodes[0] == pytest.approx(1.0, abs=1e-6)


def test_quantize_preserves_mean_and_weights():
    q = density.quantize_tau(8)
    assert np.all(q.weights == pytest.approx(1.0 / 8))
    assert q.mean == pytest.approx(1.0, abs=1e-6)


def test_quantize_pushforward_converges():
    # E[h(tau)] for h(x) = exp(-x), independent quadrature reference
    ref = density._gauss_panels(lambda x: np.exp(-x) * density.f_tau(x),
                                5e-3, density.TAIL_CUTOFF, 60)
    errs = []
    for Q in [2, 4, 8, 16, 32]:
        q = density.quantize_tau(Q)
        errs.append(abs(float(q.weights @ np.exp(-q.nodes)) - ref))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_near_zero_underflow_returns_zero():
    assert density.f_tau(1e-4) == 0.0
    assert density.f_tau(3e-4) == 0.0


def test_domain_errors():
    with pytest.raises(ConfigurationError):
        density.f_tau(0.0)
    with pytest.raises(ConfigurationError):
        density.f_tau(-1.0)
    with pytest.raises(ConfigurationError):
        density.inverse_cdf_tau(0.0)
    with pytest.raises(ConfigurationError):
        density.inverse_cdf_tau(1.0)
    # NaN fails every range check
    with pytest.raises(ConfigurationError):
        density.f_tau(np.nan)
    with pytest.raises(ConfigurationError):
        density.truncation_bound(np.nan, 4)
    for fn in (density.cdf_tau, density.survival_tau):
        with pytest.raises(ConfigurationError, match="not NaN"):
            fn(np.nan)
        with pytest.raises(ConfigurationError, match="not NaN"):
            fn(np.array([0.5, np.nan, -1.0]))
    with pytest.raises(ConfigurationError):
        density.inverse_cdf_tau(np.nan)
    with pytest.raises(ConfigurationError):
        density.inverse_cdf_tau(np.array([0.5, np.nan]))
    with pytest.raises(ConfigurationError):
        density.quantize_tau(0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=30.0))
def test_cdf_in_unit_interval(x):
    c = density.cdf_tau(x)
    assert 0.0 <= c <= 1.0
    assert density.survival_tau(x) == pytest.approx(1.0 - c, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0), st.integers(min_value=1, max_value=30))
def test_partial_sum_within_bound_of_reference(x, n):
    ref = density.f_tau(x, 60)
    noise = 8 * np.finfo(float).eps * max(abs(ref), 1.0)  # subtraction noise
    assert abs(ref - density.f_tau(x, n)) <= density.truncation_bound(x, n) + noise


def _all_term_sums(x, n):
    """f, F and S at x > 0 from every one of the n series terms, summed by
    np.sum: the reference that summing only the terms which can change a
    bit must reproduce exactly (same expressions, same operation order)."""
    ell = np.arange(n)
    odd = 2 * ell + 1
    f, cdf, surv = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    small = x < CROSS
    xs = x[small][:, None]
    expo = -odd**2 / (2.0 * xs)
    lead = np.log(2.0 / np.sqrt(2.0 * np.pi * xs[:, 0] ** 3)) + expo[:, 0]
    terms = np.where(expo > -745.0, np.exp(expo), 0.0)
    val = 2.0 / np.sqrt(2.0 * np.pi * xs[:, 0] ** 3) * np.sum(
        (-1.0) ** ell * odd * terms, axis=1)
    f[small] = np.where(lead < np.log(1e-300), 0.0, val)
    cdf[small] = np.clip(2.0 * np.sum((-1.0) ** ell * erfc(odd / np.sqrt(2.0 * xs)),
                                      axis=1), 0.0, 1.0)
    surv[small] = 1.0 - cdf[small]
    xl = x[~small][:, None]
    expo = -np.pi**2 * xl * odd**2 / 8.0
    terms = np.where(expo > -745.0, np.exp(expo), 0.0)
    f[~small] = (np.pi / 2.0) * np.sum((-1.0) ** ell * odd * terms, axis=1)
    expo = -np.pi**2 * odd**2 * xl / 8.0
    terms = np.where(expo > -745.0, np.exp(expo), 0.0)
    tail = np.sum((-1.0) ** ell / odd * terms, axis=1)
    cdf[~small] = 1.0 - (4.0 / np.pi) * tail
    surv[~small] = (4.0 / np.pi) * tail
    return f, cdf, np.clip(surv, 0.0, 1.0)


@pytest.mark.parametrize("n", [8, 12, 14, 60, 64, 200])
def test_kept_terms_sum_bit_identical_to_all_terms(n):
    x = np.concatenate([np.geomspace(1e-6, 1e3, 200_000),
                        [np.nextafter(CROSS, 0.0), CROSS, np.nextafter(CROSS, 1.0)]])
    for part in np.array_split(x, 20):        # bounds the (values, n) reference
        want = _all_term_sums(part, n)
        got = (density.f_tau(part, n), density.cdf_tau(part, n),
               density.survival_tau(part, n))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_inverse_cdf_tau_bits_pinned():
    # digest of the quantiles as computed from the all-terms series sums,
    # re-recorded for the Hermite start and one Newton pass
    u = np.concatenate([density._philox(18, 0).random(131_072),
                        [1e-16, 1e-12, 1 - 1e-12, 1 - 1e-16]])
    x = density.inverse_cdf_tau(u)
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "1035640604f4d7ee3c9c78d3178a1a8021ccad3a7b762d21e7221cfb9efe9eba")


def test_inverse_cdf_tau_bisects_where_newton_stalls(monkeypatch):
    u = np.concatenate([density._philox(7, 0).random(2_000),
                        [1e-16, 1e-12, 1 - 1e-12, 1 - 1e-16]])
    newton = density.inverse_cdf_tau(u)
    # a zero density makes every Newton step zero, so from a constant start
    # every value's pass stalls at x = 1
    monkeypatch.setattr(density, "f_tau", lambda x, n_terms=60: np.zeros_like(x))
    monkeypatch.setattr(density, "_hermite_start", lambda u: np.ones_like(u))
    start = np.ones_like(u)
    stalled = np.abs(density.cdf_tau(start, 12) - u) > 1e-12
    assert stalled.all()
    x = density.inverse_cdf_tau(u)
    assert np.all(x[stalled] != start[stalled])
    assert np.all(np.abs(density.cdf_tau(x) - u) <= 1e-12)
    assert np.all((x >= 5e-4) & (x <= 120.0))
    # in the four tails 1e-12 of probability spans a wide x; elsewhere the
    # bisected quantile is Newton's to ~1e-14
    assert np.allclose(x[:-4], newton[:-4], rtol=1e-9, atol=0.0)


def test_hermite_start_is_the_table_at_its_nodes():
    t_u, t_x, _ = density._inverse_table()
    assert np.array_equal(density._hermite_start(t_u), t_x)
    # beyond the table the start is the end node's x, as np.interp gives
    beyond = density._hermite_start(np.array([1e-16, 1 - 1e-16]))
    assert np.array_equal(beyond, t_x[[0, -1]])


def _max_body_residual():
    u = density._philox(0, 0).random(1_000_000)
    return np.max(np.abs(density.cdf_tau(density.inverse_cdf_tau(u), 12) - u))


def test_inverse_cdf_tau_residuals():
    assert _max_body_residual() <= 1e-15
    tails = np.array([1e-16, 1e-12, 1 - 1e-12, 1 - 1e-16])
    resid = np.abs(density.cdf_tau(density.inverse_cdf_tau(tails), 12) - tails)
    assert np.all(resid <= density._INV_TOL)


def test_residual_test_fails_without_the_newton_pass(monkeypatch):
    density._inverse_table()       # its slopes come from the real f_tau
    # a zero density makes the Newton step zero: x stays at its start
    monkeypatch.setattr(density, "f_tau", lambda x, n_terms=60: np.zeros_like(x))
    assert _max_body_residual() > 1e-15


def test_drawing_leaves_scipy_interpolate_unimported():
    code = ("import sys\n"
            "from skeldp import density\n"
            "density.inverse_cdf_tau(density._philox(1, 0).random(1000))\n"
            "print('scipy.interpolate' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
