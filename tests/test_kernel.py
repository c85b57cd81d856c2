import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from skeldp import density
from skeldp.errors import ConfigurationError
from skeldp.kernel import (DiscretizedKernel, KernelQuery, discretize_kernel,
                           first_fire_probability, kernel_prob,
                           time_resolved_report)

GX, GW = leggauss(64)


def first_fire_oracle(lag_j, lag_other):
    """P{residual_j < residual_other} via the one-dimensional reduction.

    Independent of the production double-integral route: integrates
    f(u + lag_j) * survival(u + lag_other) du directly.
    """
    edges = np.linspace(0.0, 35.0, 241)
    tot = 0.0
    for i in range(240):
        half = 0.5 * (edges[i + 1] - edges[i])
        u = 0.5 * (edges[i + 1] + edges[i]) + half * GX
        tot += half * float(np.sum(
            GW * density.f_tau(u + lag_j, 60) * density.survival_tau(u + lag_other)))
    return tot / (density.survival_tau(lag_j) * density.survival_tau(lag_other))


def test_d1_half_mass():
    q = KernelQuery(np.array([0.0]), 1, 1, (0.0, np.inf))
    assert kernel_prob(q, 1.0) == pytest.approx(0.5, abs=1e-8)
    # scaled: same in any epsilon
    assert kernel_prob(q, 0.3) == pytest.approx(0.5, abs=1e-8)


def test_d1_history_free_interval():
    # (1/2) * P(tau in (a,b)) in unit coordinates
    q = KernelQuery(np.array([0.7]), 1, -1, (0.2, 0.9))
    expect = 0.5 * (density.cdf_tau(0.9) - density.cdf_tau(0.2))
    assert kernel_prob(q, 1.0) == pytest.approx(expect, rel=1e-10)


def test_d2_fresh_total_mass():
    total = 0.0
    for j in (1, 2):
        for s in (1, -1):
            total += kernel_prob(KernelQuery(np.zeros(2), j, s, (0.0, np.inf)), 1.0)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_d2_fresh_exchangeable():
    p1 = sum(kernel_prob(KernelQuery(np.zeros(2), 1, s, (0.0, np.inf)), 1.0)
             for s in (1, -1))
    assert p1 == pytest.approx(0.5, abs=1e-6)


def test_d2_mass_at_five_lag_configs():
    eps = 0.5
    for lags_u in ([0.0, 0.0], [0.0, 0.5], [0.25, 1.0], [1.5, 0.1], [2.0, 2.0]):
        lags = np.asarray(lags_u) * eps**2
        total = sum(
            kernel_prob(KernelQuery(lags, j, s, (0.0, np.inf)), eps)
            for j in (1, 2) for s in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-6), lags_u


def test_lagged_coordinate_fires_sooner():
    eps = 0.5
    lags = np.array([0.0, 0.5 * eps**2])
    p2 = first_fire_probability(lags, 2, eps)
    assert p2 > 0.5
    assert p2 == pytest.approx(0.6005486, abs=1e-5)


def test_first_fire_matches_reduction_oracle():
    for (lj, lo) in [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.3, 1.0), (2.0, 0.2)]:
        prod = first_fire_probability(np.array([lj, lo]), 1, 1.0)
        assert prod == pytest.approx(first_fire_oracle(lj, lo), abs=2e-7)


def first_fire_double_integral(lags_u, j):
    """The first-fire factor as the module docstring's double integral, with
    r = -s over (0, X) and t over (r, r + X) for the tail cutoff X, by
    nested 16-panel Gauss rules; independent of the one-dimensional route."""
    X, panels = density.TAIL_CUTOFF, 16
    edges = np.linspace(0.0, X, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    r = ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * GX).ravel()
    wr = (half[:, None] * GW).ravel()
    others = np.delete(lags_u, j)
    total = 0.0
    for p in range(panels):
        t = r[:, None] + (p + 0.5 * (GX + 1.0)) / panels * X
        integ = density.f_tau(t - r[:, None] + lags_u[j])
        for lag in others:
            integ = integ * density.f_tau(t + lag)
        total += wr @ (integ @ GW) * (0.5 * X / panels)
    return total / float(np.prod(density.survival_tau(lags_u)))


def test_first_fire_matches_double_integral_at_d3():
    for lags_u in ([0.1, 0.4, 0.9], [1.5, 0.2, 0.05]):
        lags_u = np.array(lags_u)
        for j in range(3):
            assert first_fire_probability(lags_u, j + 1, 1.0) == pytest.approx(
                first_fire_double_integral(lags_u, j), abs=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_zero_lag_nodes_are_quantize_tau_nodes(d):
    """At zero lags every coordinate's residual is tau itself, so the
    slices are tau's quantile slices and the nodes quantize_tau's."""
    eps, Q = 0.5, 8
    dk = discretize_kernel(np.zeros(d), eps, Q)
    nodes = dk.delta_t[::2 * d] / eps**2
    np.testing.assert_allclose(nodes, density.quantize_tau(Q).nodes, rtol=1e-10, atol=0)
    assert dk.mean_delta_t == pytest.approx(eps**2, rel=1e-10)


def _fresh_process_repr(code: str) -> str:
    """The stdout of code run in a new interpreter with kernel imported."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run(
        [sys.executable, "-c", "import numpy as np\nfrom skeldp import kernel\n" + code],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout


def test_first_fire_cache_keys_by_exact_lags():
    """A first-fire factor does not depend on what ran before it in the
    process: lags 4e-15 apart get their own quadratures."""
    near = "print(repr(kernel._first_fire_factor(np.array([0.3 + 4e-15, 0.7]), 0)))\n"
    after = "kernel._first_fire_factor(np.array([0.3, 0.7]), 0)\n" + near
    assert _fresh_process_repr(after) == _fresh_process_repr(near)


def test_d1_discretization():
    dk = discretize_kernel(np.array([0.0]), 1.0, 2)
    assert len(dk) == 4
    assert np.all(dk.weights == 0.25)
    assert dk.mean_delta_t == pytest.approx(1.0, abs=1e-6)
    eps = 0.4
    dk2 = discretize_kernel(np.array([0.0]), eps, 8)
    assert dk2.mean_delta_t == pytest.approx(eps**2, abs=1e-6)
    # cache: same object for identical parameters
    assert discretize_kernel(np.array([0.0]), eps, 8) is dk2


def test_d1_kernel_cache_keys_by_exact_eps():
    """A neighbouring eps gets its own atoms, whatever ran before it."""
    third = discretize_kernel(np.array([0.0]), 1.0 / 3, 2)
    eps = float(np.nextafter(1.0 / 3, 1.0))
    near = discretize_kernel(np.array([0.0]), eps, 2)
    assert near is not third
    assert np.array_equal(near.delta_t, np.repeat(density.quantize_tau(2).nodes * eps**2, 2))
    assert not np.array_equal(near.delta_t, third.delta_t)


def test_d2_discretization_mass_and_signs():
    eps = 0.7
    dk = discretize_kernel(np.array([0.0, 0.3 * eps**2]), eps, 4)
    assert dk.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(dk) == 4 * 4          # Q nodes x 2 coords x 2 signs
    # lagged coordinate carries more mass
    m2 = dk.weights[dk.coords == 2].sum()
    assert m2 > 0.5
    # each (node, coord) splits evenly between the signs
    for m in range(0, len(dk), 2):
        assert dk.weights[m] == pytest.approx(dk.weights[m + 1], rel=1e-12)


def test_discretization_pushforward_consistency():
    # |E h - sum h w| decreases as Q doubles, h(s, i) = exp(-s) 1{i = +1}
    ref = 0.5 * density._gauss_panels(
        lambda x: np.exp(-x) * density.f_tau(x), 5e-3, density.TAIL_CUTOFF, 60)
    errs = []
    for Q in [2, 4, 8, 16]:
        dk = discretize_kernel(np.array([0.0]), 1.0, Q)
        val = float(np.sum(dk.weights * np.exp(-dk.delta_t) * (dk.signs == 1)))
        errs.append(abs(val - ref))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_query_validation():
    with pytest.raises(ConfigurationError):
        KernelQuery(np.array([0.0]), 1, 1, (0.5, 0.2))
    with pytest.raises(ConfigurationError):
        KernelQuery(np.array([0.0]), 2, 1, (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        KernelQuery(np.array([-0.1]), 1, 1, (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        KernelQuery(np.array([0.0]), 1, 0, (0.0, 1.0))
    for lags in ([np.nan], [-0.5], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ConfigurationError, match="lags must be finite and >= 0"):
            discretize_kernel(np.array(lags), 0.5, 4)
    with pytest.raises(ConfigurationError):
        kernel_prob(KernelQuery(np.array([0.0]), 1, 1, (0.0, 1.0)), 0.0)
    with pytest.raises(ConfigurationError):
        DiscretizedKernel(np.array([1.0]), np.array([1]), np.array([1]),
                          np.array([0.5]))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_mass_identity_random_lags(l1, l2):
    # sum over (coord, sign) of the full-range kernel mass is 1 at d = 2
    # for any lag configuration (first-to-fire factors are complementary)
    total = sum(kernel_prob(KernelQuery(np.array([l1, l2]), j, s, (0.0, np.inf)),
                            1.0) for j in (1, 2) for s in (1, -1))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_time_resolved_report_flags_product_form():
    """The product-form kernel is exact on (coord, sign) totals at d=2 but
    not on time-binned cells; simulate the true law and check the report
    says exactly that."""
    rng = np.random.default_rng(8)
    n = 120_000
    u = rng.random((n, 2))
    taus = density.inverse_cdf_tau(np.clip(u, 1e-12, 1 - 1e-12))
    first = np.argmin(taus, axis=1)
    dt = np.min(taus, axis=1)
    cells = {}
    # full-range cells (formula exact): both coordinates, sign +1 modeled as
    # half of the coordinate count
    sign_flip = rng.random(n) < 0.5
    for j in (1, 2):
        sel = first == (j - 1)
        cells[(j, 1, (0.0, np.inf))] = int(np.sum(sel & sign_flip))
        cells[(j, -1, (0.0, np.inf))] = int(np.sum(sel & ~sign_flip))
    # time-binned cell (formula approximate by design)
    cells[(1, 1, (0.0, 0.5))] = int(np.sum((first == 0) & (dt < 0.5) & sign_flip))
    lines = time_resolved_report([0.0, 0.0], 1.0, cells, n)
    full = [ln for ln in lines if "inf" in ln]
    binned = [ln for ln in lines if "inf" not in ln]
    assert all(ln.endswith("ok") for ln in full)
    assert all(ln.endswith("DEVIATES") for ln in binned)
