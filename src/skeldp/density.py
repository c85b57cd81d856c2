"""First exit-time density of Brownian motion from [-1, 1].

tau = inf{t > 0 : |B(t)| = 1}.  Two alternating series represent the density:

    small x (< 2/pi):  f(x) = 2/sqrt(2 pi x^3) * sum (-1)^n (2n+1) exp(-(2n+1)^2/(2x))
    large x (> 2/pi):  f(x) = (pi/2) * sum (-1)^n (2n+1) exp(-pi^2 x (2n+1)^2 / 8)

Each series has terms decreasing in n on its own branch, so partial sums
bracket the limit and the first omitted term bounds the truncation error.
Both series integrate term by term in closed form (erfc on the small branch,
plain exponentials on the large branch), which gives the CDF, tail integrals
and partial moments without quadrature.

Terms kept.  `f_tau`, `cdf_tau` and `survival_tau` evaluate only the first
4 terms of an n_terms >= 8 series and sum them as (t0 + t1) + (t2 + t3);
the result equals the full n_terms sum bit for bit.  numpy sums a row of
at least 8 values pairwise, ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7))
and then the rest, each t_j first absorbing t_{j+8}, t_{j+16}, ...  Wherever
t0 is a normal number, every term from t4 on is below 1e-26 |t0| on either
branch (t4 / t0 <= 9 exp(-62.8) at the crossover, and the ratio falls
away from it), and t_{j+8} is below 1e-16 |t_j|, so each of those additions
is under half an ulp and returns its left operand; where t0 is subnormal
or zero, every later term is zero.  Below 8 terms numpy adds the values
one after another, so those partial sums (the truncation studies) keep
the plain sum over every term.

The hitting-time increments of an epsilon-skeleton are eps^2 * tau in law;
`skeleton.sample_skeleton` draws them through `inverse_cdf_tau`.

Quantile.  `inverse_cdf_tau` starts each u from the cubic Hermite
interpolant of a (u, x, dx/du) table, dx/du = 1 / f_tau(x): 512 geometric
nodes in each tail (u < 0.02 and u > 0.98), where the quantile bends
hardest, and 1,600 on the body between.  One Newton pass on the CDF from
that start leaves a residual |F(x) - u| of at most ~1e-15 over 1e6 uniform
draws; a value whose residual still exceeds _INV_TOL = 1e-12 (only in the
extreme tails) is bisected.  A draw costs 2 `cdf_tau` and 1 `f_tau`
evaluations.  The start is plain numpy: `scipy.interpolate` costs ~0.2 s
to import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc

from .errors import ConfigurationError

CROSSOVER = 2.0 / np.pi

# exponent below which exp() underflows to 0.0 in float64
_EXP_UNDERFLOW = -745.0

_GAUSS_X64, _GAUSS_W64 = leggauss(64)


@dataclass(frozen=True)
class Quantization:
    """Finite-support approximation of tau: nodes and matching weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ConfigurationError("nodes and weights must be 1-d and same length")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise ConfigurationError("nodes must be positive and strictly increasing")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("weights must be nonnegative and sum to 1")

    @property
    def mean(self) -> float:
        return float(self.weights @ self.nodes)


def _as_array(x, name: str):
    """x as a float array, and whether it is a scalar; NaN is refused."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ConfigurationError(f"{name} requires x not NaN")
    return arr, arr.ndim == 0


# numpy sums a row of at least this many values pairwise; of such a row
# only the first 4 terms can change a bit of the sum (module docstring)
_PAIRWISE_MIN = 8


def _series_index(n_terms: int) -> np.ndarray:
    """Indices of the terms that decide an n_terms partial sum."""
    return np.arange(4 if n_terms >= _PAIRWISE_MIN else n_terms)


def _partial_sum(terms: np.ndarray, n_terms: int) -> np.ndarray:
    """Row sums of (values, _series_index(n_terms)) terms, equal bit for
    bit to np.sum over all n_terms terms."""
    if n_terms >= _PAIRWISE_MIN:
        return (terms[:, 0] + terms[:, 1]) + (terms[:, 2] + terms[:, 3])
    return np.sum(terms, axis=1)


def f_tau(x, n_terms: int = 60):
    """Density of tau at x > 0 as the n_terms-partial alternating sum."""
    if n_terms < 1:
        raise ConfigurationError(f"n_terms must be >= 1, got {n_terms}")
    arr, scalar = _as_array(x, "f_tau")
    if not np.all(arr > 0):
        raise ConfigurationError("f_tau requires x > 0")
    out = np.zeros_like(arr)
    ell = _series_index(n_terms)
    odd = 2 * ell + 1

    small = arr < CROSSOVER
    if small.any():
        xs = arr[small][..., None]
        expo = -odd**2 / (2.0 * xs)
        # leading term below 1e-300 -> the density has underflowed; return 0
        lead = np.log(2.0 / np.sqrt(2.0 * np.pi * xs[:, 0] ** 3)) + expo[:, 0]
        terms = np.where(expo > _EXP_UNDERFLOW, np.exp(expo), 0.0)
        val = 2.0 / np.sqrt(2.0 * np.pi * xs[:, 0] ** 3) * _partial_sum(
            (-1.0) ** ell * odd * terms, n_terms
        )
        out[small] = np.where(lead < np.log(1e-300), 0.0, val)
    large = ~small
    if large.any():
        xl = arr[large][..., None]
        expo = -np.pi**2 * xl * odd**2 / 8.0
        terms = np.where(expo > _EXP_UNDERFLOW, np.exp(expo), 0.0)
        out[large] = (np.pi / 2.0) * _partial_sum((-1.0) ** ell * odd * terms, n_terms)
    return float(out) if scalar else out


def truncation_bound(x, n: int):
    """Magnitude of the first omitted term when keeping n terms at x.

    Dominates |f_tau(x, inf) - f_tau(x, n)| because the terms on each branch
    decrease in the index (alternating series remainder).
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    arr, scalar = _as_array(x, "truncation_bound")
    if not np.all(arr > 0):
        raise ConfigurationError("truncation_bound requires x > 0")
    odd = 2 * n + 1
    out = np.empty_like(arr)
    small = arr < CROSSOVER
    if small.any():
        xs = arr[small]
        expo = -(odd**2) / (2.0 * xs)
        out[small] = 2.0 * odd / np.sqrt(2.0 * np.pi * xs**3) * np.where(
            expo > _EXP_UNDERFLOW, np.exp(expo), 0.0
        )
    large = ~small
    if large.any():
        xl = arr[large]
        expo = -np.pi**2 * xl * odd**2 / 8.0
        out[large] = (np.pi / 2.0) * odd * np.where(
            expo > _EXP_UNDERFLOW, np.exp(expo), 0.0
        )
    return float(out) if scalar else out


def cdf_tau(x, n_terms: int = 64):
    """P(tau <= x), term-by-term integral of the series (exact in each branch).

    small branch:  F(x) = 2 * sum (-1)^n erfc((2n+1)/sqrt(2x))
    large branch:  F(x) = 1 - (4/pi) * sum (-1)^n/(2n+1) exp(-pi^2 (2n+1)^2 x/8)
    """
    arr, scalar = _as_array(x, "cdf_tau")
    out = np.zeros_like(arr)
    ell = _series_index(n_terms)
    odd = 2 * ell + 1
    pos = arr > 0
    small = pos & (arr < CROSSOVER)
    if small.any():
        xs = arr[small][..., None]
        out[small] = 2.0 * _partial_sum((-1.0) ** ell * erfc(odd / np.sqrt(2.0 * xs)), n_terms)
    large = pos & ~small
    if large.any():
        xl = arr[large][..., None]
        expo = -np.pi**2 * odd**2 * xl / 8.0
        terms = np.where(expo > _EXP_UNDERFLOW, np.exp(expo), 0.0)
        out[large] = 1.0 - (4.0 / np.pi) * _partial_sum((-1.0) ** ell / odd * terms, n_terms)
    return float(out) if scalar else np.clip(out, 0.0, 1.0)


def survival_tau(x, n_terms: int = 64):
    """P(tau > x); uses the large-branch series directly when it applies."""
    arr, scalar = _as_array(x, "survival_tau")
    out = np.ones_like(arr)
    ell = _series_index(n_terms)
    odd = 2 * ell + 1
    small = (arr > 0) & (arr < CROSSOVER)
    if small.any():
        out[small] = 1.0 - cdf_tau(arr[small], n_terms)
    large = arr >= CROSSOVER
    if large.any():
        xl = arr[large][..., None]
        expo = -np.pi**2 * odd**2 * xl / 8.0
        terms = np.where(expo > _EXP_UNDERFLOW, np.exp(expo), 0.0)
        out[large] = (4.0 / np.pi) * _partial_sum((-1.0) ** ell / odd * terms, n_terms)
    return float(out) if scalar else np.clip(out, 0.0, 1.0)


# Tail cutoff: survival(x) < 1e-12 from the leading large-branch term.
TAIL_CUTOFF = 8.0 / np.pi**2 * np.log(4.0 / (np.pi * 1e-12))


_INV_TABLE: list = []
# values per Newton pass of inverse_cdf_tau: bounds its (values, 4 kept
# terms) temporaries.  For one 36,864-draw chunk (4,096 paths x 9 steps)
# the tracemalloc peak is ~0.87 MB in 4,096-value passes and ~5.0 MB in
# one pass; 8,192-value passes and one pass timed no faster
_INV_BLOCK = 4096
_INV_TOL = 1e-12        # CDF residual past which a Newton quantile is bisected


def _inverse_table():
    """Monotone (u, x, dx/du) table of `_hermite_start` (layout in the
    module docstring); built once per process."""
    if not _INV_TABLE:
        us = np.concatenate([np.geomspace(1e-12, 0.02, 512),
                             np.linspace(0.02, 0.98, 1600),
                             1.0 - np.geomspace(1e-13, 0.02, 512)[::-1]])
        us = np.unique(us)
        lo = np.full_like(us, 5e-4)
        hi = np.full_like(us, 80.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = cdf_tau(mid) < us
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        xs = 0.5 * (lo + hi)
        _INV_TABLE.append((us, xs, 1.0 / f_tau(xs, 12)))
    return _INV_TABLE[0]


def _hermite_start(u: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of the quantile on the table cell holding
    each u, from the end nodes' x and dx/du = 1 / f_tau.  A table u returns
    its x exactly; a u beyond the table returns the end node's x."""
    t_u, t_x, t_dx = _inverse_table()
    i = np.clip(np.searchsorted(t_u, u, side="right") - 1, 0, len(t_u) - 2)
    h = t_u[i + 1] - t_u[i]
    s = np.clip((u - t_u[i]) / h, 0.0, 1.0)
    r = 1.0 - s
    return ((1.0 + 2.0 * s) * r * r * t_x[i] + s * s * (3.0 - 2.0 * s) * t_x[i + 1]
            + h * s * r * (r * t_dx[i] - s * t_dx[i + 1]))


def inverse_cdf_tau(u):
    """Quantile function of tau: cubic Hermite start on the inverse table,
    one Newton pass, bisection of any value whose CDF residual still
    exceeds _INV_TOL.

    Values are solved _INV_BLOCK at a time, which bounds the (values,
    series terms) temporaries; no value's result depends on the others.
    """
    arr, scalar = _as_array(u, "inverse_cdf_tau")
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ConfigurationError("inverse_cdf_tau requires 0 < u < 1")
    flat = arr.ravel()
    x = np.empty_like(flat)
    for i in range(0, len(flat), _INV_BLOCK):
        x[i:i + _INV_BLOCK] = _inverse_block(flat[i:i + _INV_BLOCK])
    return float(x[0]) if scalar else x.reshape(arr.shape)


def _inverse_block(arr: np.ndarray) -> np.ndarray:
    """Quantiles of one block: `_hermite_start`, one Newton pass, then the
    residual check.  Per value that is 2 `cdf_tau` and 1 `f_tau` call,
    plus 100 bisection steps for a value the pass leaves above _INV_TOL."""
    x = _hermite_start(arr)
    # 12 series terms: truncation < 1e-20 everywhere on the bracket; being
    # >= 8, they cost 4 kept terms (module docstring)
    fx = cdf_tau(x, 12) - arr
    dfx = f_tau(x, 12)
    step = np.where(dfx > 0, fx / np.maximum(dfx, 1e-300), 0.0)
    x = np.clip(x - step, 5e-4, 120.0)
    resid = np.abs(cdf_tau(x, 12) - arr)
    if np.any(resid > _INV_TOL):
        # Newton can stall in the extreme tails; bisect the stragglers
        bad = resid > _INV_TOL
        lo_b = np.full(int(bad.sum()), 5e-4)
        hi_b = np.full(int(bad.sum()), 120.0)
        for _ in range(100):
            mid = 0.5 * (lo_b + hi_b)
            below = cdf_tau(mid) < arr[bad]
            lo_b = np.where(below, mid, lo_b)
            hi_b = np.where(below, hi_b, mid)
        x[bad] = 0.5 * (lo_b + hi_b)
    return x


def _philox(seed, stream: int) -> np.random.Generator:
    """The counter-based generator keyed (seed, stream): every sampler's
    random numbers come from one of these, each on its own stream."""
    key = np.array([np.uint64(seed) & np.uint64(2**64 - 1), np.uint64(stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gauss_panels(fn, a: float, b: float, panels: int):
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    pts = mid + half * _GAUSS_X64
    vals = fn(pts.ravel()).reshape(pts.shape)
    return float(np.sum(half[:, 0] * (vals @ _GAUSS_W64)))


def _branch_integral(fn, a: float, b: float, panels: int) -> float:
    """int_a^b fn by Gauss panels on each side of the crossover."""
    total = 0.0
    lo = max(a, 5e-3)  # density underflows below ~2e-2; 5e-3 is paranoid
    if lo < min(b, CROSSOVER):
        total += _gauss_panels(fn, lo, min(b, CROSSOVER), panels)
    if b > CROSSOVER:
        total += _gauss_panels(fn, max(lo, CROSSOVER), b, panels)
    return total


_MASS_PANELS = 40       # Gauss panels per crossover branch of integrate_f_tau
_MOMENT_PANELS = 24     # and of _moment_piece


def integrate_f_tau(a: float, b: float) -> float:
    """int_a^b f_tau, split at the crossover; b may be inf (analytic tail)."""
    if not np.isfinite(b):
        return integrate_f_tau(a, TAIL_CUTOFF + 10.0) + float(
            survival_tau(TAIL_CUTOFF + 10.0)
        )
    return _branch_integral(f_tau, a, b, _MASS_PANELS)


def tail_moment(a: float) -> float:
    """int_a^inf x f(x) dx via 64 terms of the large-branch series, valid
    for a >= 2/pi."""
    if a < CROSSOVER:
        raise ConfigurationError("tail_moment requires a >= 2/pi")
    ell = np.arange(64)
    odd = 2 * ell + 1
    c = np.pi**2 * odd**2 / 8.0
    expo = -c * a
    terms = np.where(expo > _EXP_UNDERFLOW, np.exp(expo), 0.0)
    return float((np.pi / 2.0) * np.sum((-1.0) ** ell * odd * terms * (a / c + 1.0 / c**2)))


def _moment_piece(a: float, b: float) -> float:
    """int_a^b x f(x) dx by Gauss panels (finite b, within one branch or split)."""
    return _branch_integral(lambda x: x * f_tau(x), a, b, _MOMENT_PANELS)


def quantize_tau(Q: int) -> Quantization:
    """Finite-support approximation of tau with Q base nodes: the
    conditional means of Q equal-probability slices, all weights 1/Q; it
    preserves total mass and the exact mean."""
    if Q < 1:
        raise ConfigurationError(f"Q must be >= 1, got {Q}")
    edges = np.concatenate(
        [[0.0], inverse_cdf_tau(np.arange(1, Q) / Q) if Q > 1 else [], [np.inf]]
    )
    nodes = np.empty(Q)
    for i in range(Q):
        a, b = edges[i], edges[i + 1]
        if np.isfinite(b):
            m = _moment_piece(a, b)
        else:
            m = (tail_moment(a) if a >= CROSSOVER
                 else _moment_piece(a, CROSSOVER) + tail_moment(CROSSOVER))
        nodes[i] = m * Q  # conditional mean of a 1/Q slice
    return Quantization(nodes, np.full(Q, 1.0 / Q))
