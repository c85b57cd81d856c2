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
4 terms of an n_terms >= 8 series, each as a 1-d array, and sum them as
(t0 + t1) + (t2 + t3), written (a0 - a1) + (a2 - a3) on the unsigned terms
(a sign flip is exact and a + (-b) is a - b); the result equals the full
n_terms sum bit for bit.  numpy sums a row of at least 8 values pairwise,
((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) and then the rest, each
t_j first absorbing t_{j+8}, t_{j+16}, ...  Wherever t0 is a normal
number, every term from t4 on is below 1e-26 |t0| on either branch
(t4 / t0 <= 9 exp(-62.8) at the crossover, and the ratio falls away from
it), and t_{j+8} is below 1e-16 |t_j|, so each of those additions is under
half an ulp and returns its left operand; where t0 is subnormal or zero,
every later term is zero.  Below 8 terms numpy adds the values one after
another, so those partial sums (the truncation studies) keep the plain sum
over every term.

The hitting-time increments of an epsilon-skeleton are eps^2 * tau in law;
`skeleton.sample_skeleton` draws them through `inverse_cdf_tau`.

Quantile.  `inverse_cdf_tau` starts each u from the cubic Hermite
interpolant of a (u, x, dx/du) table, dx/du = 1 / f_tau(x): 512 geometric
nodes in each tail (u < 0.02 and u > 0.98), where the quantile bends
hardest, and 1,600 on the body between.  The table cell holding u is found
in O(1): u * 4096 names a bucket narrower than the body's node spacing,
the cell of the bucket's lower edge plus at most one step up is u's cell,
and only a u in a tail bucket holding two or more nodes (0.4 % of uniform
draws) is binary-searched.  One Newton pass on the CDF from that start
leaves a residual |F(x) - u| of at most ~1e-15 over 1e6 uniform draws; a
value whose residual still exceeds _INV_TOL = 1e-12 (only in the extreme
tails) is bisected.  The Newton pass and the residual check split the
values by branch and call the same branch kernels as `f_tau` and
`cdf_tau`: on the small branch 4 erfc for the CDF and 4 exp for the
density, on the large branch 4 exp for both, the density reusing the CDF's
exponentials.  The residual check skips `cdf_tau`'s NaN scan, masks and
clip, none of which can act on a finite Newton result in [5e-4, 120], and
the kernels skip their underflow guards there (the bounds above them).
Each pass gathers and scatters a branch's values by index arrays, which
costs far less than boolean masks.  So a draw costs 8 erfc or 8 exp plus
the Hermite start: one 4,096-value block takes ~0.7 ms on a 2-vCPU Xeon
host (~1.15 ms through boolean masks, `cdf_tau` and (values, 4) term
broadcasts).  The start is plain numpy: `scipy.interpolate` costs ~0.2 s
to import.
"""

from __future__ import annotations

import functools
import numbers
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


def _odd(n_terms: int) -> range:
    """Odd factors 2n + 1 of the terms that decide an n_terms partial sum."""
    return range(1, 8 if n_terms >= _PAIRWISE_MIN else 2 * n_terms, 2)


def _alternating_sum(terms: list, n_terms: int) -> np.ndarray:
    """sum_n (-1)^n terms[n] over one series' kept terms (1-d arrays),
    equal bit for bit to np.sum over all n_terms signed terms: a sign
    flip is exact and a + (-b) is a - b."""
    if n_terms >= _PAIRWISE_MIN:
        return (terms[0] - terms[1]) + (terms[2] - terms[3])
    return np.sum(np.stack([-t if n % 2 else t for n, t in enumerate(terms)], axis=1),
                  axis=1)


def _exps(expo: list, guard: bool) -> list:
    """exp of each exponent array; with guard, 0.0 where the exponent is
    at or below _EXP_UNDERFLOW, where exp would still give a subnormal."""
    if guard:
        return [np.where(e > _EXP_UNDERFLOW, np.exp(e), 0.0) for e in expo]
    return [np.exp(e) for e in expo]


# Branch kernels over 1-d arrays, one per series, shared by f_tau, cdf_tau,
# survival_tau and the quantile's Newton pass and residual check.  The
# underflow guards (0.0 for a term whose exponent is at or below -745, where
# exp still returns a subnormal <= 5e-324) run only when some value lies
# past a kernel's bound below.  Inside the bounds a guard could only act on
# a later term while the leading term is at least exp(-83), so even times
# its factor (<= 13) that subnormal is under half an ulp of every partial
# sum it joins, and the leading term itself is never guarded.

# at x >= this the small-branch density needs no guard: the leading term
# exp(-1 / (2x)) >= exp(-500), ln(its product with the scale) >= -490,
# and a later term nears exp(-745) only at x <= 13^2 / 1490
_F_SMALL_EXACT = 1e-3
# below this x the large-branch exponentials need none: the leading term
# is above exp(-741), and a later term nears exp(-745) only at
# x <= 603.8 / 3^2 = 67.1
_LARGE_EXACT = 600.0


def _f_small(x: np.ndarray, n_terms: int) -> np.ndarray:
    """Small-branch density series at 0 < x < 2/pi; 0.0 where the leading
    exponential underflows and where the leading term is below 1e-300
    (guarded only if some x is below _F_SMALL_EXACT)."""
    x2 = 2.0 * x
    guard = x.min() < _F_SMALL_EXACT
    with np.errstate(over="ignore"):        # -inf where 1 / x overflows, at subnormal x
        expo = [-(k * k) / x2 for k in _odd(n_terms)]
    if guard:
        # x^3 may underflow where the leading exponential does, so those
        # values take x = 1 before it is formed
        live = expo[0] > _EXP_UNDERFLOW
        x = np.where(live, x, 1.0)
    scale = 2.0 / np.sqrt(2.0 * np.pi * x**3)
    val = scale * _alternating_sum(
        [k * t for k, t in zip(_odd(n_terms), _exps(expo, guard))], n_terms)
    if guard:
        lead = np.log(scale) + expo[0]
        val = np.where(~live | (lead < np.log(1e-300)), 0.0, val)
    return val


def _cdf_small(x: np.ndarray, n_terms: int) -> np.ndarray:
    """Small-branch CDF series, 2 sum (-1)^n erfc((2n+1)/sqrt(2x))."""
    r = np.sqrt(2.0 * x)
    return 2.0 * _alternating_sum([erfc(k / r) for k in _odd(n_terms)], n_terms)


def _large_exps(x: np.ndarray, n_terms: int, x_first: bool = False) -> list:
    """exp(-pi^2 (2n+1)^2 x / 8) of the kept large-branch terms, for the
    large-branch sums; 0.0 where it underflows, also where the exponent
    overflows to -inf (x >= ~1e307), unless every x is below _LARGE_EXACT.
    The CDF and survival series round -pi^2 (2n+1)^2 first; f_tau rounds
    -pi^2 x first, which may move its exponents by an ulp."""
    guard = x.max() >= _LARGE_EXACT
    with np.errstate(over="ignore"):
        if x_first:
            scaled = -np.pi**2 * x
            expo = [scaled * (k * k) / 8.0 for k in _odd(n_terms)]
        else:
            expo = [-np.pi**2 * (k * k) * x / 8.0 for k in _odd(n_terms)]
    return _exps(expo, guard)


def _f_large(exps: list, n_terms: int) -> np.ndarray:
    """Large-branch density series from its `_large_exps`."""
    return (np.pi / 2.0) * _alternating_sum(
        [k * e for k, e in zip(_odd(n_terms), exps)], n_terms)


def _tail_sum(exps: list, n_terms: int) -> np.ndarray:
    """P(tau > x) on the large branch from its `_large_exps`."""
    return (4.0 / np.pi) * _alternating_sum(
        [(1.0 / k) * e for k, e in zip(_odd(n_terms), exps)], n_terms)


def _cdf_and_density(x: np.ndarray, n_terms: int, density: bool = True):
    """The CDF series at x > 0, equal to cdf_tau(x, n_terms) bit for bit,
    and with density the density series, in one pass over the branches.
    Neither series leaves [0, 1], so cdf_tau's clip is left out.  On the
    large branch the density is summed from the CDF's exponentials, whose
    exponent rounds in another order than f_tau's, so it may differ from
    f_tau by an ulp."""
    cdf = np.empty_like(x)
    dens = np.empty_like(x) if density else None
    # index arrays: cheaper to gather and scatter by than boolean masks
    below = x < CROSSOVER
    small, large = np.flatnonzero(below), np.flatnonzero(~below)
    if small.size:
        xs = x[small]
        cdf[small] = _cdf_small(xs, n_terms)
        if density:
            dens[small] = _f_small(xs, n_terms)
    if large.size:
        exps = _large_exps(x[large], n_terms)
        cdf[large] = 1.0 - _tail_sum(exps, n_terms)
        if density:
            dens[large] = _f_large(exps, n_terms)
    return cdf, dens


def f_tau(x, n_terms: int = 60):
    """Density of tau at x > 0 as the n_terms-partial alternating sum."""
    if n_terms < 1:
        raise ConfigurationError(f"n_terms must be >= 1, got {n_terms}")
    arr, scalar = _as_array(x, "f_tau")
    if not np.all(arr > 0):
        raise ConfigurationError("f_tau requires x > 0")
    out = np.zeros_like(arr)
    small = arr < CROSSOVER
    if small.any():
        out[small] = _f_small(arr[small], n_terms)
    large = ~small
    if large.any():
        out[large] = _f_large(_large_exps(arr[large], n_terms, x_first=True), n_terms)
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
        with np.errstate(over="ignore"):    # -inf where 1 / x overflows, at subnormal x
            expo = -odd**2 / (2.0 * xs)
        # 0.0 where the exponential underflows, where x^3 may underflow too
        live = expo > _EXP_UNDERFLOW
        xs = np.where(live, xs, 1.0)
        out[small] = np.where(
            live, 2.0 * odd / np.sqrt(2.0 * np.pi * xs**3) * np.exp(expo), 0.0)
    large = ~small
    if large.any():
        xl = arr[large]
        with np.errstate(over="ignore"):            # -inf, read as 0.0 below
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
    pos = arr > 0
    if pos.any():
        out[pos] = _cdf_and_density(arr[pos], n_terms, density=False)[0]
    return float(out) if scalar else np.clip(out, 0.0, 1.0)


def survival_tau(x, n_terms: int = 64):
    """P(tau > x); uses the large-branch series directly when it applies."""
    arr, scalar = _as_array(x, "survival_tau")
    out = np.ones_like(arr)
    small = (arr > 0) & (arr < CROSSOVER)
    if small.any():
        out[small] = 1.0 - cdf_tau(arr[small], n_terms)
    large = arr >= CROSSOVER
    if large.any():
        out[large] = _tail_sum(_large_exps(arr[large], n_terms), n_terms)
    return float(out) if scalar else np.clip(out, 0.0, 1.0)


# Tail cutoff: survival(x) < 1e-12 from the leading large-branch term.
TAIL_CUTOFF = 8.0 / np.pi**2 * np.log(4.0 / (np.pi * 1e-12))


# values per Newton pass of inverse_cdf_tau: bounds its per-term
# temporaries.  For one 36,864-draw chunk (4,096 paths x 9 steps) the
# tracemalloc peak is ~0.66 MB in 4,096-value passes and ~3.5 MB in one
# pass; one pass timed ~10% slower, 6,144- to 8,192-value passes at most
# ~10% faster and not in every run
_INV_BLOCK = 4096
# series terms of the quantile's CDF and density: truncation < 1e-20
# everywhere on the bracket; being >= 8, they cost 4 kept terms
_QUANTILE_TERMS = 12
_INV_TOL = 1e-12        # CDF residual past which a Newton quantile is bisected
# u buckets of `_table_cell`, a power of two so that u * _BUCKETS is exact;
# narrower than the body's node spacing, so a body bucket holds <= 1 node
_BUCKETS = 4096


def _searched_cells(t_u: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the table cell [t_u[i], t_u[i + 1]) holding each u, clipped
    to the table's cells."""
    return np.clip(np.searchsorted(t_u, u, side="right") - 1, 0, len(t_u) - 2)


def _bisect_cdf(u: np.ndarray, upper: float, steps: int) -> np.ndarray:
    """x with cdf_tau(x) = u, by `steps` bisections of [5e-4, upper]."""
    lo = np.full_like(u, 5e-4)
    hi = np.full_like(u, upper)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = cdf_tau(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@functools.cache
def _inverse_lookup():
    """The monotone (u, x, dx/du) table of `_hermite_start` (layout in the
    module docstring) and, per u bucket [k, k + 1) / _BUCKETS, the cell
    holding the bucket's lower edge; built once per process."""
    us = np.concatenate([np.geomspace(1e-12, 0.02, 512),
                         np.linspace(0.02, 0.98, 1600),
                         1.0 - np.geomspace(1e-13, 0.02, 512)[::-1]])
    us = np.unique(us)
    xs = _bisect_cdf(us, 80.0, 60)
    first = _searched_cells(us, np.arange(_BUCKETS) / _BUCKETS)
    return (us, xs, 1.0 / f_tau(xs, 12)), first


def _table_cell(u: np.ndarray) -> np.ndarray:
    """`_searched_cells` of the inverse table at u in (0, 1), in O(1) per
    value: the cell of u's bucket edge and one step up reach u's cell
    unless the bucket holds two or more nodes (the geometric tails), and
    only the values not then inside their cell are searched."""
    (t_u, _, _), first = _inverse_lookup()
    i = first[(u * _BUCKETS).astype(np.intp)]
    # the last bucket holds many nodes, so i + 1 stays a node
    i += u >= t_u[i + 1]
    miss = (u < t_u[i]) | (u >= t_u[i + 1])
    if miss.any():
        i[miss] = _searched_cells(t_u, u[miss])
    return i


def _hermite_start(u: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of the quantile on the table cell holding
    each u, from the end nodes' x and dx/du = 1 / f_tau.  A table u returns
    its x exactly; a u beyond the table returns the end node's x."""
    (t_u, t_x, t_dx), _ = _inverse_lookup()
    i = _table_cell(u)
    h = t_u[i + 1] - t_u[i]
    s = np.clip((u - t_u[i]) / h, 0.0, 1.0)
    r = 1.0 - s
    return ((1.0 + 2.0 * s) * r * r * t_x[i] + s * s * (3.0 - 2.0 * s) * t_x[i + 1]
            + h * s * r * (r * t_dx[i] - s * t_dx[i + 1]))


def _newton_pass(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Newton step on cdf_tau(x) = u from x, clipped to [5e-4, 120]."""
    cdf, dens = _cdf_and_density(x, _QUANTILE_TERMS)
    step = np.where(dens > 0, (cdf - u) / np.maximum(dens, 1e-300), 0.0)
    return np.clip(x - step, 5e-4, 120.0)


def inverse_cdf_tau(u):
    """Quantile function of tau: cubic Hermite start on the inverse table,
    one Newton pass, bisection of any value whose CDF residual still
    exceeds _INV_TOL.

    Values are solved _INV_BLOCK at a time, which bounds the per-term
    temporaries; no value's result depends on the others.
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
    """Quantiles of one block: `_hermite_start`, `_newton_pass`, then the
    residual check.  Per value that is one CDF and density pass and one
    CDF pass through the branch kernels, plus 100 bisection steps for a
    value the Newton pass leaves above _INV_TOL."""
    x = _newton_pass(_hermite_start(arr), arr)
    resid = np.abs(_cdf_and_density(x, _QUANTILE_TERMS, density=False)[0] - arr)
    if np.any(resid > _INV_TOL):
        # Newton can stall in the extreme tails; bisect the stragglers
        bad = resid > _INV_TOL
        x[bad] = _bisect_cdf(arr[bad], 120.0, 100)
    return x


def _philox(seed, stream: int) -> np.random.Generator:
    """The counter-based generator keyed (seed, stream): every sampler's
    random numbers come from one of these, each on its own stream.  A
    seed that is not an integer (1.5, True) is refused, not truncated."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed!r}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
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
