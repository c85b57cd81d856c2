"""Controlled imbedded discrete structures: state evolution on the skeleton.

Three families:

* Case A  -- path-dependent SDEs dX = alpha(t, X_t, u) dt + sigma(t, X_t, u) dB,
  discretized by an Euler scheme on the random event partition where each
  diffusion column is frozen at the time of that coordinate's own last hit
  (and uses the action in force at that hit).
* Case B  -- drift-controlled SDE driven by additive fractional noise,
  dX = alpha(t, X_t, u) dt + sigma dB_H, with the fBm increment built from
  the skeleton itself.
* Portfolio -- exponential wealth of a two-asset market under a
  fraction-of-wealth control, plus the closed-form stage function g and its
  series-truncated counterpart.

Each structure's one-step law is written once, as its `step` method, a
batched law over a block of states: every field of a state block holds one
row per state, a step fans each input row out to its consecutive output
rows, and the coefficients and payoffs it calls take and return one row per
path.  The full-tree solver steps a block of nodes to their children, the
Monte Carlo a chunk of paths, both through the same `step`.  The portfolio
also evolves its sufficient statistic (t clipped at T, ln payoff wealth)
for the collapsed solver; its `step` and `step_stats` share the time rule
`time_step` and the ln-wealth increment `log_increment` of the one
`_PortfolioCollapse` the structure holds.  That increment is written in two
halves, `increment(rates(t, a), delta_t, sign)`: `rates` holds the factors
that do not depend on the step, so the solver's off-grid probes compute them
once per action and reuse them for every kernel atom.

A structure is non-anticipative: the state after n steps depends on the
control only through the actions already supplied.  Path values are step
functions; payoffs read the path only on [0, T], so wealth accrued by a step
that lands beyond T never enters the payoff.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import density, fbm
from .errors import ConfigurationError, EvaluationError

_GX, _GW = leggauss(64)

__all__ = [
    "PathView", "StateStructure", "payoff_of",
    "PdSdeSpec", "CaseAState", "CaseAStructure",
    "FbmSpec", "FbmState", "FbmStructure",
    "PortfolioSpec", "PortfolioState", "PortfolioStructure", "power_utility_payoff",
    "stage_p", "stage_g", "stage_truncation_gap",
    "drift_registry", "diffusion_registry", "structure_from_config",
]


class PathView:
    """A block of right-continuous step paths t -> x, one path per row.

    times (N, q) holds the event times t_1..t_q (t_0 = 0 implicit) and
    values (N, q + 1, n) the states x_0..x_q; stop (N,) cuts row i after
    its step stop[i] (default q, the whole path).  Every reader returns one
    (N, n) row per path.
    """

    __slots__ = ("times", "values", "stop")

    def __init__(self, times, values, stop=None):
        self.times = times
        self.values = values
        self.stop = np.full(len(values), times.shape[1]) if stop is None else stop

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, t):
        """Values at t: a scalar, or one time per row as (N,) or (N, 1)."""
        t = np.asarray(t, dtype=float)
        live = np.arange(self.times.shape[1]) < self.stop[:, None]
        idx = np.sum((self.times <= (t.reshape(-1, 1) if t.ndim else t)) & live, axis=1)
        return self.values[np.arange(len(self)), idx]

    def terminal(self):
        return self.values[np.arange(len(self)), self.stop]

    def running_max(self):
        out = self.values[:, 0]
        for k in range(1, self.values.shape[1]):
            out = np.where((k <= self.stop)[:, None], np.maximum(out, self.values[:, k]), out)
        return out


class _Block:
    """A block of states (mixed into a dataclass): every field is an array
    with one row per state, among them the (N, q) event times."""

    def __len__(self) -> int:
        return len(self.times)

    def rows(self, idx):
        """The block of rows idx (an index array or a slice)."""
        return replace(self, **{f.name: getattr(self, f.name)[idx] for f in fields(self)})


class StateStructure:
    """Interface contract all controlled structures implement.

    States travel in blocks (`_Block`); `init` returns the 1-row block of
    the initial state.
    """

    def init(self):
        raise NotImplementedError

    def step(self, state, action, delta_t, coord, sign):
        """One event step of a block of P states to a block of N rows.

        A step is a skeleton step under the action: the waiting time delta_t,
        then the move of the 1-based coordinate coord (1..d) by sign (+-1)
        times epsilon.  Each argument is a scalar or one value per output
        row.  N is the length of the per-row arguments (P if all are
        scalars) and a multiple of P: input row i fans out to output rows
        [i K, (i + 1) K), K = N / P, as a full-tree node fans out to its
        children.
        """
        raise NotImplementedError

    def payoff_input(self, state) -> PathView:
        """The pathwise map gamma^k: the frozen paths handed to the payoff."""
        raise NotImplementedError

    # optional hook -----------------------------------------------------
    def collapse_ops(self):
        """Vectorized statistic evolution for the collapsed solver, or None."""
        return None


def payoff_of(structure, payoff, state) -> np.ndarray:
    """The payoff of every row of a block: payoff(PathView) must return
    one value per path, shape (N,)."""
    view = structure.payoff_input(state)
    values = np.asarray(payoff(view), dtype=float)
    if values.shape != (len(view),):
        raise ConfigurationError(f"payoff returned shape {values.shape} for a block of "
                                 f"{len(view)} paths; it must return ({len(view)},)")
    return values


def _fan_out(n_rows: int, d: int, action, delta_t, coord, sign):
    """A step's arguments per output row: the input row it steps from, the
    action, delta_t, the coordinate (refused outside 1..d) and its sign (+-1)."""
    args = [np.asarray(action, dtype=float), np.asarray(delta_t, dtype=float),
            np.asarray(coord), np.asarray(sign)]
    if np.any((args[2] < 1) | (args[2] > d) | (np.abs(args[3]) != 1)):
        raise ConfigurationError(f"a step moves a coordinate in 1..{d} by a sign +-1, "
                                 f"got {np.unique(args[2])}, {np.unique(args[3])}")
    n = max([n_rows] + [x.size for x in args if x.ndim])
    if n % n_rows or any(x.ndim > 1 or x.size not in (1, n) for x in args):
        raise ConfigurationError(f"step arguments of shapes {[x.shape for x in args]} "
                                 f"do not fan {n_rows} rows out to one block")
    return (np.arange(n) // (n // n_rows),
            *[x.reshape(-1) if x.size == n else np.repeat(x.reshape(-1), n) for x in args])


def _coefficient(name: str, value, shape: tuple) -> np.ndarray:
    """A coefficient's value broadcast to shape, refusing any value whose
    shape would broadcast to anything else (an (N,) drift against an (N, 1)
    state would otherwise become (N, N))."""
    value = np.asarray(value, dtype=float)
    if value.shape == shape:
        return value
    if value.ndim > len(shape) or any(
            v not in (1, s) for v, s in zip(value.shape[::-1], shape[::-1])):
        raise ConfigurationError(f"{name} returned shape {value.shape} for a block of "
                                 f"{shape[0]} rows; it must broadcast to {shape}")
    return np.broadcast_to(value, shape)


def _action_runs(src: np.ndarray, action: np.ndarray):
    """First row of each run of rows sharing input row and action, and the
    run of every row."""
    new = np.empty(len(src), dtype=bool)
    new[0] = True
    np.not_equal(src[1:], src[:-1], out=new[1:])
    new[1:] |= action[1:] != action[:-1]
    return new.nonzero()[0], np.cumsum(new) - 1


def _math_rows(fn, x: np.ndarray) -> np.ndarray:
    """fn (a scalar `math` function) applied to every entry of x.  Payoffs
    keep `math` functions: numpy's vectorized tanh and exp differ from them
    in the last bits on some inputs."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


# ---------------------------------------------------------------------------
# Case A: path-dependent SDE under Brownian noise
# ---------------------------------------------------------------------------

@dataclass
class PdSdeSpec:
    """Coefficients of the controlled path-dependent SDE, batched over rows.

    drift(t, path, a) and diffusion(t, path, a) get a block of R rows: t and
    a as (R, 1) columns and path a PathView of R paths.  The drift must
    broadcast to (R, n), the diffusion to (R, n, d).
    """

    drift: Callable
    diffusion: Callable
    x0: np.ndarray
    d: int = 1

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))


@dataclass(frozen=True)
class CaseAState(_Block):
    times: np.ndarray       # (N, q) t_1..t_q
    values: np.ndarray      # (N, q + 1, n) x_0..x_q
    actions: np.ndarray     # (N, q) a_0..a_{q-1}
    last_hit: np.ndarray    # (N, d) per coordinate, 1-based step of its last hit (0 = none)


class CaseAStructure(StateStructure):
    def __init__(self, spec: PdSdeSpec, epsilon_k: float, horizon_T: float):
        self.spec = spec
        self.eps = epsilon_k
        self.T = horizon_T

    def init(self) -> CaseAState:
        return CaseAState(np.empty((1, 0)), self.spec.x0[None, None, :].copy(),
                          np.empty((1, 0)), np.zeros((1, self.spec.d), dtype=np.int64))

    def step(self, state, action, delta_t, coord, sign):
        """One Euler step on the event partition.

        Drift uses the current time/path/action; the diffusion column of the
        active coordinate is frozen at that coordinate's last own hit: its
        time, the path stopped there, and the action in force there.  The
        freeze is bookkept by step indices, never by float time comparison.
        Coefficient times are clamped at the horizon.  The drift is
        evaluated once per (input row, action) run of output rows, the
        diffusion once per such run and active coordinate.
        """
        spec = self.spec
        src, a, dt, j_star, sgn = _fan_out(len(state), spec.d, action, delta_t, coord, sign)
        q = state.times.shape[1] + 1
        n = state.values.shape[2]
        clock = np.column_stack([np.zeros(len(state)), state.times])   # t_0..t_{q-1}
        acts = np.column_stack([state.actions[src], a])                # a_0..a_{q-1}
        col = np.empty((len(src), n))
        try:
            first, run = _action_runs(src, a)
            rows = src[first]
            a_term = _coefficient("drift", spec.drift(
                np.minimum(clock[rows, -1], self.T)[:, None],
                PathView(state.times[rows], state.values[rows]), a[first][:, None]),
                (len(rows), n))[run]
            for j in range(1, spec.d + 1):
                at = (j_star == j).nonzero()[0]
                if len(at) == 0:
                    continue
                first, run = _action_runs(src[at], a[at])
                rows = src[at[first]]
                p = state.last_hit[rows, j - 1]       # wp_j of the pre-step history
                sig = _coefficient("diffusion", spec.diffusion(
                    np.minimum(clock[rows, p], self.T)[:, None],
                    PathView(state.times[rows], state.values[rows], stop=p),
                    acts[at[first], p][:, None]), (len(rows), n, spec.d))
                col[at] = sig[:, :, j - 1][run]
        except (FloatingPointError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"coefficient evaluation failed at step {q}: {exc}",
                                  step=q) from exc
        x_new = state.values[src, -1] + a_term * dt[:, None] + col * (self.eps * sgn)[:, None]
        if not np.all(np.isfinite(x_new)):
            raise EvaluationError(f"state became non-finite at step {q}", step=q)
        last_hit = state.last_hit[src]
        last_hit[np.arange(len(src)), j_star - 1] = q
        return CaseAState(np.column_stack([state.times[src], clock[src, -1] + dt]),
                          np.concatenate([state.values[src], x_new[:, None]], axis=1),
                          acts, last_hit)

    def payoff_input(self, state):
        return PathView(state.times, state.values)


# ---------------------------------------------------------------------------
# Case B: drift control under additive fractional noise (d = 1)
# ---------------------------------------------------------------------------

@dataclass
class FbmSpec:
    """Drift-controlled scalar SDE with additive fBm noise, 1/2 < H < 1.

    drift(t, path, a) is batched as in PdSdeSpec and must broadcast to (R, 1).
    """

    H: float
    sigma: float
    drift: Callable
    x0: float
    d_H: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ConfigurationError(f"H must lie in (1/2, 1), got {self.H}")


@dataclass(frozen=True)
class FbmState(_Block):
    times: np.ndarray           # (N, q)
    values: np.ndarray          # (N, q + 1, 1) x_0..x_q
    signs: np.ndarray           # (N, q) skeleton signs so far (drive W_H)
    w_h: np.ndarray             # (N,) W^k_H at the current event time


class FbmStructure(StateStructure):
    def __init__(self, spec: FbmSpec, epsilon_k: float, horizon_T: float):
        self.spec = spec
        self.eps = epsilon_k
        self.T = horizon_T

    def init(self) -> FbmState:
        return FbmState(np.empty((1, 0)), np.full((1, 1, 1), float(self.spec.x0)),
                        np.empty((1, 0)), np.zeros(1))

    def step(self, state, action, delta_t, coord, sign):
        """Euler drift step with the diffusion replaced by sigma * dW^k_H;
        the drift time is clamped at the horizon.  The structure is
        one-dimensional: coord must be 1."""
        spec = self.spec
        src, a, dt, _, sgn = _fan_out(len(state), 1, action, delta_t, coord, sign)
        q = state.times.shape[1] + 1
        t_prev = state.times[src, -1] if q > 1 else np.zeros(len(src))
        times = np.column_stack([state.times[src], t_prev + dt])
        signs = np.column_stack([state.signs[src], sgn.astype(float)])
        # B^k_H at each row's newest event: one Phi table call for the block,
        # each row's sum its own dot product (the bits of fbm_from_skeleton)
        phi = fbm.get_table(spec.H, spec.d_H).phi(times / times[:, -1:])
        w_new = np.array([self.eps * t ** (spec.H - 0.5) * float(signs[i] @ phi[i])
                          for i, t in enumerate(times[:, -1].tolist())])
        try:
            a_term = _coefficient("drift", spec.drift(
                np.minimum(t_prev, self.T)[:, None],
                PathView(state.times[src], state.values[src]), a[:, None]),
                (len(src), 1))[:, 0]
        except (FloatingPointError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"drift evaluation failed at step {q}: {exc}",
                                  step=q) from exc
        x_new = state.values[src, -1, 0] + a_term * dt + spec.sigma * (w_new - state.w_h[src])
        if not np.all(np.isfinite(x_new)):
            raise EvaluationError(f"state became non-finite at step {q}", step=q)
        return FbmState(times, np.concatenate([state.values[src], x_new[:, None, None]],
                                              axis=1), signs, w_new)

    def payoff_input(self, state):
        return PathView(state.times, state.values)


# ---------------------------------------------------------------------------
# Portfolio wealth
# ---------------------------------------------------------------------------

@dataclass
class PortfolioSpec:
    """Two-asset market: risky drift/vol processes, risk-free rate, CRRA power.

    alpha_k and sigma_k are deterministic functions of elapsed time (floats
    are promoted to constants); richer path-dependence routes through Case A.
    """

    r: float
    alpha_k: Callable | float
    sigma_k: Callable | float
    gamma_util: float
    x0: float
    horizon_T: float = 1.0
    a_bar: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma_util < 1.0:
            raise ConfigurationError(f"gamma_util must lie in (0,1), got {self.gamma_util}")
        if self.x0 <= 0:
            raise ConfigurationError(f"x0 must be > 0, got {self.x0}")
        if not self.a_bar > 0:
            raise ConfigurationError(f"a_bar must be > 0, got {self.a_bar}")
        if isinstance(self.alpha_k, (int, float)):
            a = float(self.alpha_k)
            object.__setattr__(self, "alpha_k", lambda t, _a=a: _a)
        if isinstance(self.sigma_k, (int, float)):
            s = float(self.sigma_k)
            if s == 0.0:
                raise ConfigurationError("|sigma_k| must be > 0")
            object.__setattr__(self, "sigma_k", lambda t, _s=s: _s)


@dataclass(frozen=True)
class PortfolioState(_Block):
    times: np.ndarray               # (N, q)
    log_wealth: np.ndarray          # (N, q + 1) ln W at 0, t_1, .., t_q
    t_clip: np.ndarray              # (N,) elapsed time clipped at the horizon
    log_payoff_wealth: np.ndarray   # (N,) ln of the wealth the payoff will see


class PortfolioStructure(StateStructure):
    """Wealth accumulates in log space; exponentiation happens at payoff time.

    Once the elapsed time crosses the horizon the payoff wealth freezes (the
    path value at clock T is the value of the step straddling it), and the
    state becomes absorbing.  The step is the statistic ops' law
    (`time_step`, `log_increment` = `increment` of `rates`) plus the wealth
    path.
    """

    def __init__(self, spec: PortfolioSpec, epsilon_k: float):
        self.spec = spec
        self.eps = epsilon_k
        self.T = spec.horizon_T
        self.ops = _PortfolioCollapse(spec, epsilon_k)

    def init(self) -> PortfolioState:
        lw = math.log(self.spec.x0)
        return PortfolioState(np.empty((1, 0)), np.full((1, 1), lw), np.zeros(1),
                              np.full(1, lw))

    def step(self, state, action, delta_t, coord, sign):
        """One wealth step; the structure is one-dimensional: coord must be 1."""
        src, a, dt, _, sgn = _fan_out(len(state), 1, action, delta_t, coord, sign)
        outside = np.abs(a) > self.spec.a_bar + 1e-12
        if outside.any():
            raise ConfigurationError(f"action {a[outside][0]} outside "
                                     f"[-{self.spec.a_bar}, {self.spec.a_bar}]")
        t = state.t_clip[src]
        lw = state.log_wealth[src, -1]
        moved = lw + self.ops.log_increment(t, a, dt, sgn)
        t_new, moves = self.ops.time_step(t, dt)
        t_prev = state.times[src, -1] if state.times.shape[1] else np.zeros(len(src))
        # the path moves on every live step; a step straddling T moves it
        # past the clock-T value the payoff keeps
        return PortfolioState(
            np.column_stack([state.times[src], t_prev + dt]),
            np.column_stack([state.log_wealth[src], np.where(t < self.T, moved, lw)]),
            t_new, np.where(moves, moved, state.log_payoff_wealth[src]))

    def payoff_input(self, state):
        return PathView(state.times, _math_rows(math.exp, state.log_wealth)[:, :, None])

    def collapse_ops(self):
        return self.ops


class _PortfolioCollapse:
    """Vectorized (t_clip, ln payoff wealth) evolution for the collapsed DP."""

    n_stats = 2

    def __init__(self, spec: PortfolioSpec, eps: float):
        self.spec = spec
        self.eps = eps
        self.T = spec.horizon_T

    def stat0(self) -> np.ndarray:
        return np.array([0.0, math.log(self.spec.x0)])

    def time_step(self, t: np.ndarray, delta_t):
        """Clipped elapsed time after a step, and whether the step moves wealth.

        Wealth moves only on live steps (t < T) that land inside the
        horizon; a step straddling T freezes it, an absorbed state keeps it.
        """
        live = t < self.T
        crossed = live & (t + delta_t > self.T)
        return np.where(live, np.minimum(t + delta_t, self.T), t), live & ~crossed

    def rates(self, t, a):
        """(drift, variance, volatility) factors of the ln-wealth law at
        elapsed time t and action a; they do not depend on the step's
        delta_t or sign.  Arguments are floats or arrays (one value per
        row)."""
        # alpha/sigma must broadcast over arrays of elapsed times
        al = self.spec.alpha_k(t)
        sg = self.spec.sigma_k(t)
        return a * (al - self.spec.r) + self.spec.r, 0.5 * (a * sg) ** 2, a * sg * self.eps

    @staticmethod
    def increment(rates, delta_t, sign):
        """ln-wealth change of a moving step from its `rates`."""
        drift, var, vol = rates
        return drift * delta_t - var * delta_t + vol * sign

    def log_increment(self, t, a, delta_t, sign):
        """ln-wealth change of a moving step, the one wealth law of the
        structure's step and the statistic ops: `increment` of `rates`."""
        return self.increment(self.rates(t, a), delta_t, sign)

    def step_stats(self, stats: np.ndarray, action, delta_t, sign) -> np.ndarray:
        """Statistics after one step; action, delta_t and sign are scalars
        or one value per row."""
        t = stats[:, 0]
        lw = stats[:, 1]
        mult = self.log_increment(t, action, delta_t, sign)
        t_new, moves = self.time_step(t, delta_t)
        return np.column_stack([t_new, np.where(moves, lw + mult, lw)])

    def payoff_stats(self, stats: np.ndarray) -> np.ndarray:
        g = self.spec.gamma_util
        return np.exp(g * stats[:, 1]) / g


def power_utility_payoff(spec: PortfolioSpec):
    """xi(f) = f(T)^gamma / gamma, reading each wealth path at clock T."""
    g = spec.gamma_util
    T = spec.horizon_T

    def payoff(path: PathView) -> np.ndarray:
        return _math_rows(lambda w: w ** g / g, path(T)[:, 0])

    return payoff


# ---------------------------------------------------------------------------
# Portfolio stage functions
# ---------------------------------------------------------------------------

def stage_p(a: float, t: float, spec: PortfolioSpec) -> float:
    """Exponent rate p(a, b) = gamma[a(alpha-r)+r] - gamma/2 |a sigma|^2."""
    g = spec.gamma_util
    al, sg = spec.alpha_k(t), spec.sigma_k(t)
    return g * (a * (al - spec.r) + spec.r) - 0.5 * g * (a * sg) ** 2


_STAGE_PANELS = 24      # Gauss panels per crossover branch of the stage integral
_GAP_MAX_EXTRA = 80     # most series terms past n that stage_truncation_gap sums


def _exp_weighted_integral(q: float, upper: float, n_terms: int | None) -> float:
    """int_0^upper exp(q u) f_tau(u) du with f exact or n_terms-truncated."""
    if upper <= 0:
        return 0.0
    trunc = 60 if n_terms is None else n_terms

    def fn(u):
        return np.exp(q * u) * density.f_tau(u, trunc)

    pieces = []
    if 5e-3 < min(upper, density.CROSSOVER):
        pieces.append((5e-3, min(upper, density.CROSSOVER)))
    if upper > density.CROSSOVER:
        pieces.append((density.CROSSOVER, min(upper, density.TAIL_CUTOFF + 5.0)))
    total = 0.0
    for lo, hi in pieces:
        edges = np.linspace(lo, hi, _STAGE_PANELS + 1)
        for i in range(_STAGE_PANELS):
            half = 0.5 * (edges[i + 1] - edges[i])
            u = 0.5 * (edges[i + 1] + edges[i]) + half * _GX
            total += half * float(np.sum(_GW * fn(u)))
    return total


def stage_g(a: float, t_elapsed: float, spec: PortfolioSpec, eps: float,
            n_terms: int | None = None) -> float:
    """Stage objective g(a, b) = (1/g) cosh(g sigma eps a) E[e^{p u eps^2}; u < U].

    The integral runs over the unit-tau variable up to U = (T - t) eps^-2,
    i.e. only steps that land inside the horizon contribute.  n_terms, if
    given, replaces the density by its n_terms partial sum.
    """
    if n_terms is not None and n_terms < 1:
        raise ConfigurationError(f"n_terms must be >= 1, got {n_terms}")
    T = spec.horizon_T
    if t_elapsed >= T:
        raise ConfigurationError("stage time must be below the horizon")
    g = spec.gamma_util
    sg = spec.sigma_k(t_elapsed)
    upper = (T - t_elapsed) * eps**-2
    q = stage_p(a, t_elapsed, spec) * eps**2
    return math.cosh(g * sg * eps * a) / g * _exp_weighted_integral(q, upper, n_terms)


def stage_truncation_gap(a: float, t_elapsed: float, spec: PortfolioSpec,
                         eps: float, n: int) -> float:
    """|g - g_n| computed from the series tail (no catastrophic subtraction).

    g - g_n integrates the omitted alternating tail sum_{l >= n} (-1)^l term_l
    against exp(q u); each large-branch term integrates in closed form and the
    small-branch terms are tiny Gaussian-quadrature pieces.  This resolves the
    exp(-(2n+1)^2/2)-scale decay far below double-precision cancellation.
    """
    T = spec.horizon_T
    g = spec.gamma_util
    sg = spec.sigma_k(t_elapsed)
    upper = (T - t_elapsed) * eps**-2
    q = stage_p(a, t_elapsed, spec) * eps**2
    total = 0.0
    for ell in range(n, n + _GAP_MAX_EXTRA):
        odd = 2 * ell + 1
        term = 0.0
        # small branch on (0, min(upper, 2/pi))
        hi = min(upper, density.CROSSOVER)
        if hi > 5e-4:
            u = 0.5 * hi + 0.5 * hi * _GX
            expo = q * u - odd**2 / (2.0 * u)
            vals = np.where(expo > -700, np.exp(expo), 0.0)
            term += 0.5 * hi * float(np.sum(
                _GW * 2.0 * odd / np.sqrt(2 * np.pi * u**3) * vals))
        # large branch on (2/pi, upper): closed form
        if upper > density.CROSSOVER:
            c = np.pi**2 * odd**2 / 8.0
            lo_e = -(c - q) * density.CROSSOVER
            hi_e = -(c - q) * upper
            piece = (np.pi / 2.0) * odd / (c - q) * (
                (math.exp(lo_e) if lo_e > -700 else 0.0)
                - (math.exp(hi_e) if hi_e > -700 else 0.0))
            term += piece
        total += (-1.0) ** ell * term
        if abs(term) < 1e-6 * max(abs(total), 1e-300):
            break
    return math.cosh(g * sg * eps * a) / g * abs(total)


# ---------------------------------------------------------------------------
# Named coefficient functionals for JSON problem configs
# ---------------------------------------------------------------------------

def _drift_zero(params):
    return lambda t, path, a: np.zeros_like(path.terminal())


def _drift_constant(params):
    c = float(params.get("value", 0.0))
    return lambda t, path, a: c * np.ones_like(path.terminal())


def _drift_linear(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * path(t)


def _drift_mean_revert(params):
    rate = float(params.get("rate", 1.0))
    target = float(params.get("target", 0.0))
    return lambda t, path, a: rate * (target - path(t))


def _drift_action_linear(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * a


def _drift_running_max(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * path.running_max()


def _diff_constant(params):
    c = float(params.get("value", 1.0))
    return lambda t, path, a: np.full((1, 1, 1), c)


def _diff_linear(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * path(t)[:, :, None]


drift_registry = {
    "zero": _drift_zero,
    "constant": _drift_constant,
    "linear": _drift_linear,
    "mean_revert": _drift_mean_revert,
    "action_linear": _drift_action_linear,
    "running_max_drift": _drift_running_max,
}

diffusion_registry = {
    "constant": _diff_constant,
    "linear": _diff_linear,
}


def structure_from_config(cfg: dict, epsilon_k: float, horizon_T: float):
    """Build (structure, payoff) from a problem-config dictionary.

    cfg has kind "pd_sde" | "fbm" | "portfolio" plus kind-specific fields;
    unknown keys, missing fields and values of the wrong type are refused.
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"problem must be an object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "portfolio":
        allowed = {"kind", "r", "alpha", "sigma", "gamma_util", "x0", "a_bar"}
        _reject_unknown(cfg, allowed)
        r, alpha, sigma, gamma_util, x0 = (_real(cfg, key, None, "problem") for key
                                           in ("r", "alpha", "sigma", "gamma_util", "x0"))
        spec = PortfolioSpec(r, alpha, sigma, gamma_util, x0, horizon_T,
                             _real(cfg, "a_bar", 1.0, "problem"))
        return PortfolioStructure(spec, epsilon_k), power_utility_payoff(spec)
    if kind == "pd_sde":
        allowed = {"kind", "drift", "diffusion", "x0", "d", "payoff"}
        _reject_unknown(cfg, allowed)
        spec = PdSdeSpec(
            drift=_from_registry(drift_registry, cfg, "drift"),
            diffusion=_from_registry(diffusion_registry, cfg, "diffusion"),
            x0=_reals(cfg, "x0", None, "problem"), d=_int(cfg, "d", 1, "problem"))
        payoff = _payoff_from_config(cfg.get("payoff", {"name": "terminal_tanh"}), horizon_T)
        return CaseAStructure(spec, epsilon_k, horizon_T), payoff
    if kind == "fbm":
        allowed = {"kind", "H", "sigma", "drift", "x0", "d_H", "payoff"}
        _reject_unknown(cfg, allowed)
        H, sigma, x0 = (_real(cfg, key, None, "problem") for key in ("H", "sigma", "x0"))
        spec = FbmSpec(H, sigma, _from_registry(drift_registry, cfg, "drift"), x0,
                       _real(cfg, "d_H", 1.0, "problem"))
        payoff = _payoff_from_config(cfg.get("payoff", {"name": "terminal_tanh"}), horizon_T)
        return FbmStructure(spec, epsilon_k, horizon_T), payoff
    raise ConfigurationError(f"unknown problem kind {kind!r}")


def _reject_unknown(cfg: dict, allowed: set):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")


def _value(section: dict, key: str, default, where: str):
    """section[key], or default if absent; a default of None makes it required."""
    if key not in section and default is None:
        raise ConfigurationError(f"{where}.{key} missing")
    return section.get(key, default)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(section: dict, key: str, default, where: str) -> float:
    """section[key] (default if absent), refused unless it is a number:
    float() would also read "0.5" and True."""
    value = _value(section, key, default, where)
    if not _is_real(value):
        raise ConfigurationError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _reals(section: dict, key: str, default, where: str):
    """section[key] (default if absent), refused unless numbers: one or a list."""
    value = _value(section, key, default, where)
    if not all(map(_is_real, value if isinstance(value, list) else [value])):
        raise ConfigurationError(f"{where}.{key} must be numbers, got {value!r}")
    return value


def _int(section: dict, key: str, default, where: str) -> int:
    """section[key] (default if absent), refused unless it is an integer:
    int() would truncate 2.5 to 2 and run."""
    value = _value(section, key, default, where)
    if not (_is_real(value) and isinstance(value, numbers.Integral)):
        raise ConfigurationError(f"{where}.{key} must be an integer, got {value!r}")
    return int(value)


def _named(entry, where: str) -> dict:
    """A functional's entry: a name, or an object of a name and numbers."""
    entry = {"name": entry} if isinstance(entry, str) else entry
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{where} must be a name or an object, got {entry!r}")
    for key in sorted(entry.keys() - {"name"}):
        _real(entry, key, None, where)
    return entry


def _from_registry(registry: dict, cfg: dict, key: str):
    entry = _named(_value(cfg, key, None, "problem"), f"problem.{key}")
    name = entry.get("name")
    if not isinstance(name, str) or name not in registry:
        raise ConfigurationError(f"unknown coefficient functional {name!r}")
    return registry[name]({k: v for k, v in entry.items() if k != "name"})


def _payoff_from_config(entry, horizon_T: float):
    """Bounded Hoelder payoffs selectable by name, one value per path of a
    PathView block."""
    entry = _named(entry, "problem.payoff")
    name = entry.get("name")
    scale = float(entry.get("scale", 1.0))
    if name == "terminal_tanh":
        return lambda path: scale * _math_rows(math.tanh, path(horizon_T)[:, 0])
    if name == "running_max_tanh":
        return lambda path: scale * _math_rows(math.tanh, path.running_max()[:, 0])
    raise ConfigurationError(f"unknown payoff {name!r}")
