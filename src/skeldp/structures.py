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

Each structure's one-step law is written once, as its `step` method.  The
portfolio also evolves its sufficient statistic (t clipped at T, ln payoff
wealth) in batches for the collapsed solver; its scalar `step` and the
batched `step_stats` share one ln-wealth increment, `log_increment`, of the
one `_PortfolioCollapse` the structure holds.

A structure is non-anticipative: the state after n steps depends on the
control only through the actions already supplied.  Path values are step
functions; payoffs read the path only on [0, T], so wealth accrued by a step
that lands beyond T never enters the payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import density, fbm
from .errors import ConfigurationError, EvaluationError
from .skeleton import aleph

_GX, _GW = leggauss(64)

__all__ = [
    "PathView", "StateStructure",
    "PdSdeSpec", "CaseAState", "CaseAStructure",
    "FbmSpec", "FbmStructure",
    "PortfolioSpec", "PortfolioState", "PortfolioStructure", "power_utility_payoff",
    "stage_p", "stage_g", "stage_g_truncated", "stage_truncation_gap",
    "drift_registry", "diffusion_registry", "structure_from_config",
]


class PathView:
    """Right-continuous step function t -> value with optional stop index."""

    __slots__ = ("times", "values", "stop")

    def __init__(self, times, values, stop: int | None = None):
        self.times = times          # event times t_1..t_n (t_0 = 0 implicit)
        self.values = values        # values x_0..x_n
        self.stop = stop if stop is not None else len(times)

    def __call__(self, t: float):
        idx = 0
        for k in range(self.stop):
            if self.times[k] <= t:
                idx = k + 1
            else:
                break
        return self.values[min(idx, self.stop)]

    def terminal(self):
        return self.values[self.stop]

    def running_max(self):
        out = self.values[0]
        for k in range(1, self.stop + 1):
            out = np.maximum(out, self.values[k])
        return out


class StateStructure:
    """Interface contract all controlled structures implement."""

    def init(self):
        raise NotImplementedError

    def step(self, state, action, delta_t: float, sign_vec):
        raise NotImplementedError

    def payoff_input(self, state) -> PathView:
        """The pathwise map gamma^k: the frozen path handed to the payoff."""
        raise NotImplementedError

    # optional hook -----------------------------------------------------
    def collapse_ops(self):
        """Vectorized statistic evolution for the collapsed solver, or None."""
        return None


# ---------------------------------------------------------------------------
# Case A: path-dependent SDE under Brownian noise
# ---------------------------------------------------------------------------

@dataclass
class PdSdeSpec:
    """Coefficients of the controlled path-dependent SDE.

    drift(t, path, a) -> (n,) array; diffusion(t, path, a) -> (n, d) array.
    """

    drift: Callable
    diffusion: Callable
    x0: np.ndarray
    d: int = 1

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))


@dataclass(frozen=True)
class CaseAState:
    times: tuple          # t_1..t_q
    values: tuple         # x_0..x_q, each (n,) ndarray
    actions: tuple        # a_0..a_{q-1}
    last_hit: tuple       # per coordinate, 1-based step index of last hit (0 = none)

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def t_now(self) -> float:
        return self.times[-1] if self.times else 0.0


class CaseAStructure(StateStructure):
    def __init__(self, spec: PdSdeSpec, epsilon_k: float, horizon_T: float):
        self.spec = spec
        self.eps = epsilon_k
        self.T = horizon_T

    def init(self) -> CaseAState:
        return CaseAState((), (self.spec.x0.copy(),), (), (0,) * self.spec.d)

    def step(self, state, action, delta_t, sign_vec):
        """One Euler step on the event partition.

        Drift uses the current time/path/action; the diffusion column of the
        active coordinate is frozen at that coordinate's last own hit: its
        time, the path stopped there, and the action in force there.  The
        freeze is bookkept by step indices, never by float time comparison.
        Coefficient times are clamped at the horizon.
        """
        spec = self.spec
        q = state.n_steps + 1
        j_star, sgn = aleph(sign_vec)
        t_prev = state.t_now
        x_prev = state.values[-1]
        actions = state.actions + (action,)
        path_now = PathView(state.times, state.values)
        try:
            a_term = np.atleast_1d(np.asarray(
                spec.drift(min(t_prev, self.T), path_now, action), dtype=float))
            p = state.last_hit[j_star - 1]            # wp_j of the pre-step history
            theta = state.times[p - 1] if p >= 1 else 0.0
            frozen = PathView(state.times, state.values, stop=p)
            sig = np.atleast_2d(np.asarray(
                spec.diffusion(min(theta, self.T), frozen, actions[p]), dtype=float))
        except (FloatingPointError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"coefficient evaluation failed at step {q}: {exc}",
                                  step=q) from exc
        x_new = x_prev + a_term * delta_t + sig[:, j_star - 1] * (self.eps * sgn)
        if not np.all(np.isfinite(x_new)):
            raise EvaluationError(f"state became non-finite at step {q}", step=q)
        new_last = list(state.last_hit)
        new_last[j_star - 1] = q
        return CaseAState(state.times + (t_prev + delta_t,),
                          state.values + (x_new,),
                          actions, tuple(new_last))

    def payoff_input(self, state):
        return PathView(state.times, state.values)


# ---------------------------------------------------------------------------
# Case B: drift control under additive fractional noise (d = 1)
# ---------------------------------------------------------------------------

@dataclass
class FbmSpec:
    """Drift-controlled scalar SDE with additive fBm noise, 1/2 < H < 1."""

    H: float
    sigma: float
    drift: Callable             # (t, path, a) -> float
    x0: float
    d_H: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ConfigurationError(f"H must lie in (1/2, 1), got {self.H}")


@dataclass(frozen=True)
class FbmState:
    times: tuple
    values: tuple               # scalar x_0..x_q
    signs: tuple                # skeleton signs so far (drives W_H)
    w_h: float                  # W^k_H at the current event time


class FbmStructure(StateStructure):
    def __init__(self, spec: FbmSpec, epsilon_k: float, horizon_T: float):
        self.spec = spec
        self.eps = epsilon_k
        self.T = horizon_T

    def init(self) -> FbmState:
        return FbmState((), (float(self.spec.x0),), (), 0.0)

    def step(self, state, action, delta_t, sign_vec):
        """Euler drift step with the diffusion replaced by sigma * dW^k_H;
        the drift time is clamped at the horizon."""
        spec = self.spec
        j_star, sgn = aleph(sign_vec)
        if j_star != 1:
            raise ConfigurationError("fBm structure is one-dimensional")
        t_prev = state.times[-1] if state.times else 0.0
        t_new = t_prev + delta_t
        times = state.times + (t_new,)
        signs = state.signs + (sgn,)
        w_new = fbm.fbm_b_at(np.asarray(times), np.asarray(signs, dtype=float),
                             self.eps, spec.H, t_new, spec.d_H)
        path_now = PathView(state.times, state.values)
        try:
            a_term = float(np.asarray(spec.drift(min(t_prev, self.T), path_now,
                                                 action)).reshape(-1)[0])
        except (FloatingPointError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"drift evaluation failed at step {len(times)}: {exc}",
                                  step=len(times)) from exc
        x_new = state.values[-1] + a_term * delta_t + spec.sigma * (w_new - state.w_h)
        if not math.isfinite(x_new):
            raise EvaluationError(f"state became non-finite at step {len(times)}",
                                  step=len(times))
        return FbmState(times, state.values + (x_new,), signs, w_new)

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
        if isinstance(self.alpha_k, (int, float)):
            a = float(self.alpha_k)
            object.__setattr__(self, "alpha_k", lambda t, _a=a: _a)
        if isinstance(self.sigma_k, (int, float)):
            s = float(self.sigma_k)
            if s == 0.0:
                raise ConfigurationError("|sigma_k| must be > 0")
            object.__setattr__(self, "sigma_k", lambda t, _s=s: _s)


@dataclass(frozen=True)
class PortfolioState:
    times: tuple
    log_wealth: tuple           # ln W at 0, t_1, .., t_n
    t_clip: float               # elapsed time clipped at the horizon
    log_payoff_wealth: float    # ln of the wealth the payoff will see


class PortfolioStructure(StateStructure):
    """Wealth accumulates in log space; exponentiation happens at payoff time.

    Once the elapsed time crosses the horizon the payoff wealth freezes (the
    path value at clock T is the value of the step straddling it), and the
    state becomes absorbing.
    """

    def __init__(self, spec: PortfolioSpec, epsilon_k: float):
        self.spec = spec
        self.eps = epsilon_k
        self.T = spec.horizon_T
        self.ops = _PortfolioCollapse(spec, epsilon_k)

    def init(self) -> PortfolioState:
        lw = math.log(self.spec.x0)
        return PortfolioState((), (lw,), 0.0, lw)

    def step(self, state, action, delta_t, sign_vec):
        j, sgn = aleph(sign_vec)
        if j != 1:
            raise ConfigurationError("portfolio structure is one-dimensional")
        a = float(np.asarray(action).reshape(-1)[0])
        if abs(a) > self.spec.a_bar + 1e-12:
            raise ConfigurationError(f"action {a} outside [-{self.spec.a_bar}, {self.spec.a_bar}]")
        t_prev = state.times[-1] if state.times else 0.0
        t_new = t_prev + delta_t
        # ops.time_step's horizon rule, written out for one float: routing
        # this step through the array version slows a full-tree solve ~1.5x
        if state.t_clip >= self.T:          # absorbed: the payoff is decided
            return PortfolioState(state.times + (t_new,),
                                  state.log_wealth + (state.log_wealth[-1],),
                                  self.T, state.log_payoff_wealth)
        lw_new = state.log_wealth[-1] + self.ops.log_increment(
            state.t_clip, a, delta_t, sgn)
        if t_new <= self.T:
            return PortfolioState(state.times + (t_new,),
                                  state.log_wealth + (lw_new,),
                                  t_new, lw_new)
        # step straddles the horizon: wealth at clock T is the pre-step value
        return PortfolioState(state.times + (t_new,),
                              state.log_wealth + (lw_new,),
                              self.T, state.log_wealth[-1])

    def payoff_input(self, state):
        return PathView(state.times, tuple(math.exp(v) for v in state.log_wealth))

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

    def log_increment(self, t, a, delta_t, sign):
        """ln-wealth change of a moving step, the one wealth law of both the
        scalar step and the statistic ops.  Arguments are floats or arrays
        (a float or one value per node); the result is a float under
        constant coefficients and scalar arguments."""
        # alpha/sigma must broadcast over arrays of elapsed times
        al = self.spec.alpha_k(t)
        sg = self.spec.sigma_k(t)
        return (a * (al - self.spec.r) + self.spec.r) * delta_t \
            - 0.5 * (a * sg) ** 2 * delta_t + a * sg * self.eps * sign

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
    """xi(f) = f(T)^gamma / gamma, reading the wealth path at clock T."""
    g = spec.gamma_util
    T = spec.horizon_T

    def payoff(path: PathView) -> float:
        return float(path(T)) ** g / g

    return payoff


# ---------------------------------------------------------------------------
# Portfolio stage functions
# ---------------------------------------------------------------------------

def stage_p(a: float, t: float, spec: PortfolioSpec) -> float:
    """Exponent rate p(a, b) = gamma[a(alpha-r)+r] - gamma/2 |a sigma|^2."""
    g = spec.gamma_util
    al, sg = spec.alpha_k(t), spec.sigma_k(t)
    return g * (a * (al - spec.r) + spec.r) - 0.5 * g * (a * sg) ** 2


def _exp_weighted_integral(q: float, upper: float, n_terms: int | None,
                           panels: int = 24) -> float:
    """int_0^upper exp(q u) f_tau(u) du with f exact or n_terms-truncated."""
    if upper <= 0:
        return 0.0
    trunc = 60 if n_terms is None else n_terms

    def fn(u):
        return np.exp(q * u) * density.f_tau(u, trunc)

    total = 0.0
    lo = 5e-3
    if lo < min(upper, density.CROSSOVER):
        hi = min(upper, density.CROSSOVER)
        edges = np.linspace(lo, hi, panels + 1)
        for i in range(panels):
            half = 0.5 * (edges[i + 1] - edges[i])
            u = 0.5 * (edges[i + 1] + edges[i]) + half * _GX
            total += half * float(np.sum(_GW * fn(u)))
    if upper > density.CROSSOVER:
        hi = min(upper, density.TAIL_CUTOFF + 5.0)
        edges = np.linspace(density.CROSSOVER, hi, panels + 1)
        for i in range(panels):
            half = 0.5 * (edges[i + 1] - edges[i])
            u = 0.5 * (edges[i + 1] + edges[i]) + half * _GX
            total += half * float(np.sum(_GW * fn(u)))
    return total


def stage_g(a: float, t_elapsed: float, spec: PortfolioSpec, eps: float,
            n_terms: int | None = None) -> float:
    """Stage objective g(a, b) = (1/g) cosh(g sigma eps a) E[e^{p u eps^2}; u < U].

    The integral runs over the unit-tau variable up to U = (T - t) eps^-2,
    i.e. only steps that land inside the horizon contribute.
    """
    T = spec.horizon_T
    if t_elapsed >= T:
        raise ConfigurationError("stage time must be below the horizon")
    g = spec.gamma_util
    sg = spec.sigma_k(t_elapsed)
    upper = (T - t_elapsed) * eps**-2
    q = stage_p(a, t_elapsed, spec) * eps**2
    return math.cosh(g * sg * eps * a) / g * _exp_weighted_integral(q, upper, n_terms)


def stage_g_truncated(a: float, t_elapsed: float, spec: PortfolioSpec, eps: float,
                      n: int) -> float:
    """g with the density replaced by its n-term partial sum."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return stage_g(a, t_elapsed, spec, eps, n_terms=n)


def stage_truncation_gap(a: float, t_elapsed: float, spec: PortfolioSpec,
                         eps: float, n: int, max_extra: int = 80) -> float:
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
    for ell in range(n, n + max_extra):
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
    return lambda t, path, a: np.zeros_like(np.atleast_1d(path.terminal()))


def _drift_constant(params):
    c = float(params.get("value", 0.0))
    return lambda t, path, a: c * np.ones_like(np.atleast_1d(path.terminal()))


def _drift_linear(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * np.atleast_1d(path(t))


def _drift_mean_revert(params):
    rate = float(params.get("rate", 1.0))
    target = float(params.get("target", 0.0))
    return lambda t, path, a: rate * (target - np.atleast_1d(path(t)))


def _drift_action_linear(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * np.atleast_1d(np.asarray(a, dtype=float))


def _drift_running_max(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * np.atleast_1d(path.running_max())


def _diff_constant(params):
    c = float(params.get("value", 1.0))
    return lambda t, path, a: np.full((1, 1), c)


def _diff_linear(params):
    scale = float(params.get("scale", 1.0))
    return lambda t, path, a: scale * np.atleast_1d(path(t))[:, None]


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
    unknown keys are rejected.
    """
    kind = cfg.get("kind")
    if kind == "portfolio":
        allowed = {"kind", "r", "alpha", "sigma", "gamma_util", "x0", "a_bar"}
        _reject_unknown(cfg, allowed)
        spec = PortfolioSpec(r=float(cfg["r"]), alpha_k=float(cfg["alpha"]),
                             sigma_k=float(cfg["sigma"]),
                             gamma_util=float(cfg["gamma_util"]),
                             x0=float(cfg["x0"]), horizon_T=horizon_T,
                             a_bar=float(cfg.get("a_bar", 1.0)))
        return PortfolioStructure(spec, epsilon_k), power_utility_payoff(spec)
    if kind == "pd_sde":
        allowed = {"kind", "drift", "diffusion", "x0", "d", "payoff"}
        _reject_unknown(cfg, allowed)
        spec = PdSdeSpec(
            drift=_from_registry(drift_registry, cfg["drift"]),
            diffusion=_from_registry(diffusion_registry, cfg["diffusion"]),
            x0=np.asarray(cfg["x0"], dtype=float), d=int(cfg.get("d", 1)))
        payoff = _payoff_from_config(cfg.get("payoff", {"name": "terminal_tanh"}), horizon_T)
        return CaseAStructure(spec, epsilon_k, horizon_T), payoff
    if kind == "fbm":
        allowed = {"kind", "H", "sigma", "drift", "x0", "d_H", "payoff"}
        _reject_unknown(cfg, allowed)
        spec = FbmSpec(H=float(cfg["H"]), sigma=float(cfg["sigma"]),
                       drift=_from_registry(drift_registry, cfg["drift"]),
                       x0=float(cfg["x0"]), d_H=float(cfg.get("d_H", 1.0)))
        payoff = _payoff_from_config(cfg.get("payoff", {"name": "terminal_tanh"}), horizon_T)
        return FbmStructure(spec, epsilon_k, horizon_T), payoff
    raise ConfigurationError(f"unknown problem kind {kind!r}")


def _reject_unknown(cfg: dict, allowed: set):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")


def _from_registry(registry: dict, entry):
    if isinstance(entry, str):
        entry = {"name": entry}
    name = entry.get("name")
    if name not in registry:
        raise ConfigurationError(f"unknown coefficient functional {name!r}")
    params = {k: v for k, v in entry.items() if k != "name"}
    return registry[name](params)


def _payoff_from_config(entry, horizon_T: float):
    """Bounded Hoelder payoffs selectable by name."""
    if isinstance(entry, str):
        entry = {"name": entry}
    name = entry.get("name")
    if name == "terminal_tanh":
        scale = float(entry.get("scale", 1.0))
        return lambda path: scale * math.tanh(float(np.atleast_1d(path(horizon_T))[0]))
    if name == "running_max_tanh":
        scale = float(entry.get("scale", 1.0))
        return lambda path: scale * math.tanh(float(np.atleast_1d(path.running_max())[0]))
    raise ConfigurationError(f"unknown payoff {name!r}")
