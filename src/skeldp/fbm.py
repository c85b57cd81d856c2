"""Fractional Brownian motion (1/2 < H < 1) built from a Brownian path.

Representation used throughout:

    B_H(t) = int_0^t rho_H(t, s) B(s) ds,
    rho_H(t,s) = d'_H [ (H-1/2) s^{-H-1/2} int_s^t u^{H-1/2}(u-s)^{H-3/2} du
                        - s^{-H-1/2} t^{H+1/2} (t-s)^{H-3/2} ],

with d'_H = (H - 1/2) d_H and d_H a normalization constant exposed as a
config parameter (default 1; every check shipped here compares the skeleton
construction against the representation's own fine-grid limit, so the
comparison is d_H-free).

Numerics: rho_H is homogeneous, rho_H(ct, cs) = c^{H-3/2} rho_H(t, s), so

    P(t, s) := int_s^t rho_H(t, v) dv = t^{H-1/2} Phi(s/t),
    Q(t, s) := int_0^s P(t, v) dv   = t^{H+1/2} Omega(s/t),

and one pair of tables Phi/Omega on (0, 1] serves every evaluation.  Phi
is built on its grid in one cumulative pass: in z = (1-w)^{H-1/2} both
endpoint singularities of rho_H(1, w) cancel, so a 16-node Gauss rule on
each grid cell, summed from x = 1 down, gives every Phi(x_i).  Against
adaptive quadrature of rho_H it agrees to within 3e-9 relative from
x = 1e-10 to 1 - 1e-8 at H = 0.6, 0.75 and 0.9, and 48 nodes per cell
change no value by more than 4e-16 relative.  The inner integral's (u-s)^{H-3/2}
singularity is removed exactly by w = (u-s)^{H-1/2} (the integrand becomes
analytic), and the s -> 0 blow-up never enters because step paths vanish
before their first event.  inner_kernel_integral takes (t-s)^{H-1/2}
through libm pow element by element (_libm_pow), so an array of lower
limits gives the bits of one scalar call per limit.

Against a piecewise-constant skeleton path A (jumps eps*sigma_n at T_n):

    B^k_H(t) = eps * t^{H-1/2} * sum_{T_n <= t} sigma_n Phi(T_n / t),

and W^k_H freezes B^k_H at skeleton times.  Each call of fbm_from_skeleton
evaluates the Phi table once, on the points T_n / T_m(t) of all its eval
times together, and each call of fbm_ref_from_fine_path evaluates Omega
once, on s_i / t of all its eval times together; the table is evaluated
point by point, so the values are those of one call per eval time.  The
sum for each eval time stays its own dot product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError

_GX, _GW = leggauss(64)
_CELL_GX, _CELL_GW = leggauss(16)   # rule on each cell of the Phi grid
_CELL_BLOCK = 64                    # Phi grid cells evaluated together
_N_GRID = 1200                      # Phi grid points, half graded into each end
_X_MIN = 1e-10                      # smallest Phi grid point; a power-law head below
_VAR_GX, _VAR_GW = leggauss(4)      # exact for the square of a cubic cell


def _check_H(H: float):
    if not 0.5 < H < 1.0:
        raise ConfigurationError(f"H must lie in (1/2, 1), got {H}")


def _libm_pow(x, p: float) -> np.ndarray:
    """x**p element by element through libm pow, as a scalar power computes it."""
    x = np.asarray(x, dtype=float)
    vals = map(math.pow, x.ravel().tolist(), itertools.repeat(p))
    return np.fromiter(vals, float, x.size).reshape(x.shape)


def inner_kernel_integral(t: float, s, H: float):
    """int_s^t u^{H-1/2} (u-s)^{H-3/2} du, regularized by w = (u-s)^{H-1/2}.

    s may be an array of lower limits: every Gauss node of every s is
    evaluated in one (..., 64) expression.  Zero wherever t <= s.
    """
    _check_H(H)
    s = np.asarray(s, dtype=float)
    q = 1.0 / (H - 0.5)
    wmax = _libm_pow(np.maximum(t - s, 0.0), H - 0.5)
    # u = s + w^q at the nodes w = wmax (1 + x) / 2, weighted u^{H-1/2};
    # in place, since these temporaries are (..., 64) times larger than s
    u = (0.5 * wmax)[..., None] * (1.0 + _GX)
    np.power(u, q, out=u)
    u += s[..., None]
    np.power(u, H - 0.5, out=u)
    u *= _GW
    val = 0.5 * wmax * q * np.sum(u, axis=-1)
    val = np.where(t > s, val, 0.0)
    return float(val) if val.ndim == 0 else val


def rho_H(t: float, s: float, H: float, d_H: float = 1.0) -> float:
    """Pointwise kernel value; singular like (t-s)^{H-3/2} as s -> t."""
    _check_H(H)
    if not 0.0 < s < t:
        raise ConfigurationError("rho_H requires 0 < s < t")
    dph = (H - 0.5) * d_H
    return dph * ((H - 0.5) * s ** (-H - 0.5) * inner_kernel_integral(t, s, H)
                  - s ** (-H - 0.5) * t ** (H + 0.5) * (t - s) ** (H - 1.5))


def _phi_on_grid(x: np.ndarray, H: float, d_H: float) -> np.ndarray:
    """Phi(x_i) = int_{x_i}^1 rho_H(1, w) dw on an increasing grid ending at 1.

    In z = (1-w)^{H-1/2}, w = 1 - z^q, the integrand is
    g(z) = dph q w^{-H-1/2} [(H-1/2) inner(1, w) z^{q-1} - 1], with no
    endpoint singularity left wherever x > 0.  One _CELL_GX rule on each
    grid cell, summed from x = 1 down, gives every Phi(x_i) at once.  z is
    carried as its complement v = 1 - z, so w = 1 - z^q keeps its relative
    precision at small x, where z lies within (H-1/2) x of 1.
    """
    dph = (H - 0.5) * d_H
    q = 1.0 / (H - 0.5)
    with np.errstate(divide="ignore"):          # x = 1 gives v = 1
        v = -np.expm1((H - 0.5) * np.log1p(-x))
    half = 0.5 * (v[1:] - v[:-1])
    mid = 0.5 * (v[1:] + v[:-1])
    cells = np.empty(len(half))
    # blocks of cells bound the (cells, 16, 64) temporaries of the inner integral
    for lo in range(0, len(half), _CELL_BLOCK):
        blk = slice(lo, lo + _CELL_BLOCK)
        log_z = np.log1p(-(mid[blk, None] + half[blk, None] * _CELL_GX))
        w = -np.expm1(q * log_z)
        g = (H - 0.5) * inner_kernel_integral(1.0, w, H) * np.exp((q - 1.0) * log_z)
        g -= 1.0
        g *= w ** (-H - 0.5)
        cells[blk] = half[blk] * (g @ _CELL_GW)
    phi = np.zeros(len(x))
    phi[:-1] = np.cumsum(cells[::-1])[::-1]
    return dph * q * phi


@dataclass
class FbmTable:
    """Interpolants for Phi and Omega on a grid graded into both endpoints.

    Phi is tabulated once by the cumulative z-rule (_phi_on_grid) and
    interpolated with a monotone cubic; Omega is its analytic antiderivative
    plus the power-law head C x^{3/2-H}/(3/2-H) accounting for the x -> 0
    blow-up of Phi.
    """

    H: float
    d_H: float = 1.0

    def __post_init__(self):
        from scipy.interpolate import PchipInterpolator
        _check_H(self.H)
        lo = np.geomspace(_X_MIN, 0.2, _N_GRID // 2)
        hi = 1.0 - np.geomspace(1e-8, 0.8, _N_GRID // 2)[::-1]
        self._x = np.unique(np.concatenate([lo, hi, [1.0]]))
        self._phi = _phi_on_grid(self._x, self.H, self.d_H)
        self._phi_ip = PchipInterpolator(self._x, self._phi, extrapolate=False)
        self._omega_ip = self._phi_ip.antiderivative()
        c_head = self._phi[0] * self._x[0] ** (self.H - 0.5)
        self._head_c = c_head / (1.5 - self.H)
        self._omega0 = self._head_c * self._x[0] ** (1.5 - self.H)

    def phi(self, x):
        """Phi(x) = int_x^1 rho_H(1, w) dw; power-law extrapolation below grid."""
        x = np.asarray(x, dtype=float)
        out = self._phi_ip(np.clip(x, self._x[0], 1.0))
        out = np.where(x >= 1.0, 0.0, out)
        small = x < self._x[0]
        if np.any(small):
            out = np.where(small,
                           self._phi[0] * (x / self._x[0]) ** (0.5 - self.H), out)
        return out

    def omega(self, x):
        """Omega(x) = int_0^x Phi(w) dw."""
        x = np.asarray(x, dtype=float)
        inner = self._omega_ip(np.clip(x, self._x[0], 1.0)) + self._omega0
        out = np.where(x >= 1.0, self._omega_ip(1.0) + self._omega0, inner)
        small = x < self._x[0]
        if np.any(small):
            out = np.where(small,
                           self._head_c * np.maximum(x, 0.0) ** (1.5 - self.H), out)
        return out

    def variance_at_one(self) -> float:
        """Var B_H(1) = int_0^1 Phi(w)^2 dw (Ito isometry after parts), exact
        for the table: the squared cubic of each cell by a 4-point Gauss
        rule, plus the power-law head's phi[0]^2 x_min / (2 - 2H)."""
        x = self._x
        half = 0.5 * (x[1:] - x[:-1])
        phi = self._phi_ip(0.5 * (x[1:] + x[:-1])[:, None] + half[:, None] * _VAR_GX)
        head = self._phi[0] ** 2 * x[0] / (2.0 - 2.0 * self.H)
        return float(half @ (phi**2 @ _VAR_GW) + head)


_TABLE_CACHE: dict[tuple, FbmTable] = {}


def get_table(H: float, d_H: float = 1.0) -> FbmTable:
    key = (round(H, 12), round(d_H, 12))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = FbmTable(H, d_H)
    return _TABLE_CACHE[key]


def fbm_from_skeleton(event_times, event_signs, eps: float, H: float, t_grid,
                      d_H: float = 1.0) -> np.ndarray:
    """W^k_H on t_grid: B^k_H frozen at the skeleton's own event times.

    event_times and event_signs are a one-dimensional skeleton's cumulative
    event times and +-1 signs, as `SkeletonPath.cum_times` and `.signs`.
    """
    event_times = np.asarray(event_times, dtype=float)
    event_signs = np.asarray(event_signs, dtype=float)
    if event_times.shape != event_signs.shape:
        raise ConfigurationError(f"{event_times.shape} event times against "
                                 f"{event_signs.shape} event signs")
    if np.any(np.diff(event_times) < 0):
        raise ConfigurationError("event times must be non-decreasing")
    t_grid = np.asarray(t_grid, dtype=float)
    table = get_table(H, d_H)
    out = np.zeros_like(t_grid)
    # freeze: W(t) = B^k_H(T_m(t)) with T_m(t) the last event time <= t
    idx = np.searchsorted(event_times, t_grid, side="right")
    live = np.flatnonzero(idx)
    m = idx[live]
    tm = event_times[m - 1]
    # Phi at T_n / T_m(t) for every n <= m of every t, in one table call
    starts = np.cumsum(m) - m
    n = np.arange(m.sum()) - np.repeat(starts, m)
    phi = table.phi(event_times[n] / np.repeat(tm, m))
    for i, mi, t, lo in zip(live, m, tm, starts):
        out[i] = eps * t ** (H - 0.5) * float(event_signs[:mi] @ phi[lo:lo + mi])
    return out


def fbm_ref_from_fine_path(t_fine, b_fine, H: float, eval_times,
                           d_H: float = 1.0) -> np.ndarray:
    """B_H on eval_times from a piecewise-linear Brownian reconstruction.

    Integration by parts against the slope: B_H(t) = t^{H+1/2} *
    sum_cells slope_i [Omega(s_{i+1} ^ t / t) - Omega(s_i / t)].
    """
    t_fine = np.asarray(t_fine, dtype=float)
    b_fine = np.asarray(b_fine, dtype=float)
    eval_times = np.asarray(eval_times, dtype=float)
    if t_fine.shape != b_fine.shape:
        raise ConfigurationError(f"{t_fine.shape} fine times against "
                                 f"{b_fine.shape} fine values")
    if np.any(np.diff(t_fine) <= 0):
        raise ConfigurationError("fine times must be strictly increasing")
    if np.any(eval_times > t_fine[-1]):
        raise ConfigurationError(
            f"eval time {eval_times.max()} lies past the fine path's end {t_fine[-1]}")
    table = get_table(H, d_H)
    slopes = np.diff(b_fine) / np.diff(t_fine)
    out = np.zeros(len(eval_times))
    # the k cells below eval time t end at s_1, ..., s_{k-1} and t itself,
    # so Omega is needed at s_0/t, ..., s_{k-1}/t, 1: one table call for all t
    live = np.flatnonzero(eval_times > t_fine[0])
    t_live = eval_times[live]
    ks = np.searchsorted(t_fine, t_live, side="left")
    starts = np.cumsum(ks + 1) - (ks + 1)
    x = np.ones((ks + 1).sum())
    for t, k, lo in zip(t_live, ks, starts):
        np.divide(t_fine[:k], t, out=x[lo:lo + k])
    o = table.omega(x)
    om = o[1:] - o[:-1]
    for i, t, k, lo in zip(live, t_live, ks, starts):
        out[i] = t ** (H + 0.5) * float(slopes[:k] @ om[lo:lo + k])
    return out
