"""Discrete-type skeleton of d-dimensional Brownian motion.

Each coordinate j is observed only at the times where it moves by exactly
+-eps from its previously recorded level.  Inter-arrival times per coordinate
are i.i.d. eps^2 * tau (tau = unit-barrier exit time), signs are i.i.d. fair
coin flips, coordinates are independent, and the merged event sequence is the
order statistics of all per-coordinate hitting times.

`sample_skeleton` is the one exact-law sampler: it draws a block of paths
from one Philox stream per (seed, chunk), so a Monte Carlo chunk of paths is
one call.  The crossing sampler below reads the skeleton off a simulated
fine Brownian path instead, as a theory-free reference.

A step is (delta_t, coord, sign): the waiting time, the 1-based coordinate
that moves and its sign, +-1.  Coordinates are 1-based on every public
surface (the structures' `step`, the kernel atoms, the CSV files), so
`SkeletonPath.coords` stores values in 1..d.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import density
from .errors import ConfigurationError, NumericalError

__all__ = [
    "SkeletonConfig",
    "SkeletonPath",
    "sample_skeleton",
    "elapsed_times",
    "brownian_fine_path",
    "crossing_sample_skeleton",
    "path_to_csv",
    "path_from_csv",
]


@dataclass(frozen=True)
class SkeletonConfig:
    """epsilon_k, dimension, horizon and (merged) step count.

    n_steps defaults to e(k,T) = d * ceil(eps^-2 T), the number of merged
    events needed to cover [0, T] as eps shrinks.
    """

    epsilon_k: float
    d: int = 1
    horizon_T: float = 1.0
    n_steps: int | None = None

    def __post_init__(self):
        for name in ("epsilon_k", "horizon_T"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, "
                                         f"got {getattr(self, name)}")
        _count("d", self.d)
        if self.n_steps is None:
            object.__setattr__(self, "n_steps", self.e_kT)
        _count("n_steps", self.n_steps)

    @property
    def e_kT(self) -> int:
        return self.d * math.ceil(self.epsilon_k**-2 * self.horizon_T)


def _count(name: str, value, lo: int = 1):
    """Refuse a count that is not an int >= lo (a bool or 1.5 included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ConfigurationError(f"{name} must be an int >= {lo}, got {value!r}")


@dataclass
class SkeletonPath:
    """Realized chain: merged inter-arrival times and active (coord, sign).

    One path holds (n,) arrays; a block of paths, as the Monte Carlo rolls
    out, holds (paths, n) arrays.  len() is the number of steps n.
    """

    epsilon_k: float
    d: int
    delta_t: np.ndarray  # (n,) or (paths, n) positive
    coords: np.ndarray   # ints in 1..d
    signs: np.ndarray    # ints in {-1, +1}

    def __post_init__(self):
        self.delta_t = np.asarray(self.delta_t, dtype=float)
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.int64)
        if not (self.delta_t.shape == self.coords.shape == self.signs.shape) \
                or self.delta_t.ndim not in (1, 2):
            raise ConfigurationError("delta_t, coords, signs must share one "
                                     "(n,) or (paths, n) shape")
        if np.any(self.delta_t <= 0):
            raise ConfigurationError("all delta_t must be > 0")
        if np.any((self.coords < 1) | (self.coords > self.d)):
            raise ConfigurationError("coords must lie in 1..d")
        if np.any(np.abs(self.signs) != 1):
            raise ConfigurationError("signs must be +-1")

    def __len__(self) -> int:
        return self.delta_t.shape[-1]

    @property
    def cum_times(self) -> np.ndarray:
        return np.cumsum(self.delta_t, axis=-1)


def _draw_length(n: int, d: int) -> int:
    """Events drawn per coordinate and round for a d > 1 merge of n events."""
    return int(1.3 * n / d) + 8


def sample_skeleton(cfg: SkeletonConfig, seed: int, chunk: int = 0,
                    size: int | None = None) -> SkeletonPath:
    """Draw the first cfg.n_steps merged events of the skeleton.

    All random numbers come from one Philox stream, keyed (seed, 40_000 +
    chunk).  size=None draws one (n,) path, which is row 0 of that stream's
    block; otherwise a (size, n) block of paths, one per row.  Inter-arrival
    times are eps^2 * tau by inverse CDF and signs are fair coin flips.  At
    d = 1 one (size, n, 2) uniform draw gives every row's n steps directly.
    At d > 1 each round draws a (size, L, d, 2) block, L events per
    coordinate per row, and every row is extended by one more round while
    any row has fewer than n merged events below its frontier (the smallest
    per-coordinate last time); each row's per-coordinate times are then
    merged by a stable sort, lower coordinate first on ties.
    """
    eps2 = cfg.epsilon_k**2
    n, d = cfg.n_steps, cfg.d
    rows = 1 if size is None else size
    gen = density._philox(seed, 40_000 + chunk)

    def draw(length):
        u = gen.random((rows, length, d, 2) if d > 1 else (rows, length, 2))
        dt = eps2 * density.inverse_cdf_tau(np.clip(u[..., 0], 1e-16, 1 - 1e-16))
        return dt, np.where(u[..., 1] < 0.5, 1, -1)

    if d == 1:
        dts, signs = draw(n)
        coords = np.ones_like(signs)
    else:
        times, sgn = [], []
        while True:
            dt, s = draw(_draw_length(n, d))
            times.append(np.cumsum(dt, axis=1) + (times[-1][:, -1:] if times else 0.0))
            sgn.append(s)
            all_t = np.concatenate(times, axis=1)            # (rows, m, d)
            frontier = all_t[:, -1].min(axis=1)
            if np.sum(all_t <= frontier[:, None, None], axis=(1, 2)).min() >= n:
                break
        # coordinate-major rows, so a stable sort puts the lower coordinate first
        m = all_t.shape[1]
        all_t = all_t.transpose(0, 2, 1).reshape(rows, d * m)
        all_s = np.concatenate(sgn, axis=1).transpose(0, 2, 1).reshape(rows, d * m)
        order = np.argsort(all_t, axis=1, kind="stable")[:, :n]
        merged = np.take_along_axis(all_t, order, axis=1)
        if n > 1 and np.any(np.diff(merged, axis=1) <= 0):
            raise ConfigurationError("tied merged times; continuous sampling broken")
        dts = np.diff(merged, axis=1, prepend=0.0)
        coords = order // m + 1
        signs = np.take_along_axis(all_s, order, axis=1)
    if size is None:
        dts, coords, signs = dts[0], coords[0], signs[0]
    return SkeletonPath(cfg.epsilon_k, d, dts, coords, signs)


def elapsed_times(bk: SkeletonPath):
    """(t_n, per-coordinate last-hit times, per-coordinate lags) of one path.

    t_n is the total elapsed time; for each coordinate lam the last-hit
    time sums the increments up to its last step on lam, and the lag is t_n
    minus that.  Empty history gives zeros everywhere.
    """
    dts, coords, d = bk.delta_t, bk.coords, bk.d
    cum = np.concatenate([[0.0], np.cumsum(dts)])
    t_n = float(cum[-1])
    t_lam = np.zeros(d)
    for lam in range(1, d + 1):
        hits = np.flatnonzero(coords == lam)
        t_lam[lam - 1] = cum[hits[-1] + 1] if hits.size else 0.0
    lags = t_n - t_lam
    return t_n, t_lam, lags


# ---------------------------------------------------------------------------
# Crossing-detection oracle: simulate a fine Brownian path and read off the
# skeleton from level crossings.  Equal in law to sample_skeleton up to the
# fine-grid overshoot; kept as the theory-free reference sampler.  Crossings
# are found one numpy window at a time.  The window is derived, never set:
# twice eps^2 / dt grid steps, the mean gap between crossings (E tau = 1),
# so most events cost one window pass wherever k puts the events.  The
# first crossing in a scan does not depend on the window, so neither do
# the events.
# ---------------------------------------------------------------------------

def brownian_fine_path(d: int, T: float, dt: float, seed: int, stream: int = 0):
    """(t_grid, B) with B of shape (d, len(t_grid)), B[:,0] = 0."""
    n = int(math.ceil(T / dt))
    incs = density._philox(seed, 10_000 + stream).standard_normal((d, n))
    incs *= math.sqrt(dt)
    bm = np.empty((d, n + 1))
    bm[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=bm[:, 1:])
    t_grid = np.arange(n + 1, dtype=float)
    t_grid *= dt
    return t_grid, bm


_MIN_WINDOW = 64


def _crossing_window(eps: float, dt: float) -> int:
    """Scan window of `_crossings`: twice the mean gap eps^2 / dt between
    crossings, in grid steps, and at least _MIN_WINDOW."""
    return max(_MIN_WINDOW, math.ceil(2 * eps**2 / dt)) if dt > 0 else _MIN_WINDOW


def _crossings(x: np.ndarray, lev: float, eps: float, window: int, start: int = 0):
    """Level crossings of one observed coordinate, scanned from x[start].

    Each crossing is the first index k with |x[k] - lev| >= eps; the level
    then moves one eps step toward x[k].  x is scanned `window` points at a
    time (no per-grid-point Python loop).  Returns the crossing indices,
    their signs and the final level, so a path observed in pieces can carry
    it on.
    """
    idx, sgn = [], []
    i = start
    while i < len(x):
        exc = np.abs(x[i:i + window] - lev) >= eps
        j = int(exc.argmax())        # 0 when the window holds no crossing
        if not exc[j]:
            i += window
            continue
        k = i + j
        sign = 1 if x[k] > lev else -1
        lev += sign * eps
        idx.append(k)
        sgn.append(sign)
        i = k + 1
    return np.array(idx, dtype=np.int64), np.array(sgn, dtype=np.int64), lev


def crossing_sample_skeleton(eps: float, t_grid: np.ndarray, bm: np.ndarray,
                             n_steps: int | None = None) -> SkeletonPath:
    """Extract the skeleton of a discretely observed Brownian path.

    Levels stay on the eps-lattice anchored at the last recorded level, so
    the recorded level moves by exactly +-eps per event; the overshoot at
    detection time is bounded by the fine-grid increment scale.  For d >= 2,
    two coordinates crossing at the same grid instant cannot be ordered, and
    a skeleton step must take positive time: NumericalError names the
    instant and the coordinates.
    """
    d = bm.shape[0]
    steps = len(t_grid) - 1
    window = _crossing_window(eps, (t_grid[-1] - t_grid[0]) / steps if steps else 0.0)
    per_coord = [_crossings(bm[j], 0.0, eps, window, start=1) for j in range(d)]
    k = np.concatenate([idx for idx, _, _ in per_coord])
    c = np.concatenate([np.full(len(idx), j + 1, dtype=np.int64)
                        for j, (idx, _, _) in enumerate(per_coord)])
    s = np.concatenate([sgn for _, sgn, _ in per_coord])
    order = np.lexsort((c, k))
    k, c, s = k[order], c[order], s[order]
    if n_steps is not None:
        k, c, s = k[:n_steps], c[:n_steps], s[:n_steps]
    tied = np.flatnonzero(np.diff(k) == 0)
    if tied.size:
        at = k[tied[0]]
        raise NumericalError(f"coordinates {c[k == at].tolist()} cross at the same "
                             f"grid instant t = {float(t_grid[at])!r} (index {at}); "
                             "refine the grid")
    t = t_grid[k]
    return SkeletonPath(eps, d, np.diff(t, prepend=0.0), c, s)


def crossing_event_stream(eps: float, dt: float, t_total: float, seed: int,
                          stream: int = 0, block: int = 4_000_000):
    """Crossing events of one Brownian coordinate over [0, t_total].

    Streams the fine path in blocks (bounded memory) and returns
    (times, signs) of the +-eps level crossings detected on the grid.
    """
    gen = density._philox(seed, 20_000 + stream)
    n_total = int(math.ceil(t_total / dt))
    window = _crossing_window(eps, dt)
    out_t, out_s = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    lev = 0.0
    b_end = 0.0
    done = 0
    while done < n_total:
        m = min(block, n_total - done)
        seg = b_end + np.cumsum(gen.standard_normal(m) * math.sqrt(dt))
        k, sgn, lev = _crossings(seg, lev, eps, window)
        out_t.append((done + k + 1) * dt)
        out_s.append(sgn)
        b_end = seg[-1]
        done += m
    return np.concatenate(out_t), np.concatenate(out_s)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = ["step_index", "delta_t", "coord", "sign", "cum_time"]


def path_to_csv(path: SkeletonPath, fh=None) -> str | None:
    own = fh is None
    buf = io.StringIO() if own else fh
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_HEADER)
    cum = path.cum_times
    for i in range(len(path)):
        w.writerow([i, f"{path.delta_t[i]:.17g}", int(path.coords[i]),
                    int(path.signs[i]), f"{cum[i]:.17g}"])
    return buf.getvalue() if own else None


def path_from_csv(text: str, epsilon_k: float, d: int) -> SkeletonPath:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != _CSV_HEADER:
        raise ConfigurationError(f"bad CSV header {rows[0]!r}")
    body = rows[1:]
    return SkeletonPath(
        epsilon_k, d,
        np.array([float(r[1]) for r in body]),
        np.array([int(r[2]) for r in body], dtype=np.int64),
        np.array([int(r[3]) for r in body], dtype=np.int64),
    )
