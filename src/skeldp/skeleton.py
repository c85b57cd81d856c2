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
            _positive(name, getattr(self, name))
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


def _in_float_range(value) -> bool:
    """False for a number float() cannot hold: an integer past the float range."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _positive(name: str, value):
    """Refuse a value that is not a finite real > 0 (a bool, NaN or an
    integer past the float range included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not _in_float_range(value) or not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")


@dataclass
class SkeletonPath:
    """Realized chain: merged inter-arrival times and active (coord, sign).

    One path holds (n,) arrays; a block of paths, as the Monte Carlo rolls
    out, holds (paths, n) arrays.  len() is the number of steps n.
    """

    epsilon_k: float
    d: int
    delta_t: np.ndarray  # (n,) or (paths, n) finite and positive
    coords: np.ndarray   # ints in 1..d
    signs: np.ndarray    # ints in {-1, +1}

    def __post_init__(self):
        _positive("epsilon_k", self.epsilon_k)
        self.delta_t = np.asarray(self.delta_t, dtype=float)
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.int64)
        if not (self.delta_t.shape == self.coords.shape == self.signs.shape) \
                or self.delta_t.ndim not in (1, 2):
            raise ConfigurationError("delta_t, coords, signs must share one "
                                     "(n,) or (paths, n) shape")
        if not ((self.delta_t > 0) & (self.delta_t < math.inf)).all():
            raise ConfigurationError("all delta_t must be finite and > 0")
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
# fine-grid overshoot; kept as the theory-free reference sampler.
#
# The float rule: a crossing is the first point x[k] with |x[k] - lev| >= eps,
# after which the level moves one step, lev += sign * eps.  `_crossings`
# reads the rule off fixed blocks of _BLOCK points.  Two passes over the
# path take each block's max and min; everything after works on block-sized
# and event-sized arrays.  The walk is first guessed in lattice cells of
# eps around the start level: a block whose range, with the point before
# it, spans no lattice point holds no crossing, and one that spans exactly
# one point p ends at level p, so it holds one crossing iff the level before
# it differs.  The guess is then checked with the float rule itself, on
# levels summed as np.cumsum([lev, +-eps, ...]), which adds them in the
# order `lev += sign * eps` does, bit for bit.  Every block must end inside
# the band of its level after it, checked on its extrema alone since
# x -> fl(x - L) is monotone; a block guessed to cross must also cross its
# level before, and its crossing is found by one argmax over its points.
# A block spanning two or more lattice points, or one the check refutes (a
# jump over several cells, a point within ulps of a band edge), is stepped
# through exactly, point by point.  After a refuted block the guess resumes
# on a run at most twice as long as the refuted run got through, so the
# checks thrown away are bounded by the work kept.
# ---------------------------------------------------------------------------

def brownian_fine_path(d: int, T: float, dt: float, seed: int, stream: int = 0):
    """(t_grid, B) with B of shape (d, len(t_grid)), B[:,0] = 0.

    The increments are drawn, scaled and summed in B itself: at d = 1
    B[:, 1:] is contiguous and the draw lands there directly; at d > 1 one
    (d, n) draw is copied in.  Either way the Philox stream, the products
    and the sequential sums are those of a separate increment array.
    """
    _count("d", d)
    _positive("T", T)
    _positive("dt", dt)
    n = int(math.ceil(T / dt))
    gen = density._philox(seed, 10_000 + stream)
    bm = np.empty((d, n + 1))
    bm[:, 0] = 0.0
    incs = bm[:, 1:]
    if d == 1:
        gen.standard_normal(out=incs)
    else:
        incs[...] = gen.standard_normal((d, n))
    incs *= math.sqrt(dt)
    np.cumsum(incs, axis=1, out=incs)
    t_grid = np.arange(n + 1, dtype=float)
    t_grid *= dt
    return t_grid, bm


# Points per block of the extrema pass.  numpy's max / min reduceat took
# ~1.6x longer over 32-point blocks than over 33- to 36-point ones
# (x86-64, numpy 2.4).
_BLOCK = 34
_COLS = np.arange(_BLOCK)
_REGROW = 16                     # shortest run guessed after a refuted block
_CHUNK = 1 << 16


def _strictly_increasing(t: np.ndarray) -> bool:
    """t[i] < t[i + 1] throughout, compared _CHUNK points at a time so that
    no temporary is as long as t."""
    for i in range(0, t.size - 1, _CHUNK):
        w = t[i:i + _CHUNK + 1]
        if not (w[1:] > w[:-1]).all():
            return False
    return True


def _crossings(x: np.ndarray, lev: float, eps: float, start: int = 0):
    """Level crossings of one observed coordinate, scanned from x[start].

    Each crossing is the first index k with |x[k] - lev| >= eps; the level
    then moves one eps step toward x[k].  The events are read off block
    extrema and checked exactly (see the comment above), so they equal a
    point-by-point scan of that rule.  Returns the crossing indices, their
    signs and the final level, so a path observed in pieces can carry it
    on.
    """
    x = x[start:]
    n = len(x)
    eps, level = float(eps), float(lev)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), level
    starts = np.arange(0, n, _BLOCK)
    blocks = len(starts)
    # each block's max and min, widened by the point before it
    ext = np.empty((2, blocks))
    np.maximum.reduceat(x, starts, out=ext[0])
    np.minimum.reduceat(x, starts, out=ext[1])
    prev = x[_BLOCK - 1::_BLOCK][:blocks - 1]
    np.maximum(ext[0, 1:], prev, out=ext[0, 1:])
    np.minimum(ext[1, 1:], prev, out=ext[1, 1:])
    if not np.isfinite(ext).all():       # a NaN or an infinity never crosses
        raise ConfigurationError("path values must be finite")
    # the lattice points, in cells of eps from lev, that each block spans:
    # bot..top, so one point where top == bot and two or more where top > bot
    cells = ext - level
    cells /= eps
    top, bot = np.floor(cells[0], out=cells[0]), np.ceil(cells[1], out=cells[1])
    multi = (top > bot).nonzero()[0]
    idx, sgn = [], []
    cell = 0.0                   # the level's lattice cell, as guessed
    b, width = 0, blocks
    while b < blocks:
        m = multi.searchsorted(b)
        end = min(b + width, multi[m] if m < multi.size else blocks)
        f = b
        if b < end:
            f, level, cell = _guessed_run(x, ext, top, bot, b, end, level, cell, eps,
                                          idx, sgn)
        if f < end:                          # refuted: guess on a shorter run
            width = 2 * (f + 1 - b) + _REGROW
        elif f == blocks or top[f] <= bot[f]:   # held to the window's end
            b, width = end, 2 * width + _REGROW
            continue
        i = f * _BLOCK
        k, s, level = _exact_steps(x, i, i + _BLOCK, level, eps)
        idx.append(np.array(k, dtype=np.int64))
        sgn.append(np.array(s, dtype=float))
        cell += sum(s)
        b = f + 1
    return np.concatenate(idx) + start, np.concatenate(sgn).astype(np.int64), level


def _guessed_run(x, ext, top, bot, b, end, level, cell, eps, idx, sgn):
    """Guess and check blocks b..end-1 from the true level and a cell.

    Appends the checked events to idx / sgn and returns the first block
    the check refutes (end if none) with the level and cell before it.
    """
    t = top[b:end]
    ones = (t == bot[b:end]).nonzero()[0]      # blocks spanning one point
    p = t[ones]
    step = p - np.concatenate(([cell], p[:-1]))
    moved = step.nonzero()[0]
    ev = ones[moved]                           # blocks guessed to cross
    s = np.sign(step[moved])
    lev = np.concatenate(([level], s * eps)).cumsum()
    # every block, its crossing included, ends inside the band of the level
    # after it, so a block guessed to cross cannot cross its level before
    # against the guessed sign: its crossing is its first point that does
    # with the guessed sign, and there must be one
    runs = np.concatenate(([0], ev, [end - b]))
    at = np.repeat(lev, runs[1:] - runs[:-1])
    dev = ext[:, b:end] - at
    inside = np.abs(dev, out=dev) < eps
    ok = inside[0] & inside[1]
    pos = first = ev
    if ev.size:
        pos = (b + ev) * _BLOCK
        xs = x.take(pos[:, None] + _COLS, mode="clip")
        crossed = (xs - lev[:-1, None]) * s[:, None] >= eps
        first = crossed.argmax(axis=1)
        ok[ev] &= crossed.any(axis=1)
    f = int(ok.argmin())
    if ok[f]:
        f = end - b
    c = int(ev.searchsorted(f))
    idx.append(pos[:c] + first[:c])
    sgn.append(s[:c])
    if c:
        cell = float(p[moved[c - 1]])
    return b + f, float(lev[c]), cell


def _exact_steps(x, i, j, level, eps):
    """The float rule itself over x[i:j], one point at a time."""
    idx, sgn = [], []
    for k, v in enumerate(x[i:j].tolist(), i):
        if abs(v - level) >= eps:
            sign = 1 if v > level else -1
            level += sign * eps
            idx.append(k)
            sgn.append(sign)
    return idx, sgn, level


def crossing_sample_skeleton(eps: float, t_grid: np.ndarray,
                             bm: np.ndarray) -> SkeletonPath:
    """Extract the skeleton of a discretely observed Brownian path.

    Coordinate j's levels start at bm[j, 0] and the first waiting time at
    t_grid[0].  Levels stay on the eps-lattice anchored at the last recorded
    level, so the recorded level moves by exactly +-eps per event; the
    overshoot at detection time is bounded by the fine-grid increment
    scale.  For d >= 2, two coordinates crossing at the same grid instant
    cannot be ordered, and a skeleton step must take positive time:
    NumericalError names the instant and the coordinates.  bm must have
    shape (d, len(t_grid)) with d >= 1 and finite values, and t_grid must
    be finite and strictly increasing: ConfigurationError otherwise.
    """
    _positive("eps", eps)
    t_grid, bm = np.asarray(t_grid, dtype=float), np.asarray(bm, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size or bm.ndim != 2 or not bm.shape[0] \
            or bm.shape[1] != t_grid.size:
        raise ConfigurationError(f"bm must have shape (d, len(t_grid)) with d >= 1, "
                                 f"got {bm.shape} for t_grid of shape {t_grid.shape}")
    if not (math.isfinite(t_grid[0]) and math.isfinite(t_grid[-1])
            and _strictly_increasing(t_grid)):
        raise ConfigurationError("t_grid must be finite and strictly increasing")
    if not np.isfinite(bm[:, 0]).all():   # _crossings checks the points it reads
        raise ConfigurationError("path values must be finite")
    d = bm.shape[0]
    per_coord = [_crossings(bm[j], bm[j, 0], eps, start=1) for j in range(d)]
    k = np.concatenate([idx for idx, _, _ in per_coord])
    order = k.argsort(kind="stable")     # coordinates in order at a tie
    c = np.repeat(np.arange(1, d + 1), [len(idx) for idx, _, _ in per_coord])[order]
    s = np.concatenate([sgn for _, sgn, _ in per_coord])[order]
    k = k[order]
    tied = (k[1:] == k[:-1]).nonzero()[0]
    if tied.size:
        at = k[tied[0]]
        raise NumericalError(f"coordinates {c[k == at].tolist()} cross at the same "
                             f"grid instant t = {float(t_grid[at])!r} (index {at}); "
                             "refine the grid")
    t = t_grid[k]
    return SkeletonPath(eps, d, t - np.concatenate((t_grid[:1], t[:-1])), c, s)


def crossing_event_stream(eps: float, dt: float, t_total: float, seed: int,
                          stream: int = 0, block: int = 4_000_000):
    """Crossing events of one Brownian coordinate over [0, t_total].

    Streams the fine path in blocks (bounded memory) and returns
    (times, signs) of the +-eps level crossings detected on the grid.
    """
    for name, value in (("eps", eps), ("dt", dt), ("t_total", t_total)):
        _positive(name, value)
    _count("block", block)
    gen = density._philox(seed, 20_000 + stream)
    n_total = int(math.ceil(t_total / dt))
    out_t, out_s = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    lev = 0.0
    b_end = 0.0
    done = 0
    while done < n_total:
        m = min(block, n_total - done)
        seg = b_end + np.cumsum(gen.standard_normal(m) * math.sqrt(dt))
        k, sgn, lev = _crossings(seg, lev, eps)
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
