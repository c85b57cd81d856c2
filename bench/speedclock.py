"""Host-speed-corrected timing: wall seconds converted to reference seconds.

The benchmark runs on a small share of a shared host whose speed drifts:
the same single-threaded work takes up to ~1.4x longer for seconds to
minutes at a time, with CPU time equal to wall time and negligible steal.
Wall seconds of one run therefore say as much about the host as about
the program.

`SpeedClock` samples the host's current speed while the workload runs.
A SIGALRM timer interrupts the (single-threaded) worker every `PERIOD_S`
seconds and runs a fixed calibration kernel owned by the benchmark: a
pure-Python integer loop, random lookups in a dict larger than L2, and
many small numpy calls.  One sample's speed is ``REF_SAMPLE_S /
duration``, 1.0 at the reference speed.  An interval of the workload
converts as

    reference seconds = (wall seconds - sampler seconds inside it)
                        x mean speed of the samples inside it

(intervals with fewer than `MIN_SAMPLES` samples use the `MIN_SAMPLES`
samples nearest to their middle, which may lie just after the interval).  A change to the program moves its
reference seconds exactly as it moves its wall seconds; a change of host
speed moves the samples as well and largely cancels.  The kernel never
calls the program, so no change to the program can move it.

The raw wall seconds, the sampler's own seconds and the mean speed of
every interval (overall and per kernel part) are kept for the run's
details file.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25           # one sample per quarter second of wall time
# duration of each kernel part at speed 1.0 (the reference), in seconds:
# a fixed scale, the medians of back-to-back samples measured once on a
# 2-vCPU Xeon guest.  Only its constancy matters: runs compare to runs.
REF_PART_S = (0.0010, 0.0014, 0.0031)
REF_SAMPLE_S = sum(REF_PART_S)
MIN_SAMPLES = 8

_now = time.perf_counter


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(20240917)
        keys = [int(k) for k in rng.integers(0, 1 << 40, 200_000)]
        self._table = {k: i for i, k in enumerate(keys)}
        self._probe = [keys[i] for i in rng.integers(0, len(keys), 1_000)]
        self._grid = np.sort(rng.random(64))
        self._small = rng.random(16)
        self.start_t: list[float] = []     # sample start times
        self.cost: list[float] = []        # sample durations
        self.parts: list[tuple] = []       # duration of each kernel part
        self._running = False

    # -- sampling ----------------------------------------------------------

    def sample(self):
        """Run the calibration kernel once and record its duration.

        Its parts stand for the kinds of code the workloads run: an
        interpreter loop, dict lookups in a structure larger than L2, and
        many small numpy calls, which the workloads' speed follows most
        closely (most of the kernel's time).
        """
        t0 = _now()
        acc = 0
        for j in range(10_000):
            acc += j * j
        t1 = _now()
        table = self._table
        for k in self._probe:
            acc += table[k]
        t2 = _now()
        x, grid = self._small, self._grid
        for _ in range(300):
            acc += int(np.searchsorted(grid, x)[0])
            x = np.minimum(np.exp(x) * 0.5 + x * 1e-9, 1.0)
        t3 = _now()
        self.start_t.append(t0)
        self.cost.append(t3 - t0)
        self.parts.append((t1 - t0, t2 - t1, t3 - t2))

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    # -- conversion --------------------------------------------------------

    def convert(self, intervals) -> dict:
        """Reference seconds of a list of (start, end) perf_counter intervals.

        Returns the summed reference seconds, wall seconds, sampler seconds
        and the mean speed applied, weighted by wall seconds, overall and
        for each kernel part on its own.
        """
        t = np.asarray(self.start_t)
        cost = np.asarray(self.cost)
        if t.size == 0:
            raise RuntimeError("no speed samples taken")
        speed = REF_SAMPLE_S / cost
        parts = np.asarray(self.parts)
        part_speed = np.asarray(REF_PART_S) / parts
        ref = wall = sampler = 0.0
        part_ref = np.zeros(parts.shape[1])
        for a, b in intervals:
            lo, hi = np.searchsorted(t, (a, b))
            inside = cost[lo:hi].sum()
            if hi - lo >= MIN_SAMPLES:
                use = slice(lo, hi)
            else:
                use = np.argsort(np.abs(t - 0.5 * (a + b)), kind="stable")[:MIN_SAMPLES]
            net = (b - a) - inside
            ref += net * speed[use].mean()
            part_ref += net * part_speed[use].mean(axis=0)
            wall += b - a
            sampler += inside
        net = wall - sampler
        return {"ref_s": ref, "wall_s": wall, "sampler_s": sampler,
                "speed": ref / net if net > 0 else 0.0,
                "part_speed": (part_ref / net).tolist() if net > 0 else []}
