"""In-memory span tracer for the benchmark's layer boundaries.

A boundary is a module or class attribute that callers look up at call
time, such as ``skeldp.evaluate.rollout`` or
``skeldp.structures.CaseAStructure.step``.  `Tracer.wrap` replaces that
attribute with a recording wrapper; `Tracer.restore` puts the originals
back.  Every call becomes one span (name, start, end, parent, work) held in
parallel lists and written out only when the run ends, so the traced
program does no I/O while it is measured.  ``work`` is an optional exact
count taken from the call's arguments or result (tau draws, skeleton
steps, crossing events, rollout lookups).

A boundary that does not exist in the program (a later change removed or
renamed it) is simply not wrapped: its metrics are absent, never zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

_perf = time.perf_counter
_INHERITED = object()      # marks a wrapped attribute the owner only inherited


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[int] = []
        self.wrapped: set[str] = set()     # span names whose boundary exists
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (a phase)."""
        i = self._open(name)
        self.start[i] = _perf()
        try:
            yield
        finally:
            self.end[i] = _perf()
            self._stack.pop()

    def wrap(self, target: str, name: str, work=None) -> bool:
        """Record a span named `name` around every call of `target`.

        `target` is a dotted path: a module followed by attribute names.
        `work(args, kwargs, result)` returns the span's work count.
        Returns False, and wraps nothing, if the target does not exist.
        """
        parts = target.split(".")
        owner = None
        for cut in range(len(parts) - 1, 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:-1]:
                    owner = getattr(owner, attr)
                fn = getattr(owner, parts[-1])
            except AttributeError:
                return False
            break
        if owner is None or not callable(fn):
            return False
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name)
            tracer.start[i] = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[i] = _perf()
                tracer._stack.pop()
            if work is not None:
                tracer.work[i] = int(work(args, kwargs, out))
            return out

        self._restore.append((owner, parts[-1],
                              vars(owner).get(parts[-1], _INHERITED)))
        setattr(owner, parts[-1], wrapper)
        self.wrapped.add(name)
        return True

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: total seconds, self seconds, calls and work.

        Self time is a span's duration minus the durations of its direct
        children; the process is single-threaded, so children never overlap.
        Every wrapped boundary appears, with zero calls if it was not hit.
        """
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0}
               for name in sorted(self.wrapped)}
        for i in range(n):
            t = out.setdefault(self.names[i],
                               {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
            t["s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
            t["calls"] += 1
            t["work"] += self.work[i]
        return out

    def under(self, name: str, ancestors: tuple[str, ...]) -> dict:
        """Seconds, calls and work of `name` spans, by nearest listed ancestor."""
        out = {a: {"s": 0.0, "calls": 0, "work": 0} for a in ancestors}
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            p = self.parent[i]
            while p >= 0 and self.names[p] not in ancestors:
                p = self.parent[p]
            if p >= 0:
                t = out[self.names[p]]
                t["s"] += self.end[i] - self.start[i]
                t["calls"] += 1
                t["work"] += self.work[i]
        return out

    def save(self, path: str):
        """Write every span as parallel columns (one .npz file)."""
        import numpy as np
        table = sorted(set(self.names))
        index = {nm: k for k, nm in enumerate(table)}
        np.savez(path,
                 names=np.array(table),
                 name=np.array([index[nm] for nm in self.names], dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 work=np.array(self.work, dtype=np.int64))
