"""In-memory span tracing installed from outside the measured program.

A `Tracer` replaces module attributes with wrappers in the namespace where
the caller looks them up (`qest.simulate.bures_distance`, not only
`qest.states.bures_distance`), records one span per call (name, start, end,
parent) or bumps a counter keyed by the enclosing span, and puts every
original attribute back on `restore`.  Nothing is wrapped unless a
`Tracer` is installed, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

WRAPPED_MARK = "__qestbench_wrapper__"


@dataclass
class LayerTotals:
    """Aggregate of all spans sharing one name."""

    calls: int
    total_s: float
    self_s: float

    def mean_us(self) -> float:
        return 1e6 * self.total_s / self.calls if self.calls else 0.0


class Tracer:
    """Span recorder whose wrappers are undone by `restore`."""

    def __init__(self):
        # span record: [name, start, end, parent index or -1]
        self.spans: list = []
        self.counts: Counter = Counter()  # (name, enclosing span name) -> calls
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original), in install order

    # -- installing ---------------------------------------------------------

    def wrap(self, name: str, targets, on_return=None, count_only: bool = False) -> None:
        """Wrap every (owner, attribute) in targets that exists.

        Span wrappers call on_return(span_index, args, kwargs, result) after
        each call.
        """
        for owner, attr in targets:
            original = getattr(owner, attr, None)
            if original is None or getattr(original, WRAPPED_MARK, False):
                continue
            if count_only:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._spanner(name, original, on_return)
            setattr(wrapper, WRAPPED_MARK, True)
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._saved]

    def _spanner(self, name, fn, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else None)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- reading ------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.array([rec[2] - rec[1] for rec in self.spans])

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover.

        Spans come from one thread and nest, so children are disjoint and
        the covered time is the sum of their durations.
        """
        dur = self.durations()
        if not len(dur):
            return dur
        parent = np.array([rec[3] for rec in self.spans])
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def totals(self) -> dict:
        """{span name: LayerTotals}."""
        dur = self.durations()
        own = self.self_times()
        out = {}
        for i, rec in enumerate(self.spans):
            tot = out.setdefault(rec[0], LayerTotals(0, 0.0, 0.0))
            tot.calls += 1
            tot.total_s += float(dur[i])
            tot.self_s += float(own[i])
        return out

    def count(self, name: str, within: str | None = "*") -> int:
        """Counter calls of name, under the enclosing span within ("*": any)."""
        return sum(n for (nm, parent), n in self.counts.items()
                   if nm == name and (within == "*" or parent == within))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            if not self.spans:
                return
            t0 = self.spans[0][1]
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{1e6 * (start - t0):.3f},"
                         f"{1e6 * (end - t0):.3f},{parent}\n")
