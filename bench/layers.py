"""Layer timing taken from outside the package, around its public calls.

``Layers`` accumulates busy time and call counts per layer in memory;
``UNTRACED`` has the same interface and only makes the call, so each
workload has one code path for its timed and its traced runs.  Spans never
nest: the benchmark times only the calls it makes itself, so every span is
self time and the spans of one run can be summed.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Untraced:
    def call(self, name, fn, *args):
        return fn(*args)

    def iterate(self, name, iterable):
        return iterable

    def count(self, name, amount=1):
        pass


UNTRACED = _Untraced()


class Layers:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.busy[name] += perf_counter() - start
        self.calls[name] += 1
        return result

    def iterate(self, name, iterable):
        """Yield from ``iterable``, timing each step of it as layer ``name``."""
        it = iter(iterable)
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self.busy[name] += perf_counter() - start
                return
            self.busy[name] += perf_counter() - start
            self.calls[name] += 1
            yield item

    def count(self, name, amount=1):
        self.counts[name] += amount

    def mean(self, name) -> float:
        """Mean seconds per call of ``name``; 0 when it was never called."""
        calls = self.calls[name]
        return self.busy[name] / calls if calls else 0.0
