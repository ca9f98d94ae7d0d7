"""Spans and counts recorded from outside the program, kept in memory until the end."""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from importlib import import_module


class NullTracer:
    """Tracing off: the replay runs the same calls with nothing recorded."""

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def instrumented(self, targets):
        yield

    def count(self, name: str, value: int, combine=None) -> None:
        pass

    def summary(self) -> dict:
        return {}


class Tracer(NullTracer):
    """Records spans (name, start, end, parent) and named counts.

    A call that re-enters the span it is already inside (a recursive
    function, or the replay wrapping a call that is itself instrumented)
    extends that span instead of opening a new one.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.open: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        if self.open and self.spans[self.open[-1]][0] == name:
            yield
            return
        record = [name, time.perf_counter(), None, self.open[-1] if self.open else None]
        self.spans.append(record)
        self.open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.open.pop()

    def count(self, name: str, value: int, combine=None) -> None:
        old = self.counts.get(name)
        self.counts[name] = value if old is None else (combine or int.__add__)(old, value)

    def _wrap(self, func, name: str, after):
        def wrapper(*args, **kwargs):
            if self.open and self.spans[self.open[-1]][0] == name:
                return func(*args, **kwargs)  # recursion: stays in the open span
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(self, result, *args)
            return result
        return wrapper

    @contextmanager
    def instrumented(self, targets):
        """Swap each (module, function, span name, after) for a spanning
        wrapper wherever the program's modules refer to the function, and put
        the originals back afterwards. `after(tracer, result, *args)`, when
        given, runs once the span has closed, to record counts or further spans."""
        modules = [m for key, m in list(sys.modules.items()) if key == "dualmem" or key.startswith("dualmem.")]
        swapped = []
        for module_name, func_name, span_name, after in targets:
            original = getattr(import_module(f"dualmem.{module_name}"), func_name)
            wrapper = self._wrap(original, span_name, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swapped.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in swapped:
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds (outermost), self seconds; and
        the duration of every span, by name, for percentiles."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, dict[str, float]] = {}
        durations: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            durations.setdefault(name, []).append(end - start)
        return {"layers": layers, "durations": durations, "counts": self.counts}
