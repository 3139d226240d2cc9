"""Spans for the traced benchmark run.

A span is (name, start, end, parent, request): the benchmark opens one around
each of its own calls into a package module, and :func:`install` wraps the
public functions that modules call across module boundaries, at the name the
calling module looks them up by.  Spans stay in memory until :meth:`write`.
Span names are ``<layer>.<what>``; the layer is the package module.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

_NULL = contextlib.nullcontext()


class Tracer:
    """Collects spans while ``enabled``; a disabled tracer costs one attribute test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, request]
        self.request: str | None = None
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def _span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording a span per call; ``note(args, result)`` is kept in notes[name]."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                self.notes[name].append(note(args, result))
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        """A generator function whose every ``next`` is one span (the consumer's wait)."""

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = self.open(name) if self.enabled else -1
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if index >= 0:
                        self.close(index)
                yield item

        return traced

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, name, start_ns, end_ns, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{request or ''}\n")


class SpanSummary:
    """Per-name call counts, total and self time (duration minus child spans)."""

    def __init__(self, spans: list[list]):
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.self_each_ns: dict[str, list[int]] = defaultdict(list)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            own = end - start - child_ns[i]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            self.self_each_ns[name].append(own)
            self.layer_self_ns[name.split(".", 1)[0]] += own

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def mean_ms(self, name: str) -> float:
        """Mean inclusive duration per call; 0.0 when the name never ran."""
        calls = self.calls[name]
        return self.total_ns[name] / calls / 1e6 if calls else 0.0

    def self_quantile_ms(self, name: str, q: int) -> float:
        """The q-th percentile of per-call self time."""
        each = self.self_each_ns[name]
        if len(each) < 2:
            return each[0] / 1e6 if each else 0.0
        return statistics.quantiles(each, n=100, method="inclusive")[q - 1] / 1e6


def install(tracer: Tracer, targets) -> list[tuple[object, str, object]]:
    """Replace each (module, attribute, span name[, note]) with a traced wrapper.

    Returns the originals for :func:`restore`.  Generator functions get
    :meth:`Tracer.wrap_iter`, so a span covers the wait for one item.
    """
    saved = []
    for module, attribute, name, *note in targets:
        original = getattr(module, attribute)
        if inspect.isgeneratorfunction(original):
            wrapped = tracer.wrap_iter(original, name)
        else:
            wrapped = tracer.wrap(original, name, note[0] if note else None)
        saved.append((module, attribute, original))
        setattr(module, attribute, wrapped)
    return saved


def restore(saved) -> None:
    for module, attribute, original in reversed(saved):
        setattr(module, attribute, original)
