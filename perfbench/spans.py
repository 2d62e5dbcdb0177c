"""Spans recorded around the package's public calls, from outside the package.

A probe replaces a function or method on the object where its caller looks
it up (``poromor.adaptive.solve_primal_rom``, ``StepSystem.solve_primal``)
with a wrapper that opens a span, calls the original and closes the span.
Spans stay in memory.  A span's self time is its duration minus the
durations of its direct children, so time spent in a nested layer is
charged to that layer and not to its caller.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    phase: str = ""     # name of the outermost enclosing span

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def totals(spans: list[Span], key) -> dict[str, float]:
    """Self time summed over the spans grouped by ``key(span)``."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        k = key(s)
        out[k] = out.get(k, 0.0) + t
    return out


class Tracer:
    """In-memory span and counter store shared by all installed probes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()  # per probe target, never reset
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        phase = name if parent is None else self.spans[self._stack[0]].name
        self.spans.append(Span(name, layer, self.clock(), 0.0, parent, phase))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str, layer: str):
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)

    def install(self, probe: "Probe") -> None:
        """Wrap the probe's target; AttributeError if the name is gone."""
        owner = probe.owner()
        original = getattr(owner, probe.attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(probe.name, probe.layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.calls[probe.target] += 1
            if probe.on_result is not None:
                probe.on_result(tracer.counts, args, result)
            return result

        setattr(owner, probe.attr, wrapper)
        self._restore.append((owner, probe.attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


@dataclass(frozen=True)
class Probe:
    """One wrapped lookup site: ``<module>[.<class>].<attr>``.

    ``solver`` limits the probe's expected calls to workloads using that
    linear solver; ``on_result(counts, args, result)`` adds counters.
    """

    target: str
    name: str
    layer: str
    on_result: Callable | None = None
    solver: str | None = None

    @property
    def attr(self) -> str:
        return self.target.rsplit(".", 1)[1]

    def owner(self):
        path = self.target.rsplit(".", 1)[0]
        parts = path.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            for part in parts[cut:]:
                obj = getattr(obj, part)
            return obj
        raise ModuleNotFoundError(f"no module on the path {path!r}")
