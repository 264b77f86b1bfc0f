"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` replaces each traced function with a wrapper at the name its
caller looks up (``pipeline.build_matrix`` rather than
``scorematrix.build_matrix``, because ``pipeline`` imported the name). A name
missing from the program is recorded as absent and skipped, so a later
rename or deletion shows up in the report instead of crashing the run.

Spans live in memory. A span's parent is the innermost open span on the same
thread; a span opened on a worker thread with nothing open there is a child
of the innermost span open on the caller's thread, which is where a fan-out
waits for it. Self time is a span's duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    result: Any = None
    raised: bool = False
    children: list["Span"] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_ms(span: Span) -> float:
    kids = [(max(c.start, span.start), min(c.end, span.end)) for c in span.children]
    return span.ms - covered([iv for iv in kids if iv[1] > iv[0]]) * 1000.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._caller_stack: list[Span] = []
        self._caller = threading.current_thread()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._caller:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._caller_stack[-1] if self._caller_stack else None)
            with self._lock:
                span = Span(len(self.spans), name, parent.id if parent else None,
                            time.perf_counter())
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              wrap: Callable[[Callable], Callable] | None = None) -> None:
        """Trace ``owner.attr`` as span ``name``; ``wrap`` replaces the default wrapper."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original) if wrap else self.traced(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer, cli, pipeline, providers, render, evalmod, session_cls) -> None:
    """Wrap every layer boundary of samplecheck that the benchmark reports on."""
    t = tracer
    t.patch(cli, "main", "cli.main")
    t.patch(cli, "load_config", "cli.load_config")
    t.patch(cli, "verify", "pipeline.verify")
    t.patch(cli, "report_json_bytes", "pipeline.report_json_bytes")
    t.patch(pipeline, "report_json_bytes", "pipeline.report_json_bytes")
    cache = getattr(pipeline, "_Cache", None)
    for attr in ("load_text", "load_embedding"):
        t.patch(cache, attr, "pipeline.cache_read")
    for attr in ("store_text", "store_embedding"):
        t.patch(cache, attr, "pipeline.cache_write")
    for owner in (pipeline, evalmod):
        t.patch(owner, "build_matrix", "scorematrix.build_matrix")
        t.patch(owner, "summarize", "scorematrix.summarize")
    t.patch(providers, "complete_once", "providers.complete_once")
    t.patch(providers, "embed_text", "providers.embed_text")
    t.patch(session_cls, "send", "providers.http")
    t.patch(render, "matrix_to_svg", "render.matrix_to_svg")
    t.patch(render, "matrix_to_csv", "render.matrix_to_csv")
    t.patch(evalmod, "read_passages_jsonl", "eval.read_passages_jsonl")
    t.patch(evalmod, "correlate", "eval.correlate")
    t.patch(evalmod, "stability_scorer", "eval.score",
            wrap=lambda factory: functools.wraps(factory)(
                lambda *a, **kw: t.traced("eval.score", factory(*a, **kw))))
