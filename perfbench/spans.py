"""In-memory span tracer driven from outside the program.

The benchmark never edits ``src/``: it times each layer by replacing a
public method on its class with a wrapper that records one span per call
and restoring the original afterwards (:meth:`SpanTracer.installed`).  A
span carries a name, a start, an end, its parent span and the id of the
request it belongs to.  Parents come from a per-thread stack; spans that
start on a thread with an empty stack (the serving tier's workers) attach
to the root span of their request id.

A layer's *self* time is its spans' durations minus the time their child
spans cover.  Every measured operation is one root span, so the self times
of all layers plus the roots' own self time (the ``residual``) add up to
the summed root durations exactly — the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid")

    def __init__(self, sid, name, start, end, parent, rid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "request": self.rid,
        }


#: name of the root span every measured operation (and every set-up) gets.
ROOT = "bench.op"
#: spans of the tracer's own bookkeeping hooks, so their cost is not
#: charged to whichever layer happens to enclose them.
HOOK = "bench.trace_hook"


class SpanTracer:
    """Records spans in memory; counters ride along in :attr:`counts`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # --------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[str]) -> None:
        """Tag spans started on this thread with request id ``rid``."""
        self._local.rid = rid

    def add_span(self, name, start, end, parent=None, rid=None) -> int:
        """Record a span timed elsewhere (e.g. a queue wait); returns its id."""
        sid = next(self._ids)
        self.spans.append(Span(sid, name, start, end, parent, rid))
        return sid

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def op(self, rid: str) -> Iterator[None]:
        """One measured operation: a root span and its request id."""
        self.set_request(rid)
        with self.span(ROOT):
            yield
        self.set_request(None)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, getattr(self._local, "rid", None))
            )

    def _wrapper(self, original: Callable, name: str, hook: Optional[Callable]):
        tracer = self
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # tracer.span() inlined: this runs on every blob get and load
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, getattr(local, "rid", None))
                )
            if hook is not None:
                with tracer.span(HOOK):
                    hook(tracer, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple]) -> Iterator["SpanTracer"]:
        """Wrap ``(owner, attribute, span_name[, hook])`` targets while open.

        ``hook(tracer, args, kwargs, result)`` runs after the call, in its
        own ``bench.trace_hook`` span, to record counts.
        """
        patched = []
        try:
            for target in targets:
                owner, attribute, name = target[:3]
                hook = target[3] if len(target) > 3 else None
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self._wrapper(original, name, hook))
                patched.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

    # --------------------------------------------------------- analysis

    def _parents(self) -> Dict[int, Optional[int]]:
        """Span id -> parent id; thread-orphaned spans join their request root."""
        roots = {s.rid: s.sid for s in self.spans if s.name == ROOT}
        return {
            s.sid: s.parent if s.parent is not None or s.name == ROOT
            else roots.get(s.rid)
            for s in self.spans
        }

    def select(self, keep: Callable[[Optional[str]], bool]) -> List[Span]:
        return [s for s in self.spans if keep(s.rid)]

    def breakdown(self, spans: List[Span]) -> "Breakdown":
        parents = self._parents()
        by_id = {s.sid: s for s in spans}
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            parent = parents.get(span.sid)
            if parent is not None:
                covered[parent] += span.duration
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        inclusive: Dict[str, float] = defaultdict(float)
        for span in spans:
            self_time[span.name] += span.duration - covered[span.sid]
            calls[span.name] += 1
            # inclusive time counts a span only when no ancestor shares its
            # name (a nested layout build would otherwise count twice)
            ancestor = parents.get(span.sid)
            nested = False
            while ancestor is not None and ancestor in by_id:
                if by_id[ancestor].name == span.name:
                    nested = True
                    break
                ancestor = parents.get(ancestor)
            if not nested:
                inclusive[span.name] += span.duration
        return Breakdown(dict(self_time), dict(inclusive), dict(calls))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (the end-of-run trace file)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


class Breakdown:
    """Self time, inclusive time and call count per span name."""

    def __init__(self, self_time, inclusive, calls):
        self.self_time = self_time
        self.inclusive = inclusive
        self.calls = calls

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def inclusive_s(self, name: str) -> float:
        return self.inclusive.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    @property
    def wall_s(self) -> float:
        """Traced wall time: the summed durations of the root spans."""
        return self.inclusive_s(ROOT)

    @property
    def residual_s(self) -> float:
        return self.self_s(ROOT)

    def layers(self) -> Dict[str, float]:
        """Self seconds of every non-root span name."""
        return {k: v for k, v in self.self_time.items() if k != ROOT}
