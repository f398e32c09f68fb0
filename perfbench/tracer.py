"""In-memory span tracer that wraps library calls from the outside.

The traced run patches public functions and methods of ``repro`` for the
lifetime of a :class:`Tracer` context and restores them on exit; no
library code knows about it.  Each call records a span ``[name, start,
end, parent index, request id]`` into a plain list, so the cost per call
is two clock reads and a list append.  Self time is a span's duration
minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics

from harness import clock


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Records spans around wrapped callables; restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: request id stamped on spans opened while it is set (the
        #: workload loop sets it around a request's own client calls)
        self.rid = None

    # -- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, rid_of=None) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        ``owner`` is a class (the defining class in its MRO is patched,
        so subclasses are covered) or a module.  ``rid_of(args)``, when
        given, derives the span's request id from the call's arguments.
        """
        if isinstance(owner, type):
            owner = defining_class(owner, attr)
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._traced(raw.__func__, name, rid_of))
        else:
            patched = self._traced(raw, name, rid_of)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw))

    def _traced(self, fn, name: str, rid_of):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    rid_of(args) if rid_of is not None else tracer.rid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def span(self, name: str):
        """A span around a block of the workload's own code."""
        return _Block(self, name)

    def restore(self) -> None:
        """Undo every patch, ending the trace (safe to call twice)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time (duration minus direct children)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]

    def enclosing(self, index: int, names: frozenset) -> int:
        """Index of the nearest enclosing span named in ``names``, or -1."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return parent
            parent = self.spans[parent][3]
        return -1

    def self_per_pass(self, name: str, passes: frozenset,
                      own: list[float]) -> list[float]:
        """Summed self time of ``name`` spans inside each enclosing pass
        span (a span named in ``passes``) — e.g. conv time per stacked
        forward — one entry per pass that contains any."""
        totals: dict[int, float] = {}
        for index, span in enumerate(self.spans):
            if span[0] == name:
                top = self.enclosing(index, passes)
                if top >= 0:
                    totals[top] = totals.get(top, 0.0) + own[index]
        return list(totals.values())

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _Block:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.span = [self.name, 0.0, 0.0, stack[-1] if stack else -1,
                     tracer.rid]
        stack.append(len(tracer.spans))
        tracer.spans.append(self.span)
        self.span[1] = clock()
        return self

    def __exit__(self, *exc):
        self.span[2] = clock()
        self.tracer._stack.pop()


def median_ms(values) -> float:
    """Median of second-valued samples, in ms (0.0 for no samples: the
    layer does not run on this workload)."""
    return statistics.median(values) * 1e3 if values else 0.0

