"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its name, its layer, the index
of the span that was open when it started (its parent), its start and
end on the tracer's clock, and a work count computed from the call's
arguments.  Spans stay in a list until the caller writes them out.

``instrument`` swaps wrappers into modules and classes and returns an
undo list; ``restore`` puts every original attribute back.  Besides the
attribute that defines a function, every module attribute that holds the
same object is swapped too (names one module imported from another), as
are module-level tuples that hold it, such as a registry of callables.

A layer's self time is the time its spans cover minus the time covered
by the spans of other layers nested inside them.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

# span record layout: [name, layer, parent index or -1, start, end, count]
SPAN_FIELDS = ("name", "layer", "parent", "start", "end", "count")


class Tracer:
    """Collects spans from the wrappers it makes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str, counter=None):
        """Return a wrapper of ``fn`` that records one span per call.

        ``counter``, when given, is called with the same arguments as
        ``fn`` and returns the work count stored in the span.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(*args, **kwargs) if counter is not None else 0
            span = [name, layer, stack[-1] if stack else -1, clock(), None, count]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON: the field names and one list per span."""
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
            fh.write("\n")


@dataclass
class Target:
    """One attribute to wrap: ``owner.attr`` belongs to ``layer``."""

    owner: object
    attr: str
    layer: str
    name: str
    counter: object = None


def instrument(tracer: Tracer, targets, modules) -> list:
    """Swap traced wrappers in for every target; return the undo list.

    ``modules`` are swept for other names bound to a target's function
    and for tuples holding one.  Call :func:`restore` with the returned
    list, also when the traced code raised.
    """
    undo = []
    swapped = {}  # id(original) -> (original, wrapper)
    try:
        for t in targets:
            raw = vars(t.owner)[t.attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(tracer.wrap(raw.__func__, t.layer, t.name, t.counter))
            else:
                wrapper = tracer.wrap(raw, t.layer, t.name, t.counter)
                swapped[id(raw)] = (raw, wrapper)
            undo.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, wrapper)

        def replacement(value):
            hit = swapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module in modules:
            for attr, value in list(vars(module).items()):
                new = replacement(value)
                if new is None and isinstance(value, tuple):
                    if any(replacement(v) is not None for v in value):
                        new = tuple(replacement(v) or v for v in value)
                if new is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo) -> None:
    """Put back every attribute that :func:`instrument` replaced."""
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


@dataclass
class Summary:
    """Per-function and per-layer totals of a list of spans.

    ``inclusive`` is the summed span time; ``exclusive`` subtracts the
    time of each span's direct children.  ``outermost`` counts spans
    whose parent belongs to another layer (or that have none), so a
    call that re-enters its own layer is counted once.
    """

    calls: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    inclusive: dict = field(default_factory=dict)
    exclusive: dict = field(default_factory=dict)
    layer_self: dict = field(default_factory=dict)
    layer_outermost: dict = field(default_factory=dict)
    outermost: dict = field(default_factory=dict)


def summarize(spans) -> Summary:
    """Aggregate spans by function name and by layer."""
    child_time = [0.0] * len(spans)
    for name, layer, parent, start, end, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    s = Summary()
    for i, (name, layer, parent, start, end, count) in enumerate(spans):
        own = (end - start) - child_time[i]
        s.calls[name] = s.calls.get(name, 0) + 1
        s.counts[name] = s.counts.get(name, 0) + count
        s.inclusive[name] = s.inclusive.get(name, 0.0) + (end - start)
        s.exclusive[name] = s.exclusive.get(name, 0.0) + own
        s.layer_self[layer] = s.layer_self.get(layer, 0.0) + own
        if parent < 0 or spans[parent][1] != layer:
            s.layer_outermost[layer] = s.layer_outermost.get(layer, 0) + 1
            s.outermost[name] = s.outermost.get(name, 0) + 1
    return s
