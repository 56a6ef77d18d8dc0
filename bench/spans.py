"""In-memory span recorder for the traced repetition.

The benchmark records spans from its own files, around the calls into
each layer's public functions (`instrument`); nothing under ``src/``
changes.  Spans stay in memory until the repetition ends.  Parents come
from a thread-local stack, so a span's children run on its own thread
one after another and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: `instrument` re-binds a wrapped function in the loaded modules of this
#: package, the program under measurement.
PROGRAM_PACKAGE = "repro"


class Span:
    """One recorded call: a layer boundary crossed on one thread."""

    __slots__ = ("sid", "parent", "name", "layer", "thread", "start", "end",
                 "child_s", "nbytes")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 layer: str, thread: str, start: float) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.nbytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


class Recorder:
    """Collects the spans of one repetition (one id per repetition)."""

    def __init__(self, rep_id: str) -> None:
        self.rep_id = rep_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), stack[-1].sid if stack else None, name, layer,
            threading.current_thread().name, time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration
        self.spans.append(span)     # list.append is atomic under the GIL

    # -- queries ---------------------------------------------------------

    def within(self, start: float, end: float) -> "Recorder":
        """A view holding only the spans that lie inside [start, end]."""
        view = Recorder(self.rep_id)
        view.spans = [s for s in self.spans
                      if s.start >= start and s.end <= end]
        return view

    def select(self, layer: str, names: Optional[Iterable[str]] = None) -> List[Span]:
        wanted = None if names is None else set(names)
        return [s for s in self.spans
                if s.layer == layer and (wanted is None or s.name in wanted)]

    def self_seconds(self, layer: str, names: Optional[Iterable[str]] = None) -> float:
        return sum(s.self_s for s in self.select(layer, names))

    def seconds(self, layer: str, names: Optional[Iterable[str]] = None) -> float:
        return sum(s.duration for s in self.select(layer, names))

    def coverage(self, start: float, end: float) -> float:
        """Share of [start, end] covered by the union of all spans."""
        if end <= start:
            return 0.0
        covered, cursor = 0.0, start
        for lo, hi in sorted((max(s.start, start), min(s.end, end))
                             for s in self.spans):
            if hi <= cursor:
                continue
            covered += hi - max(lo, cursor)
            cursor = hi
        return covered / (end - start)

    def dump(self, path: str) -> None:
        """Write every span out; called once, after the repetition."""
        doc = {
            "rep_id": self.rep_id,
            "spans": [
                {"id": s.sid, "parent": s.parent, "name": s.name,
                 "layer": s.layer, "thread": s.thread, "start": s.start,
                 "end": s.end, "self_s": s.self_s, "nbytes": s.nbytes}
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str,
          nbytes: Optional[Callable[[Any], int]]) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = recorder.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
            if nbytes is not None:
                span.nbytes = int(nbytes(result))
            return result
        finally:
            recorder.end(span)

    return traced


def instrument(
    recorder: Recorder,
    obj: Any,
    attr: str,
    layer: str,
    name: Optional[str] = None,
    nbytes: Optional[Callable[[Any], int]] = None,
) -> None:
    """Record a span around every call of ``obj.attr``.

    *obj* is a module or a class.  Class and static methods keep their
    descriptor.  A module-level function is also re-bound in every
    loaded ``repro`` module that imported it by name (``from x import
    f``), because those callers hold their own reference.
    *nbytes* maps the call's result to a byte count kept on the span.
    """
    raw = vars(obj)[attr]
    label = name or attr
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(_wrap(recorder, raw.__func__, label, layer, nbytes))
        setattr(obj, attr, wrapped)
        return
    wrapped = _wrap(recorder, raw, label, layer, nbytes)
    setattr(obj, attr, wrapped)
    if isinstance(obj, type):
        return
    for mod_name, module in list(sys.modules.items()):
        if module is None or module is obj:
            continue
        if not (mod_name == PROGRAM_PACKAGE
                or mod_name.startswith(PROGRAM_PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapped)


def layer_totals(recorder: Recorder) -> Dict[str, float]:
    """Self seconds per layer (the traced run's summary line)."""
    totals: Dict[str, float] = {}
    for span in recorder.spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + span.self_s
    return totals
