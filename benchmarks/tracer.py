"""In-memory span tracer that wraps dtslab module attributes at run time.

The traced run replaces public functions of the dtslab modules with
wrappers that record one span per call: name, start, end, parent span,
thread id and a computed work count.  No file of the package changes: the
wrappers are swapped into every loaded ``dtslab.*`` module namespace that
binds the original object, so calls made through module globals
(``rng_mod.uniform_block``, ``fock.expm``) and through names imported with
``from ... import`` are both intercepted.

Spans are appended to a list from any thread (``list.append`` is atomic
under the interpreter lock) and aggregated only after the traced pass.
A layer's self time is its span durations minus the direct child spans
recorded on the same thread, so the time a caller spends waiting for
worker threads stays in the caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    count: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        # span that work on a thread without open spans is attributed to:
        # the CLI operation that submitted it to a worker pool
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, count=None):
        """Return `fn` wrapped so each call records a span named `name`.

        `count(args, kwargs, result)` gives the span's computed work count.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count)

        return wrapper

    def _call(self, name, fn, args, kwargs, count, root=False):
        stack = self._stack()
        parent = None if root else (stack[-1] if stack else self.root)
        span_id = next(self._ids)
        if root:
            self.root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
        n = count(args, kwargs, result) if count is not None else 0
        self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), n))
        return result

    def patch(self, module_name: str, attr: str, name: str, count=None, wrap=None) -> None:
        """Replace `module_name.attr` by a traced wrapper everywhere dtslab binds it.

        `wrap(fn)` may adapt the function before the span is added (used to
        trace a callback argument).  An attribute that does not exist in this
        version of the package is skipped, and its layer reports 0.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        inner = wrap(original) if wrap is not None else original
        traced = self.span(name, inner, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dtslab" or mod_name.startswith("dtslab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, traced)

    def unpatch(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def run_root(self, name: str, fn, *args):
        """Call `fn(*args)` as a root span that worker-thread spans attach to."""
        return self._call(name, fn, args, {}, None, root=True)

    def self_times(self) -> dict[int, float]:
        child_time: dict[int, float] = {}
        thread_of = {s.span_id: s.thread for s in self.spans}
        for s in self.spans:
            if s.parent is not None and thread_of.get(s.parent) == s.thread:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        return {s.span_id: (s.end - s.start) - child_time.get(s.span_id, 0.0) for s in self.spans}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time, summed duration, summed count."""
        self_time = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
            row["calls"] += 1
            row["self_s"] += self_time[s.span_id]
            row["total_s"] += s.end - s.start
            row["count"] += s.count
        return out

