"""In-memory span recorder that times auvgeom's layers from outside.

A boundary is a module attribute.  The tracer replaces the function that
a module looks up by name with a wrapper that records one span per call
(name, start, end, parent span, thread id, and an optional summary of
the call's result), and puts the original back on ``close``.  Wrapping
happens at the calling module because a module that did
``from .estimation import estimate_trials`` holds its own reference to
the function: patching ``auvgeom.estimation`` would miss those calls.

Each thread keeps its own stack of open spans, so a span's parent is the
innermost span open in the same thread.  Spans started by the sweep
executor's worker threads therefore nest under their own cell, never
under whatever the other worker happens to be running.  Spans stay in a
list until ``dump`` writes them out.
"""

from __future__ import annotations

import collections
import itertools
import json
import threading
import time
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ticks: dict[str, list] = {}
        self.missing: set[str] = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, module: object, attr: str, name: str, make: Callable) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(name)
            return
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        info: Callable[[tuple, Any], Any] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of module.attr.

        ``info(args, result)`` summarises a call that returned; it runs
        after the span's end time is taken.
        """

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1][0] if stack else None
                stack.append((sid, name))
                result = done = None
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    done = True
                    return result
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    summary = info(args, result) if (info and done) else None
                    self.spans.append(
                        Span(sid, name, start, end, parent, threading.get_ident(), summary)
                    )

            return traced

        self._patch(module, attr, name, make)

    def count(self, module: object, attr: str, key: str, within: str) -> None:
        """Count calls of module.attr made directly inside a ``within`` span."""
        # list.append is atomic, so worker threads need no lock
        tick = self._ticks.setdefault(key, [])
        local = self._local

        def make(original: Callable) -> Callable:
            def counted(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack and stack[-1][1] == within:
                    tick.append(None)
                return original(*args, **kwargs)

            return counted

        self._patch(module, attr, key, make)

    def counted(self, key: str) -> int:
        """Calls counted under key so far."""
        return len(self._ticks.get(key, ()))

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def dump(self, path: str, header: dict) -> None:
        """Write the header and one JSON line per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_time(span: Span, children: list[Span], names: set[str] | None = None) -> float:
    """Span duration minus the part of it covered by (the named) children."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        if names is not None and c.name not in names:
            continue
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def nesting_problems(spans: list[Span]) -> list[str]:
    """Children that leave their parent's interval or thread."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.id} ({s.name}) has no recorded parent {s.parent}")
        elif p.thread != s.thread or s.start < p.start or s.end > p.end:
            problems.append(f"span {s.id} ({s.name}) escapes parent {p.id} ({p.name})")
    return problems
