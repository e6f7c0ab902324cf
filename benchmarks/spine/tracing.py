"""In-memory spans recorded by wrappers this benchmark installs.

No file under ``src/`` knows about these spans: a :class:`Recorder`
replaces public callables of the program's classes with timing
wrappers, keeps ``(id, parent, name, start, end, attrs)`` tuples in a
list, and writes them out when the traced process exits. ``parent`` is
the enclosing span on the same thread (0 for a root), which is what
self-time needs: a span's duration minus its children's.

Times are ``time.perf_counter()``, which on Linux is the system-wide
monotonic clock, so spans of the server child and of the load generator
share one time base.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Recorder:
    """Collects spans from every wrapper it has installed."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: (start, end) of every outermost exclusive engine-lock hold.
        #: Kept apart from ``spans``: a hold overlays the call tree
        #: instead of nesting in it, and must not eat its parent's self
        #: time.
        self.write_holds: List[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        annotate: Optional[Callable] = None,
        prepare: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is a class or a module. ``prepare(args)`` runs before
        the call and ``annotate(args, result, prepared)`` after it;
        the dict ``annotate`` returns becomes the span's attrs.
        """
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            timed = classmethod(
                self._timed(raw.__func__, name, annotate, prepare)
            )
        else:
            timed = self._timed(raw, name, annotate, prepare)
        setattr(owner, attribute, timed)

    def _timed(self, function, name, annotate, prepare):
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            prepared = prepare(args) if prepare is not None else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, {"error": True}))
                raise
            end = perf_counter()
            stack.pop()
            attrs = (
                annotate(args, result, prepared) if annotate is not None else None
            )
            spans.append((span_id, parent, name, start, end, attrs))
            return result

        return timed

    def wrap_write_lock(self, lock_class) -> None:
        """Record how long each thread holds ``lock_class`` exclusively
        (outermost acquire to matching release; the lock is reentrant)."""
        acquire, release = lock_class.acquire_write, lock_class.release_write
        holds, local = self.write_holds, self._local

        @functools.wraps(acquire)
        def acquire_write(lock):
            acquire(lock)
            held = getattr(local, "held", None)
            if held is None:
                held = local.held = {}
            entry = held.get(id(lock))
            if entry is None:
                held[id(lock)] = [1, perf_counter()]
            else:
                entry[0] += 1

        @functools.wraps(release)
        def release_write(lock):
            entry = local.held[id(lock)]
            entry[0] -= 1
            if entry[0] == 0:
                holds.append((entry[1], perf_counter()))
                del local.held[id(lock)]
            release(lock)

        lock_class.acquire_write = acquire_write
        lock_class.release_write = release_write

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "write_holds": self.write_holds}, handle
            )


def load(path: str) -> Dict[str, list]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
