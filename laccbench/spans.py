"""In-memory span recording for the traced benchmark run.

Spans are opened by wrappers that the benchmark installs around the public
functions of each layer; nothing inside the program is instrumented.  A span
is a list ``[name, start, end, parent]`` where *parent* is the index of the
enclosing span in :attr:`Recorder.spans` (``-1`` for a root).  A span's
*self time* is its duration minus the durations of its direct children, so
the self times of a tree add up to the duration of its root.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


class Recorder:
    """Collects spans and additive counters from wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Open a span around the body (the benchmark's own root spans)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """*fn* wrapped in a span called *name*.

        ``count(*args, **kwargs)`` may return counters to accumulate; it
        runs after the span is closed, so its cost lands in the caller's
        self time, never in *name*'s.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    self.counters[key] += value
            return out

        return wrapper

    def graft(self, name: str, start: float, end: float) -> None:
        """Insert a span recorded elsewhere (on the same clock).

        Its parent is the innermost recorded span containing it, and that
        parent's children lying inside ``[start, end]`` move under it.
        """
        parent = -1
        for i, (_, s0, s1, _) in enumerate(self.spans):
            if s0 <= start and end <= s1 and (parent < 0 or s0 >= self.spans[parent][1]):
                parent = i
        idx = len(self.spans)
        for span in self.spans:
            if span[3] == parent and start <= span[1] and span[2] <= end:
                span[3] = idx
        self.spans.append([name, start, end, parent])


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    for _, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return dict(out)


def durations(spans: Sequence[Sequence], name: str) -> List[float]:
    """Durations of every span called *name*, in recording order."""
    return [end - start for n, start, end, _ in spans if n == name]


def counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    """Number of spans per name."""
    out: Dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[0]] += 1
    return dict(out)


@contextlib.contextmanager
def patched(targets: Sequence[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Swap ``owner.attr`` for each ``(owner, attr, replacement)`` and put
    the originals back on exit, even when the body raises.

    Owners are modules, classes or instances.  An attribute that lived on
    the class rather than the instance is removed again instead of being
    pinned to the instance.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
