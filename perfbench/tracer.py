"""In-memory span tracer with self-time and count accounting.

A span is opened around each call into a layer boundary.  A layer's
self time is the duration of its spans minus the part of that interval
covered by their child spans, so self times of all layers never sum
past the wall time of the traced region.  Counts (calls, simulated
events, bytes) are recorded only for the outermost span of a layer, so
a layer that re-enters itself is not counted twice.

Only the thread that created the tracer is traced: the workloads run
serially, and spans from another thread would overlap the owner's.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Spans and counters keyed by layer name (``"uarch.l1i"``, ...)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: Closed spans as ``(id, parent id or -1, layer, start, end)``.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # open spans: [id, layer, start, child_s]
        self._depth: Counter[str] = Counter()
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time the enclosed block as one span of *layer*."""
        span_id = len(self.spans) + len(self._stack)
        frame = [span_id, layer, self.clock(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self._depth[layer] -= 1
            duration = end - frame[2]
            self.self_seconds[layer] += duration - frame[3]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += duration
            self.spans.append(
                (span_id, parent[0] if parent else -1, layer, frame[2], end)
            )

    def traced(
        self,
        func: Callable,
        layer: str | Callable[..., str | None],
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """Wrap *func* so each call is a span of *layer*.

        *layer* is a name or a function of the call's arguments that
        returns one (``None`` leaves that call untraced).  Each outermost
        call adds one to ``<layer>.calls`` and then runs
        ``after(result, *args, **kwargs)``, which may add further counts.
        """

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer(*args, **kwargs) if callable(layer) else layer
            if name is None or threading.get_ident() != self._owner:
                return func(*args, **kwargs)
            outermost = self._depth[name] == 0
            with self.span(name):
                result = func(*args, **kwargs)
            if outermost:
                self.counts[f"{name}.calls"] += 1
                if after is not None:
                    after(result, *args, **kwargs)
            return result

        wrapper.perfbench_traced = True  # type: ignore[attr-defined]
        return wrapper

    def unattributed(self, wall_seconds: float) -> float:
        """Wall time of the traced region not covered by any span."""
        return wall_seconds - sum(self.self_seconds.values())
