"""An ambient span tracer with deterministic work counters.

Disarmed is the default and costs a single module-global read per
instrumentation point — the same discipline as an unarmed fault seam
(:attr:`repro.resilience.FaultClock.armed`).  Production code embeds::

    from ..obs import trace as obs_trace

    with obs_trace.span("phase2.list", n=instance.n):
        ...
        obs_trace.add("frontier_steps", steps)

``span()`` returns a shared no-op context manager when no tracer is
installed; ``add()`` is an attribute check and return.  Arm a tracer
with :func:`install` / the :func:`tracing` context manager::

    with obs_trace.tracing() as tr:
        pipeline.solve(inst)
    tr.to_chrome()            # Chrome/Perfetto trace-event JSON dict
    tr.counter_totals()       # {"lp_pivots": 412, "bsearch_probes": 7, ...}
    tr.deterministic_profile()  # wall-time-free; bit-identical per seed

Spans nest per thread (a stack in a ``threading.local``); completed
spans land in a bounded ring buffer, oldest dropped first.  Each span
carries wall-clock timing *and* a dict of deterministic work counters
(simplex pivots, bsearch probes, frontier steps, cache hits …), so a
trace is an exact regression artifact: for a single-threaded solve the
:meth:`Tracer.deterministic_profile` is bit-identical across runs with
the same seed, the same way ``FaultClock.fired()`` tallies are.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "active",
    "add",
    "install",
    "span",
    "tracing",
    "uninstall",
]


class Span:
    """One completed (or open) span."""

    __slots__ = ("name", "ts_us", "dur_us", "tid", "args", "counters")

    def __init__(self, name: str, ts_us: float, tid: int, args: Dict):
        self.name = name
        self.ts_us = ts_us
        self.dur_us = 0.0
        self.tid = tid
        self.args = args
        self.counters: Dict[str, int] = {}

    def event(self) -> Dict:
        """Chrome trace-event ("ph": "X" complete event)."""
        args = dict(self.args)
        args.update(self.counters)
        return {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(self.ts_us, 3),
            "dur": round(self.dur_us, 3),
            "pid": os.getpid(),
            "tid": self.tid,
            "args": args,
        }


class _NullSpan:
    """Reusable no-op context manager: the disarmed fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Ring buffer of spans plus loose (out-of-span) counters.

    Parameters
    ----------
    capacity:
        Ring size; once full the oldest completed span is dropped
        (``dropped`` counts how many).
    """

    def __init__(self, capacity: int = 8192):
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._ring_lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self.loose: Dict[str, int] = {}
        self.dropped = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        stack = self._stack()
        rec = Span(
            name,
            (time.perf_counter() - self._epoch) * 1e6,
            threading.get_ident(),
            args,
        )
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.dur_us = (
                (time.perf_counter() - self._epoch) * 1e6 - rec.ts_us
            )
            stack.pop()
            with self._ring_lock:
                if len(self._ring) == self.capacity:
                    self.dropped += 1
                self._ring.append(rec)

    def add(self, counter: str, n: int = 1) -> None:
        """Bump ``counter`` on the innermost open span of this thread
        (or the tracer-level ``loose`` dict outside any span)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            c = stack[-1].counters
            c[counter] = c.get(counter, 0) + n
        else:
            with self._ring_lock:
                self.loose[counter] = self.loose.get(counter, 0) + n

    def spans(self) -> List[Span]:
        with self._ring_lock:
            return list(self._ring)

    def counter_totals(self) -> Dict[str, int]:
        """Work counters summed over every recorded span (plus loose)."""
        totals: Dict[str, int] = {}
        for rec in self.spans():
            for key, n in rec.counters.items():
                totals[key] = totals.get(key, 0) + n
        with self._ring_lock:
            for key, n in self.loose.items():
                totals[key] = totals.get(key, 0) + n
        return dict(sorted(totals.items()))

    def deterministic_profile(self) -> List:
        """Wall-time-free view: ``[name, sorted counter items]`` per
        span in ring order, plus loose counters and the drop count.
        For single-threaded traces this is bit-identical across runs
        with the same seed (the regression-artifact contract)."""
        body = [
            [rec.name, sorted(rec.counters.items())] for rec in self.spans()
        ]
        with self._ring_lock:
            loose = sorted(self.loose.items())
        return [body, loose, self.dropped]

    def to_chrome(self) -> Dict:
        """Chrome/Perfetto trace-event JSON (the ``traceEvents`` dict
        form; load in ``chrome://tracing`` or https://ui.perfetto.dev)."""
        return {
            "traceEvents": [rec.event() for rec in self.spans()],
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.trace",
                "counter_totals": self.counter_totals(),
                "dropped_spans": self.dropped,
            },
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh, indent=1, sort_keys=True)
            fh.write("\n")


_lock = threading.Lock()
_active: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disarmed."""
    return _active


def install(tracer: Optional[Tracer] = None, capacity: int = 8192) -> Tracer:
    """Arm tracing process-wide; returns the live tracer."""
    global _active
    tr = tracer if tracer is not None else Tracer(capacity=capacity)
    with _lock:
        _active = tr
    return tr


def uninstall() -> None:
    """Disarm tracing."""
    global _active
    with _lock:
        _active = None


def span(name: str, **args: object):
    """Open a span on the active tracer; a shared no-op context
    manager when disarmed (one global read, no allocation)."""
    tr = _active
    if tr is None:
        return _NULL_SPAN
    return tr.span(name, **args)


def add(counter: str, n: int = 1) -> None:
    """Bump a deterministic work counter; no-op when disarmed."""
    tr = _active
    if tr is not None:
        tr.add(counter, n)


@contextlib.contextmanager
def tracing(
    tracer: Optional[Tracer] = None, capacity: int = 8192
) -> Iterator[Tracer]:
    """Context manager: arm for the block, restore the previous tracer
    after (nesting composes: an inner block hands the outer one's
    tracer back when it exits)."""
    global _active
    tr = tracer if tracer is not None else Tracer(capacity=capacity)
    with _lock:
        previous = _active
        _active = tr
    try:
        yield tr
    finally:
        with _lock:
            _active = previous
