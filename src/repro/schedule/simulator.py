"""Event-driven execution simulator.

Replays a schedule as a discrete-event simulation: tasks *start* and
*finish* at their recorded times while the simulator tracks the running
set, free processors and precedence readiness.  It is an independent
re-implementation of feasibility (distinct from the sweep in
:mod:`repro.schedule.validator`) used to cross-check the validator and to
produce execution traces for the examples.

Events are drained from a binary heap keyed ``(time, kind, seq)``:
finishes (kind 0) before starts (kind 1) at equal times — so a successor
may begin exactly when its predecessor completes — and the insertion
sequence number keeps full ties in entry order, matching the stable sort
the trace format was defined with.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

from ..core.instance import Instance
from .schedule import Schedule

__all__ = ["SimulationEvent", "SimulationTrace", "simulate"]

_TOL = 1e-6


@dataclass(frozen=True)
class SimulationEvent:
    """One event in the execution trace."""

    time: float
    kind: str  #: "start" or "finish"
    task: int
    free_after: int  #: free processors immediately after the event


@dataclass(frozen=True)
class SimulationTrace:
    """Full event trace of a simulated schedule execution."""

    events: Tuple[SimulationEvent, ...]
    makespan: float
    peak_busy: int

    def starts(self) -> List[SimulationEvent]:
        """All start events, in time order."""
        return [e for e in self.events if e.kind == "start"]


def simulate(instance: Instance, schedule: Schedule) -> SimulationTrace:
    """Execute ``schedule`` event by event; raise ``RuntimeError`` on any
    violation (capacity, precedence, duration mismatch)."""
    m = instance.m
    scale = 1.0 + schedule.makespan
    # Event heap: (time, kind, seq) with finishes (0) before starts (1) at
    # equal times, and the insertion sequence breaking exact ties stably.
    heap: List[Tuple[float, int, int, str, int]] = []
    seq = 0
    for e in schedule.entries:
        expected = instance.time(e.task, e.processors)
        if abs(expected - e.duration) > _TOL * scale:
            raise RuntimeError(
                f"task {e.task} duration {e.duration} != profile time "
                f"{expected} on {e.processors} processors"
            )
        heapq.heappush(heap, (e.start, 1, seq, "start", e.task))
        heapq.heappush(heap, (e.end, 0, seq + 1, "finish", e.task))
        seq += 2

    free = m
    finished = set()
    running = set()
    peak = 0
    events: List[SimulationEvent] = []
    while heap:
        time, _order, _seq, kind, task = heapq.heappop(heap)
        entry = schedule[task]
        if kind == "start":
            for p in instance.dag.predecessors(task):
                if p not in finished and not (
                    p in schedule and schedule[p].end <= time + _TOL * scale
                ):
                    raise RuntimeError(
                        f"task {task} starts at {time} before predecessor "
                        f"{p} finished"
                    )
            if entry.processors > free + _TOL:
                raise RuntimeError(
                    f"task {task} needs {entry.processors} processors at "
                    f"t={time} but only {free} are free"
                )
            free -= entry.processors
            running.add(task)
            peak = max(peak, m - free)
        else:
            running.discard(task)
            finished.add(task)
            free += entry.processors
        events.append(
            SimulationEvent(time=time, kind=kind, task=task, free_after=free)
        )
    return SimulationTrace(
        events=tuple(events), makespan=schedule.makespan, peak_busy=peak
    )
