"""Priority variants of the phase-2 list scheduler.

The paper's LIST (Table 1) picks, among ready tasks, the one with the
*smallest earliest possible starting time* — the choice its analysis
needs.  Classic list scheduling admits other priority rules; this module
implements them behind one interface so the ablation benchmark can ask
whether the paper's rule costs anything empirically:

* ``"earliest-start"`` — the paper's rule (delegates to
  :func:`repro.core.list_scheduler.list_schedule`);
* ``"critical-path"`` — prefer the ready task with the longest remaining
  path (bottom level), the classic CP/HLF rule;
* ``"longest-processing-time"`` — prefer the ready task with the largest
  capped duration (LPT);
* ``"widest"`` — prefer the ready task with the largest allotment
  (packs big rectangles first);
* ``"fifo"`` — smallest task id first (arbitrary but deterministic).

Every variant schedules the chosen task at its earliest feasible start,
so all of them produce feasible schedules; only ``"earliest-start"``
carries the paper's worst-case guarantee.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..schedule import ResourceTimeline, Schedule, ScheduledTask
from .instance import Instance
from .list_scheduler import _checked_cap, capped_allotment, list_schedule

__all__ = ["PRIORITY_RULES", "bottom_levels", "list_schedule_with_priority"]

PRIORITY_RULES = (
    "earliest-start",
    "critical-path",
    "longest-processing-time",
    "widest",
    "fifo",
)


def bottom_levels(
    instance: Instance, durations: Sequence[float]
) -> Tuple[float, ...]:
    """Longest remaining-path length starting at each task (inclusive).

    Runs as the CSR array kernel
    (:func:`repro.dag.csr.bottom_levels_kernel`);
    :func:`_bottom_levels_reference` is the per-node transcription the
    property suite pins the kernel against.
    """
    from ..dag.csr import bottom_levels_kernel

    return tuple(
        bottom_levels_kernel(instance.dag.to_csr(), durations).tolist()
    )


def _bottom_levels_reference(
    instance: Instance, durations: Sequence[float]
) -> List[float]:
    """Per-node Python reference for :func:`bottom_levels`."""
    dag = instance.dag
    level = [0.0] * instance.n_tasks
    for v in reversed(dag.topological_order()):
        succ = max((level[s] for s in dag.successors(v)), default=0.0)
        level[v] = durations[v] + succ
    return level


def list_schedule_with_priority(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
    priority: str = "earliest-start",
) -> Schedule:
    """List scheduling with a selectable priority rule (see module doc)."""
    if priority not in PRIORITY_RULES:
        raise ValueError(
            f"unknown priority {priority!r}; known: {PRIORITY_RULES}"
        )
    if priority == "earliest-start":
        return list_schedule(instance, allotment, mu=mu)

    instance.validate_allotment(allotment)
    m = instance.m
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))
    durations = instance.times[
        np.arange(instance.n_tasks), np.asarray(alloc, dtype=np.intp) - 1
    ].tolist()

    if priority == "critical-path":
        levels = bottom_levels(instance, durations)

        def rank(j: int) -> tuple:
            return (-levels[j], j)

    elif priority == "longest-processing-time":

        def rank(j: int) -> tuple:
            return (-durations[j], j)

    elif priority == "widest":

        def rank(j: int) -> tuple:
            return (-alloc[j], j)

    else:  # fifo

        def rank(j: int) -> tuple:
            return (j,)

    dag = instance.dag
    n = instance.n_tasks
    timeline = ResourceTimeline(m)
    completion = [0.0] * n
    remaining_preds = [dag.in_degree(j) for j in range(n)]
    ready = {j for j in range(n) if remaining_preds[j] == 0}
    entries: List[ScheduledTask] = []

    while len(entries) < n:
        if not ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("deadlock in priority list scheduling")
        j = min(ready, key=rank)
        ready_at = max(
            (completion[p] for p in dag.predecessors(j)), default=0.0
        )
        start = timeline.earliest_start(ready_at, durations[j], alloc[j])
        timeline.reserve(start, start + durations[j], alloc[j])
        completion[j] = start + durations[j]
        entries.append(
            ScheduledTask(
                task=j,
                start=start,
                processors=alloc[j],
                duration=durations[j],
            )
        )
        ready.discard(j)
        for s in dag.successors(j):
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0:
                ready.add(s)

    return Schedule(m, entries)
