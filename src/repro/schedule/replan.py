"""Replanning: diff schedules across an evolution, disturb few tasks.

When an instance evolves mid-execution (:mod:`repro.core.evolve`), a
fresh solve of the child answers "what is the best schedule now?" but
ignores a cost the cold objective cannot see: every task whose start
time moves is a *disturbance* — queued data movement, re-issued
reservations, operator confusion.  This module supplies the two halves
of replan mode:

* :func:`diff_schedules` — the disturbance report.  Maps the old
  schedule through the delta's ``node_map`` and classifies every task as
  unchanged / moved / resized / added / removed, with the summed and
  maximal start shifts as the headline metric (the ``disturbance``
  block of the service's ``POST /replan`` response).
* :func:`replan_schedule` — the disturbance *minimizer*.  A
  precedence-correct list schedule of the child instance that (a)
  pre-reserves every completed task at its frozen start — running work
  is never moved — and (b) breaks ties among ready tasks toward their
  old start order instead of task id, so tasks keep their former slots
  whenever the mutation leaves them feasible.

The replanned schedule is feasible by construction (same reserve/ready
machinery as the LIST scheduler, validated in the test suite), or
refused with :class:`FrozenStartConflict` when a frozen start conflicts
with the rest of it, and deliberately trades makespan for stability; the
pipeline's :class:`~repro.pipeline.incremental.ReplanSession` reports
both it and the free re-solve so callers can choose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .schedule import Schedule, ScheduledTask
from .timeline import ResourceTimeline
from .validator import validate_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle (core imports schedule)
    from ..core.instance import Instance

__all__ = [
    "FrozenStartConflict",
    "ScheduleDiff",
    "diff_schedules",
    "replan_schedule",
]

#: Start shifts at or below this are considered "unchanged" — kept
#: equal to ``repro.core.list_scheduler._SELECT_TOL`` (asserted in the
#: test suite), the tolerance the selection scan of LIST uses for tied
#: starts.  A literal here because :mod:`repro.core` imports this
#: package during its own initialization.
_SHIFT_TOL = 1e-12
_SELECT_TOL = _SHIFT_TOL


class FrozenStartConflict(ValueError):
    """The completed tasks' frozen starts cannot all be kept: an anchored
    replan refuses the evolution rather than return an infeasible
    schedule."""


@dataclass(frozen=True)
class ScheduleDiff:
    """Per-task disturbance classification between two schedules.

    All task ids are in the **new** schedule's id space except
    ``removed`` (tasks with no image under the node map, reported with
    their old ids).  ``moved`` holds ``(task, old_start, new_start)``
    for start shifts beyond tolerance; ``resized`` holds
    ``(task, old_processors, new_processors)`` for allotment changes.
    A task can appear in both.
    """

    moved: Tuple[Tuple[int, float, float], ...]
    resized: Tuple[Tuple[int, int, int], ...]
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    n_unchanged: int

    @property
    def n_disturbed(self) -> int:
        """Number of surviving tasks whose start or allotment changed."""
        return len({t for (t, _o, _n) in self.moved}
                   | {t for (t, _o, _n) in self.resized})

    @property
    def total_shift(self) -> float:
        """Summed ``|new_start - old_start|`` over moved tasks."""
        return sum(abs(n - o) for (_t, o, n) in self.moved)

    @property
    def max_shift(self) -> float:
        """Largest single start shift (0 when nothing moved)."""
        return max((abs(n - o) for (_t, o, n) in self.moved), default=0.0)

    def summary(self) -> Dict[str, object]:
        """JSON-compatible digest (the replan response's
        ``disturbance`` block)."""
        return {
            "n_disturbed": self.n_disturbed,
            "n_unchanged": self.n_unchanged,
            "n_added": len(self.added),
            "n_removed": len(self.removed),
            "total_shift": self.total_shift,
            "max_shift": self.max_shift,
            "moved": [
                {"task": t, "old_start": o, "new_start": n}
                for (t, o, n) in self.moved
            ],
            "resized": [
                {"task": t, "old_processors": o, "new_processors": n}
                for (t, o, n) in self.resized
            ],
        }


def diff_schedules(
    old: Schedule,
    new: Schedule,
    node_map: Optional[Sequence[int]] = None,
) -> ScheduleDiff:
    """Classify every task's fate between ``old`` and ``new``.

    ``node_map`` is the evolution's old→new id map
    (:attr:`repro.core.evolve.InstanceDelta.node_map`); omit it when
    both schedules share one id space (a pure re-solve).
    """
    old_by_new_id: Dict[int, ScheduledTask] = {}
    removed: List[int] = []
    for e in old.entries:
        mapped = e.task if node_map is None else int(node_map[e.task])
        if mapped < 0:
            removed.append(e.task)
        else:
            old_by_new_id[mapped] = e
    moved: List[Tuple[int, float, float]] = []
    resized: List[Tuple[int, int, int]] = []
    added: List[int] = []
    n_unchanged = 0
    for e in new.entries:
        prev = old_by_new_id.get(e.task)
        if prev is None:
            added.append(e.task)
            continue
        disturbed = False
        if abs(e.start - prev.start) > _SHIFT_TOL:
            moved.append((e.task, prev.start, e.start))
            disturbed = True
        if e.processors != prev.processors:
            resized.append((e.task, prev.processors, e.processors))
            disturbed = True
        if not disturbed:
            n_unchanged += 1
    return ScheduleDiff(
        moved=tuple(moved),
        resized=tuple(resized),
        added=tuple(sorted(added)),
        removed=tuple(sorted(removed)),
        n_unchanged=n_unchanged,
    )


def replan_schedule(
    instance: Instance,
    allotment: Sequence[int],
    previous: Schedule,
    *,
    node_map: Optional[Sequence[int]] = None,
    completed: Optional[Mapping[int, float]] = None,
    mu: Optional[int] = None,
) -> Schedule:
    """List-schedule ``instance`` anchored to a previous schedule.

    Two changes against plain LIST:

    * tasks in ``completed`` (new-space id → frozen start) are placed
      *first*, at exactly their frozen starts with their previous
      allotment — running work never moves; their reservations constrain
      everything scheduled after them;
    * among ready tasks, selection prefers the one that ran **earliest
      in the previous schedule** (new tasks sort last, by id), and each
      task's earliest start is probed from its old start first — a task
      whose former slot is still feasible keeps it.

    Precedence and capacity feasibility are enforced exactly as in
    LIST, so the result is validator-clean; the price of stability is
    paid in makespan, never in feasibility.  Frozen starts are taken as
    given, so a conflict with them — frozen tasks that together exceed
    ``m``, or a frozen task whose predecessor completes after its start
    — raises :class:`FrozenStartConflict` instead of returning an
    infeasible schedule: the message names the frozen task that
    overflows the machine, or else the result's
    :func:`~repro.schedule.validator.validate_schedule` violations
    (naming both tasks of a broken arc).
    """
    from ..core.list_scheduler import _checked_cap, capped_allotment

    instance.validate_allotment(allotment)
    m = instance.m
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))
    completed = dict(completed or {})

    # Old starts/allotments mapped into the new id space.
    old_start: Dict[int, float] = {}
    old_alloc: Dict[int, int] = {}
    for e in previous.entries:
        mapped = e.task if node_map is None else int(node_map[e.task])
        if mapped >= 0:
            old_start[mapped] = e.start
            old_alloc[mapped] = e.processors

    dag = instance.dag
    n = instance.n_tasks
    timeline = ResourceTimeline(m)
    completion = [0.0] * n
    entries: List[ScheduledTask] = []
    scheduled = [False] * n

    # Anchor completed tasks first: frozen start, previous allotment
    # (they are already running — the new allotment cannot apply).
    for j in sorted(completed):
        if not (0 <= j < n):
            raise ValueError(f"completed task {j} not in instance")
        start = float(completed[j])
        procs = old_alloc.get(j, alloc[j])
        dur = instance.time(j, procs)
        try:
            timeline.reserve(start, start + dur, procs)
        except ValueError as exc:
            raise FrozenStartConflict(
                f"completed task {j} frozen at {start}: {exc}"
            ) from None
        completion[j] = start + dur
        entries.append(
            ScheduledTask(task=j, start=start, processors=procs, duration=dur)
        )
        scheduled[j] = True

    INF = float("inf")

    def anchor_key(j: int) -> Tuple[float, int]:
        return (old_start.get(j, INF), j)

    remaining_preds = [
        sum(1 for p in dag.predecessors(j) if not scheduled[p])
        for j in range(n)
    ]
    ready = sorted(
        (j for j in range(n) if not scheduled[j] and remaining_preds[j] == 0),
        key=anchor_key,
    )
    dur = instance.times[
        np.arange(n), np.asarray(alloc, dtype=np.intp) - 1
    ].tolist()

    def earliest(j: int) -> float:
        ready_at = max(
            (completion[p] for p in dag.predecessors(j)), default=0.0
        )
        # Probe from the old start when it is still precedence-feasible:
        # if the former slot is free the task keeps it exactly.
        if ready_at <= old_start.get(j, -1.0):
            ready_at = old_start[j]
        return timeline.earliest_start(ready_at, dur[j], alloc[j])

    est = {j: earliest(j) for j in ready}
    n_left = n - len(entries)
    while n_left:
        if not ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        # Anchor-ordered selection: the ready task that ran earliest in
        # the previous schedule wins unless another ready task could
        # start strictly earlier than it *and* before its old slot —
        # then stability would create idle capacity for no benefit, so
        # the earliest-start task goes first (classic LIST tie-break).
        best_i, best_t = 0, est[ready[0]]
        for i, j in enumerate(ready[1:], start=1):
            if est[j] < best_t - _SELECT_TOL and est[j] < old_start.get(
                ready[best_i], INF
            ) - _SELECT_TOL:
                best_i, best_t = i, est[j]
        j = ready.pop(best_i)
        start = est.pop(j)
        end = start + dur[j]
        timeline.reserve(start, end, alloc[j])
        completion[j] = end
        entries.append(
            ScheduledTask(
                task=j, start=start, processors=alloc[j], duration=dur[j]
            )
        )
        scheduled[j] = True
        n_left -= 1
        for k in ready:
            t = est[k]
            if t < end and t + dur[k] > start:
                est[k] = timeline.earliest_start(t, dur[k], alloc[k])
        for s in dag.successors(j):
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0 and not scheduled[s]:
                est[s] = earliest(s)
                ready.append(s)
                ready.sort(key=anchor_key)

    schedule = Schedule(m, entries)
    # A frozen start never moves, so a predecessor list-scheduled (or
    # frozen) to complete after it leaves the anchored schedule
    # infeasible.
    bad = validate_schedule(instance, schedule)
    if bad:
        raise FrozenStartConflict("; ".join(bad))
    return schedule
