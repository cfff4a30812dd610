"""Feasibility validation of schedules against an instance.

Checks the three feasibility conditions of Section 1:

1. **completeness & consistency** — every task appears exactly once, its
   allotment lies in ``[1, m]`` and its duration equals its profile time
   at that allotment;
2. **capacity** — at every instant the active processors sum to at most
   ``m`` (checked by an event sweep over start/end events);
3. **precedence** — ``C_i <= τ_j`` for every arc ``(i, j)``.

The validator returns a list of human-readable violations (empty = feasible)
and :func:`assert_feasible` raises on any.  Every scheduler in this
repository is validated in the test suite through this module, so a bug in
a scheduler cannot silently produce infeasible "schedules".
"""

from __future__ import annotations

from typing import List

from ..core.instance import Instance
from .schedule import Schedule

__all__ = ["validate_schedule", "assert_feasible", "InfeasibleScheduleError"]

_TOL = 1e-6


class InfeasibleScheduleError(AssertionError):
    """A schedule violates feasibility; message lists all violations."""


def validate_schedule(instance: Instance, schedule: Schedule) -> List[str]:
    """Return all feasibility violations (empty list = feasible)."""
    bad: List[str] = []
    n = instance.n_tasks
    scale = 1.0 + schedule.makespan

    # 1. completeness & per-task consistency ------------------------------
    seen = set()
    for e in schedule.entries:
        if not (0 <= e.task < n):
            bad.append(f"unknown task id {e.task}")
            continue
        seen.add(e.task)
        if not (1 <= e.processors <= instance.m):
            bad.append(
                f"task {e.task}: allotment {e.processors} outside "
                f"[1, {instance.m}]"
            )
            continue
        expected = instance.time(e.task, e.processors)
        if abs(e.duration - expected) > _TOL * scale:
            bad.append(
                f"task {e.task}: duration {e.duration} != "
                f"p({e.processors}) = {expected}"
            )
    missing = sorted(set(range(n)) - seen)
    if missing:
        bad.append(f"missing tasks {missing}")

    if schedule.m != instance.m:
        bad.append(
            f"schedule machine size {schedule.m} != instance m {instance.m}"
        )

    # 2. capacity (event sweep) -------------------------------------------
    events = []  # (time, delta); ends sort before starts at equal time
    for e in schedule.entries:
        events.append((e.start, 1, e.processors))
        events.append((e.end, 0, -e.processors))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    active = 0
    for t, _kind, delta in events:
        active += delta
        if active > instance.m:
            bad.append(
                f"capacity exceeded at t={t}: {active} > m={instance.m}"
            )
            break  # one witness is enough

    # 3. precedence ---------------------------------------------------------
    for (i, j) in instance.dag.edges:
        if i in schedule and j in schedule:
            ci = schedule[i].end
            tj = schedule[j].start
            if tj < ci - _TOL * scale:
                bad.append(
                    f"precedence ({i}, {j}) violated: task {j} starts at "
                    f"{tj} before task {i} completes at {ci}"
                )
    return bad


def assert_feasible(instance: Instance, schedule: Schedule) -> None:
    """Raise :class:`InfeasibleScheduleError` unless feasible."""
    bad = validate_schedule(instance, schedule)
    if bad:
        raise InfeasibleScheduleError(
            "infeasible schedule:\n  " + "\n  ".join(bad)
        )
