"""Naive baseline allotments.

Sanity anchors for the empirical benchmarks: any reasonable malleable
scheduler should beat these on workloads with real parallelism structure,
and the *shapes* of where each wins are predictable:

* ``sequential`` — every task on one processor, then Graham list
  scheduling.  Minimizes total work but ignores the critical path; wins
  only when the DAG is wide and flat.
* ``full`` — every task on all ``m`` processors; tasks execute one after
  another.  Minimizes the critical path but maximizes work; wins only on
  chain-like DAGs.
* ``greedy-critical-path`` — a non-LP heuristic
  (:func:`greedy_critical_path_allotment`): start from the all-ones
  allotment and greedily accelerate the task on the current critical
  path with the best time-saved-per-work-added ratio, while the bound
  ``max(L, W/m)`` keeps improving; then list schedule.  A decent
  practical straw man that needs no LP.

Each is a registered allotment strategy of
:mod:`repro.pipeline.strategies`; run one with
``repro.solve(instance, "sequential")`` (or ``"full"``, ``"greedy"``).
"""

from __future__ import annotations

from typing import List

from ..core.instance import Instance

__all__ = ["greedy_critical_path_allotment"]


def greedy_critical_path_allotment(
    instance: Instance, max_iterations: int = 100000
) -> List[int]:
    """Greedy allotment: repeatedly speed up the best critical-path task.

    Starts from ``l_j = 1`` and, while it improves the scheduling bound
    ``max(L(α), W(α)/m)``, increments the allotment of the critical-path
    task with the largest time decrease per unit of work increase.
    """
    n = instance.n_tasks
    m = instance.m
    alloc = [1] * n

    def bound(a: List[int]) -> float:
        L = instance.critical_path_for_allotment(a)
        W = instance.total_work_for_allotment(a)
        return max(L, W / m)

    current = bound(alloc)
    for _ in range(max_iterations):
        weights = [instance.task(j).time(alloc[j]) for j in range(n)]
        path = instance.dag.longest_path(weights)
        best_j, best_gain = -1, 0.0
        for j in path:
            if alloc[j] >= m:
                continue
            t = instance.task(j)
            dt = t.time(alloc[j]) - t.time(alloc[j] + 1)
            dw = t.work(alloc[j] + 1) - t.work(alloc[j])
            gain = dt / (dw + 1e-12)
            if dt > 0 and gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0:
            break
        alloc[best_j] += 1
        new = bound(alloc)
        if new >= current - 1e-12:
            alloc[best_j] -= 1  # revert the non-improving move and stop
            break
        current = new
    return alloc
