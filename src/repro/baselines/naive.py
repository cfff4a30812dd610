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
from ..dag.csr import longest_path_kernel

__all__ = ["greedy_critical_path_allotment"]

#: Most allotment increments one greedy run makes (the "bound stops
#: improving" test usually stops it well before).
MAX_ITERATIONS = 100000


def greedy_critical_path_allotment(instance: Instance) -> List[int]:
    """Greedy allotment: repeatedly speed up the best critical-path task.

    Starts from ``l_j = 1`` and, while it improves the scheduling bound
    ``max(L(α), W(α)/m)``, increments the allotment of the critical-path
    task with the largest time decrease per unit of work increase.

    One longest-path pass per increment gives both the bound's ``L``
    and the next critical path (the same weights, so the same path),
    and only the incremented task's weight changes.  ``W`` is re-summed
    in task order, so every float matches a fresh evaluation.
    """
    n = instance.n_tasks
    m = instance.m
    csr = instance.dag.to_csr()
    times = instance.times.tolist()
    alloc = [1] * n
    weights = [row[0] for row in times]

    def bound(L: float) -> float:
        W = sum(l * t for l, t in zip(alloc, weights))
        return max(L, W / m)

    L, path = longest_path_kernel(csr, weights, want_path=True)
    current = bound(L)
    for _ in range(MAX_ITERATIONS):
        best_j, best_gain = -1, 0.0
        for j in path:
            l = alloc[j]
            if l >= m:
                continue
            row = times[j]
            dt = row[l - 1] - row[l]
            dw = (l + 1) * row[l] - l * row[l - 1]
            gain = dt / (dw + 1e-12)
            if dt > 0 and gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0:
            break
        alloc[best_j] += 1
        weights[best_j] = times[best_j][alloc[best_j] - 1]
        L, path = longest_path_kernel(csr, weights, want_path=True)
        new = bound(L)
        if new >= current - 1e-12:
            alloc[best_j] -= 1  # revert the non-improving move and stop
            break
        current = new
    return alloc
