"""LIST — the phase-2 scheduler (paper Table 1).

Given an allotment α′ and the cap ``μ``, the algorithm first *reduces* the
allotment, ``l_j = min(l′_j, μ)``, and then list-schedules:

    SCHEDULED = ∅
    while SCHEDULED != J:
        READY = { J_j : Γ⁻(j) ⊆ SCHEDULED }
        compute the earliest possible starting time for all tasks in READY
        schedule the ready task with the smallest earliest starting time
        SCHEDULED = SCHEDULED ∪ {J_j}

"Earliest possible starting time" accounts for both precedence (completion
times of already-scheduled predecessors, which are fixed) and processor
availability (the first window with ``l_j`` processors free for the whole
duration).

The cap matters for the analysis: with every task using at most
``μ <= ⌊(m+1)/2⌋`` processors, a task and any ready successor can never be
blocked purely by each other, which is what makes the heavy-path argument
of Lemma 4.3 work.

:func:`list_schedule` is also usable standalone with any allotment and
``μ = m`` — that is the classic Graham list scheduling [8] generalized to
malleable allotments, and is what the naive baselines build on.

Implementation note — one kernel and a reference
-------------------------------------------------
:func:`list_schedule` runs LIST on the free-processor staircase.  Every
pick is reserved on one exact :class:`~repro.schedule.ResourceTimeline`,
whose ``reserve`` checks capacity, and the timeline is the kernel's
only record of the machine.  Each pick starts no earlier than the ones
before it, up to the selection tolerance, so every reservation starts
at or before the latest pick start ``S``: the timeline's breakpoints
after ``S`` are the ends of the reservations still running, and busy
processors only drop there.  That staircase gives ``F(a)``, the first
time ``≥ S`` with ``a`` processors free: one sweep, read off the live
breakpoint and usage lists (:meth:`ResourceTimeline.segments`) from the
segment holding ``S``, finds it for every demand ``a`` with ready
tasks.  The kernel's invariant: every ready task's exact earliest start
is ``≥ S``.  Such a start is ``max(r_j, F(a_j))``, from the task's
precedence ready time ``r_j`` and the staircase; its duration does not
enter.  Ready tasks sit in per-demand heaps, *pending* keyed by
``(r_j, j)`` while ``r_j > F(a)`` and *released* keyed by ``j`` once
``r_j ≤ F(a)`` (``F`` never falls, so a released task stays released),
and a pick is a min over at most ``μ`` heap tops.  A step falls back to
the literal selection, the exact :func:`_scan_select` over
``ResourceTimeline.earliest_start`` of every ready task, in two cases:
when distinct starts lie within the tolerance of the smallest (the
tolerant scan may then pick a task that starts a hair later), and when
a start could lie below ``S``, which breaks the invariant.  The second
case follows a near-tie pick that leaves another ready task's start
below the new ``S``, a successor of a task picked below ``S`` that is
ready before ``S`` (its duration is below the tolerance), and a
resumed prefix whose ready tasks became ready before its last start.
Fallback steps continue until the invariant holds again.  The kernel
itself, :func:`_staircase`, reads plain arrays (machine size, capped
allotment, durations, successor CSR, in-degrees and a replayed
prefix), so :func:`repro.batchkernel.batched_list_schedule` runs it on
every block of a packed batch as well.

:func:`list_schedule_reference` is the literal transcription of Table 1,
the executable specification.  The produced schedules are identical
float for float: both compute the same ``start + duration`` sums on the
same IEEE doubles, return starts that are ready times or reservation
ends, and select with the same index order and tolerance — asserted by
the test suite on random instances.

Run record and resume
---------------------
LIST decides each step from two things only: the tasks ready at that
step and the reservations already made.  :func:`list_run` returns the
schedule with a :class:`ListRun` record of how LIST made it — the order
it picked tasks in, the capped allotment, the durations and the
:class:`~repro.dag.Dag` object it scheduled — and, given the record of an
earlier run, repeats as much of that run as the new inputs cannot have
changed:

* ``D`` is the set of tasks whose capped allotment or duration differs
  from the earlier run's;
* a task becomes ready at step 0 if it is a source, else at one past the
  latest pick position of its predecessors.  Before ``k*``, the smallest
  such step over ``D``, no task of ``D`` is ready or scheduled, so every
  ready set, every reservation and every pick is the earlier run's
  (``k* = n`` when ``D`` is empty; ``k* = 0`` when the ``Dag`` object or
  ``m`` differ);
* the timeline is rebuilt from the earlier run's first ``k*`` rectangles
  through ``reserve`` (its capacity check kept), so the staircase past
  the prefix's latest start is on it too; the ready frontier's earliest
  starts are evaluated afresh on it, and LIST continues from step
  ``k*``.

A run without an earlier record is a resume from the empty prefix; the
kernel starts every run that way.  The pick order is stored, not read back
from :attr:`Schedule.entries`: those are sorted by ``(start, task)``,
and on a sub-tolerance near-tie LIST picks the lower-id task even when
the other one starts a hair earlier.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dag import Dag
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from ..schedule import ResourceTimeline, Schedule, ScheduledTask
from .instance import Instance

_FRONTIER_STEPS = _METRICS.counter(
    "repro_solver_frontier_steps_total",
    "List-scheduler steps decided (one task scheduled per step) by tier "
    "(array: the staircase, the one kernel); steps replayed from an "
    "earlier run are not counted",
    ("tier",),
)
_STEPS_REUSED = _METRICS.counter(
    "repro_solver_list_steps_reused_total",
    "List-scheduler steps replayed from an earlier run instead of decided",
)

__all__ = [
    "ListRun",
    "dispatch_tier",
    "list_run",
    "list_schedule",
    "list_schedule_reference",
    "capped_allotment",
]

#: Tolerance of the "smallest earliest start" selection scan.  A candidate
#: replaces the incumbent only when it is better by more than this, so the
#: lowest-index task wins among numerically tied starts.
_SELECT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ListRun:
    """A finished LIST run and what a later run needs to resume it
    (module docstring, "Run record and resume")."""

    #: The schedule LIST produced.
    schedule: Schedule
    #: The DAG scheduled; a later run resumes only on the same object.
    dag: Dag
    #: Machine size.
    m: int
    #: Task ids in the order LIST picked them.
    order: np.ndarray
    #: Capped allotment ``l_j`` of every task.
    alloc: np.ndarray
    #: Duration ``p_j(l_j)`` of every task.
    dur: np.ndarray
    #: Leading steps replayed from the earlier run (``k*``).
    reused: int


def dispatch_tier(instance: Instance) -> str:
    """The kernel tier LIST runs on for ``instance``: always
    ``"array"``, LIST on the free-processor staircase (module
    docstring).  The batch engine records it as
    :attr:`repro.engine.BatchRecord.kernel_tier`."""
    return "array"


def capped_allotment(allotment: Sequence[int], mu: int) -> List[int]:
    """The phase-2 allotment ``l_j = min(l′_j, μ)`` (Table 1, init step)."""
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    return [min(int(l), mu) for l in allotment]


def _checked_cap(instance: Instance, mu: Optional[int]) -> int:
    cap = instance.m if mu is None else int(mu)
    if not (1 <= cap <= instance.m):
        raise ValueError(f"mu must be in [1, {instance.m}], got {mu}")
    return cap


def _scan_select(ready_ids: List[int], est: Dict[int, float]) -> int:
    """The literal selection scan of Table 1 over exact starts ``est``
    (indexed by task id): iterate the sorted ready ids in order,
    replacing the incumbent only on a strictly-more-than-tolerance
    improvement."""
    best_j, best_t = -1, float("inf")
    for j in ready_ids:
        t = est[j]
        if t < best_t - _SELECT_TOL:
            best_j, best_t = j, t
    return best_j


def list_run(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
    previous: Optional[ListRun] = None,
) -> ListRun:
    """Run LIST (Table 1) and keep the record a later run resumes from.

    Same arguments and the same schedule as :func:`list_schedule`.
    ``previous`` is the record of an earlier run, typically on the
    parent of an evolved instance: the leading steps the new inputs
    cannot have changed are replayed from it instead of decided again
    (module docstring, "Run record and resume").
    """
    instance.validate_allotment(allotment)
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))
    n = instance.n_tasks
    alloc_arr = np.asarray(alloc, dtype=np.intp)
    dur_arr = instance.times[np.arange(n), alloc_arr - 1]
    reused = _resume_step(previous, instance, alloc_arr, dur_arr)
    csr = instance.dag.to_csr()
    # Work accounting only when a tracer is armed: the global read is
    # hoisted here, leaving a local None-check per step on the disarmed
    # path.
    tracer = obs_trace.active()
    work = None if tracer is None else _Work()
    entries = _staircase(
        instance.m,
        alloc,
        dur_arr.tolist(),
        csr.succ_indptr.tolist(),
        csr.succ_indices.tolist(),
        csr.in_degrees().tolist(),
        _replay(previous, reused),
        work,
    )
    _account(n - reused, reused, tracer, work)
    return ListRun(
        schedule=Schedule(instance.m, entries),
        dag=instance.dag,
        m=instance.m,
        order=np.fromiter(
            (e.task for e in entries), dtype=np.intp, count=n
        ),
        alloc=alloc_arr,
        dur=dur_arr,
        reused=reused,
    )


def list_schedule(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """Run LIST (Table 1) on ``instance`` with allotment α′ and cap ``μ``.

    Parameters
    ----------
    instance:
        The scheduling instance.
    allotment:
        α′ — processor counts per task (each in ``1..m``).
    mu:
        Allotment cap; ``None`` means no cap (``μ = m``).

    Returns
    -------
    Schedule
        A feasible schedule (validated property in the test suite),
        bit-identical to :func:`list_schedule_reference`.
    """
    return list_run(instance, allotment, mu).schedule


class _Work:
    """Work counters of one LIST run, kept only under an armed tracer."""

    __slots__ = ("frontier_sum", "frontier_peak", "refreshes")

    def __init__(self) -> None:
        self.frontier_sum = 0
        self.frontier_peak = 0
        #: earliest-start evaluations: one per demand swept, one per
        #: exact query of the fallback
        self.refreshes = 0

    def step(self, width: int) -> None:
        self.frontier_sum += width
        if width > self.frontier_peak:
            self.frontier_peak = width


def _account(
    decided: int,
    reused: int,
    tracer: Optional[obs_trace.Tracer],
    work: Optional[_Work],
) -> None:
    """Count one LIST run: ``decided`` steps on the staircase and
    ``reused`` replayed, and the run's work under an armed ``tracer``."""
    _FRONTIER_STEPS.labels("array").inc(decided)
    _STEPS_REUSED.inc(reused)
    if work is not None:
        tracer.add("frontier_steps", decided)
        tracer.add("frontier_size_sum", work.frontier_sum)
        tracer.add("frontier_peak", work.frontier_peak)
        tracer.add("timeline_refreshes", work.refreshes)
        tracer.add("list_steps_reused", reused)


def _resume_step(
    previous: Optional[ListRun],
    instance: Instance,
    alloc: np.ndarray,
    dur: np.ndarray,
) -> int:
    """``k*``: how many leading steps of ``previous`` a run on
    ``instance`` with this capped allotment and these durations repeats
    exactly."""
    n = instance.n_tasks
    if (
        previous is None
        or previous.dag is not instance.dag
        or previous.m != instance.m
    ):
        return 0
    changed = np.flatnonzero((previous.alloc != alloc) | (previous.dur != dur))
    pos = np.empty(n, dtype=np.intp)
    pos[previous.order] = np.arange(n)
    csr = instance.dag.to_csr()
    indptr, preds = csr.pred_indptr, csr.pred_indices
    k = n
    for j in changed.tolist():
        p0, p1 = indptr[j], indptr[j + 1]
        if p1 == p0:  # a changed source is ready at step 0
            return 0
        k = min(k, 1 + int(pos[preds[p0:p1]].max()))
    return k


def _replay(previous: Optional[ListRun], k: int) -> List[ScheduledTask]:
    """The first ``k`` picks of ``previous``, in pick order."""
    if not k:
        return []
    placed = previous.schedule
    return [placed[j] for j in previous.order[:k].tolist()]


def _near_in_heap(
    heap: List[Tuple[float, int]], low: float, lim: float
) -> bool:
    """Whether the ``(r_j, j)`` heap ``heap``, whose top ready time is
    ``low``, holds a ready time in ``(low, lim]``.  Visits only the
    entries at or below ``lim``: a heap keeps them in a subtree at the
    root."""
    size = len(heap)
    stack = [0]
    while stack:
        k = stack.pop()
        r = heap[k][0]
        if r > lim:
            continue
        if r != low:
            return True
        stack.extend(c for c in (2 * k + 1, 2 * k + 2) if c < size)
    return False


def _staircase(
    m: int,
    alloc: List[int],
    dur: List[float],
    succ_ptr: List[int],
    succ: List[int],
    indeg: List[int],
    entries: List[ScheduledTask],
    work: Optional[_Work],
) -> List[ScheduledTask]:
    """The staircase kernel on plain arrays: ``m`` processors, the capped
    allotment and the duration of every task (each ``l_j`` in
    ``1..m``), the successor CSR and in-degrees of the DAG, and the
    picks already made (a replayed prefix, else empty).  Reserves every
    pick, replayed or decided, on one timeline and reads ``F(a)`` off
    it (module docstring).  Appends the picks it decides to
    ``entries``, in pick order, and returns it; ``indeg`` is
    consumed."""
    n = len(alloc)
    reused = len(entries)
    timeline = ResourceTimeline(m)
    earliest_start = timeline.earliest_start
    # The staircase is the timeline past S: read live, never copied.
    times, usage = timeline.segments()

    # ready_at[j]: the latest completion among j's scheduled predecessors
    # (r_j once all are scheduled; 0 for a source).
    ready_at = [0.0] * n
    S = 0.0
    for e in entries:
        j, end = e.task, e.end
        timeline.reserve(e.start, end, e.processors)
        indeg[j] = -1  # scheduled: never ready again
        if e.start > S:
            S = e.start
        for s in succ[succ_ptr[j]:succ_ptr[j + 1]]:
            indeg[s] -= 1
            if end > ready_at[s]:
                ready_at[s] = end

    top = max(alloc, default=1)
    released: List[List[int]] = [[] for _ in range(top + 1)]
    pending: List[List[Tuple[float, int]]] = [[] for _ in range(top + 1)]
    n_ready = 0
    exact = False  # a ready task's start could lie below S
    for j in range(n):
        if indeg[j] == 0:
            pending[alloc[j]].append((ready_at[j], j))
            n_ready += 1
            exact = exact or ready_at[j] < S
    for heap in pending:
        heapify(heap)

    inf = float("inf")
    for _ in range(n - reused):
        if not n_ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        if work is not None:
            work.step(n_ready)
        j = -1
        if not exact:
            # One sweep down the staircase, from the segment holding S,
            # gives F(a) for every demand with ready tasks; each demand
            # offers its best task.
            i = bisect_right(times, S) - 1
            f, t = m - usage[i], S
            swept = []
            best_t, best_a = inf, 0
            for a in range(1, top + 1):
                pa, ra = pending[a], released[a]
                if not (pa or ra):
                    continue
                while f < a:
                    i += 1
                    f = m - usage[i]
                    t = times[i]
                while pa and pa[0][0] <= t:
                    heappush(ra, heappop(pa)[1])
                v, k = (t, ra[0]) if ra else pa[0]
                swept.append((v, a))
                if v < best_t or (v == best_t and k < j):
                    best_t, j, best_a = v, k, a
            if work is not None:
                work.refreshes += len(swept)
            # Distinct starts within the tolerance of the smallest: the
            # tolerant scan may pick another task.
            lim = best_t + _SELECT_TOL
            for v, a in swept:
                pa, ra = pending[a], released[a]
                if v != best_t:
                    near = v <= lim
                elif ra:
                    near = bool(pa) and pa[0][0] <= lim
                else:
                    near = _near_in_heap(pa, best_t, lim)
                if near:
                    j = -1
                    break
            else:
                if released[best_a]:
                    heappop(released[best_a])
                else:
                    heappop(pending[best_a])
        if j < 0:
            # The exact fallback: Table 1's scan over the exact starts.
            ids = sorted(
                [k for a in range(1, top + 1) for k in released[a]]
                + [k for a in range(1, top + 1) for _, k in pending[a]]
            )
            if work is not None:
                work.refreshes += len(ids)
            est = {
                k: earliest_start(ready_at[k], dur[k], alloc[k]) for k in ids
            }
            j = _scan_select(ids, est)
            best_t = est.pop(j)
            a = alloc[j]
            if j in released[a]:
                released[a].remove(j)
                heapify(released[a])
            else:
                pending[a].remove((ready_at[j], j))
                heapify(pending[a])
            new_s = max(S, best_t)
            exact = any(t < new_s for t in est.values())
        else:
            exact = False

        d, a = dur[j], alloc[j]
        end = best_t + d
        timeline.reserve(best_t, end, a)
        entries.append(
            ScheduledTask(task=j, start=best_t, processors=a, duration=d)
        )
        n_ready -= 1
        if best_t > S:
            S = best_t
        for s in succ[succ_ptr[j]:succ_ptr[j + 1]]:
            if end > ready_at[s]:
                ready_at[s] = end
            indeg[s] -= 1
            if not indeg[s]:
                heappush(pending[alloc[s]], (ready_at[s], s))
                n_ready += 1
                exact = exact or ready_at[s] < S

    return entries


def list_schedule_reference(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """Literal transcription of LIST (Table 1) — the pre-optimization path.

    Recomputes every ready task's earliest start on every iteration.  Kept
    as the executable specification: the test suite asserts
    :func:`list_schedule` matches it bit for bit, and the benchmarks
    measure the speedup against it.
    """
    instance.validate_allotment(allotment)
    m = instance.m
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))

    dag = instance.dag
    n = instance.n_tasks
    timeline = ResourceTimeline(m)
    completion = [0.0] * n
    n_sched = 0
    entries: List[ScheduledTask] = []

    remaining_preds = [dag.in_degree(j) for j in range(n)]
    ready = {j for j in range(n) if remaining_preds[j] == 0}

    while n_sched < n:
        if not ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        best_j, best_t = -1, float("inf")
        for j in sorted(ready):
            ready_at = max(
                (completion[p] for p in dag.predecessors(j)), default=0.0
            )
            dur = instance.task(j).time(alloc[j])
            t = timeline.earliest_start(ready_at, dur, alloc[j])
            if t < best_t - _SELECT_TOL:
                best_j, best_t = j, t
        j = best_j
        dur = instance.task(j).time(alloc[j])
        timeline.reserve(best_t, best_t + dur, alloc[j])
        completion[j] = best_t + dur
        entries.append(
            ScheduledTask(
                task=j, start=best_t, processors=alloc[j], duration=dur
            )
        )
        n_sched += 1
        ready.discard(j)
        for s in dag.successors(j):
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0:
                ready.add(s)

    return Schedule(m, entries)
