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

Implementation note — two tiers and a reference
-----------------------------------------------
:func:`list_schedule` runs on the tier :func:`dispatch_tier` picks:

* the **array tier** — the ready frontier lives in NumPy vectors
  (indegree counters, a cached earliest-start vector, durations);
  selection is an ``argmin`` over the earliest-start vector (with an
  exact scalar fallback for the rare sub-tolerance tie), and
  revalidation after each reservation batches the overlapping ready
  tasks into one :meth:`repro.schedule.timeline.ArrayTimeline
  .earliest_start_many` query;
* the **loop tier** — a per-task Python loop with an incremental
  earliest-start cache, faster on tiny instances and narrow frontiers;
  :func:`list_schedule_loop` forces it (the scaling benchmark's
  baseline).

:func:`list_schedule_reference` is the literal transcription of Table 1,
the executable specification.  The produced schedules are identical
float for float: all three compute the same ``start + duration`` sums on
the same IEEE doubles and select with the same index order and
tolerance — asserted by the test suite on random instances.

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
  through ``reserve`` (its capacity check kept), the ready frontier's
  earliest starts are evaluated afresh on it, and LIST continues from
  step ``k*`` on the tier :func:`dispatch_tier` picks.

A run without an earlier record is a resume from the empty prefix; both
tiers start every run that way.  The pick order is stored, not read back
from :attr:`Schedule.entries`: those are sorted by ``(start, task)``,
and on a sub-tolerance near-tie LIST picks the lower-id task even when
the other one starts a hair earlier.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..dag import Dag
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from ..schedule import ResourceTimeline, Schedule, ScheduledTask
from ..schedule.timeline import ArrayTimeline
from .instance import Instance

_FRONTIER_STEPS = _METRICS.counter(
    "repro_solver_frontier_steps_total",
    "List-scheduler steps decided (one task scheduled per step) by tier; "
    "steps replayed from an earlier run are not counted",
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
    "list_schedule_loop",
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
    """Which kernel tier LIST runs on for ``instance``.

    ``"loop"`` — the per-task Python loop (tiny or narrow instances);
    ``"array"`` — the vectorized frontier over CSR arrays.  The batch
    engine records this per instance (a ``"batched"`` tier exists as
    well, chosen by :func:`repro.batchkernel.solve_batch` callers — see
    :mod:`repro.engine.batch`).

    Below 256 tasks the array tier's constant set-up costs more than the
    whole loop-tier run, so the level structure is never built.  Above,
    the average level width ``n / #levels`` tracks the frontier width:
    on deep, thin DAGs the ready set holds a handful of tasks and the
    per-task loop beats per-iteration NumPy overhead; the crossover sits
    near 100 (measured).  Both tiers are bit-identical, so this is purely
    a constant-factor choice.
    """
    n = instance.n_tasks
    if n < 256:
        return "loop"
    csr = instance.dag.to_csr()
    if n < 96 * csr.depths().n_levels:
        return "loop"
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


def _scan_select(ready_ids: np.ndarray, est: np.ndarray) -> int:
    """The literal selection scan of Table 1 over exact cached starts:
    iterate ready tasks in index order, replacing the incumbent only on
    a strictly-more-than-tolerance improvement."""
    best_j, best_t = -1, float("inf")
    for j in ready_ids.tolist():
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
    return _run(instance, allotment, mu, previous, tier=None)


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
        bit-identical to :func:`list_schedule_reference`, computed on
        the tier :func:`dispatch_tier` picks.
    """
    return _run(instance, allotment, mu, None, tier=None).schedule


def list_schedule_loop(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """LIST on the loop tier whatever the instance's shape: the per-task
    Python loop with an incremental earliest-start cache.

    Kept as the scaling benchmark's baseline and as an equivalence
    witness between the array tier and :func:`list_schedule_reference`.
    """
    return _run(instance, allotment, mu, None, tier="loop").schedule


class _Work:
    """Work counters of one LIST run, kept only under an armed tracer."""

    __slots__ = ("frontier_sum", "frontier_peak", "refreshes")

    def __init__(self) -> None:
        self.frontier_sum = 0
        self.frontier_peak = 0
        #: earliest-start evaluations (one per window queried)
        self.refreshes = 0

    def step(self, width: int) -> None:
        self.frontier_sum += width
        if width > self.frontier_peak:
            self.frontier_peak = width

    def counting(self, query: Callable[..., float]) -> Callable[..., float]:
        """A scalar earliest-start query wrapped to count its calls."""

        def counted(ready: float, duration: float, amount: int) -> float:
            self.refreshes += 1
            return query(ready, duration, amount)

        return counted

    def counting_many(
        self, query: Callable[..., np.ndarray]
    ) -> Callable[..., np.ndarray]:
        """A batched earliest-start query wrapped to count its windows."""

        def counted(
            ready: np.ndarray, durations: np.ndarray, amounts: np.ndarray
        ) -> np.ndarray:
            self.refreshes += len(ready)
            return query(ready, durations, amounts)

        return counted


_Tier = Tuple[List[ScheduledTask], np.ndarray, np.ndarray, int]


def _run(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int],
    previous: Optional[ListRun],
    tier: Optional[str],
) -> ListRun:
    instance.validate_allotment(allotment)
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))
    if tier is None:
        tier = dispatch_tier(instance)
    # Work accounting only when a tracer is armed: the global read is
    # hoisted here, leaving a local None-check per step on the disarmed
    # path; the tiers count earliest-start evaluations by wrapping the
    # timeline's query, so a disarmed query runs unwrapped.
    tracer = obs_trace.active()
    work = None if tracer is None else _Work()
    kernel = _loop_tier if tier == "loop" else _array_tier
    entries, alloc_arr, dur, reused = kernel(instance, alloc, previous, work)

    n = instance.n_tasks
    _FRONTIER_STEPS.labels(tier).inc(n - reused)
    _STEPS_REUSED.inc(reused)
    if work is not None:
        tracer.add("frontier_steps", n - reused)
        tracer.add("frontier_size_sum", work.frontier_sum)
        tracer.add("frontier_peak", work.frontier_peak)
        tracer.add("timeline_refreshes", work.refreshes)
        tracer.add("list_steps_reused", reused)
    return ListRun(
        schedule=Schedule(instance.m, entries),
        dag=instance.dag,
        m=instance.m,
        order=np.fromiter(
            (e.task for e in entries), dtype=np.intp, count=n
        ),
        alloc=alloc_arr,
        dur=dur,
        reused=reused,
    )


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


def _replay(
    previous: Optional[ListRun], k: int, timeline
) -> List[ScheduledTask]:
    """The first ``k`` picks of ``previous``, in pick order, each
    reserved on ``timeline`` as LIST reserved it."""
    if not k:
        return []
    placed = previous.schedule
    prefix = [placed[j] for j in previous.order[:k].tolist()]
    for e in prefix:
        timeline.reserve(e.start, e.end, e.processors)
    return prefix


def _array_tier(
    instance: Instance,
    alloc_list: List[int],
    previous: Optional[ListRun],
    work: Optional[_Work],
) -> _Tier:
    """The vectorized frontier over CSR arrays (module docstring)."""
    from .arrays import instance_arrays

    n = instance.n_tasks
    csr = instance.dag.to_csr()
    alloc = np.asarray(alloc_list, dtype=np.intp)
    dur = instance_arrays(instance).times[np.arange(n), alloc - 1]
    reused = _resume_step(previous, instance, alloc, dur)
    timeline = ArrayTimeline(instance.m)
    entries = _replay(previous, reused, timeline)
    earliest_start_many = timeline.earliest_start_many
    if work is not None:
        earliest_start_many = work.counting_many(earliest_start_many)

    succ_indptr, succ_indices = csr.succ_indptr, csr.succ_indices
    pred_indptr, pred_indices = csr.pred_indptr, csr.pred_indices
    est = np.full(n, np.inf)
    completion = np.zeros(n)
    indeg = csr.in_degrees().copy()
    if reused:
        done = previous.order[:reused]
        completion[done] = [e.end for e in entries]
        finished = np.zeros(n, dtype=bool)
        finished[done] = True
        indeg -= np.bincount(
            succ_indices[finished[csr.edge_sources()]], minlength=n
        )
        indeg[done] = -1  # scheduled: never ready again
    ready_ids = np.flatnonzero(indeg == 0)
    # Earliest start of the frontier: a source's is 0 on the empty
    # timeline; after a replayed prefix every frontier task is evaluated
    # on the rebuilt timeline from its precedence ready time.
    est[ready_ids] = 0.0
    if reused and ready_ids.size:
        for s in ready_ids.tolist():
            p0, p1 = pred_indptr[s], pred_indptr[s + 1]
            if p1 > p0:
                est[s] = completion[pred_indices[p0:p1]].max()
        est[ready_ids] = earliest_start_many(
            est[ready_ids], dur[ready_ids], alloc[ready_ids]
        )

    for _ in range(n - reused):
        if not ready_ids.size:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        if work is not None:
            work.step(int(ready_ids.size))
        # Schedule the ready task with the smallest earliest start.  The
        # argmin over the (index-sorted) ready frontier — first
        # occurrence = lowest task id — equals the reference tolerance
        # scan unless distinct values sit within the tolerance of the
        # minimum; then run the exact scalar scan.
        vals = est[ready_ids]
        bi = int(np.argmin(vals))
        vmin = vals[bi]
        near = vals <= vmin + _SELECT_TOL
        if np.count_nonzero(near) > 1 and bool(
            np.any(vals[near] != vmin)
        ):
            j = _scan_select(ready_ids, est)
        else:
            j = int(ready_ids[bi])
        best_t = float(est[j])
        dj = float(dur[j])
        aj = int(alloc[j])
        end = best_t + dj
        timeline.reserve(best_t, end, aj)
        completion[j] = end
        entries.append(
            ScheduledTask(task=j, start=best_t, processors=aj, duration=dj)
        )
        est[j] = np.inf
        ready_ids = ready_ids[ready_ids != j]

        # Newly-ready successors: their ready time is the max completion
        # over their predecessors (all scheduled by now).
        s0, s1 = succ_indptr[j], succ_indptr[j + 1]
        newly = None
        if s1 > s0:
            succ = succ_indices[s0:s1]
            indeg[succ] -= 1
            newly = succ[indeg[succ] == 0]
            if newly.size:
                for s in newly.tolist():
                    p0, p1 = pred_indptr[s], pred_indptr[s + 1]
                    est[s] = completion[pred_indices[p0:p1]].max()
                ready_ids = np.sort(np.concatenate([ready_ids, newly]))
            else:
                newly = None

        # One mixed batch query per iteration refreshes every start that
        # the new reservation may have moved: ready tasks whose cached
        # window overlaps it, plus the newly-ready tasks (whose ``est``
        # currently holds just the precedence ready time).
        if ready_ids.size:
            t_r = est[ready_ids]
            refresh = (t_r < end) & (t_r + dur[ready_ids] > best_t)
            if newly is not None:
                refresh |= np.isin(ready_ids, newly, assume_unique=True)
            if refresh.any():
                ids = ready_ids[refresh]
                est[ids] = earliest_start_many(
                    est[ids], dur[ids], alloc[ids]
                )

    return entries, alloc, dur, reused


def _loop_tier(
    instance: Instance,
    alloc: List[int],
    previous: Optional[ListRun],
    work: Optional[_Work],
) -> _Tier:
    """The per-task loop with an incremental earliest-start cache.

    Reservations only ever *add* usage, so a cached start stays exact
    unless its window overlaps the newly reserved rectangle, and on
    overlap the fresh earliest start can be recomputed starting from the
    cached value (feasible starts are monotone under added
    reservations).
    """
    dag = instance.dag
    n = instance.n_tasks
    alloc_arr = np.asarray(alloc, dtype=np.intp)
    dur_arr = instance.times[np.arange(n), alloc_arr - 1]
    dur = dur_arr.tolist()
    reused = _resume_step(previous, instance, alloc_arr, dur_arr)
    timeline = ResourceTimeline(instance.m)
    entries = _replay(previous, reused, timeline)
    earliest_start = timeline.earliest_start
    if work is not None:
        earliest_start = work.counting(earliest_start)

    # READY bookkeeping: indegree over *scheduled* predecessors, plus the
    # cached earliest feasible start ``est[j]`` of every ready task.
    completion = [0.0] * n
    remaining_preds = [dag.in_degree(j) for j in range(n)]
    for e in entries:
        completion[e.task] = e.end
        remaining_preds[e.task] = -1  # scheduled: never ready again
        for s in dag.successors(e.task):
            remaining_preds[s] -= 1
    ready = [j for j in range(n) if remaining_preds[j] == 0]
    est = {
        j: earliest_start(
            max((completion[p] for p in dag.predecessors(j)), default=0.0),
            dur[j],
            alloc[j],
        )
        for j in ready
    }

    for _ in range(n - reused):
        if not ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        if work is not None:
            work.step(len(ready))
        # Schedule the ready task with the smallest earliest start; ready
        # is kept sorted so numerically tied starts go to the lowest index.
        best_i, best_t = -1, float("inf")
        for i, j in enumerate(ready):
            t = est[j]
            if t < best_t - _SELECT_TOL:
                best_i, best_t = i, t
        j = ready.pop(best_i)
        end = best_t + dur[j]
        timeline.reserve(best_t, end, alloc[j])
        completion[j] = end
        entries.append(
            ScheduledTask(
                task=j, start=best_t, processors=alloc[j], duration=dur[j]
            )
        )
        del est[j]
        # Revalidate cached starts whose window overlaps the reservation
        # just made; all other cached values are still exact.
        for k in ready:
            t = est[k]
            if t < end and t + dur[k] > best_t:
                est[k] = earliest_start(t, dur[k], alloc[k])
        for s in dag.successors(j):
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0:
                ready_at = max(
                    (completion[p] for p in dag.predecessors(s)),
                    default=0.0,
                )
                est[s] = earliest_start(ready_at, dur[s], alloc[s])
                insort(ready, s)

    return entries, alloc_arr, dur_arr, reused


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
