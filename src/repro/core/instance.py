"""Problem instance: malleable tasks + precedence DAG + processor count.

An :class:`Instance` bundles everything the scheduling problem of Section 1
needs: the task set ``V = {0..n-1}`` with processing-time profiles, the
precedence DAG ``G = (V, E)``, and the number ``m`` of identical processors.
It also exposes the instance-level quantities the analysis uses:
the minimum-work total ``W(1)``, the best-case critical path (every task on
``m`` processors), and simple feasibility facts.

The task model is the paper's table ``p_j(l)``: a read-only ``(n, m)``
times matrix (:attr:`Instance.times`) beside the task names and the
:class:`~repro.dag.Dag`.  Bulk constructors (:meth:`Instance.from_profile_fn`,
the JSON reader, the workload generator) check the whole matrix with one
NumPy kernel (:func:`repro.core.task.first_profile_error`), evolution
commits replace and append rows, and none builds a per-task object.  :attr:`Instance.tasks` and :meth:`Instance.task` materialize
unvalidated :class:`MalleableTask` views on first access, for the
per-task API; no solve reads them.  An instance pickles as its arrays.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..dag import Dag
from .task import MalleableTask, first_profile_error

__all__ = ["Instance"]


class Instance:
    """A malleable-task scheduling instance.

    Parameters
    ----------
    tasks:
        One :class:`MalleableTask` per node; ``tasks[j]`` is task ``J_j``.
        Every profile must cover exactly ``m`` processor counts.
    dag:
        Precedence constraints over ``len(tasks)`` nodes.
    m:
        Number of identical processors (>= 1).
    name:
        Optional label for reports.
    """

    # __weakref__ lets the per-instance array memos (repro.core.arrays)
    # key on the instance without pinning it.  ``_views`` holds the
    # per-task views: None before the first, a list while some are
    # missing, a tuple once all are built.
    __slots__ = (
        "_times", "_task_names", "_views", "_dag", "_m", "_name",
        "_content_key", "__weakref__",
    )

    def __init__(
        self,
        tasks: Sequence[MalleableTask],
        dag: Dag,
        m: int,
        name: Optional[str] = None,
    ):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if dag.n_nodes != len(tasks):
            raise ValueError(
                f"dag has {dag.n_nodes} nodes but {len(tasks)} tasks given"
            )
        for j, t in enumerate(tasks):
            if t.max_processors != m:
                raise ValueError(
                    f"task {j} profile covers {t.max_processors} processors, "
                    f"instance has m={m}"
                )
        times = np.array([t.times for t in tasks], dtype=float)
        self._init(
            times.reshape(len(tasks), m),
            tuple(t.name for t in tasks),
            dag,
            name,
        )
        # The given objects are the views: identity and model tags stay.
        self._views = tuple(tasks)

    def _init(
        self,
        times: np.ndarray,
        task_names: Tuple[Any, ...],
        dag: Dag,
        name: Optional[str],
    ) -> None:
        times.flags.writeable = False
        self._times = times
        self._task_names = task_names
        self._views: Optional[Sequence[Optional[MalleableTask]]] = None
        self._dag = dag
        self._m = times.shape[1]
        self._name = name
        self._content_key: Optional[str] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls,
        times: np.ndarray,
        task_names: Tuple[Any, ...],
        dag: Dag,
        name: Optional[str] = None,
    ) -> "Instance":
        """Wrap a fresh ``(n, m)`` matrix whose rows the caller has
        already checked, and which nothing else holds.  The one
        assembly behind every bulk constructor and the unpickler."""
        self = cls.__new__(cls)
        self._init(times, task_names, dag, name)
        return self

    @classmethod
    def from_profile_fn(
        cls,
        dag: Dag,
        m: int,
        profile_fn: Callable[[int], Sequence[float]],
        name: Optional[str] = None,
    ) -> "Instance":
        """Build an instance by calling ``profile_fn(j)`` for each node j.

        The profiles form the times matrix, checked at once with the
        rules of :class:`MalleableTask`: the lowest-indexed profile it
        rejects raises that constructor's :class:`ValueError` or
        :class:`~repro.core.task.AssumptionError`.  Task ``j`` is named
        ``"J{j}"``.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        rows = [profile_fn(j) for j in range(dag.n_nodes)]
        for j, row in enumerate(rows):
            if len(row) != m:
                raise ValueError(
                    f"task {j} profile covers {len(row)} processors, "
                    f"instance has m={m}"
                )
        times = np.array(rows, dtype=float).reshape(len(rows), m)
        bad = first_profile_error(times)
        if bad is not None:
            raise bad[1]
        return cls._trusted(
            times, tuple(f"J{j}" for j in range(len(rows))), dag, name
        )

    # ------------------------------------------------------------------
    # pickling: the arrays, never the views
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (
            self._times, self._task_names, self._dag, self._name,
            self._content_key,
        )

    def __setstate__(self, state) -> None:
        times, task_names, dag, name, key = state
        self._init(times, task_names, dag, name)
        self._content_key = key

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Instance label, if any."""
        return self._name

    @property
    def times(self) -> np.ndarray:
        """The read-only ``(n, m)`` matrix, ``times[j, l-1] = p_j(l)``."""
        return self._times

    @property
    def task_names(self) -> Tuple[Any, ...]:
        """Task labels; ``task_names[j]`` is task ``J_j``'s."""
        return self._task_names

    @property
    def tasks(self) -> Tuple[MalleableTask, ...]:
        """The task tuple; ``tasks[j]`` is task ``J_j`` (see
        :meth:`task`)."""
        views = self._views
        if not isinstance(views, tuple):
            rows = self._times.tolist()
            names = self._task_names
            views = self._views = tuple(
                MalleableTask._view(rows[j], names[j])
                if views is None or views[j] is None
                else views[j]
                for j in range(len(rows))
            )
        return views

    @property
    def dag(self) -> Dag:
        """The precedence DAG."""
        return self._dag

    @property
    def m(self) -> int:
        """Number of identical processors."""
        return self._m

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``n``."""
        return len(self._task_names)

    def task(self, j: int) -> MalleableTask:
        """Task ``J_j``: an unvalidated :class:`MalleableTask` view of
        its row, built on first access (the rows were checked when the
        instance was built)."""
        views = self._views
        if views is None:
            views = self._views = [None] * self.n_tasks
        view = views[j]
        if view is None:  # so ``views`` is the list of a partial build
            view = views[j] = MalleableTask._view(
                self._times[j].tolist(), self._task_names[j]
            )
        return view

    def time(self, j: int, l: int) -> float:
        """``p_j(l)``, the time of task ``J_j`` on ``l`` processors
        (``1 <= l <= m``), read from the matrix."""
        if not 1 <= l <= self._m:
            raise ValueError(f"l must be in [1, {self._m}], got {l}")
        return float(self._times[j, l - 1])

    def content_key(self) -> str:
        """Canonical content hash of ``(m, times matrix, CSR edges)``.

        The cache key of the service layer: equal for equal content no
        matter how the instance was built or serialized, different when
        any processing time, arc or the machine count differs.  Names
        are display labels and do not participate.  Memoized — the
        instance is immutable.  See :mod:`repro.core.fingerprint`.
        """
        if self._content_key is None:
            from .fingerprint import instance_content_key

            self._content_key = instance_content_key(self)
        return self._content_key

    def evolve(self) -> "InstanceEvolution":
        """Open a mutation recorder against this instance.

        Record retimes, completions, task/edge additions and removals
        on the returned builder, then ``commit()`` to obtain a **new**
        instance plus an :class:`~repro.core.evolve.InstanceDelta`; this
        instance is never modified, and the child's
        :meth:`content_key` is recomputed from its own content.  See
        :mod:`repro.core.evolve`.
        """
        from .evolve import InstanceEvolution

        return InstanceEvolution(self)

    # ------------------------------------------------------------------
    # instance-level quantities used by the analysis
    # ------------------------------------------------------------------
    def min_total_work(self) -> float:
        """``Σ_j W_j(1)`` — by Theorem 2.1 the least possible total work
        over all allotments (work is non-decreasing in ``l``)."""
        return sum(self._times[:, 0].tolist())

    def min_critical_path(self) -> float:
        """Critical-path length when every task runs on all ``m``
        processors — a lower bound on any schedule's makespan."""
        return self._dag.longest_path_length(self._times[:, -1].tolist())

    def trivial_lower_bound(self) -> float:
        """``max(L_min, W_min / m)`` — the combinatorial part of eq. (11)."""
        return max(self.min_critical_path(), self.min_total_work() / self._m)

    def sequential_makespan(self) -> float:
        """Makespan of running every task alone on one processor in
        topological order — a crude feasible upper bound."""
        return sum(self._times[:, 0].tolist())

    def _durations(self, allotment: Sequence[int]) -> List[float]:
        """``[p_j(l_j) for j]`` under allotment α, checked first."""
        self.validate_allotment(allotment)
        cols = np.asarray(allotment, dtype=np.intp) - 1
        return self._times[np.arange(self.n_tasks), cols].tolist()

    def critical_path_for_allotment(
        self, allotment: Sequence[int]
    ) -> float:
        """Critical-path length ``L(α)`` under a concrete allotment α."""
        return self._dag.longest_path_length(self._durations(allotment))

    def total_work_for_allotment(self, allotment: Sequence[int]) -> float:
        """Total work ``W(α) = Σ_j l_j p_j(l_j)`` under allotment α."""
        return sum(
            l * t for l, t in zip(allotment, self._durations(allotment))
        )

    def validate_allotment(self, allotment: Sequence[int]) -> None:
        """Check an allotment maps every task to ``{1..m}``."""
        if len(allotment) != self.n_tasks:
            raise ValueError(
                f"allotment covers {len(allotment)} tasks, "
                f"instance has {self.n_tasks}"
            )
        for j, l in enumerate(allotment):
            if not (1 <= int(l) <= self._m):
                raise ValueError(
                    f"allotment[{j}] = {l} outside [1, {self._m}]"
                )

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"Instance{label}(n={self.n_tasks}, m={self._m}, "
            f"edges={self._dag.n_edges})"
        )
