"""Problem instance: malleable tasks + precedence DAG + processor count.

An :class:`Instance` bundles everything the scheduling problem of Section 1
needs: the task set ``V = {0..n-1}`` with processing-time profiles, the
precedence DAG ``G = (V, E)``, and the number ``m`` of identical processors.
It also exposes the instance-level quantities the analysis uses:
the minimum-work total ``W(1)``, the best-case critical path (every task on
``m`` processors), and simple feasibility facts.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ..dag import Dag
from .task import MalleableTask

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
    # key on the instance without pinning it.
    __slots__ = (
        "_tasks", "_dag", "_m", "_name", "_content_key", "__weakref__"
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
        self._tasks = tuple(tasks)
        self._dag = dag
        self._m = int(m)
        self._name = name
        self._content_key: Optional[str] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_profile_fn(
        cls,
        dag: Dag,
        m: int,
        profile_fn: Callable[[int], Sequence[float]],
        name: Optional[str] = None,
    ) -> "Instance":
        """Build an instance by calling ``profile_fn(j)`` for each node j."""
        tasks = [
            MalleableTask(profile_fn(j), name=f"J{j}")
            for j in range(dag.n_nodes)
        ]
        return cls(tasks, dag, m, name=name)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Instance label, if any."""
        return self._name

    @property
    def tasks(self) -> Tuple[MalleableTask, ...]:
        """The task tuple; ``tasks[j]`` is task ``J_j``."""
        return self._tasks

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
        return len(self._tasks)

    def task(self, j: int) -> MalleableTask:
        """Task ``J_j``."""
        return self._tasks[j]

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
        return sum(t.sequential_work for t in self._tasks)

    def min_critical_path(self) -> float:
        """Critical-path length when every task runs on all ``m``
        processors — a lower bound on any schedule's makespan."""
        return self._dag.longest_path_length(
            [t.min_time for t in self._tasks]
        )

    def trivial_lower_bound(self) -> float:
        """``max(L_min, W_min / m)`` — the combinatorial part of eq. (11)."""
        return max(self.min_critical_path(), self.min_total_work() / self._m)

    def sequential_makespan(self) -> float:
        """Makespan of running every task alone on one processor in
        topological order — a crude feasible upper bound."""
        return sum(t.max_time for t in self._tasks)

    def critical_path_for_allotment(
        self, allotment: Sequence[int]
    ) -> float:
        """Critical-path length ``L(α)`` under a concrete allotment α."""
        self.validate_allotment(allotment)
        weights = [
            self._tasks[j].time(allotment[j]) for j in range(self.n_tasks)
        ]
        return self._dag.longest_path_length(weights)

    def total_work_for_allotment(self, allotment: Sequence[int]) -> float:
        """Total work ``W(α) = Σ_j l_j p_j(l_j)`` under allotment α."""
        self.validate_allotment(allotment)
        return sum(
            self._tasks[j].work(allotment[j]) for j in range(self.n_tasks)
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
