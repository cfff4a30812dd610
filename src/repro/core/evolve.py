"""Instance evolution: mutate-by-copy with a structured diff.

Real traffic against a scheduler is not one-shot: tasks finish, new
work arrives, profiles are re-estimated, arcs appear as data
dependencies materialize.  :class:`repro.core.Instance` is immutable by
design — every consumer (the content-addressed service cache, the
memoized array assemblies, the warm LP state) relies on that — so
mutation is expressed as *evolution*: :meth:`Instance.evolve` opens an
:class:`InstanceEvolution` builder, mutations are recorded against the
parent's ids, and :meth:`InstanceEvolution.commit` produces a **new**
instance plus an :class:`InstanceDelta` describing exactly what
changed::

    ev = instance.evolve()
    ev.retime(3, [12.0, 7.0, 5.0, 4.0])        # re-estimated profile
    ev.mark_completed(0, start=0.0)            # frozen by execution
    new_id = ev.add_task([8.0, 5.0, 4.0, 3.5], predecessors=[3])
    child, delta = ev.commit()

    delta.retimed_tasks        # (3,)
    delta.node_map             # old id -> new id (-1 = removed)
    delta.is_structural        # False for pure retimes/completions
    child.content_key()        # recomputed — never inherited

The commit is engineered for the incremental re-solve path
(:mod:`repro.pipeline.incremental`):

* a structural commit (tasks or arcs added or removed) builds the
  child's DAG like any other: the parent's arcs, mapped through
  ``node_map``, go to the :class:`~repro.dag.Dag` constructor, which
  canonicalizes them and validates acyclicity;
* a retime/completion commit shares the parent's
  :class:`~repro.dag.Dag` object outright, cached level decompositions
  included (the resumed LIST run of
  :class:`~repro.pipeline.incremental.ReplanSession` keys on that
  object); the child's array assemblies
  (:func:`repro.core.arrays.instance_arrays`,
  :func:`repro.core.lp.assemble_allotment_arrays`) are built from its
  own times matrix like any instance's, and the warm LP update diffs
  them against the parent's;
* the child's times matrix is the parent's surviving rows with the
  retimed rows replaced and the added rows appended; each new row was
  checked when it was recorded (:meth:`InstanceEvolution.retime`,
  :meth:`InstanceEvolution.add_task` build a validated
  :class:`~repro.core.task.MalleableTask`), and no per-task object of
  the parent is built;
* the child's content key is recomputed from its actual content (the
  memo starts empty — it is never copied from the parent), keeping the
  service cache and the campaign resume store honest under edits.

Operations reference **parent ids**; tasks added in the same evolution
are referenced by the provisional id :meth:`InstanceEvolution.add_task`
returns.  On commit, surviving tasks are compacted in id order and
added tasks appended after them; ``delta.node_map`` records the
old→new mapping.  The JSON operation list used by the service's
``POST /evolve`` endpoint and the ``repro evolve`` CLI subcommand is
applied with :func:`apply_operations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..dag import Dag
from ..dag.graph import CycleError
from .instance import Instance
from .task import MalleableTask

__all__ = [
    "InstanceDelta",
    "InstanceEvolution",
    "apply_operations",
    "evolve",
]


@dataclass(frozen=True)
class InstanceDelta:
    """Structured diff between a parent instance and its evolved child.

    Ids in ``retimed_tasks``, ``completed``, ``added_tasks`` and
    ``added_edges`` live in the **child's** id space; ``removed_tasks``
    and ``removed_edges`` in the parent's.  ``node_map[old_id]`` is the
    child id of a surviving parent task, ``-1`` for a removed one.
    """

    parent_key: str
    child_key: str
    n_parent: int
    n_child: int
    node_map: Tuple[int, ...]
    added_tasks: Tuple[int, ...]
    removed_tasks: Tuple[int, ...]
    retimed_tasks: Tuple[int, ...]
    completed: Mapping[int, float]
    added_edges: Tuple[Tuple[int, int], ...]
    removed_edges: Tuple[Tuple[int, int], ...]

    @property
    def is_structural(self) -> bool:
        """Whether the task set or the precedence relation changed.

        Non-structural deltas (retimes and completions only) share the
        parent's DAG object and are eligible for the warm LP re-solve
        path of :mod:`repro.pipeline.incremental`.
        """
        return bool(
            self.added_tasks
            or self.removed_tasks
            or self.added_edges
            or self.removed_edges
        )

    @property
    def magnitude(self) -> float:
        """Fraction of the parent the mutation touched (>= 0; may
        exceed 1 for bulk edits).  The incremental solver falls back to
        a cold solve above its ``MAX_WARM_MAGNITUDE``."""
        touched = (
            len(self.added_tasks)
            + len(self.removed_tasks)
            + len(self.retimed_tasks)
            + len(self.added_edges)
            + len(self.removed_edges)
        )
        return touched / max(1, self.n_parent)

    def summary(self) -> Dict[str, Any]:
        """JSON-compatible digest (the service's ``delta`` payload)."""
        return {
            "parent_fingerprint": self.parent_key,
            "child_fingerprint": self.child_key,
            "n_parent": self.n_parent,
            "n_child": self.n_child,
            "added_tasks": list(self.added_tasks),
            "removed_tasks": list(self.removed_tasks),
            "retimed_tasks": list(self.retimed_tasks),
            "completed": {str(k): v for k, v in self.completed.items()},
            "added_edges": [list(e) for e in self.added_edges],
            "removed_edges": [list(e) for e in self.removed_edges],
            "structural": self.is_structural,
            "magnitude": self.magnitude,
        }


class InstanceEvolution:
    """Mutation recorder for one :meth:`Instance.evolve` round.

    All mutators return ``self`` (except :meth:`add_task`, which
    returns the provisional id of the new task) so calls chain.  Cheap
    validation happens at call time; cross-operation consistency and
    acyclicity at :meth:`commit`.
    """

    def __init__(self, instance: Instance):
        self._parent = instance
        self._retimes: Dict[int, MalleableTask] = {}
        self._completed: Dict[int, float] = {}
        self._removed_tasks: set = set()
        self._added: List[Tuple[MalleableTask, Tuple[int, ...], Tuple[int, ...]]] = []
        self._added_edges: List[Tuple[int, int]] = []
        self._removed_edges: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # mutators
    # ------------------------------------------------------------------
    def _check_parent_id(self, task: int, verb: str) -> int:
        task = int(task)
        if not (0 <= task < self._parent.n_tasks):
            raise ValueError(
                f"cannot {verb} task {task}: parent has "
                f"{self._parent.n_tasks} tasks"
            )
        return task

    def retime(
        self, task: int, times: Sequence[float], name: Optional[str] = None
    ) -> "InstanceEvolution":
        """Replace task ``task``'s processing-time profile.

        The new profile must cover the same ``m`` and satisfy the same
        model assumptions (checked here, via :class:`MalleableTask`).
        """
        task = self._check_parent_id(task, "retime")
        replacement = MalleableTask(
            times,
            name=self._parent.task_names[task] if name is None else name,
        )
        if replacement.max_processors != self._parent.m:
            raise ValueError(
                f"retimed profile of task {task} covers "
                f"{replacement.max_processors} processors, instance "
                f"has m={self._parent.m}"
            )
        self._retimes[task] = replacement
        return self

    def mark_completed(
        self, task: int, start: float
    ) -> "InstanceEvolution":
        """Record that ``task`` already started executing at ``start``.

        The task stays in the instance (its successors still need its
        completion time); the frozen start is carried on the delta so
        the replanner (:mod:`repro.schedule.replan`) anchors it instead
        of moving it.
        """
        task = self._check_parent_id(task, "mark completed")
        start = float(start)
        if not (start >= 0.0) or not np.isfinite(start):
            raise ValueError(
                f"frozen start of task {task} must be finite and "
                f">= 0, got {start}"
            )
        self._completed[task] = start
        return self

    def add_task(
        self,
        times: Sequence[float],
        predecessors: Sequence[int] = (),
        successors: Sequence[int] = (),
        name: Optional[str] = None,
    ) -> int:
        """Append a new task; returns its **provisional** id.

        Provisional ids continue the parent's numbering
        (``n_parent, n_parent + 1, ...``) and may be used in later
        ``add_edge``/``successors`` references within this evolution;
        ``delta.node_map`` does not cover them — their final ids are in
        ``delta.added_tasks``, in creation order.
        """
        task = MalleableTask(times, name=name)
        if task.max_processors != self._parent.m:
            raise ValueError(
                f"new task profile covers {task.max_processors} "
                f"processors, instance has m={self._parent.m}"
            )
        provisional = self._parent.n_tasks + len(self._added)
        self._added.append(
            (task, tuple(int(p) for p in predecessors),
             tuple(int(s) for s in successors))
        )
        for p in self._added[-1][1]:
            self.add_edge(p, provisional)
        for s in self._added[-1][2]:
            self.add_edge(provisional, s)
        return provisional

    def remove_task(self, task: int) -> "InstanceEvolution":
        """Drop ``task`` and every arc touching it; surviving ids are
        compacted at commit (see ``delta.node_map``)."""
        self._removed_tasks.add(self._check_parent_id(task, "remove"))
        return self

    def add_edge(self, u: int, v: int) -> "InstanceEvolution":
        """Add the arc ``(u, v)``; endpoints may be parent ids or
        provisional ids from :meth:`add_task`."""
        u, v = int(u), int(v)
        if u == v:
            raise CycleError(f"self-loop on task {u}")
        hi = self._parent.n_tasks + len(self._added)
        for e in (u, v):
            if not (0 <= e < hi):
                raise ValueError(
                    f"edge endpoint {e} out of range (known ids: "
                    f"0..{hi - 1})"
                )
        self._added_edges.append((u, v))
        return self

    def remove_edge(self, u: int, v: int) -> "InstanceEvolution":
        """Remove the parent arc ``(u, v)`` (must exist)."""
        u = self._check_parent_id(u, "remove edge from")
        v = self._check_parent_id(v, "remove edge to")
        if not self._parent.dag.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present in parent")
        self._removed_edges.append((u, v))
        return self

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def commit(
        self, *, name: Optional[str] = None
    ) -> Tuple[Instance, InstanceDelta]:
        """Apply the recorded mutations; returns ``(child, delta)``.

        Raises :class:`ValueError` on inconsistent operations (retiming
        a removed task, duplicate arcs, arcs touching removed tasks)
        and :class:`~repro.dag.CycleError` when added arcs close a
        directed cycle.  The parent is never modified.
        """
        parent = self._parent
        n_parent = parent.n_tasks
        removed = self._removed_tasks
        for j in sorted(self._retimes):
            if j in removed:
                raise ValueError(f"task {j} both retimed and removed")
        for j in sorted(self._completed):
            if j in removed:
                raise ValueError(
                    f"task {j} both marked completed and removed"
                )

        # Old -> new id map: survivors compacted in order, additions
        # appended after them.
        node_map = np.full(n_parent, -1, dtype=np.intp)
        survivors = [j for j in range(n_parent) if j not in removed]
        node_map[survivors] = np.arange(len(survivors), dtype=np.intp)
        n_child = len(survivors) + len(self._added)

        def to_child_id(e: int) -> int:
            if e < n_parent:
                mapped = int(node_map[e])
                if mapped < 0:
                    raise ValueError(
                        f"edge endpoint {e} refers to a removed task"
                    )
                return mapped
            return len(survivors) + (e - n_parent)  # provisional id

        removed_edge_set = set(self._removed_edges)
        added_child_edges: List[Tuple[int, int]] = []
        seen_added: set = set()
        for (u, v) in self._added_edges:
            cu, cv = to_child_id(u), to_child_id(v)
            if (cu, cv) in seen_added:
                continue  # idempotent duplicate add
            if (
                u < n_parent
                and v < n_parent
                and parent.dag.has_edge(u, v)
            ):
                if (u, v) in removed_edge_set:
                    raise ValueError(
                        f"edge ({u}, {v}) both added and removed"
                    )
                raise ValueError(
                    f"edge ({u}, {v}) already present in parent"
                )
            seen_added.add((cu, cv))
            added_child_edges.append((cu, cv))

        if removed or self._added or added_child_edges or self._removed_edges:
            # The parent's arcs through the id map, minus those touching
            # a removed task and the removed arcs, plus the added ones;
            # ``Dag`` validates acyclicity and raises CycleError.
            csr = parent.dag.to_csr()
            src, dst = csr.edge_sources(), csr.succ_indices
            keep = (node_map[src] >= 0) & (node_map[dst] >= 0)
            if self._removed_edges:
                gone = np.asarray(self._removed_edges, dtype=np.intp)
                keep &= ~np.isin(
                    src * n_parent + dst, gone[:, 0] * n_parent + gone[:, 1]
                )
            arcs = np.concatenate((
                np.stack((node_map[src[keep]], node_map[dst[keep]]), axis=1),
                np.asarray(added_child_edges, dtype=np.intp).reshape(-1, 2),
            ))
            child_dag = Dag(n_child, arcs)
        else:
            # Pure retime/completion: the graph object — and with it
            # every cached level decomposition — is shared outright.
            child_dag = parent.dag

        # Surviving rows, retimed rows replaced, added rows appended.
        times = parent.times[survivors]
        names = [parent.task_names[j] for j in survivors]
        for j, task in self._retimes.items():
            times[node_map[j]] = task.times
            names[node_map[j]] = task.name
        if self._added:
            times = np.concatenate((
                times,
                np.array(
                    [t.times for (t, _p, _s) in self._added], dtype=float
                ),
            ))
            names.extend(t.name for (t, _p, _s) in self._added)
        child = Instance._trusted(
            times,
            tuple(names),
            child_dag,
            name=parent.name if name is None else name,
        )

        retimed_child_ids = tuple(
            int(node_map[j]) for j in sorted(self._retimes)
        )
        delta = InstanceDelta(
            parent_key=parent.content_key(),
            child_key=child.content_key(),
            n_parent=n_parent,
            n_child=n_child,
            node_map=tuple(int(v) for v in node_map),
            added_tasks=tuple(
                range(len(survivors), n_child)
            ),
            removed_tasks=tuple(sorted(removed)),
            retimed_tasks=retimed_child_ids,
            completed={
                int(node_map[j]): s
                for j, s in sorted(self._completed.items())
            },
            added_edges=tuple(added_child_edges),
            removed_edges=tuple(dict.fromkeys(self._removed_edges)),
        )
        return child, delta


# ---------------------------------------------------------------------------
# JSON operation lists (the service / CLI wire format)
# ---------------------------------------------------------------------------
def apply_operations(
    evolution: InstanceEvolution, operations: Sequence[Mapping[str, Any]]
) -> InstanceEvolution:
    """Apply a JSON-compatible operation list to an evolution builder.

    Each operation is an object with an ``op`` discriminator::

        {"op": "retime",      "task": 3, "times": [12.0, 7.0, ...]}
        {"op": "complete",    "task": 0, "start": 0.0}
        {"op": "add_task",    "times": [...], "predecessors": [1],
                              "successors": [], "name": "J-new"}
        {"op": "remove_task", "task": 2}
        {"op": "add_edge",    "source": 0, "target": 4}
        {"op": "remove_edge", "source": 0, "target": 2}

    This is the body format of ``POST /evolve`` / ``POST /replan`` and
    of ``repro evolve --ops``.  Raises :class:`ValueError` on an
    unknown ``op`` or missing field.
    """
    for k, op in enumerate(operations):
        if not isinstance(op, Mapping):
            raise ValueError(
                f"operation {k}: expected an object, got "
                f"{type(op).__name__}"
            )
        kind = op.get("op")
        try:
            if kind == "retime":
                evolution.retime(
                    op["task"], op["times"], name=op.get("name")
                )
            elif kind == "complete":
                evolution.mark_completed(op["task"], op["start"])
            elif kind == "add_task":
                evolution.add_task(
                    op["times"],
                    predecessors=op.get("predecessors", ()),
                    successors=op.get("successors", ()),
                    name=op.get("name"),
                )
            elif kind == "remove_task":
                evolution.remove_task(op["task"])
            elif kind == "add_edge":
                evolution.add_edge(op["source"], op["target"])
            elif kind == "remove_edge":
                evolution.remove_edge(op["source"], op["target"])
            else:
                raise ValueError(
                    f"unknown op {kind!r} (known: retime, complete, "
                    "add_task, remove_task, add_edge, remove_edge)"
                )
        except KeyError as exc:
            raise ValueError(
                f"operation {k} ({kind!r}): missing field {exc}"
            ) from None
    return evolution


def evolve(
    instance: Instance,
    operations: Sequence[Mapping[str, Any]],
    *,
    name: Optional[str] = None,
) -> Tuple[Instance, InstanceDelta]:
    """One-shot evolution from a JSON operation list.

    ``evolve(inst, ops)`` is
    ``apply_operations(inst.evolve(), ops).commit()`` — the form the
    service endpoints and the CLI use.
    """
    return apply_operations(instance.evolve(), operations).commit(
        name=name
    )
