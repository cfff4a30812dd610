"""Directed acyclic graph substrate.

The paper models precedence constraints as a DAG ``G = (V, E)`` over the task
set ``V = {0, .., n-1}``: an arc ``(i, j)`` means task ``j`` cannot start
before task ``i`` completes (Section 1 of the paper).  This module provides a
small, immutable DAG type tailored to the scheduling algorithms in
:mod:`repro.core`.

Nodes are consecutive integers ``0..n-1``.  The canonical internal form is
the frozen CSR image of :mod:`repro.dag.csr` (``indptr``/``indices`` arrays
for successors *and* predecessors), built vectorized at construction time —
which is also when acyclicity is validated.  The tuple-of-tuples adjacency
and the lexicographically-smallest topological order of the original
implementation are still available, but are materialized lazily: the hot
O(n + |E|) passes (critical paths, bottom levels, ready-set maintenance)
all run as NumPy kernels over the CSR arrays instead.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .csr import DagCsr, longest_path_kernel

__all__ = ["CycleError", "Dag", "canonical_successors"]


class CycleError(ValueError):
    """Raised when the supplied edge set contains a directed cycle."""


def canonical_successors(
    n_nodes: int, edges: Iterable[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """The canonical successor CSR ``(indptr, indices)`` of an arc list.

    The one canonicalisation of an arc set over nodes ``0..n_nodes-1``,
    shared by :class:`Dag` and the instance content key
    (:func:`repro.io.content_key_from_dict`): every arc must be a pair
    of in-range endpoints, self-loops raise :class:`CycleError`, and
    duplicate arcs collapse while the rest sort lexicographically — so
    neither the input order nor repeats of an arc ever show.
    Acyclicity is *not* checked here.
    """
    try:
        if isinstance(edges, np.ndarray):
            e = edges.astype(np.intp, copy=False)
        else:
            edges = list(edges)
            if not set(map(len, edges)) <= {2}:
                raise TypeError
            e = np.fromiter(
                chain.from_iterable(edges), dtype=np.intp,
                count=2 * len(edges),
            ).reshape(-1, 2)
    except OverflowError:
        raise ValueError(
            f"edge endpoint out of range for {n_nodes} nodes"
        ) from None
    except TypeError:
        raise ValueError("edges must be (u, v) pairs") from None
    if e.size == 0:
        return np.zeros(n_nodes + 1, dtype=np.intp), e.reshape(0)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(
            f"edges must be (u, v) pairs, got an array of shape {e.shape}"
        )
    u, v = e[:, 0], e[:, 1]
    if e.min() < 0 or e.max() >= n_nodes:
        bad = e[(u < 0) | (u >= n_nodes) | (v < 0) | (v >= n_nodes)][0]
        raise ValueError(
            f"edge ({bad[0]}, {bad[1]}) out of range for {n_nodes} nodes"
        )
    loops = u == v
    if loops.any():
        raise CycleError(f"self-loop on node {u[loops][0]}")
    # One sort of the pair codes u*n + v dedups and orders the arcs
    # lexicographically.
    src, dst = np.divmod(np.unique(u * n_nodes + v), n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
    return indptr, dst


class Dag:
    """An immutable directed acyclic graph over nodes ``0..n_nodes-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes; nodes are the integers ``0..n_nodes-1``.
    edges:
        Iterable of ``(u, v)`` arcs meaning *u precedes v*.  Duplicate arcs
        are collapsed; self-loops raise :class:`CycleError`.

    Raises
    ------
    CycleError
        If the arcs contain a directed cycle.
    ValueError
        If an endpoint is out of range or ``n_nodes`` is negative.
    """

    __slots__ = ("_n", "_csr", "_succ", "_pred", "_edges", "_topo_order")

    def __init__(self, n_nodes: int, edges: Iterable[Tuple[int, int]] = ()):
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {n_nodes}")
        self._n = int(n_nodes)
        self._csr = DagCsr.from_succ_arrays(
            self._n, *canonical_successors(self._n, edges)
        )
        try:
            self._csr.validate_acyclic()
        except ValueError as exc:
            raise CycleError(str(exc)) from None
        self._succ: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._pred: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._edges: Optional[Tuple[Tuple[int, int], ...]] = None
        self._topo_order: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, succ: Sequence[Iterable[int]]) -> "Dag":
        """Build a DAG from a successor-list representation."""
        n = len(succ)
        return cls(n, ((u, v) for u in range(n) for v in succ[u]))

    @classmethod
    def chain(cls, n_nodes: int) -> "Dag":
        """A simple path ``0 -> 1 -> ... -> n-1`` (a fully sequential DAG)."""
        return cls(n_nodes, ((i, i + 1) for i in range(n_nodes - 1)))

    @classmethod
    def empty(cls, n_nodes: int) -> "Dag":
        """``n_nodes`` independent tasks (no precedence constraints)."""
        return cls(n_nodes)

    @classmethod
    def _from_csr_arrays(
        cls, n: int, succ_indptr: np.ndarray, succ_indices: np.ndarray
    ) -> "Dag":
        """Rebuild from trusted CSR arrays (unpickling fast path).

        Skips validation — the arrays come from an already-validated
        instance — and recomputes the predecessor CSR vectorized.
        """
        dag = cls.__new__(cls)
        dag._n = int(n)
        dag._csr = DagCsr.from_succ_arrays(dag._n, succ_indptr, succ_indices)
        dag._succ = None
        dag._pred = None
        dag._edges = None
        dag._topo_order = None
        return dag

    def __reduce__(self):
        # Pickle only the successor CSR (two compact NumPy arrays) — the
        # predecessor CSR and all lazy caches are rebuilt on load.  This
        # is what the batch engine ships to pool workers, so instance
        # serialization no longer scales with Python tuple overhead.
        return (
            Dag._from_csr_arrays,
            (self._n, self._csr.succ_indptr, self._csr.succ_indices),
        )

    # ------------------------------------------------------------------
    # CSR access
    # ------------------------------------------------------------------
    def to_csr(self) -> DagCsr:
        """The frozen CSR image of this DAG (memoized; always present).

        Every array kernel (:mod:`repro.dag.csr`) and the array-native
        solver passes consume this object; it is built once at
        construction and shared by all of them.
        """
        return self._csr

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of (deduplicated) arcs."""
        return self._csr.n_edges

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All arcs, sorted lexicographically."""
        if self._edges is None:
            self._edges = tuple(
                zip(
                    self._csr.edge_sources().tolist(),
                    self._csr.succ_indices.tolist(),
                )
            )
        return self._edges

    def _succ_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        if self._succ is None:
            indptr = self._csr.succ_indptr.tolist()
            indices = self._csr.succ_indices.tolist()
            self._succ = tuple(
                tuple(indices[indptr[v]:indptr[v + 1]])
                for v in range(self._n)
            )
        return self._succ

    def _pred_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        if self._pred is None:
            indptr = self._csr.pred_indptr.tolist()
            indices = self._csr.pred_indices.tolist()
            self._pred = tuple(
                tuple(indices[indptr[v]:indptr[v + 1]])
                for v in range(self._n)
            )
        return self._pred

    def successors(self, v: int) -> Tuple[int, ...]:
        """Direct successors Γ⁺(v) — tasks that must wait for ``v``."""
        return self._succ_tuples()[v]

    def predecessors(self, v: int) -> Tuple[int, ...]:
        """Direct predecessors Γ⁻(v) — tasks ``v`` must wait for."""
        return self._pred_tuples()[v]

    def in_degree(self, v: int) -> int:
        """Number of direct predecessors of ``v``."""
        if not (0 <= v < self._n):
            raise IndexError(f"node {v} out of range")
        return int(
            self._csr.pred_indptr[v + 1] - self._csr.pred_indptr[v]
        )

    def out_degree(self, v: int) -> int:
        """Number of direct successors of ``v``."""
        if not (0 <= v < self._n):
            raise IndexError(f"node {v} out of range")
        return int(
            self._csr.succ_indptr[v + 1] - self._csr.succ_indptr[v]
        )

    def sources(self) -> Tuple[int, ...]:
        """Nodes with no predecessors (ready at time zero)."""
        return tuple(
            np.flatnonzero(self._csr.in_degrees() == 0).tolist()
        )

    def sinks(self) -> Tuple[int, ...]:
        """Nodes with no successors."""
        return tuple(
            np.flatnonzero(self._csr.out_degrees() == 0).tolist()
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``(u, v)`` is present."""
        row = self._csr.succ_indices[
            self._csr.succ_indptr[u]:self._csr.succ_indptr[u + 1]
        ]
        k = int(np.searchsorted(row, v))
        return k < len(row) and int(row[k]) == v

    # ------------------------------------------------------------------
    # orders and reachability
    # ------------------------------------------------------------------
    def _compute_topo_order(self) -> Tuple[int, ...]:
        """Kahn's algorithm with a heap — the lexicographically smallest
        topological order, kept for reproducibility of the original API.
        (The array kernels use the level order of
        :func:`repro.dag.csr.topo_order_levels` instead; all kernel
        results are order-independent.)"""
        from heapq import heapify, heappop, heappush

        indptr = self._csr.succ_indptr.tolist()
        indices = self._csr.succ_indices.tolist()
        indeg = self._csr.in_degrees().tolist()
        ready = [v for v in range(self._n) if indeg[v] == 0]
        heapify(ready)
        order: List[int] = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for k in range(indptr[v], indptr[v + 1]):
                w = indices[k]
                indeg[w] -= 1
                if indeg[w] == 0:
                    heappush(ready, w)
        if len(order) != self._n:  # pragma: no cover - caught at init
            raise CycleError("edge set contains a directed cycle")
        return tuple(order)

    def topological_order(self) -> Tuple[int, ...]:
        """A deterministic topological order of all nodes."""
        if self._topo_order is None:
            self._topo_order = self._compute_topo_order()
        return self._topo_order

    def ancestors(self, v: int) -> Set[int]:
        """All (transitive) predecessors of ``v``, excluding ``v``."""
        from .csr import reachable_mask

        return set(
            np.flatnonzero(reachable_mask(self._csr, v, "pred")).tolist()
        )

    def descendants(self, v: int) -> Set[int]:
        """All (transitive) successors of ``v``, excluding ``v``."""
        from .csr import reachable_mask

        return set(
            np.flatnonzero(reachable_mask(self._csr, v, "succ")).tolist()
        )

    def reachable(self, u: int, v: int) -> bool:
        """Whether there is a directed path from ``u`` to ``v`` (u != v)."""
        if u == v:
            return False
        return v in self.descendants(u)

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def transitive_closure(self) -> "Dag":
        """DAG with an arc ``(u, v)`` for every directed path ``u ->* v``."""
        desc: Dict[int, Set[int]] = {}
        succ = self._succ_tuples()
        for v in reversed(self.topological_order()):
            d: Set[int] = set()
            for w in succ[v]:
                d.add(w)
                d |= desc[w]
            desc[v] = d
        return Dag(self._n, ((u, v) for u in range(self._n) for v in desc[u]))

    def transitive_reduction(self) -> "Dag":
        """Minimal sub-DAG with the same reachability relation.

        An arc ``(u, v)`` is redundant iff ``v`` is reachable from ``u``
        through some other successor of ``u``.
        """
        desc: Dict[int, Set[int]] = {}
        succ = self._succ_tuples()
        for v in reversed(self.topological_order()):
            d: Set[int] = set()
            for w in succ[v]:
                d.add(w)
                d |= desc[w]
            desc[v] = d
        keep = []
        for u in range(self._n):
            for v in succ[u]:
                redundant = any(
                    v in desc[w] for w in succ[u] if w != v
                )
                if not redundant:
                    keep.append((u, v))
        return Dag(self._n, keep)

    def reversed_dag(self) -> "Dag":
        """The DAG with every arc flipped."""
        return Dag(
            self._n,
            np.column_stack(
                [self._csr.succ_indices, self._csr.edge_sources()]
            ),
        )

    def induced_subgraph(self, nodes: Iterable[int]) -> Tuple["Dag", Dict[int, int]]:
        """Subgraph on ``nodes``; returns the new DAG and old->new node map."""
        keep = sorted(set(int(v) for v in nodes))
        for v in keep:
            if not (0 <= v < self._n):
                raise ValueError(f"node {v} out of range")
        remap = {old: new for new, old in enumerate(keep)}
        edges = [
            (remap[u], remap[v])
            for (u, v) in self.edges
            if u in remap and v in remap
        ]
        return Dag(len(keep), edges), remap

    # ------------------------------------------------------------------
    # weighted longest path (the "critical path" of Section 1)
    # ------------------------------------------------------------------
    def longest_path_length(self, weights: Sequence[float]) -> float:
        """Maximum total node weight along any directed path.

        This is the paper's *critical path length* ``L`` for node weights
        equal to processing times.  Runs in O(V + E) as an array kernel
        over the CSR form.
        """
        if len(weights) != self._n:
            raise ValueError("one weight per node required")
        if self._n == 0:
            return 0.0
        length, _ = longest_path_kernel(self._csr, weights)
        return length

    def longest_path(self, weights: Sequence[float]) -> List[int]:
        """A node sequence realizing :meth:`longest_path_length`."""
        if len(weights) != self._n:
            raise ValueError("one weight per node required")
        if self._n == 0:
            return []
        _, path = longest_path_kernel(self._csr, weights, want_path=True)
        return path

    def depth(self) -> int:
        """Number of nodes on the longest (unit-weight) path; 0 if empty."""
        if self._n == 0:
            return 0
        return int(round(self.longest_path_length([1.0] * self._n)))

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(
                self._csr.succ_indptr, other._csr.succ_indptr
            )
            and np.array_equal(
                self._csr.succ_indices, other._csr.succ_indices
            )
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._n,
                self._csr.succ_indptr.tobytes(),
                self._csr.succ_indices.tobytes(),
            )
        )

    def __repr__(self) -> str:
        return f"Dag(n_nodes={self._n}, n_edges={self.n_edges})"
