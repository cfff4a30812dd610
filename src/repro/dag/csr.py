"""Frozen CSR (compressed sparse row) form of a DAG + NumPy graph kernels.

The per-node Python adjacency of :class:`repro.dag.Dag` is convenient for
small instances but dominates the solver at 10k–50k tasks: every
O(n + |E|) pass (bottom levels, critical paths, ready-set maintenance)
pays a Python-level loop per node and per edge.  :class:`DagCsr` packs
the same graph into six NumPy arrays — successor and predecessor
adjacency as ``indptr``/``indices`` pairs plus a level decomposition —
and this module provides the recurring passes as **array kernels** over
that layout:

* :func:`topo_order_levels` — a deterministic topological order (nodes
  sorted by depth level, by id within a level), computed by a
  frontier-at-a-time Kahn sweep;
* :func:`bottom_levels_kernel` — longest remaining path per node under a
  duration vector (the LIST priority quantity);
* :func:`longest_path_tree` — per node the longest weighted path
  ending there and its first critical predecessor;
  :func:`longest_path_kernel` reads the critical path off it, with the
  same first-predecessor tie-breaking as the Python reference;
* :func:`reachable_mask` — transitive predecessor/successor masks for
  the heavy-path construction.

Every kernel is *bit-identical* to its per-node Python reference: the
only float operations are ``max`` (exact) and the same additions the
reference performs, applied to the same IEEE doubles.  The property
suite in ``tests/test_csr_kernels.py`` asserts this on random DAGs.

Deep, narrow graphs (chains) degenerate the level decomposition to one
node per level, where per-level NumPy calls cost more than a tight
Python loop; the kernels detect this shape and fall back to an
equivalent scalar loop over the same CSR arrays.

Example::

    import numpy as np
    from repro.dag import Dag
    from repro.dag.csr import bottom_levels_kernel

    dag = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])  # diamond
    csr = dag.to_csr()                    # built once, cached on the Dag
    csr.succ_indptr, csr.succ_indices     # CSR successor adjacency
    csr.depths().n_levels                 # cached level decomposition
    durations = np.asarray([2.0, 3.0, 1.0, 4.0])
    bottom_levels_kernel(csr, durations)  # -> [9., 7., 5., 4.]
    # == the per-node reference (repro.core.list_variants) bit for bit

``Dag`` routes ``longest_path``/``ancestors``/``descendants`` through
these kernels transparently; pickling a ``Dag`` ships only
``(n, succ_indptr, succ_indices)`` (see ``Dag.__reduce__``), which is
what keeps batch-pool serialization cheap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DagCsr",
    "bottom_levels_kernel",
    "longest_path_kernel",
    "longest_path_tree",
    "reachable_mask",
    "topo_order_levels",
]

#: Every level sweep steps a level whose nodes and scanned arcs number
#: fewer than this in scalar code, over memoryviews of the same arrays,
#: and a larger one in NumPy: a level's NumPy calls have a fixed cost
#: that a few nodes and arcs do not repay, and a chain pays it once per
#: node.
_NARROW_LEVEL = 128


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices ``[s0..s0+c0), [s1..s1+c1), ...`` without a Python loop.

    ``starts``/``counts`` must be non-negative; zero-count entries are
    allowed and contribute nothing.
    """
    nz = counts > 0
    if not np.all(nz):
        starts = starts[nz]
        counts = counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    out = np.ones(total, dtype=np.intp)
    out[0] = starts[0]
    ends = np.cumsum(counts)
    out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    np.cumsum(out, out=out)
    return out


class _Levels:
    """A level decomposition: ``order`` holds node ids grouped by level
    (ascending level, ascending id within a level) and ``ptr`` delimits
    the groups; ``gather``/``seg_ptr`` pre-flatten each ordered node's
    adjacency slice for segmented (``reduceat``) reductions."""

    __slots__ = ("order", "ptr", "gather", "seg_ptr")

    def __init__(
        self,
        order: np.ndarray,
        ptr: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ):
        self.order = order
        self.ptr = ptr
        counts = indptr[order + 1] - indptr[order]
        seg_ptr = np.zeros(len(order) + 1, dtype=np.intp)
        np.cumsum(counts, out=seg_ptr[1:])
        self.seg_ptr = seg_ptr
        self.gather = indices[_gather_ranges(indptr[order], counts)]

    @property
    def n_levels(self) -> int:
        return len(self.ptr) - 1


def _kahn_levels(
    n: int,
    fwd_indptr: np.ndarray,
    fwd_indices: np.ndarray,
    rev_indptr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frontier-at-a-time Kahn sweep over the CSR arrays.

    Returns ``(order, ptr)`` — nodes grouped by level (depth along
    ``fwd`` edges), ascending within a level — or raises ``ValueError``
    when the edge set has a cycle (fewer than ``n`` nodes ever become
    ready).  A frontier whose nodes and out-arcs number fewer than
    :data:`_NARROW_LEVEL` steps in scalar code, a larger one in NumPy;
    both update the same in-degree array.
    """
    indeg = np.diff(rev_indptr)
    outdeg = np.diff(fwd_indptr)
    indptr, indices, deg, out = (
        memoryview(a) for a in (fwd_indptr, fwd_indices, indeg, outdeg)
    )
    frontier = np.flatnonzero(indeg == 0)
    work = len(frontier) + int(outdeg[frontier].sum())
    parts: List[np.ndarray] = []
    run: List[int] = []  # the narrow levels' nodes since the last part
    ptr = [0]
    while len(frontier):
        ptr.append(ptr[-1] + len(frontier))
        if work < _NARROW_LEVEL:
            level = (
                frontier if isinstance(frontier, list) else frontier.tolist()
            )
            run += level
            frontier, work = [], 0
            for u in level:
                for k in range(indptr[u], indptr[u + 1]):
                    v = indices[k]
                    deg[v] -= 1
                    if not deg[v]:
                        frontier.append(v)
                        work += 1 + out[v]
            frontier.sort()
        else:
            if run:
                parts.append(np.asarray(run, dtype=np.intp))
                run = []
            frontier = np.asarray(frontier, dtype=np.intp)
            parts.append(frontier)
            flat = _gather_ranges(fwd_indptr[frontier], outdeg[frontier])
            targets, hits = np.unique(fwd_indices[flat], return_counts=True)
            indeg[targets] -= hits
            frontier = targets[indeg[targets] == 0]
            work = len(frontier) + int(outdeg[frontier].sum())
    if ptr[-1] != n:
        raise ValueError("edge set contains a directed cycle")
    parts.append(np.asarray(run, dtype=np.intp))
    return np.concatenate(parts), np.asarray(ptr, dtype=np.intp)


class DagCsr:
    """Frozen CSR image of a DAG over nodes ``0..n-1``.

    ``succ_indptr``/``succ_indices`` give each node's direct successors
    (sorted within a row); ``pred_indptr``/``pred_indices`` the direct
    predecessors.  Rows are in node order, so the lexicographic edge
    list is ``(repeat(arange(n), out_degrees), succ_indices)``.

    The level decompositions (by depth for forward passes, by height
    for backward passes) are computed lazily and cached — building one
    validates acyclicity as a side effect.
    """

    __slots__ = (
        "n",
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
        "_depths",
        "_heights",
    )

    def __init__(
        self,
        n: int,
        succ_indptr: np.ndarray,
        succ_indices: np.ndarray,
        pred_indptr: np.ndarray,
        pred_indices: np.ndarray,
    ):
        self.n = int(n)
        self.succ_indptr = succ_indptr
        self.succ_indices = succ_indices
        self.pred_indptr = pred_indptr
        self.pred_indices = pred_indices
        self._depths: Optional[_Levels] = None
        self._heights: Optional[_Levels] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_succ_arrays(
        cls, n: int, succ_indptr: np.ndarray, succ_indices: np.ndarray
    ) -> "DagCsr":
        """Build from a canonical successor CSR (deduplicated, sorted
        within each row — see :func:`repro.dag.graph.canonical_successors`)
        and derive the predecessor direction.  Does not check
        acyclicity."""
        u = np.repeat(np.arange(n, dtype=np.intp), np.diff(succ_indptr))
        pred_indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(succ_indices, minlength=n), out=pred_indptr[1:]
        )
        pred_indices = u[np.lexsort((u, succ_indices))]
        return cls(n, succ_indptr, succ_indices, pred_indptr, pred_indices)

    @property
    def n_edges(self) -> int:
        """Number of arcs."""
        return int(len(self.succ_indices))

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees."""
        return np.diff(self.succ_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees."""
        return np.diff(self.pred_indptr)

    def edge_sources(self) -> np.ndarray:
        """Source endpoint of every arc, aligned with ``succ_indices``."""
        return np.repeat(np.arange(self.n, dtype=np.intp),
                         self.out_degrees())

    # ------------------------------------------------------------------
    def depths(self) -> _Levels:
        """Level decomposition by depth (longest unit path from a
        source), with predecessor adjacency pre-flattened per node."""
        if self._depths is None:
            order, ptr = _kahn_levels(
                self.n, self.succ_indptr, self.succ_indices,
                self.pred_indptr,
            )
            self._depths = _Levels(
                order, ptr, self.pred_indptr, self.pred_indices
            )
        return self._depths

    def heights(self) -> _Levels:
        """Level decomposition by height (longest unit path to a sink),
        with successor adjacency pre-flattened per node."""
        if self._heights is None:
            order, ptr = _kahn_levels(
                self.n, self.pred_indptr, self.pred_indices,
                self.succ_indptr,
            )
            self._heights = _Levels(
                order, ptr, self.succ_indptr, self.succ_indices
            )
        return self._heights

    def validate_acyclic(self) -> None:
        """Raise ``ValueError`` when the arcs contain a directed cycle."""
        self.depths()


def topo_order_levels(csr: DagCsr) -> np.ndarray:
    """A deterministic topological order: by depth level, by node id
    within a level.

    This is the order every array kernel consumes.  It generally differs
    from :meth:`repro.dag.Dag.topological_order` (the lexicographically
    smallest order), which is kept for API compatibility; all kernel
    results are independent of which valid order is used.
    """
    return csr.depths().order


def _sweep_ranges(levels: _Levels) -> List[Tuple[int, int, bool]]:
    """``(a, b, narrow)`` ranges of order positions covering every
    level but the first, for the kernels that sweep a level
    decomposition: a level whose nodes and arcs number at least
    :data:`_NARROW_LEVEL` alone (``narrow`` false, one NumPy step), and
    each maximal run of smaller levels together (one scalar loop: a
    level reads only earlier levels, so a run is swept node by node in
    order)."""
    n_levels = levels.n_levels
    if n_levels < 2:
        return []
    ptr = levels.ptr
    narrow = np.diff(ptr) + np.diff(levels.seg_ptr[ptr]) < _NARROW_LEVEL
    # Level d >= 2 joins the range before it when both are narrow.
    joins = narrow[2:] & narrow[1:-1]
    starts = np.concatenate([[1], np.flatnonzero(~joins) + 2])
    bounds = ptr[np.append(starts, n_levels)].tolist()
    return list(zip(bounds[:-1], bounds[1:], narrow[starts].tolist()))


def bottom_levels_kernel(
    csr: DagCsr, durations: Sequence[float]
) -> np.ndarray:
    """Bottom levels: ``level[v] = dur[v] + max(level[s] for s in succ(v))``.

    Processes nodes one *height class* at a time with a segmented max
    (``np.maximum.reduceat``), and runs of small classes in an
    equivalent scalar loop (:func:`_sweep_ranges`).  Bit-identical
    to the per-node reference.
    """
    dur = np.ascontiguousarray(durations, dtype=float)
    if len(dur) != csr.n:
        raise ValueError("one duration per node required")
    level = dur.copy()
    hs = csr.heights()
    lv, dv, order, seg, gather = (
        memoryview(a) for a in (level, dur, hs.order, hs.seg_ptr, hs.gather)
    )
    for a, b, narrow in _sweep_ranges(hs):
        if narrow:
            for i in range(a, b):
                best = 0.0
                for k in range(seg[i], seg[i + 1]):
                    x = lv[gather[k]]
                    if x > best:
                        best = x
                v = order[i]
                lv[v] = dv[v] + best
            continue
        nodes = hs.order[a:b]
        lo = hs.seg_ptr[a]
        vals = level[hs.gather[lo:hs.seg_ptr[b]]]
        level[nodes] = dur[nodes] + np.maximum.reduceat(
            vals, hs.seg_ptr[a:b] - lo
        )
    return level


def longest_path_tree(
    csr: DagCsr, weights: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """The longest-path tree: ``(dist, parent)``.

    ``dist[v] = max(0, max(dist[u] for u in pred(v))) + w[v]`` processed
    one depth class at a time, runs of small classes in scalar code
    (:func:`_sweep_ranges`); ``parent[v]`` is the first
    predecessor (in ``pred_indices`` order) attaining that maximum, or
    ``-1`` when no predecessor has a positive distance (a source, with
    positive weights).  Under positive weights ``v`` finishes at
    ``dist[v]`` when it starts as soon as its predecessors finish, and
    ``parent[v]`` is its latest-finishing predecessor.
    """
    w = np.ascontiguousarray(weights, dtype=float)
    if len(w) != csr.n:
        raise ValueError("one weight per node required")
    dist = w.copy()
    parent = np.full(csr.n, -1, dtype=np.intp)
    if csr.n == 0:
        return dist, parent
    ds = csr.depths()
    dl, pl, wv, order, seg, gather = (
        memoryview(a)
        for a in (dist, parent, w, ds.order, ds.seg_ptr, ds.gather)
    )
    flat_pos = np.arange(len(ds.gather), dtype=np.intp)
    for a, b, narrow in _sweep_ranges(ds):
        if narrow:
            for i in range(a, b):
                best, arg = 0.0, -1
                for k in range(seg[i], seg[i + 1]):
                    u = gather[k]
                    if dl[u] > best:
                        best, arg = dl[u], u
                v = order[i]
                dl[v] = best + wv[v]
                pl[v] = arg
            continue
        nodes = ds.order[a:b]
        lo = ds.seg_ptr[a]
        sl = slice(lo, ds.seg_ptr[b])
        offs = ds.seg_ptr[a:b] - lo
        vals = dist[ds.gather[sl]]
        mx = np.maximum.reduceat(vals, offs)
        sizes = np.diff(np.append(offs, len(vals)))
        pos = np.where(
            vals == np.repeat(mx, sizes), flat_pos[sl], len(ds.gather)
        )
        first = np.minimum.reduceat(pos, offs)
        pick = mx > 0.0
        parent[nodes[pick]] = ds.gather[first[pick]]
        dist[nodes] = np.maximum(mx, 0.0) + w[nodes]
    return dist, parent


def longest_path_kernel(
    csr: DagCsr, weights: Sequence[float], want_path: bool = False
) -> Tuple[float, List[int]]:
    """Weighted longest path: ``(length, path)``.

    Read off :func:`longest_path_tree`: the path end is the first node
    attaining the maximum distance and each hop the first predecessor
    attaining its segment maximum — exactly the tie-breaking of the
    Python reference (``Dag.longest_path``).  With ``want_path=False``
    the backtracking is skipped.
    """
    dist, parent = longest_path_tree(csr, weights)
    if csr.n == 0:
        return 0.0, []
    end = int(np.argmax(dist))
    length = float(dist[end])
    if not want_path:
        return length, []
    path = [end]
    pl = parent
    while pl[path[-1]] != -1:
        path.append(int(pl[path[-1]]))
    path.reverse()
    return length, path


def reachable_mask(
    csr: DagCsr, start: int, direction: str = "pred"
) -> np.ndarray:
    """Boolean mask of all transitive predecessors (``"pred"``) or
    successors (``"succ"``) of ``start``, excluding ``start`` itself."""
    if direction == "pred":
        indptr, indices = csr.pred_indptr, csr.pred_indices
    elif direction == "succ":
        indptr, indices = csr.succ_indptr, csr.succ_indices
    else:
        raise ValueError(f"direction must be 'pred' or 'succ', "
                         f"got {direction!r}")
    seen = np.zeros(csr.n, dtype=bool)
    frontier = indices[indptr[start]:indptr[start + 1]]
    while frontier.size:
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        flat = _gather_ranges(starts, counts)
        if not flat.size:
            break
        frontier = np.unique(indices[flat])
    return seen
