"""Cross-instance packing: many small problems as one array program.

The dominant service/campaign workload is *fleets* of small instances,
where per-instance Python dispatch dwarfs kernel time.  This module
packs B independent instances into block-diagonal union structures so
every stage of the pipeline can run once over the whole batch:

* :class:`BatchedCsr` — the disjoint union of B ``DagCsr`` images as
  one CSR over ``node_ptr[b] .. node_ptr[b+1]`` node ranges.  Because
  every DAG kernel recurrence (levels, bottom levels, longest paths)
  is local to a node's neighbors, running the *union* through the
  pinned kernels of :mod:`repro.dag.csr` yields exactly the per-block
  vectors — bit for bit.
* :class:`StackedProfiles` — the per-instance
  :func:`repro.core.arrays.instance_arrays` profile pack stacked over
  the batch, padded to the widest ``m`` (padding repeats ``p(m_b)``,
  which the canonical-breakpoint plateau rule provably collapses, so
  padded and unpadded profiles produce identical breaks and segments).

Everything here is an exact-float mirror of the per-instance reference
path: the batched property suite (``tests/test_batchkernel.py``)
asserts slice-for-slice equality against :class:`repro.dag.csr.DagCsr`,
``instance_arrays`` and ``Instance.trivial_lower_bound``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.task import _PLATEAU_RTOL
from ..dag.csr import DagCsr, longest_path_dists

__all__ = [
    "BatchedCsr",
    "StackedProfiles",
    "batched_longest_path_lengths",
    "batched_trivial_lower_bounds",
    "pack_csrs",
    "stack_profiles",
]


class BatchedCsr:
    """Disjoint-union CSR of a batch of DAGs, with per-block offsets.

    ``union`` is a plain :class:`~repro.dag.csr.DagCsr` over
    ``n_total`` nodes whose arcs are the per-instance arcs shifted by
    each block's node offset — block ``b`` owns the contiguous node
    range ``node_ptr[b]:node_ptr[b+1]`` and the contiguous arc range
    ``edge_ptr[b]:edge_ptr[b+1]``.  ``row_of[v]`` maps a union node
    back to its block.
    """

    __slots__ = ("n_blocks", "n_total", "node_ptr", "edge_ptr",
                 "row_of", "union")

    def __init__(
        self,
        n_blocks: int,
        node_ptr: np.ndarray,
        edge_ptr: np.ndarray,
        union: DagCsr,
    ):
        self.n_blocks = int(n_blocks)
        self.n_total = int(node_ptr[-1])
        self.node_ptr = node_ptr
        self.edge_ptr = edge_ptr
        self.row_of = np.repeat(
            np.arange(n_blocks, dtype=np.intp), np.diff(node_ptr)
        )
        self.union = union

    def block_slice(self, b: int) -> slice:
        """Node range of block ``b`` in union coordinates."""
        return slice(int(self.node_ptr[b]), int(self.node_ptr[b + 1]))


def _shifted_indptr(
    indptrs: List[np.ndarray], edge_off: np.ndarray
) -> np.ndarray:
    """Concatenate per-block CSR indptrs into the union indptr."""
    parts = [np.zeros(1, dtype=np.intp)]
    for k, ip in enumerate(indptrs):
        parts.append(ip[1:] + edge_off[k])
    return np.concatenate(parts)


def pack_csrs(csrs: Sequence[DagCsr]) -> BatchedCsr:
    """Pack per-instance CSR images into one :class:`BatchedCsr`.

    Pure concatenation with offsets: within each block the successor
    and predecessor index arrays keep their original (sorted) order,
    so ``union.succ_indices[edge_ptr[b]:edge_ptr[b+1]] - node_ptr[b]``
    reproduces block ``b``'s arrays exactly.
    """
    csrs = list(csrs)
    nb = len(csrs)
    node_ptr = np.zeros(nb + 1, dtype=np.intp)
    np.cumsum([c.n for c in csrs], out=node_ptr[1:])
    edge_ptr = np.zeros(nb + 1, dtype=np.intp)
    np.cumsum([c.n_edges for c in csrs], out=edge_ptr[1:])
    if nb:
        succ_indptr = _shifted_indptr(
            [c.succ_indptr for c in csrs], edge_ptr[:-1]
        )
        pred_indptr = _shifted_indptr(
            [c.pred_indptr for c in csrs], edge_ptr[:-1]
        )
        succ_indices = np.concatenate(
            [c.succ_indices + node_ptr[k] for k, c in enumerate(csrs)]
        ) if edge_ptr[-1] else np.zeros(0, dtype=np.intp)
        pred_indices = np.concatenate(
            [c.pred_indices + node_ptr[k] for k, c in enumerate(csrs)]
        ) if edge_ptr[-1] else np.zeros(0, dtype=np.intp)
    else:
        succ_indptr = pred_indptr = np.zeros(1, dtype=np.intp)
        succ_indices = pred_indices = np.zeros(0, dtype=np.intp)
    union = DagCsr(
        int(node_ptr[-1]), succ_indptr, succ_indices,
        pred_indptr, pred_indices,
    )
    return BatchedCsr(nb, node_ptr, edge_ptr, union)


def _segmented_max(
    values: np.ndarray, node_ptr: np.ndarray
) -> np.ndarray:
    """Per-block max of a union-node vector (0.0 for empty blocks)."""
    nb = len(node_ptr) - 1
    out = np.zeros(nb, dtype=float)
    counts = np.diff(node_ptr)
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(
            values, node_ptr[nonempty]
        )
    return out


def batched_longest_path_lengths(
    bcsr: BatchedCsr, weights: np.ndarray
) -> np.ndarray:
    """Per-block weighted critical-path lengths, one kernel launch.

    Equals ``Dag.longest_path_length`` per block: the distance
    recurrence runs over the union (:func:`longest_path_dists`), then
    one segmented max per block replaces the per-instance argmax.
    """
    if bcsr.n_total == 0:
        return np.zeros(bcsr.n_blocks, dtype=float)
    dist = longest_path_dists(bcsr.union, weights)
    return _segmented_max(dist, bcsr.node_ptr)


def batched_trivial_lower_bounds(
    instances: Sequence[Instance], bcsr: BatchedCsr
) -> np.ndarray:
    """``Instance.trivial_lower_bound`` for every block, batched.

    The critical-path side is one union kernel launch; the total-work
    side replays the reference's *sequential* Python summation per
    block (NumPy pairwise summation could round differently), which is
    cheap relative to everything else.
    """
    min_times = np.concatenate(
        [[t.min_time for t in inst.tasks] for inst in instances]
    ) if bcsr.n_total else np.zeros(0)
    cp = batched_longest_path_lengths(bcsr, min_times)
    out = np.zeros(bcsr.n_blocks, dtype=float)
    for b, inst in enumerate(instances):
        total = sum(t.sequential_work for t in inst.tasks)
        out[b] = max(float(cp[b]), total / inst.m)
    return out


class StackedProfiles(NamedTuple):
    """Batch-stacked twin of :class:`repro.core.arrays.InstanceArrays`.

    Tasks of all blocks are concatenated (``n_total`` rows, block ``b``
    owning ``node_ptr[b]:node_ptr[b+1]``); the times matrix is padded
    to ``m_max`` columns by repeating each task's ``p(m_b)`` — a pure
    plateau, invisible to the canonical-breakpoint rule.  Segment and
    breakpoint arrays are flat in (task, increasing ``l``) order with
    per-task pointer arrays, exactly the per-instance flattening.
    """

    n_blocks: int
    node_ptr: np.ndarray    #: (B+1,) task offsets per block
    m_blocks: np.ndarray    #: (B,) processor count per block
    m_max: int
    m_of_task: np.ndarray   #: (N,) owning block's m, per task
    times: np.ndarray       #: (N, m_max) padded processing times
    min_time: np.ndarray    #: (N,) p(m_b)
    max_time: np.ndarray    #: (N,) p(1)
    work_lo: np.ndarray     #: (N,) rigid-task work lower bound
    brk_ptr: np.ndarray     #: (N+1,) per-task canonical break offsets
    brk_level: np.ndarray   #: flat break levels l
    brk_value: np.ndarray   #: flat break times p(l)
    nseg: np.ndarray        #: (N,) segments per task (= breaks - 1)
    seg_task: np.ndarray    #: flat segment -> task row
    seg_slope: np.ndarray   #: flat chord slopes
    seg_intercept: np.ndarray  #: flat chord intercepts


def stack_profiles(instances: Sequence[Instance]) -> StackedProfiles:
    """Stack every instance's task profiles into one padded pack.

    Per block the slices reproduce ``instance_arrays(instance)`` (and
    each task's ``breakpoints()``/``segments()``) exactly: the same
    source floats, the same canonical-break comparisons
    (``p(l) < last * (1 - _PLATEAU_RTOL)``, vectorized one level at a
    time) and the same chord arithmetic in the same order.
    """
    nb = len(instances)
    node_ptr = np.zeros(nb + 1, dtype=np.intp)
    np.cumsum([inst.n_tasks for inst in instances], out=node_ptr[1:])
    n_total = int(node_ptr[-1])
    m_blocks = np.asarray(
        [inst.m for inst in instances], dtype=np.intp
    )
    m_max = int(m_blocks.max()) if nb else 1
    m_of_task = np.repeat(m_blocks, np.diff(node_ptr)) if nb else (
        np.zeros(0, dtype=np.intp)
    )

    times = np.empty((n_total, m_max), dtype=float)
    for b, inst in enumerate(instances):
        m = int(m_blocks[b])
        block = np.array(
            [t.times for t in inst.tasks], dtype=float
        ).reshape(inst.n_tasks, m)
        s, e = node_ptr[b], node_ptr[b + 1]
        times[s:e, :m] = block
        if m < m_max:
            times[s:e, m:] = block[:, m - 1:m]

    max_time = times[:, 0].copy()
    min_time = (
        times[np.arange(n_total), m_of_task - 1]
        if n_total else np.zeros(0)
    )

    # Canonical breakpoints, vectorized level by level: a column enters
    # a task's break list iff it exists (l <= m_b) and drops strictly
    # below the plateau band of the last kept break — the identical
    # comparison `times[l-1] < last * (1 - _PLATEAU_RTOL)` of
    # MalleableTask.__init__.  Padded columns repeat p(m_b) and can
    # never pass it.
    is_break = np.zeros((n_total, m_max), dtype=bool)
    if n_total:
        is_break[:, 0] = True
        last = times[:, 0].copy()
        for l in range(2, m_max + 1):
            col = times[:, l - 1]
            mask = (l <= m_of_task) & (
                col < last * (1.0 - _PLATEAU_RTOL)
            )
            is_break[:, l - 1] = mask
            np.copyto(last, col, where=mask)

    flat = np.flatnonzero(is_break.ravel())
    brk_task = flat // m_max
    brk_level = (flat % m_max + 1).astype(np.intp)
    brk_value = times.ravel()[flat]
    nbrk = is_break.sum(axis=1).astype(np.intp)
    brk_ptr = np.zeros(n_total + 1, dtype=np.intp)
    np.cumsum(nbrk, out=brk_ptr[1:])

    # Chords between consecutive breaks of the same task — the exact
    # arithmetic of MalleableTask.segments() (l * x products, then
    # slope = (w_lo - w_hi) / (x_lo - x_hi), intercept from the high
    # endpoint).
    pair = np.flatnonzero(brk_task[:-1] == brk_task[1:]) if len(
        flat
    ) > 1 else np.zeros(0, dtype=np.intp)
    l_hi = brk_level[pair].astype(float)
    l_lo = brk_level[pair + 1].astype(float)
    x_hi = brk_value[pair]
    x_lo = brk_value[pair + 1]
    w_hi = l_hi * x_hi
    w_lo = l_lo * x_lo
    seg_slope = (w_lo - w_hi) / (x_lo - x_hi)
    seg_intercept = w_hi - seg_slope * x_hi
    seg_task = brk_task[pair]
    nseg = nbrk - 1

    # Rigid tasks (single break) bound their work variable directly at
    # l * p(l) with l = 1 — multiplying by 1 reproduces the reference's
    # `breakpoints[0][0] * breakpoints[0][1]` bit for bit.
    work_lo = np.where(
        nseg == 0, 1.0 * max_time, 0.0
    ) if n_total else np.zeros(0)

    return StackedProfiles(
        n_blocks=nb,
        node_ptr=node_ptr,
        m_blocks=m_blocks,
        m_max=m_max,
        m_of_task=m_of_task,
        times=times,
        min_time=min_time,
        max_time=max_time,
        work_lo=work_lo,
        brk_ptr=brk_ptr,
        brk_level=brk_level,
        brk_value=brk_value,
        nseg=nseg,
        seg_task=seg_task,
        seg_slope=seg_slope,
        seg_intercept=seg_intercept,
    )
