"""Cross-instance packing: many small problems as one array program.

This module packs B independent instances into block-diagonal union
structures, which the stage functions of :mod:`repro.batchkernel` run
over:

* :class:`BatchedCsr` — the disjoint union of B ``DagCsr`` images as
  one CSR over ``node_ptr[b] .. node_ptr[b+1]`` node ranges, each
  block's arcs a contiguous slice shifted by the block's node offset.
* :class:`StackedProfiles` — the per-instance
  :func:`repro.core.arrays.instance_arrays` profile pack stacked over
  the batch, padded to the widest ``m`` (padding repeats ``p(m_b)``,
  which the canonical-breakpoint plateau rule provably collapses, so
  padded and unpadded profiles produce identical breaks and segments).

Everything here is an exact-float mirror of the per-instance reference
path: the batched property suite (``tests/test_batchkernel.py``)
asserts slice-for-slice equality against :class:`repro.dag.csr.DagCsr`
and ``instance_arrays``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

import numpy as np

from ..core.arrays import profile_image
from ..core.instance import Instance
from ..dag.csr import DagCsr

__all__ = [
    "BatchedCsr",
    "StackedProfiles",
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


class StackedProfiles(NamedTuple):
    """Batch-stacked twin of :class:`repro.core.arrays.InstanceArrays`.

    Tasks of all blocks are concatenated (``n_total`` rows, block ``b``
    owning ``node_ptr[b]:node_ptr[b+1]``); the times matrix is padded
    to ``m_max`` columns by repeating each task's ``p(m_b)`` — a pure
    plateau, invisible to the canonical-breakpoint rule.  Segment and
    breakpoint arrays are flat in (task, increasing ``l``) order with
    per-task pointer arrays, exactly the per-instance flattening (the
    :class:`repro.core.arrays.ProfileImage` fields).
    """

    n_blocks: int
    node_ptr: np.ndarray    #: (B+1,) task offsets per block
    m_blocks: np.ndarray    #: (B,) processor count per block
    m_max: int
    m_of_task: np.ndarray   #: (N,) owning block's m, per task
    times: np.ndarray       #: (N, m_max) padded processing times
    min_time: np.ndarray    #: (N,) p(m_b)
    work_lo: np.ndarray     #: (N,) rigid-task work lower bound
    brk_ptr: np.ndarray     #: (N+1,) per-task canonical break offsets
    seg_ptr: np.ndarray     #: (N+1,) per-task segment offsets
    brk_level: np.ndarray   #: flat break levels l
    brk_value: np.ndarray   #: flat break times p(l)
    nseg: np.ndarray        #: (N,) segments per task (= breaks - 1)
    seg_task: np.ndarray    #: flat segment -> task row
    seg_slope: np.ndarray   #: flat chord slopes
    seg_intercept: np.ndarray  #: flat chord intercepts
    seg_len: np.ndarray     #: flat δ bounds of LP (9)
    anchor_work: np.ndarray  #: (N,) the chord work at x = p(m_b)
    seg_tasks: np.ndarray   #: tasks with at least one segment


def stack_profiles(instances: Sequence[Instance]) -> StackedProfiles:
    """Stack every instance's task profiles into one padded pack.

    Per block the slices reproduce ``instance_arrays(instance)`` (and
    each task's ``breakpoints``/``segments()``) exactly: the padded
    matrix goes through the per-instance canonical-breakpoint kernel,
    :func:`repro.core.arrays.profile_image`.
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
        block = inst.times
        s, e = node_ptr[b], node_ptr[b + 1]
        times[s:e, :m] = block
        if m < m_max:
            times[s:e, m:] = block[:, m - 1:m]

    return StackedProfiles(
        n_blocks=nb,
        node_ptr=node_ptr,
        m_blocks=m_blocks,
        m_max=m_max,
        m_of_task=m_of_task,
        times=times,
        min_time=times[np.arange(n_total), m_of_task - 1],
        **profile_image(times)._asdict(),
    )
