"""Batched phase-2 LIST: the staircase kernel, block by block.

Each block of the batch runs the one LIST kernel,
:func:`repro.core.list_scheduler._staircase` (LIST on the free-processor
staircase, module docstring of :mod:`repro.core.list_scheduler`), on
its slices of the packed union: the successor CSR minus the block's
node and arc offsets, the in-degrees, and the stacked times at the
capped allotment.  Those slices are the block's own arrays, so every
schedule is the per-instance one, bit for bit, and the kernel keeps
its exact ``ResourceTimeline`` capacity checks and near-tie fallback.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.list_scheduler import _account, _staircase, _Work
from ..obs import trace as obs_trace
from ..schedule import Schedule
from .packing import BatchedCsr, StackedProfiles

__all__ = ["batched_list_schedule"]


def batched_list_schedule(
    sp: StackedProfiles,
    bcsr: BatchedCsr,
    alloc: np.ndarray,
) -> List[Schedule]:
    """Run LIST on every block of the batch.

    ``alloc`` is the flat *capped* allotment (one entry per union
    task).  Returns one :class:`~repro.schedule.Schedule` per block,
    bit-identical to ``list_schedule`` on the block alone.  Raises
    ``ValueError`` naming the first task whose allotment lies outside
    its block's ``1..m``, before any block is scheduled.
    """
    node_ptr, edge_ptr = sp.node_ptr, bcsr.edge_ptr
    alloc = np.asarray(alloc, dtype=np.intp)
    bad = np.flatnonzero((alloc < 1) | (alloc > sp.m_of_task))
    if bad.size:
        v = int(bad[0])
        b = int(bcsr.row_of[v])
        raise ValueError(
            f"block {b}: allotment[{v - int(node_ptr[b])}] = "
            f"{int(alloc[v])} outside [1, {int(sp.m_blocks[b])}]"
        )
    dur = sp.times[np.arange(len(alloc)), alloc - 1]
    union = bcsr.union
    indeg = union.in_degrees()
    tracer = obs_trace.active()
    schedules: List[Schedule] = []
    for b in range(sp.n_blocks):
        s, e = int(node_ptr[b]), int(node_ptr[b + 1])
        e0, e1 = int(edge_ptr[b]), int(edge_ptr[b + 1])
        m = int(sp.m_blocks[b])
        work = None if tracer is None else _Work()
        entries = _staircase(
            m,
            alloc[s:e].tolist(),
            dur[s:e].tolist(),
            (union.succ_indptr[s:e + 1] - e0).tolist(),
            (union.succ_indices[e0:e1] - s).tolist(),
            indeg[s:e].tolist(),
            [],
            work,
        )
        _account(e - s, 0, tracer, work)
        schedules.append(Schedule(m, entries))
    return schedules
