"""Per-block allotment LP assembly and solution read-back.

:func:`assemble_batch_lp` builds LP (9) of every block of a batch with
the one LP (9) assembly function, :func:`repro.core.lp.lp9_arrays`,
over the block's slices of the stacked profiles and the packed arcs —
so each block's arrays are element-for-element the per-instance
assembly (asserted by the property suite), and solving each in a
fresh HiGHS model yields bit-identical LP solutions.
:func:`extract_block_x` reads each block's ``x`` back with the one
LP (9) read-back, :func:`repro.core.lp.lp9_read_back`.  The stacked
fractional times round with the per-instance kernel,
:func:`repro.core.rounding.batched_round`, on the stacked image.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.lp import AllotmentArrays, lp9_arrays, lp9_read_back
from .packing import BatchedCsr, StackedProfiles

__all__ = ["assemble_batch_lp", "extract_block_x"]


def assemble_batch_lp(
    sp: StackedProfiles, bcsr: BatchedCsr
) -> List[AllotmentArrays]:
    """Assemble LP (9) for every block, one :func:`lp9_arrays` call each.

    Returns one :class:`AllotmentArrays` per block, equal to
    ``assemble_allotment_arrays(instance)``: block ``b``'s tasks,
    segments and arcs are contiguous slices of the pack, shifted back to
    block-local task ids.
    """
    seg_ptr = sp.seg_ptr
    src = bcsr.union.edge_sources()
    dst = bcsr.union.succ_indices
    out: List[AllotmentArrays] = []
    for b in range(sp.n_blocks):
        t0, t1 = sp.node_ptr[b], sp.node_ptr[b + 1]
        s0, s1 = seg_ptr[t0], seg_ptr[t1]
        e0, e1 = bcsr.edge_ptr[b], bcsr.edge_ptr[b + 1]
        out.append(lp9_arrays(
            int(sp.m_blocks[b]),
            sp.min_time[t0:t1],
            sp.anchor_work[t0:t1],
            seg_ptr[t0:t1 + 1] - s0,
            sp.seg_slope[s0:s1],
            sp.seg_len[s0:s1],
            src[e0:e1] - t0,
            dst[e0:e1] - t0,
        ))
    return out


def extract_block_x(
    sp: StackedProfiles, solutions: Sequence
) -> np.ndarray:
    """Stack the fractional times of every block, each read back with
    :func:`repro.core.lp.lp9_read_back` from the block's δ columns."""
    seg_ptr = sp.seg_ptr
    cut = np.searchsorted(sp.seg_tasks, sp.node_ptr)
    parts = []
    for b in range(sp.n_blocks):
        t0, t1 = sp.node_ptr[b], sp.node_ptr[b + 1]
        k0, k1 = cut[b], cut[b + 1]
        parts.append(lp9_read_back(
            solutions[b].values,
            sp.min_time[t0:t1],
            seg_ptr[t0:t1 + 1] - seg_ptr[t0],
            sp.seg_tasks[k0:k1] - t0,
        ))
    return np.concatenate(parts) if parts else np.zeros(0)
