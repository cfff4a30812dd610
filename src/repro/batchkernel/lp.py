"""Per-block allotment LP assembly and solution read-back.

:func:`assemble_batch_lp` builds LP (9) of every block of a batch with
the one LP (9) assembly function, :func:`repro.core.lp.lp9_arrays`,
over the block's slices of the stacked profiles and the packed arcs —
so each block's arrays are element-for-element the per-instance
assembly (asserted by the property suite), and solving each in a
fresh HiGHS model yields bit-identical LP solutions.  The stacked
fractional times round with the per-instance kernel,
:func:`repro.core.rounding.batched_round`, on the stacked image.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.lp import AllotmentArrays, lp9_arrays
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
    seg_ptr = np.zeros(len(sp.nseg) + 1, dtype=np.intp)
    np.cumsum(sp.nseg, out=seg_ptr[1:])
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
            sp.max_time[t0:t1],
            sp.work_lo[t0:t1],
            sp.seg_task[s0:s1] - t0,
            sp.seg_slope[s0:s1],
            sp.seg_intercept[s0:s1],
            src[e0:e1] - t0,
            dst[e0:e1] - t0,
        ))
    return out


def extract_block_x(
    sp: StackedProfiles, solutions: Sequence
) -> np.ndarray:
    """Stack the fractional times ``x_j = values[3j]`` of every block."""
    parts = []
    for b in range(sp.n_blocks):
        n = int(sp.node_ptr[b + 1] - sp.node_ptr[b])
        vals = np.asarray(solutions[b].values, dtype=float)
        parts.append(vals[np.arange(n) * 3])
    return np.concatenate(parts) if parts else np.zeros(0)
