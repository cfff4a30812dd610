"""Block-diagonal stage functions over a packed fleet of instances.

No solve routes here: :class:`repro.engine.BatchRunner` solves every
instance through the per-instance pipeline, whose LIST is the same
staircase kernel.  These functions pack B independent instances into
one block-diagonal problem and run each pipeline stage over the pack,
so a fleet can be solved and timed one stage at a time (the
``fleet-small`` workload's traced path does that):

* :mod:`~repro.batchkernel.packing` — disjoint-union CSR packing
  (:class:`BatchedCsr`) and stacked profile arrays
  (:class:`StackedProfiles`);
* :mod:`~repro.batchkernel.lp` — per-block allotment-LP assembly
  (the per-instance LP (9) assembly over each block's slices); the
  stacked solution rounds with the per-instance kernel,
  :func:`repro.core.rounding.batched_round`, re-exported here;
* :mod:`~repro.batchkernel.scheduler` — phase-2 LIST
  (:func:`batched_list_schedule`): the per-instance staircase kernel
  run on each block's slices of the packed arrays.

Every stage replicates its per-instance reference bit for bit (same
floats, same comparisons, same tie-breaks); the tests assert identity
rather than closeness.
"""

from ..core.rounding import batched_round
from .lp import assemble_batch_lp, extract_block_x
from .packing import (
    BatchedCsr,
    StackedProfiles,
    pack_csrs,
    stack_profiles,
)
from .scheduler import batched_list_schedule

__all__ = [
    "BatchedCsr",
    "StackedProfiles",
    "assemble_batch_lp",
    "batched_list_schedule",
    "batched_round",
    "extract_block_x",
    "pack_csrs",
    "stack_profiles",
]
