"""Cross-instance batched kernel tier.

Fleets of small DAGs (replanning sweeps, campaign grids, service
batches) spend their time in per-instance NumPy overhead, not in
arithmetic.  This package packs B independent instances into one
block-diagonal problem and runs the graph and rounding stages across
all blocks at once; the allotment LPs are assembled and solved, and
LIST is run, one block at a time:

* :mod:`~repro.batchkernel.packing` — disjoint-union CSR packing
  (:class:`BatchedCsr`), stacked profile arrays
  (:class:`StackedProfiles`) and batched longest-path /
  lower-bound kernels;
* :mod:`~repro.batchkernel.lp` — per-block allotment-LP assembly
  (the per-instance LP (9) assembly over each block's slices); the
  stacked solution rounds with the per-instance kernel,
  :func:`repro.core.rounding.batched_round`, re-exported here;
* :mod:`~repro.batchkernel.scheduler` — phase-2 LIST
  (:func:`batched_list_schedule`): the per-instance staircase kernel
  run on each block's slices of the packed arrays;
* :mod:`~repro.batchkernel.solve` — :func:`solve_batch`, the
  end-to-end batched pipeline with per-instance
  :class:`~repro.pipeline.base.SolveReport` results.

Every batched stage replicates its per-instance reference bit for bit
(same floats, same comparisons, same tie-breaks); the callers assert
schedule identity rather than closeness.
"""

from ..core.rounding import batched_round
from .lp import assemble_batch_lp, extract_block_x
from .packing import (
    BatchedCsr,
    StackedProfiles,
    batched_longest_path_lengths,
    batched_trivial_lower_bounds,
    pack_csrs,
    stack_profiles,
)
from .scheduler import batched_list_schedule
from .solve import (
    AUTO_MAX_TASKS,
    BatchKernelError,
    ELIGIBLE_ALGORITHMS,
    ELIGIBLE_PRIORITY,
    eligible_strategy,
    solve_batch,
)

__all__ = [
    "AUTO_MAX_TASKS",
    "BatchKernelError",
    "BatchedCsr",
    "ELIGIBLE_ALGORITHMS",
    "ELIGIBLE_PRIORITY",
    "StackedProfiles",
    "assemble_batch_lp",
    "batched_list_schedule",
    "batched_longest_path_lengths",
    "batched_round",
    "batched_trivial_lower_bounds",
    "eligible_strategy",
    "extract_block_x",
    "pack_csrs",
    "solve_batch",
    "stack_profiles",
]
