"""One-shot HiGHS solves of pre-assembled LPs.

Hands an ``A_ub v <= b_ub`` LP, bulk-assembled as NumPy arrays (see
:class:`repro.core.lp.AllotmentArrays`), to
``scipy.optimize.linprog(method="highs")`` and translates the result
into an :class:`~repro.lpsolve.model.LpSolution`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from scipy.optimize import linprog as _linprog
from scipy.sparse import csr_matrix as _csr

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .model import LpError, LpSolution, LpStatus

__all__ = [
    "build_ub_matrix",
    "solve_ub_arrays",
    "solve_ub_blocks",
]

_PIVOTS = _METRICS.counter(
    "repro_solver_lp_pivots_total",
    "LP pivots/iterations by backend",
    ("backend",),
)


def _solution_from_linprog(res) -> LpSolution:
    """Translate a ``scipy.optimize.OptimizeResult`` into an LpSolution."""
    if res.status == 2:
        raise LpError(LpStatus.INFEASIBLE)
    if res.status == 3:
        raise LpError(LpStatus.UNBOUNDED)
    if not res.success:  # pragma: no cover - solver-internal failures
        raise LpError(f"scipy/highs failed: {res.message}")
    iterations = int(getattr(res, "nit", 0) or 0)
    obs_trace.add("lp_pivots", iterations)
    _PIVOTS.labels("scipy").inc(iterations)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        values=tuple(float(v) for v in res.x),
        backend="scipy",
        iterations=iterations,
    )


def build_ub_matrix(arrays):
    """The ``scipy.sparse.csr_matrix`` of a pre-assembled LP's COO
    triplets (``None`` for a constraint-free model).  Split out so warm
    re-solvers (the deadline binary search) can build it once and reuse
    it across probes that only change bounds or right-hand sides."""
    if not len(arrays.b_ub):
        return None
    return _csr(
        (arrays.vals, (arrays.rows, arrays.cols)),
        shape=(len(arrays.b_ub), arrays.n_variables),
    )


def solve_ub_arrays(arrays, A_ub=None) -> LpSolution:
    """Solve a pre-assembled ``A_ub v <= b_ub`` LP with HiGHS.

    ``arrays`` is an :class:`repro.core.lp.AllotmentArrays`-shaped tuple
    (COO triplets plus objective and bounds) produced by bulk NumPy
    assembly — no per-constraint Python conversion happens here.  Pass a
    prebuilt ``A_ub`` (from :func:`build_ub_matrix`) to skip even the
    sparse-matrix construction on repeated solves.
    """
    if A_ub is None:
        A_ub = build_ub_matrix(arrays)
    res = _linprog(
        arrays.c,
        A_ub=A_ub,
        b_ub=arrays.b_ub if len(arrays.b_ub) else None,
        bounds=np.column_stack([arrays.lo, arrays.hi]),
        method="highs",
    )
    return _solution_from_linprog(res)


def solve_ub_blocks(blocks) -> List[LpSolution]:
    """Solve a sequence of independent pre-assembled LPs.

    The blocks of a batch (see
    :func:`repro.batchkernel.lp.assemble_batch_lp`) share no variables
    or rows, so the joint optimum is exactly the per-block optima;
    solving them back to back, one HiGHS call each, keeps each block's
    result bit-identical to a standalone :func:`solve_ub_arrays` call.
    """
    return [solve_ub_arrays(arrays) for arrays in blocks]

