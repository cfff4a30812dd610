"""HiGHS through the binding SciPy vendors (``scipy.optimize._highspy``).

Every LP of the package is an ``A_ub v <= b_ub`` model bulk-assembled
as NumPy arrays (see :class:`repro.core.lp.AllotmentArrays`), and every
one is solved by loading it into a :class:`HighsModel`:

* a one-shot solve — LP (9), a block of a packed batch, a lone
  deadline probe (:func:`repro.core.allotment_bsearch.deadline_work_lp`)
  — is a fresh model's cold :meth:`HighsModel.solve`
  (:func:`solve_ub_arrays`, :func:`solve_ub_blocks`), started from the
  assembly's own start basis (for LP (9), the critical-path basis of
  :func:`repro.core.lp.lp9_start_basis`);
* two paths keep their model resident.  An evolution that retimes one
  task (:mod:`repro.pipeline.incremental`) perturbs a handful of
  LP (9)'s entries (the task's δ bounds and the right-hand sides of
  the rows that carry its ``p_j(m)`` and the total work); each probe
  of a deadline binary search (:mod:`repro.core.allotment_bsearch`)
  after the search's first changes only the bound of ``L``.
  :meth:`HighsModel.update` pushes exactly those edits through HiGHS's
  modification API, which preserves the factorized basis, and the dual
  simplex restarted from the previous optimum re-proves optimality in a
  few pivots instead of hundreds.

No solve presolves: HiGHS skips presolve whenever the model holds a
valid basis, and every model holds one from the moment it is built.
"""

from __future__ import annotations

from typing import List

import numpy as np

from scipy.optimize._highspy import _core as _highs_core

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .model import LpError, LpSolution, LpStatus

__all__ = [
    "BASIC",
    "HighsModel",
    "NONBASIC_LOWER",
    "NONBASIC_UPPER",
    "solve_ub_arrays",
    "solve_ub_blocks",
]

_INF = float("inf")

#: Start-basis status codes, HiGHS's own (``HighsBasisStatus``): a
#: nonbasic column at its lower bound, a basic variable, a nonbasic row
#: at its upper bound (the ``<=`` row holds with equality).
NONBASIC_LOWER = int(_highs_core.HighsBasisStatus.kLower)
BASIC = int(_highs_core.HighsBasisStatus.kBasic)
NONBASIC_UPPER = int(_highs_core.HighsBasisStatus.kUpper)
#: ``HighsBasisStatus`` by code, to convert a status array in one take.
_STATUS = np.array(
    [_highs_core.HighsBasisStatus(code) for code in range(3)], dtype=object
)

_PIVOTS = _METRICS.counter(
    "repro_solver_lp_pivots_total",
    "LP pivots/iterations",
)
_WARM = _METRICS.counter(
    "repro_solver_warm_starts_total",
    "LP solves that started from a previous basis/model",
)


def _to_colwise(arrays):
    """COO triplets → CSC (start, index, value) for HiGHS kColwise."""
    order = np.lexsort((arrays.rows, arrays.cols))
    cols = np.asarray(arrays.cols)[order]
    start = np.zeros(arrays.n_variables + 1, dtype=np.int32)
    np.cumsum(
        np.bincount(cols, minlength=arrays.n_variables), out=start[1:]
    )
    return (
        start,
        np.asarray(arrays.rows, dtype=np.int32)[order],
        np.asarray(arrays.vals, dtype=float)[order],
    )


class HighsModel:
    """A HiGHS model loaded with a pre-assembled ``A_ub v <= b_ub`` LP.

    Parameters
    ----------
    arrays:
        An :class:`repro.core.lp.AllotmentArrays`-shaped tuple (COO
        triplets, objective, bounds) whose ``start_basis()`` returns
        ``(col_status, row_status)`` codes (:data:`BASIC`,
        :data:`NONBASIC_LOWER`, :data:`NONBASIC_UPPER`) of a valid
        basis.  The model is loaded in one call and starts from that
        basis; HiGHS rejecting the model or the basis is an
        :class:`LpError`.  The model keeps a reference: the sparsity
        pattern is fixed for the model's lifetime, and :meth:`update`
        accepts only assemblies with the identical pattern (same
        rows/cols — what :func:`repro.core.lp.lp9_arrays` writes for a
        child whose retimes kept every segment count, or what a deadline
        probe of ``bsearch`` writes with only ``hi[L]`` changed).
    """

    def __init__(self, arrays):
        self._arrays = arrays
        self._solved_once = False
        n_cols = int(arrays.n_variables)
        n_rows = len(arrays.b_ub)
        start, index, value = _to_colwise(arrays)
        h = _highs_core._Highs()
        h.setOptionValue("output_flag", False)
        status = h.passModel(
            n_cols,
            n_rows,
            len(value),
            int(_highs_core.MatrixFormat.kColwise),
            int(_highs_core.ObjSense.kMinimize),
            0.0,
            np.asarray(arrays.c, dtype=float),
            np.asarray(arrays.lo, dtype=float),
            np.asarray(arrays.hi, dtype=float),
            np.full(n_rows, -_INF),
            np.asarray(arrays.b_ub, dtype=float),
            start[:-1],
            index,
            value,
            np.zeros(n_cols, dtype=np.int32),
        )
        # kWarning still loads the model: HiGHS drops the entries of
        # magnitude at most 1e-9 (``small_matrix_value``) and says so,
        # e.g. the zero slopes of a linear-speedup task's segments.
        if status == _highs_core.HighsStatus.kError:
            raise LpError(f"HiGHS rejected the model: {status}")
        col_status, row_status = arrays.start_basis()
        basis = _highs_core.HighsBasis()
        basis.valid = True
        basis.alien = False
        basis.col_status = _STATUS[col_status].tolist()
        basis.row_status = _STATUS[row_status].tolist()
        if h.setBasis(basis) != _highs_core.HighsStatus.kOk:
            raise LpError("HiGHS rejected the start basis")
        self._h = h

    # ------------------------------------------------------------------
    def update(self, arrays) -> int:
        """Push the diff between the loaded assembly and ``arrays``.

        Returns the number of individual modifications applied.  The
        new assembly must share the loaded one's sparsity pattern
        (rows/cols identical, else :class:`LpError`); only
        ``lo``/``hi``, ``vals`` and ``b_ub`` entries may differ.  The
        solver's basis survives the edits, so the next :meth:`solve` is
        warm.
        """
        old = self._arrays
        if not (
            arrays.n_variables == old.n_variables
            and len(arrays.b_ub) == len(old.b_ub)
            and np.array_equal(arrays.rows, old.rows)
            and np.array_equal(arrays.cols, old.cols)
        ):
            raise LpError(
                "warm update requires an identical sparsity pattern"
            )
        h = self._h
        edits = 0
        changed_cols = np.flatnonzero(
            (arrays.lo != old.lo) | (arrays.hi != old.hi)
        )
        for col in changed_cols:
            h.changeColBounds(
                int(col), float(arrays.lo[col]), float(arrays.hi[col])
            )
        edits += len(changed_cols)
        changed_nz = np.flatnonzero(arrays.vals != old.vals)
        for k in changed_nz:
            h.changeCoeff(
                int(old.rows[k]), int(old.cols[k]), float(arrays.vals[k])
            )
        edits += len(changed_nz)
        changed_rows = np.flatnonzero(arrays.b_ub != old.b_ub)
        for r in changed_rows:
            h.changeRowBounds(int(r), -_INF, float(arrays.b_ub[r]))
        edits += len(changed_rows)
        self._arrays = arrays
        return edits

    def solve(self) -> LpSolution:
        """Run the solver: cold from the start basis the first time,
        warm from the previous optimal basis afterwards.  The solution
        lies inside the column bounds.  Raises :class:`LpError` on
        infeasible/unbounded models."""
        h = self._h
        warm = self._solved_once
        arrays = self._arrays
        with obs_trace.span(
            "lp.solve",
            rows=len(arrays.b_ub),
            nnz=len(arrays.vals),
            warm=warm,
        ):
            h.run()
            status = h.getModelStatus()
            Status = _highs_core.HighsModelStatus
            if status == Status.kInfeasible:
                raise LpError(LpStatus.INFEASIBLE, LpStatus.INFEASIBLE)
            if status in (Status.kUnbounded, Status.kUnboundedOrInfeasible):
                raise LpError(LpStatus.UNBOUNDED, LpStatus.UNBOUNDED)
            if status != Status.kOptimal:  # pragma: no cover - solver quirks
                raise LpError(
                    f"HiGHS solve failed: {h.modelStatusToString(status)}"
                )
            self._solved_once = True
            iterations = int(h.getInfoValue("simplex_iteration_count")[1])
            obs_trace.add("lp_pivots", iterations)
            _PIVOTS.inc(iterations)
            if warm:
                obs_trace.add("warm_starts", 1)
                _WARM.inc()
        # ``col_value`` is already a list of Python floats.  A warm
        # re-solve can leave a basic column a few ulps outside its
        # bounds (3.2e-14 above a chain's δ bound after a deadline probe
        # moved ``hi[L]``): such a solution is clipped into them.
        values = h.getSolution().col_value
        x = np.fromiter(values, dtype=float, count=len(values))
        if (x < arrays.lo).any() or (x > arrays.hi).any():
            values = np.clip(x, arrays.lo, arrays.hi).tolist()
        return LpSolution(
            status=LpStatus.OPTIMAL,
            objective=float(h.getObjectiveValue()),
            values=tuple(values),
            backend="highs",
            iterations=iterations,
        )

    @property
    def arrays(self):
        """The assembly currently loaded in the model."""
        return self._arrays


def solve_ub_arrays(arrays) -> LpSolution:
    """Solve a pre-assembled ``A_ub v <= b_ub`` LP: a fresh
    :class:`HighsModel`'s cold solve from ``arrays.start_basis()``."""
    return HighsModel(arrays).solve()


def solve_ub_blocks(blocks) -> List[LpSolution]:
    """Solve a sequence of independent pre-assembled LPs.

    The blocks of a batch (see
    :func:`repro.batchkernel.lp.assemble_batch_lp`) share no variables
    or rows, so the joint optimum is exactly the per-block optima;
    solving them back to back, one HiGHS model each, keeps each block's
    result bit-identical to a standalone :func:`solve_ub_arrays` call.
    """
    return [solve_ub_arrays(arrays) for arrays in blocks]
