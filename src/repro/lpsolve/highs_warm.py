"""Persistent HiGHS model with basis-reusing delta re-solves.

The one-shot solvers in this package hand the LP to
``scipy.optimize.linprog`` and throw the solver state away.  For the
incremental path (:mod:`repro.pipeline.incremental`) that is exactly the
wrong shape: an evolution that retimes one task perturbs a handful of
variable bounds and segment coefficients of LP (9), and a dual simplex
restarted from the previous optimal basis re-proves optimality in a few
pivots instead of thousands.

:class:`WarmUbModel` keeps a live HiGHS instance (the solver vendored
inside SciPy — no extra dependency) loaded with an
``A_ub v <= b_ub`` model in :class:`repro.core.lp.AllotmentArrays`
layout.  The first :meth:`solve` is a normal cold solve; afterwards the
model stays resident and :meth:`update` *diffs* a patched assembly
against the loaded one — changed variable bounds, changed matrix
coefficients, changed right-hand sides — and pushes exactly those edits
through HiGHS's modification API, which preserves the factorized basis.
Presolve is disabled after the first solve: re-presolving would discard
the basis and cost more than the handful of warm pivots it saves.

The module degrades gracefully: when the vendored binding is missing
(:func:`warm_capable` is ``False``) callers fall back to cold solves
through the ordinary SciPy backend.
"""

from __future__ import annotations

import numpy as np

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .model import LpError, LpSolution, LpStatus

try:  # pragma: no cover - availability depends on the SciPy build
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover
    _highs_core = None

__all__ = ["WarmUbModel", "warm_capable"]

_INF = float("inf")

_PIVOTS = _METRICS.counter(
    "repro_solver_lp_pivots_total",
    "LP pivots/iterations by backend",
    ("backend",),
)
_WARM = _METRICS.counter(
    "repro_solver_warm_starts_total",
    "LP solves that started from a previous basis/model",
    ("backend",),
)


def warm_capable() -> bool:
    """Whether SciPy's vendored HiGHS binding is importable here."""
    return _highs_core is not None


def _same(a, b) -> bool:
    """Equal index arrays; patched assemblies share the parent's."""
    return a is b or np.array_equal(a, b)


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


class WarmUbModel:
    """A resident HiGHS model over a pre-assembled ``A_ub v <= b_ub`` LP.

    Parameters
    ----------
    arrays:
        An :class:`repro.core.lp.AllotmentArrays`-shaped tuple (COO
        triplets, objective, bounds).  The model keeps a reference: the
        sparsity pattern is fixed for the model's lifetime, and
        :meth:`update` accepts only assemblies with the identical
        pattern (same rows/cols — exactly what
        :func:`repro.core.lp.patch_allotment_arrays` produces).
    """

    def __init__(self, arrays):
        if _highs_core is None:  # pragma: no cover - guarded by callers
            raise LpError(
                "warm HiGHS re-solve requested but SciPy's vendored "
                "HiGHS binding is unavailable"
            )
        self._arrays = arrays
        self._solved_once = False
        n_rows = len(arrays.b_ub)

        lp = _highs_core.HighsLp()
        lp.num_col_ = int(arrays.n_variables)
        lp.num_row_ = int(n_rows)
        lp.col_cost_ = np.asarray(arrays.c, dtype=float)
        lp.col_lower_ = np.asarray(arrays.lo, dtype=float)
        lp.col_upper_ = np.asarray(arrays.hi, dtype=float)
        lp.row_lower_ = np.full(n_rows, -_INF)
        lp.row_upper_ = np.asarray(arrays.b_ub, dtype=float)
        start, index, value = _to_colwise(arrays)
        lp.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value

        h = _highs_core._Highs()
        h.setOptionValue("output_flag", False)
        h.passModel(lp)
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
            and _same(arrays.rows, old.rows)
            and _same(arrays.cols, old.cols)
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
        """Run the solver; warm from the previous basis after the first
        call.  Raises :class:`LpError` on infeasible/unbounded models."""
        h = self._h
        warm = self._solved_once
        h.run()
        status = h.getModelStatus()
        Status = _highs_core.HighsModelStatus
        if status == Status.kInfeasible:
            raise LpError(LpStatus.INFEASIBLE)
        if status in (Status.kUnbounded, Status.kUnboundedOrInfeasible):
            raise LpError(LpStatus.UNBOUNDED)
        if status != Status.kOptimal:  # pragma: no cover - solver quirks
            raise LpError(
                f"warm HiGHS solve failed: {h.modelStatusToString(status)}"
            )
        if not self._solved_once:
            # Presolve would run again on every re-solve and discard
            # the basis; from here on the warm pivots are the point.
            h.setOptionValue("presolve", "off")
            self._solved_once = True
        sol = h.getSolution()
        iterations = int(h.getInfoValue("simplex_iteration_count")[1])
        obs_trace.add("lp_pivots", iterations)
        _PIVOTS.labels("highs-warm").inc(iterations)
        if warm:
            obs_trace.add("warm_starts", 1)
            _WARM.labels("highs-warm").inc()
        return LpSolution(
            status=LpStatus.OPTIMAL,
            objective=float(h.getObjectiveValue()),
            values=tuple(float(v) for v in sol.col_value),
            backend="highs-warm",
            iterations=iterations,
        )

    @property
    def arrays(self):
        """The assembly currently loaded in the model."""
        return self._arrays
