"""Result and error types of the LP solvers.

The allotment phase of the paper's algorithm solves linear program (9).
:mod:`repro.core.lp` assembles it in bulk as NumPy arrays and hands it
to HiGHS (vendored inside SciPy) through
:class:`repro.lpsolve.scipy_backend.HighsModel`, solved cold once or
kept resident for warm re-solves.  Its outcome is reported with the
types defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["LpSolution", "LpStatus", "LpError"]


class LpError(RuntimeError):
    """Raised when an LP cannot be solved.

    ``status`` is :data:`LpStatus.INFEASIBLE` or
    :data:`LpStatus.UNBOUNDED` when the solve proved the model so, and
    ``None`` for every other failure: HiGHS rejecting the model or its
    start basis, a pattern mismatch on a warm update, a solver failure.
    """

    def __init__(self, message: str, status: Optional[str] = None):
        super().__init__(message)
        self.status = status


class LpStatus:
    """Solver status constants."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    """Result of an LP solve.

    Attributes
    ----------
    status:
        One of :class:`LpStatus`.
    objective:
        Optimal objective value (minimization), when optimal.
    values:
        Optimal variable values indexed like the model's variables.
    backend:
        Which solver produced the solution (``"highs"`` for
        :class:`~repro.lpsolve.scipy_backend.HighsModel`).
    iterations:
        Pivot/iteration count reported by the solver (0 if unknown).
    """

    status: str
    objective: float
    values: Tuple[float, ...]
    backend: str
    iterations: int = 0

    def __getitem__(self, var: int) -> float:
        return self.values[var]
