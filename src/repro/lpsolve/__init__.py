"""LP substrate: HiGHS (via SciPy) over bulk-assembled ``A_ub v <= b_ub``
arrays, one-shot or resident for warm re-solves."""

from .model import LpError, LpSolution, LpStatus

__all__ = [
    "LpError",
    "LpSolution",
    "LpStatus",
]
