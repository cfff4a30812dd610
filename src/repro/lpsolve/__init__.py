"""LP substrate: one HiGHS model class (SciPy's vendored binding) over
bulk-assembled ``A_ub v <= b_ub`` arrays, solved cold once or kept
resident for warm re-solves."""

from .model import LpError, LpSolution, LpStatus

__all__ = [
    "LpError",
    "LpSolution",
    "LpStatus",
]
