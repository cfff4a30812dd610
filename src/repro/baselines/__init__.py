"""Baseline schedulers: LTW [18], naive anchors, exact branch-and-bound."""

from .ltw import ltw_schedule
from .naive import greedy_critical_path_allotment
from .optimal import (
    SearchBudgetExceeded,
    optimal_makespan,
    optimal_schedule,
)

__all__ = [
    "SearchBudgetExceeded",
    "greedy_critical_path_allotment",
    "ltw_schedule",
    "optimal_makespan",
    "optimal_schedule",
]
