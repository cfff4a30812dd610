"""Core algorithm: task model, LP (9), rounding, LIST, the paper's
parameters; :mod:`repro.pipeline` composes them into solvers."""

from .task import AssumptionError, MalleableTask, WorkSegment
from .instance import Instance
from .parameters import (
    JZParameters,
    RHO_STAR_PAPER,
    jz_parameters,
    max_mu,
    mu_hat,
    ratio_bound,
    resolve_parameters,
)
from .lp import AllotmentLpResult, solve_allotment_lp
from .rounding import (
    RoundingReport,
    round_fractional_times,
    rounding_stretch_report,
    time_stretch_bound,
    work_stretch_bound,
)
from .arrays import InstanceArrays, instance_arrays
from .list_scheduler import (
    capped_allotment,
    list_schedule,
)
from .list_variants import (
    PRIORITY_RULES,
    bottom_levels,
    list_schedule_with_priority,
)
from .allotment_bsearch import (
    BsearchReport,
    DeadlineLpResult,
    bsearch_allotment,
    deadline_work_lp,
)
from .heavy_path import HeavyPath, extract_heavy_path
from .evolve import (
    InstanceDelta,
    InstanceEvolution,
    apply_operations,
    evolve,
)

__all__ = [
    "AllotmentLpResult",
    "AssumptionError",
    "BsearchReport",
    "DeadlineLpResult",
    "PRIORITY_RULES",
    "bottom_levels",
    "bsearch_allotment",
    "deadline_work_lp",
    "list_schedule_with_priority",
    "HeavyPath",
    "Instance",
    "InstanceArrays",
    "InstanceDelta",
    "InstanceEvolution",
    "apply_operations",
    "evolve",
    "JZParameters",
    "MalleableTask",
    "RHO_STAR_PAPER",
    "RoundingReport",
    "WorkSegment",
    "capped_allotment",
    "extract_heavy_path",
    "jz_parameters",
    "instance_arrays",
    "list_schedule",
    "max_mu",
    "mu_hat",
    "ratio_bound",
    "resolve_parameters",
    "round_fractional_times",
    "rounding_stretch_report",
    "solve_allotment_lp",
    "time_stretch_bound",
    "work_stretch_bound",
]
