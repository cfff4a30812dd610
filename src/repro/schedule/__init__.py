"""Schedule substrate: record type, validation, simulation, metrics."""

from .compaction import compact_schedule
from .gantt import render_gantt, render_gantt_svg
from .metrics import (
    SlotClasses,
    average_utilization,
    busy_profile,
    slot_classes,
)
from .replan import (
    FrozenStartConflict,
    ScheduleDiff,
    diff_schedules,
    replan_schedule,
)
from .schedule import Schedule, ScheduledTask
from .simulator import SimulationEvent, SimulationTrace, simulate
from .timeline import ResourceTimeline
from .validator import (
    InfeasibleScheduleError,
    assert_feasible,
    validate_schedule,
)

__all__ = [
    "FrozenStartConflict",
    "InfeasibleScheduleError",
    "ResourceTimeline",
    "Schedule",
    "ScheduleDiff",
    "ScheduledTask",
    "SimulationEvent",
    "SimulationTrace",
    "SlotClasses",
    "assert_feasible",
    "average_utilization",
    "busy_profile",
    "compact_schedule",
    "diff_schedules",
    "render_gantt",
    "render_gantt_svg",
    "replan_schedule",
    "simulate",
    "slot_classes",
    "validate_schedule",
]
