"""Pluggable scheduling pipeline: strategy registry + two-stage runner.

Every solver in the repository is expressed as a composition of a
registered **allotment strategy** (phase 1) and a registered **phase-2
scheduler** (a list-scheduling priority rule)::

    from repro.pipeline import SchedulingPipeline, list_strategies

    report = SchedulingPipeline("jz", "earliest-start").solve(instance)
    report.makespan, report.lower_bound, report.observed_ratio

    for info in list_strategies():          # discovery
        print(info.kind, info.name, "-", info.summary)

Adding a strategy is one decorated function (see
:mod:`repro.pipeline.registry`); it immediately becomes runnable through
the batch engine (``repro.engine.solve_many``) and the CLI
(``python -m repro batch --algorithm <name> --priority <rule>``).

Importing this package registers the built-ins of
:mod:`repro.pipeline.strategies`.
"""

from .base import (
    AllotmentResult,
    AllotmentStrategy,
    Phase2Scheduler,
    SolveReport,
)
from .registry import (
    StrategyInfo,
    UnknownStrategyError,
    canonical_strategy_pair,
    get_allotment,
    get_phase2,
    list_strategies,
    register_allotment,
    register_phase2,
    strategy_names,
)
from .runner import SchedulingPipeline, jz_schedule, solve
from .incremental import DeltaReport, ReplanSession
from . import strategies as _builtin_strategies  # noqa: F401  (registers)

__all__ = [
    "AllotmentResult",
    "AllotmentStrategy",
    "DeltaReport",
    "Phase2Scheduler",
    "ReplanSession",
    "SchedulingPipeline",
    "SolveReport",
    "StrategyInfo",
    "UnknownStrategyError",
    "canonical_strategy_pair",
    "get_allotment",
    "get_phase2",
    "jz_schedule",
    "list_strategies",
    "register_allotment",
    "register_phase2",
    "solve",
    "strategy_names",
]
