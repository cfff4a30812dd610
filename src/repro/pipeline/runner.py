"""The pipeline runner: compose any allotment stage with any phase-2
stage and time both.

:class:`SchedulingPipeline` resolves its two stages from the registry
once (so unknown names fail fast, before any instance is touched) and
then solves instances one at a time; :func:`solve` is the one-shot
convenience and :func:`jz_schedule` the paper's algorithm by name.  The
batch engine (:mod:`repro.engine.batch`) runs exactly this object
inside its worker processes, which is what makes every registered
strategy combination available to the process-pool fan-out, the JSONL
export and the CLI for free.

Example::

    from repro.pipeline import SchedulingPipeline
    from repro.workloads import make_instance

    inst = make_instance("layered", 30, 8, model="power", seed=0)
    pipe = SchedulingPipeline("jz", "earliest-start")
    report = pipe.solve(inst)
    report.makespan                  # feasible schedule's makespan
    report.lower_bound               # certified bound on OPT
    report.observed_ratio            # makespan / lower_bound, >= 1
    report.ratio_bound               # proven r(m) (None for ablation
                                     # priority rules, which void it)
    report.allotment_time, report.schedule_time   # per-stage wall time

The same pair of names drives every entry point: ``pipe.solve(inst)``
here, ``BatchRunner(algorithm="jz", priority="earliest-start")`` for
batches, ``--algorithm jz --priority earliest-start`` on the CLI, and
the ``[[strategies]]`` tables of a campaign spec.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.instance import Instance
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .base import SolveReport
from .registry import StrategyInfo, get_allotment, get_phase2

__all__ = ["SchedulingPipeline", "jz_schedule", "solve"]

_SOLVES = _METRICS.counter(
    "repro_solver_solves_total",
    "Pipeline solves completed, by allotment strategy",
    ("algorithm",),
)
_SOLVE_SECONDS = _METRICS.histogram(
    "repro_solver_solve_seconds",
    "End-to-end pipeline solve wall time (both stages)",
)


class SchedulingPipeline:
    """A two-stage solver: allotment strategy × phase-2 scheduler.

    Parameters
    ----------
    algorithm:
        Registered allotment-strategy name (or alias), e.g. ``"jz"``,
        ``"ltw"``, ``"sequential"``.
    priority:
        Registered phase-2 scheduler name, e.g. ``"earliest-start"``,
        ``"critical-path"``.
    rho, mu:
        Optional parameter overrides forwarded to the allotment stage
        (the analyzed strategies use them; baselines ignore ``rho``).

    Raises
    ------
    UnknownStrategyError
        If either name is not registered.
    """

    def __init__(
        self,
        algorithm: str = "jz",
        priority: str = "earliest-start",
        *,
        rho: Optional[float] = None,
        mu: Optional[int] = None,
    ):
        self._allotment_stage = get_allotment(algorithm)
        self._phase2_stage = get_phase2(priority)
        self.rho = rho
        self.mu = mu

    @property
    def algorithm(self) -> str:
        """Canonical name of the allotment stage."""
        return self._allotment_stage.name

    @property
    def priority(self) -> str:
        """Canonical name of the phase-2 stage."""
        return self._phase2_stage.name

    @property
    def allotment_stage(self) -> StrategyInfo:
        """Registry entry of the allotment stage."""
        return self._allotment_stage

    @property
    def phase2_stage(self) -> StrategyInfo:
        """Registry entry of the phase-2 stage."""
        return self._phase2_stage

    def solve(self, instance: Instance) -> SolveReport:
        """Run both stages on ``instance`` and return the unified report.

        The report's ``lower_bound`` is always a certified bound on
        OPT: the one the allotment stage produced when it solved an LP,
        the combinatorial ``max(L_min, W_min/m)`` otherwise.
        """
        with obs_trace.span(
            "solve",
            algorithm=self.algorithm,
            priority=self.priority,
            n=instance.n_tasks,
            m=instance.m,
        ):
            t0 = time.perf_counter()
            with obs_trace.span("phase1.allot", algorithm=self.algorithm):
                allot = self._allotment_stage.fn(
                    instance, rho=self.rho, mu=self.mu
                )
            t1 = time.perf_counter()
            with obs_trace.span("phase2.list", priority=self.priority):
                schedule = self._phase2_stage.fn(
                    instance, allot.allotment, mu=allot.mu
                )
            t2 = time.perf_counter()
        _SOLVES.labels(self.algorithm).inc()
        _SOLVE_SECONDS.observe(t2 - t0)
        lower = (
            allot.lower_bound
            if allot.lower_bound is not None
            else instance.trivial_lower_bound()
        )
        # A proven ratio bound is an analysis artifact of the whole
        # composition: ablation priority rules void it, so it must not
        # be claimed on their schedules.
        ratio = (
            allot.ratio_bound
            if self._phase2_stage.carries_guarantee
            else None
        )
        return SolveReport(
            schedule=schedule,
            algorithm=self.algorithm,
            priority=self.priority,
            allotment=tuple(allot.allotment),
            mu=allot.mu,
            rho=allot.rho,
            lower_bound=lower,
            ratio_bound=ratio,
            allotment_time=t1 - t0,
            schedule_time=t2 - t1,
            metadata=allot.metadata,
        )

    def __repr__(self) -> str:
        return (
            f"SchedulingPipeline(algorithm={self.algorithm!r}, "
            f"priority={self.priority!r})"
        )


def solve(
    instance: Instance,
    algorithm: str = "jz",
    priority: str = "earliest-start",
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> SolveReport:
    """One-shot: build a :class:`SchedulingPipeline` and solve."""
    return SchedulingPipeline(algorithm, priority, rho=rho, mu=mu).solve(
        instance
    )


def jz_schedule(
    instance: Instance,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> SolveReport:
    """The Jansen–Zhang two-phase algorithm: ``jz`` × ``earliest-start``.

    Phase 1 solves LP (9) and rounds at the critical point with ``ρ``;
    phase 2 runs LIST with every allotment capped at ``μ``.  ``rho`` and
    ``mu`` override the Theorem 4.1 values for ``m = instance.m``.  The
    makespan is at most ``report.ratio_bound · OPT``; the report also
    carries the LP optimum ``report.lower_bound`` and, in
    ``report.metadata``, the ``"parameters"``, the ``"lp"`` result and
    the ``"rounding"`` report (Lemma 4.2's stretches).
    """
    return SchedulingPipeline("jz", rho=rho, mu=mu).solve(instance)
