"""Stage contracts and the unified result type of the scheduling pipeline.

Every solver in this repository is a two-stage composition:

1. an **allotment stage** decides how many processors each task gets
   (and, for the analyzed algorithms, which cap ``μ`` phase 2 should
   apply and which certified lower bound the run can be measured
   against);
2. a **phase-2 stage** turns that allotment into a feasible schedule by
   list scheduling under some priority rule.

This module pins down the two stage protocols
(:class:`AllotmentStrategy`, :class:`Phase2Scheduler`), the value an
allotment stage hands to phase 2 (:class:`AllotmentResult`), and the
single result type every solve returns (:class:`SolveReport`) — the
pipeline's, and therefore :func:`repro.jz_schedule`'s and
:func:`repro.baselines.ltw_schedule`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..core.instance import Instance
from ..schedule import Schedule

__all__ = [
    "AllotmentResult",
    "AllotmentStrategy",
    "Phase2Scheduler",
    "SolveReport",
]


@dataclass(frozen=True)
class AllotmentResult:
    """What an allotment stage hands to phase 2.

    Only ``allotment`` is mandatory.  Strategies that carry analysis
    (JZ, LTW) also report the phase-2 cap ``mu``, the rounding
    parameter ``rho``, a certified ``lower_bound`` on OPT and a proven
    ``ratio_bound``; combinatorial baselines leave those ``None`` and
    the pipeline falls back to the instance's trivial lower bound.
    ``metadata`` carries stage-specific extras (LP solutions, rounding
    reports, search traces) without widening the interface.
    """

    allotment: Tuple[int, ...]
    mu: Optional[int] = None
    rho: Optional[float] = None
    lower_bound: Optional[float] = None
    ratio_bound: Optional[float] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)


@runtime_checkable
class AllotmentStrategy(Protocol):
    """Callable contract of an allotment (phase-1) stage.

    Implementations must accept the keyword overrides even when they
    ignore them (``rho``/``mu`` only matter to the analyzed strategies)
    so the pipeline can drive any registered strategy uniformly.
    """

    def __call__(
        self,
        instance: Instance,
        *,
        rho: Optional[float] = None,
        mu: Optional[int] = None,
    ) -> AllotmentResult: ...


@runtime_checkable
class Phase2Scheduler(Protocol):
    """Callable contract of a phase-2 (list scheduling) stage.

    Receives the *uncapped* phase-1 allotment plus the cap ``mu`` the
    allotment stage requested (``None`` = no cap) and must return a
    feasible schedule.
    """

    def __call__(
        self,
        instance: Instance,
        allotment: Sequence[int],
        mu: Optional[int] = None,
    ) -> Schedule: ...


@dataclass(frozen=True)
class SolveReport:
    """Unified outcome of one pipeline run on one instance.

    The schedule and the certified numbers every consumer (batch
    engine, CLI, benchmarks) reads live here under one name regardless
    of which strategies ran.  For the analyzed strategies the rest of
    the paper's accounting is one call away: the phase-2 allotment is
    ``capped_allotment(report.allotment, report.mu)`` and the slot
    classes of Lemmas 4.3/4.4 are ``slot_classes(report.schedule,
    min(report.mu, (m + 1) // 2))``.
    """

    schedule: Schedule
    #: canonical registry names of the two stages that produced this.
    algorithm: str
    priority: str
    #: phase-1 allotment α′, *before* any μ cap is applied.
    allotment: Tuple[int, ...]
    #: phase-2 cap requested by the allotment stage (None = uncapped).
    mu: Optional[int]
    #: rounding parameter the allotment stage used, if any.
    rho: Optional[float]
    #: certified lower bound on OPT (LP (9) optimum when the stage
    #: solved it, the combinatorial bound ``max(L_min, W_min/m)``
    #: otherwise) — ``observed_ratio`` is measured against this.
    lower_bound: float
    #: proven approximation-ratio bound, when the strategy has one.
    ratio_bound: Optional[float]
    #: per-stage wall-clock seconds.
    allotment_time: float
    schedule_time: float
    #: stage extras: ``jz`` carries ``"parameters"``, ``"lp"`` and
    #: ``"rounding"`` (Lemma 4.2's stretch report), ``ltw`` the first
    #: two, ``bsearch`` its search trace.
    metadata: Mapping[str, Any] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Makespan of the delivered schedule."""
        return self.schedule.makespan

    @property
    def wall_time(self) -> float:
        """Total wall-clock seconds across both stages."""
        return self.allotment_time + self.schedule_time

    @property
    def observed_ratio(self) -> float:
        """``C_max / lower_bound`` — an upper bound on the true ratio."""
        lb = self.lower_bound
        return self.makespan / lb if lb > 0 else 1.0

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly flat dict of the headline numbers."""
        return {
            "algorithm": self.algorithm,
            "priority": self.priority,
            "makespan": self.makespan,
            "lower_bound": self.lower_bound,
            "ratio_bound": self.ratio_bound,
            "observed_ratio": self.observed_ratio,
            "rho": self.rho,
            "mu": self.mu,
            "allotment_time": self.allotment_time,
            "schedule_time": self.schedule_time,
            "wall_time": self.wall_time,
        }
