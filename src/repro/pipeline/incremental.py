"""Delta re-solves: a session that survives instance evolution.

:class:`~repro.pipeline.runner.SchedulingPipeline` is stateless — every
``solve()`` pays the full LP from scratch.  :class:`ReplanSession` is
the stateful counterpart for online use: it solves an instance once,
keeps the LP solver resident (:class:`repro.lpsolve.highs_warm
.WarmUbModel`, basis and factorization intact), and then answers each
:meth:`resolve_delta` by pushing only the *changed* bounds and
coefficients of LP (9) into the live model.  A single-task retime
perturbs a handful of entries; the dual simplex re-proves optimality in
a few pivots where the cold solve pays thousands — the measured gap on
the n=10k benchmark is the whole point of the evolution API.

The warm path is taken only when it is provably safe and plausibly
profitable:

* the allotment stage is ``jz`` (the one whose LP the session owns);
* SciPy's vendored HiGHS binding is available
  (:func:`repro.lpsolve.highs_warm.warm_capable`);
* the delta is non-structural — same tasks, same arcs — so the LP's
  sparsity pattern is unchanged;
* the delta is small (``magnitude <= max_warm_magnitude``): bulk edits
  re-enter cold, where presolve earns its keep.

Everything else falls back to a cold solve *through the same resident
model* when possible (so the next delta is warm again), or through the
ordinary pipeline otherwise.

Phase 2 resumes as well.  With the ``jz`` allotment and the
``earliest-start`` rule the session keeps the record of its last *free*
LIST run (:class:`repro.core.list_scheduler.ListRun`) — primed by
:meth:`solve`, refreshed by every round, never replaced by an anchored
``replan=True`` schedule — and hands it to the next round's
:func:`~repro.core.list_scheduler.list_run`, which replays the leading
steps the delta cannot have changed and decides only the rest.  A
retime leaves every step before the retimed task becomes ready as it
was; a structural delta builds a new ``Dag`` and replays nothing.  The
schedule is the one a from-scratch run produces, entry for entry, and
``report.metadata["list_steps_reused"]`` says how many steps were
replayed.  The result feeds the disturbance report
(:mod:`repro.schedule.replan`) comparing the new schedule against the
previous one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Tuple

from ..core.evolve import InstanceDelta, apply_operations
from ..core.instance import Instance
from ..core.list_scheduler import ListRun, list_run
from ..core.lp import _result_from_solution, assemble_allotment_arrays
from ..core.parameters import resolve_parameters
from ..core.rounding import rounding_stretch_report
from ..lpsolve import LpError
from ..lpsolve.highs_warm import WarmUbModel, warm_capable
from ..schedule.replan import ScheduleDiff, diff_schedules, replan_schedule
from .base import SolveReport
from .runner import SchedulingPipeline

__all__ = ["DeltaReport", "ReplanSession", "resolve_delta"]


@dataclass(frozen=True)
class DeltaReport:
    """Outcome of one :meth:`ReplanSession.resolve_delta` round.

    Attributes
    ----------
    report:
        The child's full :class:`SolveReport` (same shape the cold
        pipeline produces — makespan, certified lower bound, timings).
    delta:
        The evolution diff that triggered the round.
    mode:
        ``"warm"`` (basis-reusing LP re-solve), ``"cold"`` (full
        re-solve), or ``"anchored"`` when replan mode replaced the
        free re-solve's schedule with the disturbance-minimizing one.
    lp_edits:
        Number of individual LP modifications pushed on the warm path
        (0 on cold solves).
    disturbance:
        Schedule diff against the previous round's schedule.
    """

    report: SolveReport
    delta: InstanceDelta
    mode: str
    lp_edits: int
    disturbance: Optional[ScheduleDiff]


class ReplanSession:
    """Stateful solver for an evolving instance.

    Parameters mirror :class:`SchedulingPipeline`; ``max_warm_magnitude``
    caps the delta size (fraction of parent tasks touched) the warm
    path accepts before falling back to a cold solve.
    """

    def __init__(
        self,
        instance: Instance,
        algorithm: str = "jz",
        priority: str = "earliest-start",
        *,
        rho: Optional[float] = None,
        mu: Optional[int] = None,
        max_warm_magnitude: float = 0.25,
    ):
        self._pipeline = SchedulingPipeline(
            algorithm, priority, rho=rho, mu=mu
        )
        self._instance = instance
        self._report: Optional[SolveReport] = None
        self._warm_model: Optional[WarmUbModel] = None
        # The last free earliest-start LIST run; the next round resumes it.
        self._list_run: Optional[ListRun] = None
        self.max_warm_magnitude = float(max_warm_magnitude)

    # ------------------------------------------------------------------
    @property
    def instance(self) -> Instance:
        """The instance of the latest solved round."""
        return self._instance

    @property
    def report(self) -> Optional[SolveReport]:
        """The latest round's report (``None`` before :meth:`solve`)."""
        return self._report

    def _warm_eligible(self) -> bool:
        return self._pipeline.algorithm == "jz" and warm_capable()

    # ------------------------------------------------------------------
    def solve(self) -> SolveReport:
        """Cold-solve the current instance, priming the resident model.

        For the ``jz`` algorithm the LP runs inside the session's own
        HiGHS model (numerically identical solve — asserted by the test
        suite — but the factorized basis stays resident for the next
        delta); other algorithms delegate to the stateless pipeline.
        """
        report, _edits = self._solve_current(warm=False)
        self._report = report
        return report

    def _solve_current(self, warm: bool) -> Tuple[SolveReport, int]:
        instance = self._instance
        if not self._warm_eligible():
            return self._pipeline.solve(instance), 0

        t0 = time.perf_counter()
        params = resolve_parameters(
            instance.m, rho=self._pipeline.rho, mu=self._pipeline.mu
        )
        arrays = assemble_allotment_arrays(instance)
        edits = 0
        if self._warm_model is None or not warm:
            self._warm_model = WarmUbModel(arrays)
        else:
            edits = self._warm_model.update(arrays)
        lp_result = _result_from_solution(
            instance, self._warm_model.solve()
        )
        rounding = rounding_stretch_report(instance, lp_result.x, params.rho)
        t1 = time.perf_counter()
        if self._pipeline.priority == "earliest-start":
            self._list_run = list_run(
                instance, rounding.allotment, mu=params.mu,
                previous=self._list_run,
            )
            schedule = self._list_run.schedule
            reused = self._list_run.reused
        else:
            schedule = self._pipeline.phase2_stage.fn(
                instance, tuple(rounding.allotment), mu=params.mu
            )
            reused = 0
        t2 = time.perf_counter()
        ratio = (
            params.ratio
            if self._pipeline.phase2_stage.carries_guarantee
            else None
        )
        report = SolveReport(
            schedule=schedule,
            algorithm=self._pipeline.algorithm,
            priority=self._pipeline.priority,
            allotment=tuple(rounding.allotment),
            mu=params.mu,
            rho=params.rho,
            lower_bound=lp_result.objective,
            ratio_bound=ratio,
            allotment_time=t1 - t0,
            schedule_time=t2 - t1,
            metadata={
                "parameters": params,
                "lp": lp_result,
                "rounding": rounding,
                "lp_mode": "warm" if warm else "cold",
                "list_steps_reused": reused,
            },
        )
        return report, edits

    # ------------------------------------------------------------------
    def resolve_delta(
        self,
        child: Instance,
        delta: InstanceDelta,
        *,
        replan: bool = False,
    ) -> DeltaReport:
        """Re-solve after an evolution of the session's instance.

        ``child``/``delta`` come from
        ``session.instance.evolve()...commit()``; the delta's parent
        fingerprint must match the session's current instance.  With
        ``replan=True`` the free re-solve's schedule is replaced by the
        anchored, disturbance-minimizing one
        (:func:`repro.schedule.replan.replan_schedule`) — completed
        tasks stay at their frozen starts, survivors near their old
        slots — and the reported ``mode`` is ``"anchored"``.
        """
        if delta.parent_key != self._instance.content_key():
            raise ValueError(
                "delta does not descend from the session's instance "
                f"(expected parent {self._instance.content_key()[:12]}…, "
                f"got {delta.parent_key[:12]}…)"
            )
        previous_report = self._report
        take_warm = (
            self._warm_eligible()
            and self._warm_model is not None
            and not delta.is_structural
            and delta.magnitude <= self.max_warm_magnitude
        )
        self._instance = child
        mode = "warm" if take_warm else "cold"
        if take_warm:
            try:
                report, edits = self._solve_current(warm=True)
            except LpError:
                # Pattern drift (e.g. a retime changed a task's segment
                # count): rebuild cold, stay resident for the next delta.
                mode, edits = "cold", 0
                report, _ = self._solve_current(warm=False)
        else:
            report, _ = self._solve_current(warm=False)
            edits = 0
        disturbance = None
        if previous_report is not None:
            if replan:
                schedule = replan_schedule(
                    child,
                    report.allotment,
                    previous_report.schedule,
                    node_map=delta.node_map,
                    completed=delta.completed,
                    mu=report.mu,
                )
                report = SolveReport(
                    schedule=schedule,
                    algorithm=report.algorithm,
                    priority=report.priority,
                    allotment=report.allotment,
                    mu=report.mu,
                    rho=report.rho,
                    lower_bound=report.lower_bound,
                    # The anchored schedule trades makespan for
                    # stability; the worst-case guarantee is voided.
                    ratio_bound=None,
                    allotment_time=report.allotment_time,
                    schedule_time=report.schedule_time,
                    metadata=report.metadata,
                )
                mode = "anchored"
            disturbance = diff_schedules(
                previous_report.schedule,
                report.schedule,
                node_map=delta.node_map,
            )
        self._report = report
        return DeltaReport(
            report=report,
            delta=delta,
            mode=mode,
            lp_edits=edits,
            disturbance=disturbance,
        )

    def apply(
        self,
        operations: Sequence[Mapping[str, Any]],
        *,
        replan: bool = False,
    ) -> DeltaReport:
        """Evolve the current instance by a JSON operation list
        (:func:`repro.core.evolve.apply_operations`) and resolve it."""
        child, delta = apply_operations(
            self._instance.evolve(), operations
        ).commit()
        return self.resolve_delta(child, delta, replan=replan)

    def __repr__(self) -> str:
        return (
            f"ReplanSession(algorithm={self._pipeline.algorithm!r}, "
            f"priority={self._pipeline.priority!r}, "
            f"n={self._instance.n_tasks})"
        )


def resolve_delta(
    session: ReplanSession,
    child: Instance,
    delta: InstanceDelta,
    *,
    replan: bool = False,
) -> DeltaReport:
    """Functional alias for :meth:`ReplanSession.resolve_delta`."""
    return session.resolve_delta(child, delta, replan=replan)
