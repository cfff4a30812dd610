"""Delta re-solves: a session that survives instance evolution.

:class:`~repro.pipeline.runner.SchedulingPipeline` is stateless — every
``solve()`` pays the full LP from scratch.  :class:`ReplanSession` is
the stateful counterpart for online use: it solves an instance once,
keeps the LP solver resident (:class:`repro.lpsolve.scipy_backend
.HighsModel`, basis and factorization intact), and then answers each
:meth:`resolve_delta` by pushing only the *changed* bounds and
coefficients of LP (9) into the live model.  A single-task retime
perturbs a handful of entries; the dual simplex re-proves optimality in
a few pivots where the cold solve pays thousands — the measured gap on
the n=10k benchmark is the whole point of the evolution API.

The warm path is taken only when it is provably safe and plausibly
profitable:

* the allotment stage is ``jz`` (the one whose LP the session owns);
* the delta is non-structural — same tasks, same arcs — so the LP's
  sparsity pattern is unchanged;
* the delta is small (``magnitude <= MAX_WARM_MAGNITUDE``): bulk edits
  re-enter cold, in a fresh model started from LP (9)'s critical-path
  basis (:func:`repro.core.lp.lp9_start_basis`).

Everything else is a cold solve: for ``jz`` in a fresh resident model
(so the next delta is warm again), for other algorithms through the
ordinary pipeline.

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

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Tuple

from ..core.evolve import InstanceDelta, apply_operations
from ..core.instance import Instance
from ..core.list_scheduler import ListRun, list_run
from ..lpsolve import LpError, LpSolution
from ..lpsolve.scipy_backend import HighsModel
from ..schedule import Schedule
from ..schedule.replan import ScheduleDiff, diff_schedules, replan_schedule
from .base import SolveReport
from .runner import SchedulingPipeline

__all__ = ["DeltaReport", "ReplanSession"]

#: Largest delta (fraction of parent tasks touched) a session answers
#: warm; a larger one re-solves cold.
MAX_WARM_MAGNITUDE = 0.25


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

    Parameters mirror :class:`SchedulingPipeline`.
    """

    def __init__(
        self,
        instance: Instance,
        algorithm: str = "jz",
        priority: str = "earliest-start",
        *,
        rho: Optional[float] = None,
        mu: Optional[int] = None,
    ):
        self._pipeline = SchedulingPipeline(
            algorithm, priority, rho=rho, mu=mu
        )
        self._instance = instance
        self._report: Optional[SolveReport] = None
        self._warm_model: Optional[HighsModel] = None
        # The last free earliest-start LIST run; the next round resumes it.
        self._list_run: Optional[ListRun] = None

    # ------------------------------------------------------------------
    @property
    def instance(self) -> Instance:
        """The instance of the latest solved round."""
        return self._instance

    @property
    def report(self) -> Optional[SolveReport]:
        """The latest round's report (``None`` before :meth:`solve`)."""
        return self._report

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
        """One round through :meth:`SchedulingPipeline._solve`, with the
        session's resident HiGHS model solving LP (9) and, for
        ``earliest-start``, LIST resuming the last free run; returns
        the report and the number of LP edits pushed."""
        if self._pipeline.algorithm != "jz":
            return self._pipeline.solve(self._instance), 0
        edits = 0

        def lp_solve(arrays) -> LpSolution:
            nonlocal edits
            if self._warm_model is None or not warm:
                self._warm_model = HighsModel(arrays)
            else:
                edits = self._warm_model.update(arrays)
            return self._warm_model.solve()

        resume = self._pipeline.priority == "earliest-start"
        report = self._pipeline._solve(
            self._instance,
            lp_solve=lp_solve,
            phase2=self._resume_list if resume else None,
        )
        metadata = {
            **report.metadata,
            "lp_mode": "warm" if warm else "cold",
            "list_steps_reused": self._list_run.reused if resume else 0,
        }
        return replace(report, metadata=metadata), edits

    def _resume_list(
        self,
        instance: Instance,
        allotment: Sequence[int],
        mu: Optional[int] = None,
    ) -> Schedule:
        """The ``earliest-start`` stage, resumed from the last run."""
        self._list_run = list_run(
            instance, allotment, mu=mu, previous=self._list_run
        )
        return self._list_run.schedule

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
        slots — and the reported ``mode`` is ``"anchored"``.  When the
        frozen starts conflict with the child, that raises
        :class:`~repro.schedule.replan.FrozenStartConflict` (a
        :class:`ValueError`) and the session holds the child and the
        free re-solve's round, as after ``replan=False``.
        """
        if delta.parent_key != self._instance.content_key():
            raise ValueError(
                "delta does not descend from the session's instance "
                f"(expected parent {self._instance.content_key()[:12]}…, "
                f"got {delta.parent_key[:12]}…)"
            )
        previous_report = self._report
        take_warm = (
            self._warm_model is not None
            and not delta.is_structural
            and delta.magnitude <= MAX_WARM_MAGNITUDE
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
        self._report = report  # the free round, kept if anchoring fails
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
                # The anchored schedule trades makespan for stability;
                # the worst-case guarantee is voided.
                report = replace(report, schedule=schedule, ratio_bound=None)
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
