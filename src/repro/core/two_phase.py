"""The paper's two-phase approximation algorithm (Section 3), end to end.

Pipeline (algorithm outline, start of Section 3):

1. **Initialization** — compute ``ρ(m)`` and ``μ(m)``
   (:func:`repro.core.parameters.jz_parameters`; eqs. (19)/(20) and the
   small-``m`` special cases of Theorem 4.1).
2. **Phase 1** — solve LP (9) (:mod:`repro.core.lp`) and round the
   fractional times with the critical-point rule
   (:mod:`repro.core.rounding`), producing allotment α′.
3. **Phase 2** — cap at ``μ`` and run LIST (:mod:`repro.core.list_scheduler`),
   producing the final feasible schedule.

:func:`jz_schedule` returns the schedule together with a
:class:`JZCertificate` carrying everything the analysis talks about: the LP
lower bound ``C*``, the rounding stretches (Lemma 4.2), the slot-class
lengths (Lemmas 4.3/4.4) and the proven ratio bound r(m) — so callers can
*check* ``makespan <= r(m) · C*`` on every run, which the test suite does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..schedule import Schedule, slot_classes
from .instance import Instance
from .lp import AllotmentLpResult, solve_allotment_lp
from .list_scheduler import capped_allotment, list_schedule
from .parameters import JZParameters, resolve_parameters
from .rounding import RoundingReport, rounding_stretch_report

__all__ = ["JZCertificate", "JZResult", "jz_schedule"]


@dataclass(frozen=True)
class JZCertificate:
    """Analysis-facing byproducts of a run of the two-phase algorithm."""

    parameters: JZParameters
    lp: AllotmentLpResult
    rounding: RoundingReport
    #: α′ from phase 1 (before the μ cap).
    allotment_phase1: Tuple[int, ...]
    #: α = min(α′, μ) actually scheduled in phase 2.
    allotment_final: Tuple[int, ...]
    #: measured |T1|, |T2|, |T3| of the final schedule.
    t1: float
    t2: float
    t3: float

    @property
    def lower_bound(self) -> float:
        """``C*`` — LP (9) optimum, a certified lower bound on OPT."""
        return self.lp.objective

    @property
    def ratio_bound(self) -> float:
        """The proven approximation-ratio bound r(m) for this machine."""
        return self.parameters.ratio


@dataclass(frozen=True)
class JZResult:
    """Final schedule plus certificate."""

    schedule: Schedule
    certificate: JZCertificate

    @property
    def makespan(self) -> float:
        """Makespan of the delivered schedule."""
        return self.schedule.makespan

    @property
    def observed_ratio(self) -> float:
        """``C_max / C*`` — an *upper* bound on the true ratio vs OPT."""
        lb = self.certificate.lower_bound
        return self.makespan / lb if lb > 0 else 1.0


def jz_schedule(
    instance: Instance,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> JZResult:
    """Run the Jansen–Zhang two-phase algorithm on ``instance``.

    Parameters
    ----------
    instance:
        Tasks must satisfy Assumptions 1 and 2 (enforced at task
        construction unless explicitly disabled).
    rho, mu:
        Override the paper's parameter choices (used by the ablation
        benchmarks); defaults are the Theorem 4.1 values for
        ``m = instance.m``.

    Returns
    -------
    JZResult
        Feasible schedule and the analysis certificate.  The makespan is
        guaranteed (Theorem 4.1) to be at most ``ratio_bound · OPT``; the
        certificate additionally exposes the stronger *measured* bound
        ``makespan / C*``.
    """
    params = resolve_parameters(instance.m, rho=rho, mu=mu)

    # Phase 1: LP (9) + critical-point rounding.
    lp_result = solve_allotment_lp(instance)
    report = rounding_stretch_report(instance, lp_result.x, params.rho)
    allot_phase1 = report.allotment

    # Phase 2: cap at mu, LIST.
    schedule = list_schedule(instance, allot_phase1, mu=params.mu)
    final_alloc = tuple(capped_allotment(allot_phase1, params.mu))

    slots = slot_classes(
        schedule, min(params.mu, (instance.m + 1) // 2)
    )
    cert = JZCertificate(
        parameters=params,
        lp=lp_result,
        rounding=report,
        allotment_phase1=tuple(allot_phase1),
        allotment_final=final_alloc,
        t1=slots.t1,
        t2=slots.t2,
        t3=slots.t3,
    )
    return JZResult(schedule=schedule, certificate=cert)
