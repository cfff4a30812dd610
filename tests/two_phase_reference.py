"""Test-only reference for the two analyzed two-phase algorithms.

:func:`jz_reference` (Jansen–Zhang, Section 3 of the paper) and
:func:`ltw_reference` (Lepère–Trystram–Woeginger [18]) run each algorithm
as its literal call sequence — parameters, LP (9), rounding, LIST under
the μ cap — without going through :mod:`repro.pipeline`.  The library
serves both as pipeline compositions (``jz`` and ``ltw`` ×
``earliest-start``; :func:`repro.jz_schedule` and
:func:`repro.baselines.ltw_schedule` are one-statement facades over
them), so tests pin the pipeline's reports to these transcriptions
entry for entry.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.baselines.ltw import LTW_RHO
from repro.core.list_scheduler import list_schedule
from repro.core.lp import solve_allotment_lp
from repro.core.parameters import resolve_parameters
from repro.core.rounding import round_fractional_times
from repro.schedule import Schedule
from repro.theory.ltw import ltw_parameters


@dataclass(frozen=True)
class ReferenceRun:
    """Outcome of one reference run, in :class:`SolveReport` terms."""

    schedule: Schedule
    lower_bound: float
    ratio_bound: float
    #: phase-1 allotment α′, before the μ cap.
    allotment: Tuple[int, ...]
    mu: int
    rho: float

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def observed_ratio(self) -> float:
        lb = self.lower_bound
        return self.makespan / lb if lb > 0 else 1.0


def _two_phase(instance, rho, mu, ratio) -> ReferenceRun:
    lp_result = solve_allotment_lp(instance)
    allotment = round_fractional_times(instance, lp_result.x, rho)
    return ReferenceRun(
        schedule=list_schedule(instance, allotment, mu=mu),
        lower_bound=lp_result.objective,
        ratio_bound=ratio,
        allotment=tuple(allotment),
        mu=mu,
        rho=rho,
    )


def jz_reference(instance, rho=None, mu=None) -> ReferenceRun:
    """Jansen–Zhang at ``ρ(m)``, ``μ(m)`` of Theorem 4.1 (or the
    overrides)."""
    params = resolve_parameters(instance.m, rho=rho, mu=mu)
    return _two_phase(instance, params.rho, params.mu, params.ratio)


def ltw_reference(instance) -> ReferenceRun:
    """LTW: rounding at ``ρ = 1/2`` and [18]'s ``μ`` minimizer."""
    params = ltw_parameters(instance.m)
    return _two_phase(instance, LTW_RHO, params.mu, params.ratio)
