"""Built-in pipeline stages: every solver in the repo as a registered
strategy.

Allotment (phase-1) strategies:

* ``jz`` — LP (9) + critical-point rounding at the Theorem 4.1
  parameters; the paper's phase 1.  Composed with ``earliest-start``
  it is the paper's algorithm, :func:`repro.jz_schedule` (pinned to a
  step-by-step transcription by the conformance suite).
* ``bsearch`` — the deadline-LP binary search of [18] that the paper's
  Remark in Section 3.1 avoids, with the JZ μ cap.
* ``ltw`` — Lepère–Trystram–Woeginger: Skutella-symmetric rounding
  (ρ = 1/2) and [18]'s μ minimizer; with ``earliest-start`` it is
  :func:`repro.baselines.ltw_schedule`.
* ``greedy-critical-path`` (alias ``greedy``) — LP-free greedy
  acceleration of the critical path.
* ``sequential`` — every task on one processor (work-optimal anchor).
* ``full`` — every task on all ``m`` processors (path-optimal anchor).

Phase-2 schedulers: the paper's ``earliest-start`` LIST rule plus the
``critical-path`` / ``longest-processing-time`` / ``widest`` / ``fifo``
priority variants of :mod:`repro.core.list_variants`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..baselines.ltw import LTW_RHO
from ..baselines.naive import greedy_critical_path_allotment
from ..core.allotment_bsearch import bsearch_allotment
from ..core.instance import Instance
from ..core.list_scheduler import list_schedule
from ..core.list_variants import list_schedule_with_priority
from ..core.lp import solve_allotment_lp
from ..core.parameters import resolve_parameters
from ..core.rounding import round_fractional_times, rounding_stretch_report
from ..obs import trace as obs_trace
from ..schedule import Schedule
from ..theory.ltw import ltw_parameters
from .base import AllotmentResult
from .registry import register_allotment, register_phase2

__all__ = [
    "bsearch_strategy",
    "full_strategy",
    "greedy_critical_path_strategy",
    "jz_strategy",
    "ltw_strategy",
    "sequential_strategy",
]


# ---------------------------------------------------------------------------
# allotment strategies
# ---------------------------------------------------------------------------
@register_allotment(
    "jz",
    summary=(
        "LP (9) + critical-point rounding at rho(m), mu(m) of Theorem "
        "4.1 (the paper's phase 1; proven ratio r(m))"
    ),
)
def jz_strategy(
    instance: Instance,
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> AllotmentResult:
    """Jansen–Zhang phase 1: LP (9), then critical-point rounding at
    ``ρ(m)``; reports ``μ(m)`` as the phase-2 cap."""
    params = resolve_parameters(instance.m, rho=rho, mu=mu)
    lp_result = solve_allotment_lp(instance)
    with obs_trace.span("rounding", n=instance.n_tasks):
        report = rounding_stretch_report(instance, lp_result.x, params.rho)
    return AllotmentResult(
        allotment=tuple(report.allotment),
        mu=params.mu,
        rho=params.rho,
        lower_bound=lp_result.objective,
        ratio_bound=params.ratio,
        metadata={
            "parameters": params, "lp": lp_result, "rounding": report
        },
    )


@register_allotment(
    "bsearch",
    summary=(
        "deadline-LP binary search over d of max(d, W(d)/m) ([18]'s "
        "phase 1 the paper avoids), one LP assembly shared by every "
        "probe, then JZ rounding and mu cap"
    ),
)
def bsearch_strategy(
    instance: Instance,
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> AllotmentResult:
    """Binary-search phase 1; one LP solve per search step (the matrix
    is assembled once and only the deadline bounds move — see
    :mod:`repro.core.allotment_bsearch`)."""
    params = resolve_parameters(instance.m, rho=rho, mu=mu)
    report = bsearch_allotment(instance, params.rho)
    # The search's best objective is an estimate, not a certified lower
    # bound (the true balance point may sit between probes), so none is
    # claimed here; the pipeline falls back to the combinatorial bound.
    return AllotmentResult(
        allotment=tuple(report.allotment),
        mu=params.mu,
        rho=params.rho,
        metadata={
            "deadline": report.deadline,
            "objective": report.objective,
            "lp_solves": report.lp_solves,
        },
    )


@register_allotment(
    "ltw",
    summary=(
        "Lepère-Trystram-Woeginger: rho=1/2 rounding and [18]'s mu "
        "minimizer (ratio 3+sqrt(5) asymptotically)"
    ),
)
def ltw_strategy(
    instance: Instance,
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> AllotmentResult:
    """LTW phase 1: LP (9), then rounding at ``ρ = 1/2``; reports
    [18]'s ``μ`` as the phase-2 cap."""
    params = ltw_parameters(instance.m)
    use_rho = LTW_RHO if rho is None else float(rho)
    use_mu = params.mu if mu is None else int(mu)
    lp_result = solve_allotment_lp(instance)
    with obs_trace.span("rounding", n=instance.n_tasks):
        allot = round_fractional_times(instance, lp_result.x, use_rho)
    return AllotmentResult(
        allotment=tuple(allot),
        mu=use_mu,
        rho=use_rho,
        lower_bound=lp_result.objective,
        ratio_bound=params.ratio if rho is None and mu is None else None,
        metadata={"parameters": params, "lp": lp_result},
    )


@register_allotment(
    "greedy-critical-path",
    aliases=("greedy",),
    summary=(
        "LP-free heuristic: greedily accelerate the best critical-path "
        "task while max(L, W/m) improves"
    ),
)
def greedy_critical_path_strategy(
    instance: Instance,
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> AllotmentResult:
    """Greedy critical-path allotment (``rho`` unused)."""
    alloc = greedy_critical_path_allotment(instance)
    return AllotmentResult(
        allotment=tuple(alloc), mu=None if mu is None else int(mu)
    )


@register_allotment(
    "sequential",
    summary="every task on 1 processor (work-optimal naive anchor)",
)
def sequential_strategy(
    instance: Instance,
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> AllotmentResult:
    """All-ones allotment (overrides unused)."""
    return AllotmentResult(
        allotment=(1,) * instance.n_tasks,
        mu=None if mu is None else int(mu),
    )


@register_allotment(
    "full",
    summary=(
        "every task on all m processors (path-optimal naive anchor; "
        "tasks serialize)"
    ),
)
def full_strategy(
    instance: Instance,
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
) -> AllotmentResult:
    """All-``m`` allotment (overrides unused)."""
    return AllotmentResult(
        allotment=(instance.m,) * instance.n_tasks,
        mu=None if mu is None else int(mu),
    )


# ---------------------------------------------------------------------------
# phase-2 schedulers
# ---------------------------------------------------------------------------
@register_phase2(
    "earliest-start",
    summary=(
        "the paper's LIST rule: among ready tasks start the one with "
        "the smallest earliest feasible start (carries the worst-case "
        "guarantee)"
    ),
    carries_guarantee=True,
)
def earliest_start_scheduler(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """The analyzed LIST scheduler."""
    return list_schedule(instance, allotment, mu=mu)


_PRIORITY_SUMMARIES = {
    "critical-path": (
        "prefer the ready task with the longest remaining path "
        "(bottom level; classic CP/HLF)"
    ),
    "longest-processing-time": (
        "prefer the ready task with the largest capped duration (LPT)"
    ),
    "widest": (
        "prefer the ready task with the largest allotment (packs big "
        "rectangles first)"
    ),
    "fifo": "smallest task id first (arbitrary but deterministic)",
}


def _make_priority_scheduler(rule: str):
    def scheduler(
        instance: Instance,
        allotment: Sequence[int],
        mu: Optional[int] = None,
    ) -> Schedule:
        return list_schedule_with_priority(
            instance, allotment, mu=mu, priority=rule
        )

    scheduler.__name__ = f"{rule.replace('-', '_')}_scheduler"
    scheduler.__qualname__ = scheduler.__name__
    scheduler.__doc__ = f"LIST with the {rule!r} priority rule."
    return scheduler


for _rule, _summary in _PRIORITY_SUMMARIES.items():
    register_phase2(_rule, summary=_summary)(
        _make_priority_scheduler(_rule)
    )
del _rule, _summary
