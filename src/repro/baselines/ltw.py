"""Lepère–Trystram–Woeginger (LTW) baseline [18].

The comparison algorithm of the paper's Table 3: the earlier two-phase
scheme with approximation ratio ``3 + √5 ≈ 5.236``.  Differences from the
Jansen–Zhang algorithm:

* **Phase 1** — [18] reduces the allotment problem to the *discrete
  time-cost tradeoff* problem and runs Skutella's rounding with the
  symmetric parameter (``ρ = 1/2``), yielding duration and work stretches
  of 2 each, plus a binary search over deadline guesses.  Here we obtain
  the *same bicriteria guarantee* from our LP (9) (whose optimum lower
  bounds the tradeoff curve everywhere) followed by critical-point rounding
  at ``ρ = 1/2`` — Lemma 4.2 gives stretch ``2/(1+ρ) = 4/3 <= 2`` on time
  and ``2/(2-ρ) = 4/3 <= 2`` on work, so the α′ we hand to phase 2
  satisfies the guarantees [18]'s analysis needs (this substitution is
  recorded in DESIGN.md; it can only make the baseline *stronger*).
* **Phase 2** — identical LIST scheduling, but with [18]'s μ choice:
  the minimizer of their ratio formula

  ``r_LTW(m, μ) = [2m + max(2(m-μ), (m-2μ+1)·2m/μ)] / (m-μ+1)``,

  which reproduces every entry of the paper's Table 3 (see
  :mod:`repro.theory.ltw` for the formula's derivation and the one
  typo we found in the paper's μ column at m=26).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.instance import Instance
from ..core.lp import AllotmentLpResult, solve_allotment_lp
from ..core.list_scheduler import capped_allotment, list_schedule
from ..core.rounding import round_fractional_times
from ..schedule import Schedule
from ..theory.ltw import ltw_parameters

__all__ = ["LTWResult", "ltw_schedule"]

#: Skutella-symmetric rounding parameter used by [18].
LTW_RHO = 0.5


@dataclass(frozen=True)
class LTWResult:
    """Schedule and accounting for the LTW baseline."""

    schedule: Schedule
    lp: AllotmentLpResult
    mu: int
    ratio_bound: float
    allotment_phase1: Tuple[int, ...]
    allotment_final: Tuple[int, ...]

    @property
    def makespan(self) -> float:
        """Makespan of the delivered schedule."""
        return self.schedule.makespan

    @property
    def lower_bound(self) -> float:
        """LP (9) optimum — same certified bound as the JZ pipeline."""
        return self.lp.objective


def ltw_schedule(instance: Instance) -> LTWResult:
    """Run the LTW-style two-phase baseline on ``instance``."""
    params = ltw_parameters(instance.m)
    lp_result = solve_allotment_lp(instance)
    allot1 = round_fractional_times(instance, lp_result.x, LTW_RHO)
    schedule = list_schedule(instance, allot1, mu=params.mu)
    return LTWResult(
        schedule=schedule,
        lp=lp_result,
        mu=params.mu,
        ratio_bound=params.ratio,
        allotment_phase1=tuple(allot1),
        allotment_final=tuple(capped_allotment(allot1, params.mu)),
    )
