"""Certified lower bounds on the optimal makespan (eq. (11)).

Every ratio *measurement* in the benchmark harness divides a schedule's
makespan by a certified lower bound on OPT, so the reported numbers are
conservative (the true ratio can only be smaller).  Three bounds compose:

* ``L_min`` — critical-path length with every task at its fastest
  configuration ``p_j(m)``;
* ``W_min / m`` — minimum total work (all tasks at ``l = 1``, where work is
  minimal by Theorem 2.1) averaged over the machine;
* ``C*`` — the optimum of LP (9); by eq. (11) ``C* <= OPT``, and ``C*``
  dominates the two combinatorial bounds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.instance import Instance
from .core.lp import solve_allotment_lp

__all__ = ["LowerBounds", "lower_bounds"]


@dataclass(frozen=True)
class LowerBounds:
    """The three makespan lower bounds for one instance."""

    critical_path: float  #: L_min (all tasks on m processors)
    work_over_m: float  #: W_min / m (all tasks on 1 processor)
    lp_bound: float  #: C* of LP (9)

    @property
    def best(self) -> float:
        """The strongest certified lower bound."""
        return max(self.critical_path, self.work_over_m, self.lp_bound)


def lower_bounds(instance: Instance) -> LowerBounds:
    """Compute all three lower bounds for ``instance``."""
    lp = solve_allotment_lp(instance)
    return LowerBounds(
        critical_path=instance.min_critical_path(),
        work_over_m=instance.min_total_work() / instance.m,
        lp_bound=lp.objective,
    )
