"""Alternative phase 1: deadline LP + binary search (the [18] approach).

The Remark at the end of Section 3.1 explains that the paper *avoids* the
earlier two-step approach of Lepère et al. [18]: there, the allotment
problem is treated as a bicriteria time-cost tradeoff — for a guessed
deadline ``d`` on the critical path, minimize the total work — and a
binary search over ``d`` balances the two criteria, whereas LP (9) embeds
both criteria (``L <= C`` and ``W/m <= C``) in a single program.

This module implements the avoided variant faithfully so the claim can be
*measured* (see ``benchmarks/bench_phase1_variants.py``): same final
quality (both phase-1 formulations relax the same problem) but strictly
more LP solves for the binary search.

Because LP (9) holds both criteria, [18]'s deadline LP *is* LP (9) in
its ε-constraint form: the objective moves from ``C`` to the total work
``Σ_j w̄_j`` (in LP (9)'s δ form, the segment slopes on the δ columns:
the work at every ``p_j(m)`` is a constant the search never reads), the
critical-path column ``L`` gets the upper bound ``d``, and ``C`` stays
free, so ``L <= C`` and ``W/m <= C`` go slack.  Every probe reads
the one memoized LP (9) assembly
(:func:`repro.core.lp.assemble_allotment_arrays`, which ``jz`` and
``ltw`` build for the same instance) and swaps in that objective and
the bound of ``L`` on copies.  A search loads them into one HiGHS
model at its first probe, cold from LP (9)'s start basis, and answers
every later probe by moving the bound of ``L`` in that model and
re-solving warm from the previous probe's basis, as
:class:`repro.pipeline.incremental.ReplanSession` answers a retime.
A search is deterministic; a probe's optimum can differ from a fresh
model's only among alternate optima (the same total work within
1e-12 relative, asserted by the test suite).

API
---
:func:`deadline_work_lp` — min Σ w̄_j/m subject to the precedence system
with every completion time <= ``d``.
:func:`bsearch_allotment` — binary search on ``d`` to minimize
``max(d, W(d)/m)``, then critical-point rounding; returns the allotment
and a report with the search trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..lpsolve import LpError, LpStatus
from ..lpsolve.scipy_backend import HighsModel
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .arrays import instance_arrays, work_of_times
from .instance import Instance
from .lp import assemble_allotment_arrays, lp9_read_back
from .rounding import round_fractional_times

__all__ = [
    "deadline_work_lp",
    "DeadlineLpResult",
    "BsearchReport",
    "bsearch_allotment",
]


@dataclass(frozen=True)
class DeadlineLpResult:
    """Optimal fractional times for one deadline guess."""

    deadline: float
    total_work: float  #: W(d) = Σ w_j(x_j) at the optimum
    x: Tuple[float, ...]


#: Most bisection steps one :func:`bsearch_allotment` takes (the
#: :data:`REL_TOL` interval test usually stops it well before).
MAX_ITERATIONS = 60
#: The bisection stops once the deadline interval is at most this
#: fraction of its upper end.
REL_TOL = 1e-4

_PROBES = _METRICS.counter(
    "repro_solver_bsearch_probes_total",
    "Deadline LP probes solved by the binary-search phase 1",
)


class _DeadlineSolver:
    """Shared state for the binary search's repeated deadline solves.

    Holds the instance's memoized LP (9) arrays with the objective on
    the δ columns, each weighted by its segment's slope (the total work
    ``Σ_j w̄_j`` less its constant ``Σ_j w_j(p_j(m))``), and the one
    resident :class:`HighsModel` of the search.  Every probe bounds
    ``L``, on a copy; the first loads the model from it, each later one
    pushes the new bound with :meth:`HighsModel.update` and solves warm
    from the previous probe's basis; ``x`` is read back with
    :func:`repro.core.lp.lp9_read_back`.  Only an infeasible probe is
    a missed deadline: any other :class:`LpError` propagates.
    """

    def __init__(self, instance: Instance):
        self._image = image = instance_arrays(instance)
        arrays = assemble_allotment_arrays(instance)
        c = np.zeros(arrays.n_variables)
        c[image.n:image.n + len(image.seg_slope)] = image.seg_slope
        self._arrays = arrays._replace(c=c)
        self._model: Optional[HighsModel] = None

    def solve(self, deadline: float) -> Optional[DeadlineLpResult]:
        """One probe: ``None`` when the deadline is infeasible."""
        if deadline <= 0:
            return None
        with obs_trace.span("lp.probe", deadline=deadline):
            obs_trace.add("bsearch_probes", 1)
            _PROBES.inc()
            probe = self._arrays._replace(hi=self._arrays.hi.copy())
            probe.hi[-2] = deadline  # L
            try:
                if self._model is None:
                    self._model = HighsModel(probe)
                else:
                    self._model.update(probe)
                sol = self._model.solve()
            except LpError as err:
                if err.status != LpStatus.INFEASIBLE:
                    raise
                return None
            image = self._image
            x = lp9_read_back(
                sol.values, image.min_time, image.seg_ptr, image.seg_tasks
            )
            work = work_of_times(image, x)
            return DeadlineLpResult(
                deadline=deadline, total_work=sum(work.tolist()),
                x=tuple(x.tolist()),
            )


def deadline_work_lp(
    instance: Instance, deadline: float
) -> Optional[DeadlineLpResult]:
    """Minimize total work subject to critical path <= ``deadline``.

    Returns ``None`` when the deadline is infeasible (shorter than the
    all-``m`` critical path).  One-shot form of :class:`_DeadlineSolver`:
    a fresh model's cold solve; repeated calls on the same instance
    share the memoized LP (9) assembly.
    """
    return _DeadlineSolver(instance).solve(deadline)


@dataclass(frozen=True)
class BsearchReport:
    """Outcome of the binary-search phase 1."""

    allotment: Tuple[int, ...]
    x: Tuple[float, ...]
    deadline: float  #: final deadline guess d
    objective: float  #: max(d, W(d)/m) achieved
    lp_solves: int  #: number of deadline LPs solved (the avoided cost)


def bsearch_allotment(instance: Instance, rho: float) -> BsearchReport:
    """Phase 1 via deadline binary search, as in [18].

    Searches the deadline ``d`` in ``[L_min, Σ p_j(1)]`` for the balance
    point of ``max(d, W(d)/m)`` (``W(d)`` is non-increasing in ``d``,
    ``d`` is increasing, so the max is unimodal), then applies the same
    critical-point rounding as the direct pipeline.  Every probe reuses
    the one assembly of LP (9) and the one HiGHS model of the search
    (see the module docstring).  An empty instance has nothing to
    search: no probe, no allotment.
    """
    if instance.n_tasks == 0:
        return BsearchReport(
            allotment=(), x=(), deadline=0.0, objective=0.0, lp_solves=0
        )
    m = instance.m
    lo = max(instance.min_critical_path(), 1e-12)
    hi = max(instance.sequential_makespan(), lo * (1 + 1e-9))
    solver = _DeadlineSolver(instance)
    solves = 0

    def evaluate(d: float) -> Tuple[float, Optional[DeadlineLpResult]]:
        nonlocal solves
        res = solver.solve(d)
        solves += 1
        if res is None:
            return float("inf"), None
        return max(d, res.total_work / m), res

    best_obj, best = evaluate(hi)
    # Binary search: if W(d)/m > d the balance point is to the right.
    for _ in range(MAX_ITERATIONS):
        if hi - lo <= REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        obj, res = evaluate(mid)
        if res is None:
            lo = mid
            continue
        if obj < best_obj:
            best_obj, best = obj, res
        if res.total_work / m > mid:
            lo = mid
        else:
            hi = mid
    if best is None:
        raise RuntimeError("binary search found no feasible deadline")
    with obs_trace.span("rounding", n=instance.n_tasks):
        allot = round_fractional_times(instance, best.x, rho)
    return BsearchReport(
        allotment=tuple(allot),
        x=tuple(best.x),
        deadline=best.deadline,
        objective=best_obj,
        lp_solves=solves,
    )
