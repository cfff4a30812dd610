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

Because the search solves the *same* LP a few dozen times with only the
deadline changing, the constraint matrix is assembled **once** per
instance (:func:`assemble_deadline_arrays`, memoized); each probe only
swaps the completion-variable upper bounds and solves the result in a
fresh HiGHS model, cold, so no probe depends on the ones before it.

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
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..lpsolve import LpError
from ..lpsolve.scipy_backend import solve_ub_arrays
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .arrays import instance_arrays, memoized_on_instance, work_of_times
from .instance import Instance
from .rounding import round_fractional_times

__all__ = [
    "assemble_deadline_arrays",
    "deadline_work_lp",
    "DeadlineArrays",
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


class DeadlineArrays(NamedTuple):
    """The deadline LP assembled in bulk (``A_ub v <= b_ub`` form).

    Variables ``x_j = 3j``, ``C_j = 3j + 1``, ``w_j = 3j + 2``; rows
    grouped per task (fit, work segments), then the precedence arcs.
    The deadline itself only appears as the upper bound of the ``C_j``
    variables (``c_cols``), so one assembly serves every probe of the
    binary search.
    """

    n_variables: int
    c: np.ndarray  #: objective coefficients (1 on every w̄_j)
    lo: np.ndarray  #: variable lower bounds
    hi: np.ndarray  #: variable upper bounds, *without* a deadline
    c_cols: np.ndarray  #: column indices of the C_j variables
    rows: np.ndarray  #: COO row indices of A_ub
    cols: np.ndarray  #: COO column indices of A_ub
    vals: np.ndarray  #: COO values of A_ub
    b_ub: np.ndarray  #: right-hand sides


@memoized_on_instance
def assemble_deadline_arrays(instance: Instance) -> DeadlineArrays:
    """Assemble the deadline LP's constraint matrix once, memoized.

    Built from the packed profile arrays and the DAG's CSR edge arrays,
    with no per-task or per-edge Python work.
    """
    arr = instance_arrays(instance)
    n = arr.n
    nv = 3 * n
    xs = np.arange(n) * 3
    cs = xs + 1
    ws = xs + 2

    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    lo[xs] = arr.min_time
    hi[xs] = arr.max_time
    lo[ws] = arr.work_lo
    c = np.zeros(nv)
    c[ws] = 1.0

    # Per-task row block: fit_j, then the work segments of J_j.
    nseg = arr.nseg
    off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(nseg + 1, out=off[1:])
    fit_rows = off[:-1]
    t_idx = arr.seg_task
    # Flat segment p of task j sits at row off[j] + 1 + (p - segcum[j]);
    # off[j] - segcum[j] = j, so the row is simply p + j + 1.
    seg_rows = np.arange(len(t_idx)) + t_idx + 1

    csr = instance.dag.to_csr()
    edge_u = csr.edge_sources()
    edge_v = csr.succ_indices
    ne = len(edge_v)
    prec_rows = off[-1] + np.arange(ne)
    n_rows = int(off[-1]) + ne

    rows = np.concatenate(
        [
            np.repeat(fit_rows, 2),  # x_j - C_j <= 0
            np.repeat(seg_rows, 2),  # slope·x_j - w_j <= -intercept
            np.repeat(prec_rows, 3),  # C_i + x_j - C_j <= 0
        ]
    )
    cols = np.concatenate(
        [
            np.column_stack([xs, cs]).ravel(),
            np.column_stack([xs[t_idx], ws[t_idx]]).ravel(),
            np.column_stack([cs[edge_u], xs[edge_v], cs[edge_v]]).ravel(),
        ]
    )
    vals = np.concatenate(
        [
            np.tile([1.0, -1.0], n),
            np.column_stack(
                [arr.seg_slope, np.full(len(t_idx), -1.0)]
            ).ravel(),
            np.tile([1.0, 1.0, -1.0], ne),
        ]
    )
    b_ub = np.zeros(n_rows)
    b_ub[seg_rows] = -arr.seg_intercept

    return DeadlineArrays(
        n_variables=nv,
        c=c,
        lo=lo,
        hi=hi,
        c_cols=cs,
        rows=rows,
        cols=cols,
        vals=vals,
        b_ub=b_ub,
    )


#: Most bisection steps one :func:`bsearch_allotment` takes (the
#: ``rel_tol`` interval test usually stops it well before).
MAX_ITERATIONS = 60

_PROBES = _METRICS.counter(
    "repro_solver_bsearch_probes_total",
    "Deadline LP probes solved by the binary-search phase 1",
)


class _DeadlineSolver:
    """Shared state for the binary search's repeated deadline solves.

    The instance's :class:`DeadlineArrays` are built once; every probe
    only swaps the ``C_j`` upper bounds.
    """

    def __init__(self, instance: Instance):
        self._instance = instance
        self._image = instance_arrays(instance)
        self._arrays = assemble_deadline_arrays(instance)

    def solve(self, deadline: float) -> Optional[DeadlineLpResult]:
        """One probe: ``None`` when the deadline is infeasible."""
        if deadline <= 0:
            return None
        with obs_trace.span("lp.probe", deadline=deadline):
            obs_trace.add("bsearch_probes", 1)
            _PROBES.inc()
            return self._probe(deadline)

    def _probe(self, deadline: float) -> Optional[DeadlineLpResult]:
        arr = self._arrays
        hi = arr.hi.copy()
        hi[arr.c_cols] = deadline
        try:
            sol = solve_ub_arrays(arr._replace(hi=hi))
        except LpError:
            return None
        x = tuple(sol.values[0:3 * self._instance.n_tasks:3])
        work = work_of_times(self._image, np.array(x, dtype=float))
        return DeadlineLpResult(
            deadline=deadline, total_work=sum(work.tolist()), x=x
        )


def deadline_work_lp(
    instance: Instance, deadline: float
) -> Optional[DeadlineLpResult]:
    """Minimize total work subject to critical path <= ``deadline``.

    Returns ``None`` when the deadline is infeasible (shorter than the
    all-``m`` critical path).  One-shot form of :class:`_DeadlineSolver`
    — repeated solves of the same instance share the memoized matrix
    assembly.
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


def bsearch_allotment(
    instance: Instance,
    rho: float,
    rel_tol: float = 1e-4,
) -> BsearchReport:
    """Phase 1 via deadline binary search, as in [18].

    Searches the deadline ``d`` in ``[L_min, Σ p_j(1)]`` for the balance
    point of ``max(d, W(d)/m)`` (``W(d)`` is non-increasing in ``d``,
    ``d`` is increasing, so the max is unimodal), then applies the same
    critical-point rounding as the direct pipeline.  Every probe reuses
    the one assembly of the deadline LP (see the module docstring).  An
    empty instance has nothing to search: no probe, no allotment.
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
        if hi - lo <= rel_tol * hi:
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
