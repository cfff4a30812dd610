"""Phase 1 linear program — eq. (9) of the paper.

The allotment problem asks for fractional processing times ``x_j`` that
simultaneously keep the critical path ``L`` and the average work ``W/m``
small; both are lower bounds on the makespan (eq. (11)).  The paper's key
move (Section 3.1) is that, because the work function is **convex** in the
processing time (Theorem 2.2), the piecewise-linear program (7) can be
written as the genuine linear program (9):

    min  C
    s.t. C_i + x_j <= C_j                   for every arc (i, j)
         x_j <= C_j                          (source tasks must fit too)
         0 <= C_j <= L
         segment_l(x_j) <= w̄_j              for every work segment of J_j
         L <= C
         (Σ_j w̄_j) / m <= C
         p_j(m) <= x_j <= p_j(1)

where ``segment_l`` are the chords of eq. (8).  Embedding both criteria in
one LP with the extra ``L <= C`` and ``W/m <= C`` rows is what lets the
paper avoid the binary search of Lepère et al. [18] (see the Remark at the
end of Section 3.1).

The optimum satisfies ``max(L*, W*/m) <= C* <= OPT`` (eq. (11)), making
``C*`` the certified lower bound every ratio measurement in the benchmark
harness divides by.

One function, :func:`lp9_arrays`, writes the rows, in this order:

1. one row per work segment, ``slope·x_j - w̄_j <= -intercept``;
2. one row per arc, ``C_i + x_j - C_j <= 0``;
3. ``x_j - C_j <= 0`` for **source** tasks only;
4. ``C_j - L <= 0`` for **sink** tasks only;
5. ``L - C <= 0`` and ``Σ_j w̄_j - m·C <= 0``.

The dropped fit and span rows are implied: ``C_i >= 0`` turns an in-arc
``C_i + x_j <= C_j`` into ``x_j <= C_j``, and ``x_k >= p_k(m) > 0``
chains ``C_j <= C_k <= ... <= C_sink <= L`` along any out-path, so the
feasible set and ``C*`` are those of the full LP (9).  A task with
neither predecessor nor successor keeps both rows.  Every LP (9) path
— the per-instance assembly, evolved children included, a packed
fleet's blocks and the deadline probes of ``bsearch`` — uses this
layout.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..lpsolve import LpSolution
from ..lpsolve.scipy_backend import solve_ub_arrays
from ..obs import trace as obs_trace
from .arrays import instance_arrays, memoized_on_instance, work_of_times
from .instance import Instance

__all__ = [
    "AllotmentLpResult",
    "AllotmentArrays",
    "assemble_allotment_arrays",
    "lp9_arrays",
    "solve_allotment_lp",
]


@dataclass(frozen=True)
class AllotmentLpResult:
    """Optimal fractional solution of LP (9).

    Attributes
    ----------
    x:
        Fractional processing times ``x*_j``.
    completion:
        Fractional completion times ``C*_j``.
    work_bar:
        The LP's linearized work values ``w̄*_j`` (equal to
        ``w_j(x*_j)`` whenever the total-work constraint is active).
    work:
        Recomputed exact piecewise-linear work ``w_j(x*_j)`` — this is the
        quantity Lemma 4.2 reasons about, so downstream code uses it.
    critical_path:
        ``L*`` — the LP's critical-path value.
    total_work:
        ``W* = Σ_j w_j(x*_j)``.
    objective:
        ``C* = max(L*, W*/m)`` at the optimum; a lower bound on OPT.
    backend:
        LP backend used.
    """

    x: Tuple[float, ...]
    completion: Tuple[float, ...]
    work_bar: Tuple[float, ...]
    work: Tuple[float, ...]
    critical_path: float
    total_work: float
    objective: float
    backend: str


class AllotmentArrays(NamedTuple):
    """LP (9) assembled in bulk as NumPy arrays (``A_ub v <= b_ub`` form).

    Variables ``x_j = 3j``, ``C_j = 3j + 1``, ``w_j = 3j + 2``, then
    ``L = 3n`` and ``C = 3n + 1``.  Rows, as :func:`lp9_arrays` emits
    them: the work segments (segment ``p`` is row ``p``, its slope sits
    at ``vals[2p]``), the precedence arcs, ``x_j <= C_j`` of the source
    tasks, ``C_j <= L`` of the sink tasks, then ``L <= C`` and
    ``W/m <= C``.  The fit and span rows of the other tasks are implied
    by the arcs (``C_i >= 0`` and ``x_k > 0``), so they are left out.
    """

    n_variables: int
    c: np.ndarray  #: objective coefficients
    lo: np.ndarray  #: variable lower bounds
    hi: np.ndarray  #: variable upper bounds
    rows: np.ndarray  #: COO row indices of A_ub
    cols: np.ndarray  #: COO column indices of A_ub
    vals: np.ndarray  #: COO values of A_ub
    b_ub: np.ndarray  #: right-hand sides


def lp9_arrays(
    m: int,
    min_time: np.ndarray,
    max_time: np.ndarray,
    work_lo: np.ndarray,
    seg_task: np.ndarray,
    seg_slope: np.ndarray,
    seg_intercept: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> AllotmentArrays:
    """LP (9) of one instance from plain profile and arc arrays.

    The profile arrays are those of
    :class:`repro.core.arrays.InstanceArrays` (per task ``p_j(m)``,
    ``p_j(1)`` and the rigid-work bound; per flattened segment its task,
    slope and intercept); ``src``/``dst`` are the arcs' integer
    endpoints.  Every path of LP (9) calls this function — see
    :class:`AllotmentArrays` for the layout.
    """
    n = len(min_time)
    ns = len(seg_task)
    ne = len(src)
    nv = 3 * n + 2
    xs = np.arange(n, dtype=np.intp) * 3
    cs = xs + 1
    ws = xs + 2
    l_var = 3 * n
    c_max = 3 * n + 1

    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    lo[xs] = min_time
    hi[xs] = max_time
    # Rigid tasks (no segments) have constant work; bound w̄ directly.
    lo[ws] = work_lo
    c = np.zeros(nv)
    c[c_max] = 1.0

    sources = np.flatnonzero(np.bincount(dst, minlength=n) == 0)
    sinks = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    nf = len(sources)
    nk = len(sinks)
    # Nonzeros per row: segments, arcs, fit, span, L <= C, W/m <= C.
    per_row = np.repeat([2, 3, 2, 2, 2, n + 1], [ns, ne, nf, nk, 1, 1])
    rows = np.repeat(np.arange(len(per_row), dtype=np.intp), per_row)
    cols = np.concatenate(
        [
            # slope·x_j - w_j <= -intercept
            np.column_stack([xs[seg_task], ws[seg_task]]).ravel(),
            # C_i + x_j - C_j <= 0
            np.column_stack([cs[src], xs[dst], cs[dst]]).ravel(),
            # x_j - C_j <= 0 (sources), C_j - L <= 0 (sinks), L - C <= 0
            np.column_stack([xs[sources], cs[sources]]).ravel(),
            np.column_stack([cs[sinks], np.full(nk, l_var)]).ravel(),
            np.array([l_var, c_max], dtype=np.intp),
            # Σ w_j - m·C <= 0
            np.append(ws, c_max),
        ]
    )
    vals = np.concatenate(
        [
            np.column_stack([seg_slope, np.full(ns, -1.0)]).ravel(),
            np.tile([1.0, 1.0, -1.0], ne),
            np.tile([1.0, -1.0], nf + nk + 1),
            np.append(np.ones(n), -float(m)),
        ]
    )
    b_ub = np.zeros(len(per_row))
    b_ub[:ns] = -seg_intercept

    return AllotmentArrays(
        n_variables=nv,
        c=c,
        lo=lo,
        hi=hi,
        rows=rows,
        cols=cols,
        vals=vals,
        b_ub=b_ub,
    )


@memoized_on_instance
def assemble_allotment_arrays(instance: Instance) -> AllotmentArrays:
    """Assemble LP (9) for ``instance`` directly into NumPy arrays.

    :func:`lp9_arrays` over the memoized packed profile arrays
    (:func:`repro.core.arrays.instance_arrays`) and the DAG's CSR arcs —
    no per-task or per-edge Python work at all.  The result is itself
    memoized per instance (weakly), so the LP-based strategies of a
    pipeline sweep share one assembly.
    """
    arr = instance_arrays(instance)
    csr = instance.dag.to_csr()
    return lp9_arrays(
        arr.m,
        arr.min_time,
        arr.max_time,
        arr.work_lo,
        arr.seg_task,
        arr.seg_slope,
        arr.seg_intercept,
        csr.edge_sources(),
        csr.succ_indices,
    )


def _result_from_solution(
    instance: Instance, sol: LpSolution
) -> AllotmentLpResult:
    """Read an LP (9) optimum back out of the solver's flat vector;
    ``w(x*)`` comes from the instance's profile image in one pass
    (:func:`repro.core.arrays.work_of_times`)."""
    n = instance.n_tasks
    v = sol.values
    x = tuple(v[0:3 * n:3])
    work = work_of_times(
        instance_arrays(instance), np.array(x, dtype=float)
    ).tolist()
    return AllotmentLpResult(
        x=x,
        completion=tuple(v[1:3 * n:3]),
        work_bar=tuple(v[2:3 * n:3]),
        work=tuple(work),
        critical_path=v[3 * n],
        total_work=sum(work),
        objective=sol.objective,
        backend=sol.backend,
    )


#: The call :func:`solve_allotment_lp` hands the assembled LP (9) to;
#: ``None`` means a fresh HiGHS model (:func:`solve_ub_arrays`).  Set
#: only through :func:`_lp9_solver`.
_LP9_SOLVE: ContextVar[Optional[Callable[[AllotmentArrays], LpSolution]]] = (
    ContextVar("lp9_solve", default=None)
)


@contextmanager
def _lp9_solver(
    solve: Optional[Callable[[AllotmentArrays], LpSolution]],
) -> Iterator[None]:
    """Solve LP (9) with ``solve`` inside the block (``None``: a fresh
    model).  :class:`repro.pipeline.incremental.ReplanSession` passes
    its resident HiGHS model's solve through
    ``SchedulingPipeline._solve``."""
    token = _LP9_SOLVE.set(solve)
    try:
        yield
    finally:
        _LP9_SOLVE.reset(token)


def solve_allotment_lp(instance: Instance) -> AllotmentLpResult:
    """Assemble and solve LP (9); returns the fractional optimum.

    The constraint matrix is assembled in bulk via
    :func:`assemble_allotment_arrays` and handed straight to HiGHS.
    """
    with obs_trace.span("lp.assemble", n=instance.n_tasks):
        arrays = assemble_allotment_arrays(instance)
    solve = _LP9_SOLVE.get() or solve_ub_arrays
    return _result_from_solution(instance, solve(arrays))
