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

The solver writes LP (9) in its separable (δ) form (Dantzig's separable
programming; R. Fourer, "A simplex algorithm for piecewise-linear
programming I", Math. Prog. 33, 1985).  Each task runs for

    x_j = p_j(m) + Σ_k δ_jk,      0 <= δ_jk <= len_k,

one bounded column per chord ``k`` of eq. (8), and does work
``w_j(p_j(m)) + Σ_k slope_k·δ_jk``.  Because ``w_j`` is convex, the
chords nearest ``p_j(m)`` are the steepest, so the LP fills them first
by itself and that sum is ``max_l segment_l(x_j)``, the least ``w̄_j``
of LP (9).  The ``w̄_j`` columns and every segment row go.
Each task is anchored at ``p_j(m)`` itself, which can sit up to
``_PLATEAU_RTOL`` below the task's last canonical break: the chord
nearest it is extended down to it (:func:`repro.core.arrays.
profile_image`), so ``x_j`` still ranges over ``[p_j(m), p_j(1)]`` and
``C*`` is LP (9)'s.

A task's δ block sits in the rows that carry its ``x_j``: its in-arcs,
or its source row.  One function, :func:`lp9_arrays`, writes the rows,
in this order:

1. one row per arc, ``C_i - C_j + Σ_k δ_jk <= -p_j(m)``;
2. ``Σ_k δ_jk - C_j <= -p_j(m)`` for **source** tasks only;
3. ``C_j - L <= 0`` for **sink** tasks only;
4. ``L - C <= 0`` and ``Σ_jk slope_k·δ_jk - m·C <= -Σ_j w_j(p_j(m))``.

The dropped fit and span rows are implied: ``C_i >= 0`` turns an in-arc
row into ``x_j <= C_j``, and ``x_k >= p_k(m) > 0`` chains ``C_j <= C_k
<= ... <= C_sink <= L`` along any out-path, so the feasible set and
``C*`` are those of the full LP (9).  A task with neither predecessor
nor successor keeps both rows.  Every LP (9) path — the per-instance
assembly, evolved children included, a packed fleet's blocks and the
deadline probes of ``bsearch`` — uses this layout and reads ``x*`` back
with :func:`lp9_read_back`.

**The start basis.**  Every fresh HiGHS model of LP (9) starts from the
vertex every task reaches at ``p_j(m)`` (all ``δ = 0``), with each
``C_j`` on the longest-path tree (:func:`lp9_start_basis`): each
``C_j`` is basic in its critical in-row — the arc from its
latest-finishing predecessor, or its source row — ``L`` in the row of
the latest sink and ``C`` in ``L <= C``; every δ is nonbasic at 0 and
every other row's slack is basic (the crash-basis idea of R. E. Bixby,
"Implementing the simplex method: the initial basis", ORSA J.
Computing 4(3), 1992).  The basis is triangular, hence nonsingular,
and its only nonzero duals are 1 along the critical path, so for LP (9)
the dual simplex starts in phase 2 with at most one infeasible row,
``W/m <= C``, and HiGHS skips presolve (it never presolves a run that
has a basis).  A chain is optimal at that vertex: 0 pivots.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..dag.csr import DagCsr, longest_path_tree
from ..lpsolve import LpSolution
from ..lpsolve.scipy_backend import (
    BASIC,
    NONBASIC_LOWER,
    NONBASIC_UPPER,
    solve_ub_arrays,
)
from ..obs import trace as obs_trace
from .arrays import instance_arrays, memoized_on_instance, segment_sums
from .instance import Instance

__all__ = [
    "AllotmentLpResult",
    "AllotmentArrays",
    "assemble_allotment_arrays",
    "lp9_arrays",
    "lp9_read_back",
    "lp9_start_basis",
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
    critical_path:
        ``L*`` — the LP's critical-path value.
    objective:
        ``C* = max(L*, W*/m)`` at the optimum, ``W* = Σ_j w_j(x*_j)``;
        a lower bound on OPT.
    backend:
        LP backend used.

    The work ``w_j(x*_j)`` that Lemma 4.2 reasons about is not stored:
    no pipeline stage reads it, and a retime's read-back would pay for
    it; :func:`repro.core.arrays.work_of_times` computes it from the
    instance's profile image.
    """

    x: Tuple[float, ...]
    completion: Tuple[float, ...]
    critical_path: float
    objective: float
    backend: str


class AllotmentArrays(NamedTuple):
    """LP (9) assembled in bulk as NumPy arrays (``A_ub v <= b_ub`` form).

    Variables, in the δ form (see the module docstring): ``C_j = j``,
    then one ``δ`` per flat segment of the profile image (segment ``k``
    is column ``n + k``, bounded by ``[0, seg_len[k]]``), then ``L``
    and ``C`` (``n_variables - 2`` and ``n_variables - 1``); only
    ``C_j``, ``L`` and ``C`` are unbounded above.  Rows, as
    :func:`lp9_arrays` emits them: the ``n_arcs`` precedence arcs
    (arc ``e``'s two leading nonzeros are ``C_src`` and ``C_dst``, at
    ``2e`` and ``2e + 1``), the source tasks' ``x_j <= C_j``, the sink
    tasks' ``C_j <= L``, then ``L <= C`` and ``W/m <= C`` (the segment
    slopes sit in that last row).  The fit and span rows of the other
    tasks are implied by the arcs (``C_i >= 0`` and ``x_k > 0``), so
    they are left out.  Every field is a plain array or int, so two
    assemblies compare field by field.
    """

    n_variables: int
    c: np.ndarray  #: objective coefficients
    lo: np.ndarray  #: variable lower bounds
    hi: np.ndarray  #: variable upper bounds
    rows: np.ndarray  #: COO row indices of A_ub
    cols: np.ndarray  #: COO column indices of A_ub
    vals: np.ndarray  #: COO values of A_ub
    b_ub: np.ndarray  #: right-hand sides
    n_tasks: int  #: ``n``: the ``C_j`` columns ``0 .. n - 1``
    n_arcs: int  #: the arc rows ``0 .. n_arcs - 1``

    def start_basis(self) -> Tuple[np.ndarray, np.ndarray]:
        """The critical-path start basis: :func:`lp9_start_basis`."""
        return lp9_start_basis(self)


def lp9_arrays(
    m: int,
    min_time: np.ndarray,
    anchor_work: np.ndarray,
    seg_ptr: np.ndarray,
    seg_slope: np.ndarray,
    seg_len: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> AllotmentArrays:
    """LP (9) of one instance from plain profile and arc arrays.

    The profile arrays are those of
    :class:`repro.core.arrays.InstanceArrays` (per task ``p_j(m)``,
    the work at ``p_j(m)`` and the segment offsets; per flattened
    segment its slope and δ bound); ``src``/``dst`` are the arcs'
    integer endpoints in CSR order (``src`` non-decreasing, as
    :meth:`repro.dag.csr.DagCsr.edge_sources` lists them).  Every path
    of LP (9) calls this function — see :class:`AllotmentArrays` for
    the layout.
    """
    n = len(min_time)
    ns = len(seg_slope)
    ne = len(src)
    nseg = np.diff(seg_ptr)
    sources = np.flatnonzero(np.bincount(dst, minlength=n) == 0)
    sinks = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    nf = len(sources)
    nk = len(sinks)
    nv = n + ns + 2
    l_var = nv - 2
    c_max = nv - 1

    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    hi[n:l_var] = seg_len
    c = np.zeros(nv)
    c[c_max] = 1.0

    # Rows 0 .. ne + nf - 1 are the arcs and the sources, each carrying
    # its head task's δ block: the arc's target, or the source itself.
    heads = np.concatenate([dst, sources])
    r_sink = ne + nf
    r_lc = r_sink + nk
    k = nseg[heads]
    nd = int(k.sum())
    # The nonzeros, written block by block into preallocated triplets
    # (HiGHS takes 32-bit indices).
    nnz = 2 * ne + nf + nd + 2 * (nk + 1) + ns + 1
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    # C_i - C_j + Σ_k δ_jk <= -p_j(m)
    a, b = 0, 2 * ne
    rows[a:b:2] = rows[a + 1:b:2] = np.arange(ne)
    cols[a:b:2] = src
    cols[a + 1:b:2] = dst
    vals[a:b:2] = 1.0
    vals[a + 1:b:2] = -1.0
    # -C_j + Σ_k δ_jk <= -p_j(m) (sources)
    a, b = b, b + nf
    rows[a:b] = np.arange(ne, r_sink)
    cols[a:b] = sources
    vals[a:b] = -1.0
    # The δ blocks: task t's columns are n + seg_ptr[t] + 0 .. k_t - 1.
    a, b = b, b + nd
    rows[a:b] = np.repeat(np.arange(r_sink), k)
    cols[a:b] = np.repeat(n + seg_ptr[heads] - (np.cumsum(k) - k), k)
    cols[a:b] += np.arange(nd, dtype=np.int32)
    vals[a:b] = 1.0
    # C_j - L <= 0 (sinks), L - C <= 0
    a, b = b, b + 2 * (nk + 1)
    rows[a:b:2] = rows[a + 1:b:2] = np.arange(r_sink, r_lc + 1)
    cols[a:b - 2:2] = sinks
    cols[a + 1:b:2] = l_var
    cols[b - 2:b] = (l_var, c_max)
    vals[a:b:2] = 1.0
    vals[a + 1:b:2] = -1.0
    # Σ slope·δ - m·C <= -Σ_j w_j(p_j(m))
    rows[b:] = r_lc + 1
    cols[b:-1] = np.arange(n, l_var)
    cols[-1] = c_max
    vals[b:-1] = seg_slope
    vals[-1] = -float(m)
    b_ub = np.zeros(r_lc + 2)
    b_ub[:r_sink] = -min_time[heads]
    b_ub[-1] = -math.fsum(anchor_work.tolist())

    return AllotmentArrays(
        n_variables=nv,
        c=c,
        lo=lo,
        hi=hi,
        rows=rows,
        cols=cols,
        vals=vals,
        b_ub=b_ub,
        n_tasks=n,
        n_arcs=ne,
    )


def lp9_start_basis(
    arrays: AllotmentArrays,
) -> Tuple[np.ndarray, np.ndarray]:
    """LP (9)'s critical-path start basis, from the assembly alone.

    Returns ``(col_status, row_status)``, one
    :data:`repro.lpsolve.scipy_backend.BASIC` /
    :data:`~repro.lpsolve.scipy_backend.NONBASIC_LOWER` /
    :data:`~repro.lpsolve.scipy_backend.NONBASIC_UPPER` code per column
    and row.  The arcs are read off the arc rows' leading nonzeros and
    each task's ``p_j(m)`` off the right-hand side of its in-rows, and
    :func:`repro.dag.csr.longest_path_tree` gives each task its critical
    predecessor.  Basic: every ``C_j`` (its critical in-row tight),
    ``L`` (the latest sink's row tight), ``C`` (``L <= C`` tight) and
    every other row's slack; every δ is nonbasic at 0.  With no task
    at all ``L`` sits at 0 instead.  Built for a fresh model only: a
    warm update keeps the model's own basis.
    """
    n, ne = arrays.n_tasks, arrays.n_arcs
    src = arrays.cols[0:2 * ne:2]
    dst = arrays.cols[1:2 * ne:2]
    outdeg = np.bincount(src, minlength=n)
    sources = np.flatnonzero(np.bincount(dst, minlength=n) == 0)
    sinks = np.flatnonzero(outdeg == 0)
    r_sink = ne + len(sources)
    p = np.empty(n)
    p[dst] = -arrays.b_ub[:ne]
    p[sources] = -arrays.b_ub[ne:r_sink]
    succ_indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(outdeg, out=succ_indptr[1:])
    dist, parent = longest_path_tree(
        DagCsr.from_succ_arrays(n, succ_indptr, dst), p
    )
    row_status = np.full(len(arrays.b_ub), BASIC, dtype=np.int8)
    # Each non-source task's one arc from its critical predecessor,
    # every source row, and L <= C.
    row_status[:ne][parent[dst] == src] = NONBASIC_UPPER
    row_status[ne:r_sink] = NONBASIC_UPPER
    row_status[-2] = NONBASIC_UPPER
    col_status = np.full(arrays.n_variables, NONBASIC_LOWER, dtype=np.int8)
    col_status[:n] = BASIC
    col_status[-1] = BASIC
    if len(sinks):
        row_status[r_sink + int(np.argmax(dist[sinks]))] = NONBASIC_UPPER
        col_status[-2] = BASIC
    return col_status, row_status


@memoized_on_instance
def assemble_allotment_arrays(instance: Instance) -> AllotmentArrays:
    """Assemble LP (9) for ``instance`` directly into NumPy arrays.

    :func:`lp9_arrays` over the memoized packed profile arrays
    (:func:`repro.core.arrays.instance_arrays`, which hold the δ bounds
    and anchor work) and the DAG's CSR arcs — no per-task or per-edge
    Python work at all.  The result is itself memoized per instance
    (weakly), so the LP-based strategies of a pipeline sweep share one
    assembly.
    """
    arr = instance_arrays(instance)
    csr = instance.dag.to_csr()
    return lp9_arrays(
        arr.m,
        arr.min_time,
        arr.anchor_work,
        arr.seg_ptr,
        arr.seg_slope,
        arr.seg_len,
        csr.edge_sources(),
        csr.succ_indices,
    )


def lp9_read_back(
    values,
    min_time: np.ndarray,
    seg_ptr: np.ndarray,
    seg_tasks: np.ndarray,
) -> np.ndarray:
    """``x*`` from LP (9)'s flat solution vector ``values``.

    ``x_j = p_j(m) + Σ_k δ_jk`` over each task's contiguous δ block
    (:func:`repro.core.arrays.segment_sums` at the profile image's
    ``seg_ptr``/``seg_tasks``).  The one read-back of LP (9): the
    allotment LP, every ``bsearch`` probe and a packed fleet's blocks
    use it.
    """
    n = len(min_time)
    ns = int(seg_ptr[-1])
    delta = np.fromiter(values[n:n + ns], dtype=float, count=ns)
    return segment_sums(min_time, seg_ptr, seg_tasks, delta)


def _result_from_solution(
    instance: Instance, sol: LpSolution
) -> AllotmentLpResult:
    """Read an LP (9) optimum back out of the solver's flat vector."""
    arr = instance_arrays(instance)
    v = sol.values
    x = lp9_read_back(v, arr.min_time, arr.seg_ptr, arr.seg_tasks)
    return AllotmentLpResult(
        x=tuple(x.tolist()),
        completion=v[:arr.n],
        critical_path=v[-2],
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
    :func:`assemble_allotment_arrays` and handed straight to HiGHS, a
    fresh model starting from :func:`lp9_start_basis` unless a
    :class:`repro.pipeline.incremental.ReplanSession` round solves it
    in its resident model.
    """
    with obs_trace.span("lp.assemble", n=instance.n_tasks):
        arrays = assemble_allotment_arrays(instance)
    solve = _LP9_SOLVE.get() or solve_ub_arrays
    return _result_from_solution(instance, solve(arrays))
