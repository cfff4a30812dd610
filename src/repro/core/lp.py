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
or its source row.  A **linked** task — one with segments, at most one
predecessor and at most one successor, and not isolated — keeps an
``x_j`` column instead, tied to its δ block by one link row.  Its
``C_j`` sits in exactly two rows, one of them an arc, so HiGHS's
presolve substitutes ``C_j`` out and merges the two rows; along a chain
the merged row would grow by a whole δ block per task, making presolve
quadratic in the chain's length, while one ``x_j`` per task keeps it
linear.  One function, :func:`lp9_arrays`, writes the rows, in this
order:

1. one row per arc, ``C_i - C_j + Σ_k δ_jk <= -p_j(m)``, or
   ``C_i - C_j + x_j <= 0`` when ``j`` is linked;
2. ``Σ_k δ_jk - C_j <= -p_j(m)`` (``x_j - C_j <= 0`` when linked) for
   **source** tasks only;
3. ``Σ_k δ_jk - x_j <= -p_j(m)`` for **linked** tasks only;
4. ``C_j - L <= 0`` for **sink** tasks only;
5. ``L - C <= 0`` and ``Σ_jk slope_k·δ_jk - m·C <= -Σ_j w_j(p_j(m))``.

The dropped fit and span rows are implied: ``C_i >= 0`` turns an in-arc
row into ``x_j <= C_j``, and ``x_k >= p_k(m) > 0`` chains ``C_j <= C_k
<= ... <= C_sink <= L`` along any out-path, so the feasible set and
``C*`` are those of the full LP (9).  A task with neither predecessor
nor successor keeps both rows.  A linked task's ``x_j`` column is
only bounded below by ``p_j(m) + Σ_k δ_jk``, and that sum satisfies
every row the column does, so the read-back takes the sum.  Every
LP (9) path — the per-instance assembly, evolved children included, a
packed fleet's blocks and the deadline probes of ``bsearch`` — uses
this layout and reads ``x*`` back with :func:`lp9_read_back`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..lpsolve import LpSolution
from ..lpsolve.scipy_backend import solve_ub_arrays
from ..obs import trace as obs_trace
from .arrays import instance_arrays, memoized_on_instance, segment_sums
from .instance import Instance

__all__ = [
    "AllotmentLpResult",
    "AllotmentArrays",
    "assemble_allotment_arrays",
    "lp9_arrays",
    "lp9_read_back",
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
    is column ``n + k``, bounded by ``[0, seg_len[k]]``), then one
    ``x_j`` per linked task in task order, and ``L`` and ``C`` last
    (``n_variables - 2`` and ``n_variables - 1``); only ``C_j``,
    ``x_j``, ``L`` and ``C`` are unbounded above.  Rows, as
    :func:`lp9_arrays` emits them: the precedence arcs, the source
    tasks' ``x_j <= C_j``, the linked tasks' link rows, the sink tasks'
    ``C_j <= L``, then ``L <= C`` and ``W/m <= C`` (the segment slopes
    sit in that last row).  The fit and span rows of the other tasks
    are implied by the arcs (``C_i >= 0`` and ``x_k > 0``), so they are
    left out.
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
    integer endpoints.  Every path of LP (9) calls this function — see
    :class:`AllotmentArrays` for the layout.
    """
    n = len(min_time)
    ns = len(seg_slope)
    ne = len(src)
    nseg = np.diff(seg_ptr)
    indeg = np.bincount(dst, minlength=n)
    outdeg = np.bincount(src, minlength=n)
    sources = np.flatnonzero(indeg == 0)
    sinks = np.flatnonzero(outdeg == 0)
    # Linked tasks: at most one predecessor and one successor, and not
    # isolated (see the module docstring).
    linked = np.flatnonzero((np.maximum(indeg, outdeg) == 1) & (nseg > 0))
    nf = len(sources)
    nk = len(sinks)
    nx = len(linked)
    x0 = n + ns
    nv = x0 + nx + 2
    l_var = nv - 2
    c_max = nv - 1

    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    hi[n:x0] = seg_len
    c = np.zeros(nv)
    c[c_max] = 1.0

    x_of = np.zeros(n, dtype=np.intp)  # 0: no x_j column
    x_of[linked] = np.arange(x0, l_var)
    # Rows 0 .. ne + nf - 1 are the arcs and the sources, each on its
    # head task: the arc's target, or the source itself.
    heads = np.concatenate([dst, sources])
    via_x = x_of[heads] > 0
    hx = np.flatnonzero(via_x)
    hd = np.flatnonzero(~via_x)
    r_link = ne + nf
    r_sink = r_link + nx
    r_lc = r_sink + nk
    # The rows that carry a δ block: an unlinked head's arc or source
    # row, and every link row.
    blk_rows = np.concatenate([hd, np.arange(r_link, r_sink)])
    blk_tasks = np.concatenate([heads[hd], linked])
    k = nseg[blk_tasks]
    nd = int(k.sum())
    # The nonzeros, written block by block into preallocated triplets
    # (HiGHS takes 32-bit indices).
    nnz = 2 * ne + nf + 2 * nx + nd + 2 * (nk + 1) + ns + 1
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    # C_i - C_j (+ x_j or Σ_k δ_jk) <= 0 or -p_j(m)
    a, b = 0, 2 * ne
    rows[a:b:2] = rows[a + 1:b:2] = np.arange(ne)
    cols[a:b:2] = src
    cols[a + 1:b:2] = dst
    vals[a:b:2] = 1.0
    vals[a + 1:b:2] = -1.0
    # -C_j (+ x_j or Σ_k δ_jk) <= 0 or -p_j(m) (sources)
    a, b = b, b + nf
    rows[a:b] = np.arange(ne, r_link)
    cols[a:b] = sources
    vals[a:b] = -1.0
    # x_j in a linked task's arc or source row; -x_j in its link row
    # Σ_k δ_jk - x_j <= -p_j(m).
    a, b = b, b + 2 * nx
    rows[a:b:2] = hx
    cols[a:b:2] = x_of[heads[hx]]
    vals[a:b:2] = 1.0
    rows[a + 1:b:2] = np.arange(r_link, r_sink)
    cols[a + 1:b:2] = np.arange(x0, l_var)
    vals[a + 1:b:2] = -1.0
    # The δ blocks: task t's columns are n + seg_ptr[t] + 0 .. k_t - 1.
    a, b = b, b + nd
    rows[a:b] = np.repeat(blk_rows, k)
    cols[a:b] = np.repeat(n + seg_ptr[blk_tasks] - (np.cumsum(k) - k), k)
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
    cols[b:-1] = np.arange(n, x0)
    cols[-1] = c_max
    vals[b:-1] = seg_slope
    vals[-1] = -float(m)
    b_ub = np.zeros(r_lc + 2)
    b_ub[hd] = -min_time[heads[hd]]
    b_ub[r_link:r_sink] = -min_time[linked]
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
    )


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
    ``seg_ptr``/``seg_tasks``); a linked task's ``x_j`` column is at
    least that and is not read.  The one read-back of LP (9): the
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
    :func:`assemble_allotment_arrays` and handed straight to HiGHS.
    """
    with obs_trace.span("lp.assemble", n=instance.n_tasks):
        arrays = assemble_allotment_arrays(instance)
    solve = _LP9_SOLVE.get() or solve_ub_arrays
    return _result_from_solution(instance, solve(arrays))
