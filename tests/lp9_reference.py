"""Test-only references for the library's LP assemblies.

The solver writes LP (9) in its separable δ form
(:func:`repro.core.lp.lp9_arrays`): per task the completion time
``C_j`` and one bounded ``δ`` per work segment, with
``x_j = p_j(m) + Σ_k δ_jk``.  Two references check it:

* the literal LP (9), over the variables ``x_j = 3j``, ``C_j = 3j + 1``,
  ``w̄_j = 3j + 2``, ``L = 3n``, ``C = 3n + 1``:
  :func:`full_allotment_arrays` keeps every row (per task fit, span and
  work segments, then the arcs, ``L <= C`` and ``W/m <= C``), and
  :func:`build_allotment_lp` writes it one constraint at a time in the
  :mod:`lp_oracle` modeling layer, with only the sources' fit rows and
  the sinks' span rows (the rest are implied by the arcs).  Neither
  shares the δ form's variables, so their optimum is an independent
  check of ``C*``; :func:`literal_point` maps a δ solution onto their
  variables.
* :func:`build_delta_lp` — the δ form one constraint at a time, from
  the per-task API (``MalleableTask.segments()``) and the DAG's
  sources and sinks, variable for variable and row for row the layout
  of :func:`repro.core.lp.lp9_arrays`.  Given a ``deadline`` it builds the
  deadline view that every probe of
  :mod:`repro.core.allotment_bsearch` solves: the same rows, ``L``
  bounded by the deadline, and the segment slopes as the objective
  instead of ``C``.  The bulk NumPy assembly is pinned to it matrix for
  matrix and solution for solution.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from lp_oracle import LinearProgram

from repro.core.arrays import instance_arrays


class LiteralArrays(NamedTuple):
    """The literal LP (9) as ``A_ub v <= b_ub`` arrays, in the field
    names of :class:`repro.core.lp.AllotmentArrays` (solve it with
    :func:`lp_oracle.solve_arrays_with_linprog`)."""

    n_variables: int
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b_ub: np.ndarray


def full_allotment_arrays(instance) -> LiteralArrays:
    """The literal LP (9) of ``instance`` with every row, untrimmed."""
    arr = instance_arrays(instance)
    n = arr.n
    m = arr.m
    nv = 3 * n + 2
    xs = np.arange(n) * 3
    cs = xs + 1
    ws = xs + 2
    l_var = 3 * n
    c_max = 3 * n + 1

    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    lo[xs] = arr.min_time
    hi[xs] = arr.times[:, 0]
    lo[ws] = arr.work_lo
    c = np.zeros(nv)
    c[c_max] = 1.0

    # Per-task row block: fit_j, span_j, then the work segments of J_j.
    off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(arr.nseg + 2, out=off[1:])
    t_idx = arr.seg_task
    # Flat segment p of task j sits at row off[j] + 2 + (p - segcum[j]);
    # off[j] - segcum[j] = 2j, so the row is simply p + 2·j + 2.
    seg_rows = np.arange(len(t_idx)) + 2 * t_idx + 2

    csr = instance.dag.to_csr()
    src = csr.edge_sources()
    dst = csr.succ_indices
    ne = len(src)
    prec_rows = off[-1] + np.arange(ne)
    r_lc = off[-1] + ne
    r_wm = r_lc + 1

    rows = np.concatenate(
        [
            np.repeat(off[:-1], 2),
            np.repeat(off[:-1] + 1, 2),
            np.repeat(seg_rows, 2),
            np.repeat(prec_rows, 3),
            np.array([r_lc, r_lc], dtype=np.intp),
            np.full(n + 1, r_wm, dtype=np.intp),
        ]
    )
    cols = np.concatenate(
        [
            np.column_stack([xs, cs]).ravel(),
            np.column_stack([cs, np.full(n, l_var)]).ravel(),
            np.column_stack([xs[t_idx], ws[t_idx]]).ravel(),
            np.column_stack([cs[src], xs[dst], cs[dst]]).ravel(),
            np.array([l_var, c_max], dtype=np.intp),
            np.append(ws, c_max),
        ]
    )
    vals = np.concatenate(
        [
            np.tile([1.0, -1.0], n),
            np.tile([1.0, -1.0], n),
            np.column_stack(
                [arr.seg_slope, np.full(len(t_idx), -1.0)]
            ).ravel(),
            np.tile([1.0, 1.0, -1.0], ne),
            np.array([1.0, -1.0]),
            np.append(np.ones(n), -float(m)),
        ]
    )
    b_ub = np.zeros(int(r_wm) + 1)
    b_ub[seg_rows] = -arr.seg_intercept
    return LiteralArrays(
        n_variables=nv,
        c=c,
        lo=lo,
        hi=hi,
        rows=rows,
        cols=cols,
        vals=vals,
        b_ub=b_ub,
    )


@dataclass
class AllotmentLp:
    """LP (9) in the modeling layer together with its variable handles."""

    lp: LinearProgram
    x_vars: Tuple[int, ...]
    c_vars: Tuple[int, ...]
    w_vars: Tuple[int, ...]
    l_var: int
    c_max_var: int


def build_allotment_lp(
    instance, deadline: Optional[float] = None
) -> AllotmentLp:
    """The literal LP (9) of ``instance``, one constraint at a time.

    ``3n + 2`` variables and
    ``Σ_j (#segments_j) + |E| + #sources + #sinks + 2`` constraints:
    the work segments, the arcs, the sources' fit rows, the sinks' span
    rows, ``L <= C`` and ``W/m <= C``.  With a ``deadline``, the
    deadline view: ``L <= deadline`` and ``min Σ_j w̄_j``, with ``C``
    free.
    """
    lp = LinearProgram(name=f"allotment(9) n={instance.n_tasks} m={instance.m}")
    n = instance.n_tasks
    m = instance.m

    x_vars = []
    c_vars = []
    w_vars = []
    for j in range(n):
        t = instance.task(j)
        x_vars.append(
            lp.add_variable(f"x{j}", lo=t.min_time, hi=t.max_time)
        )
        c_vars.append(lp.add_variable(f"C{j}", lo=0.0))
        # Rigid tasks (no segments) have constant work; bound w̄ directly.
        segs = t.segments()
        w_lo = t.breakpoints[0][0] * t.breakpoints[0][1] if not segs else 0.0
        w_vars.append(
            lp.add_variable(
                f"w{j}", lo=w_lo, obj=0.0 if deadline is None else 1.0
            )
        )
    if deadline is None:
        l_var = lp.add_variable("L", lo=0.0)
        c_max_var = lp.add_variable("C", lo=0.0, obj=1.0)
    else:
        l_var = lp.add_variable("L", lo=0.0, hi=deadline)
        c_max_var = lp.add_variable("C", lo=0.0)

    for j in range(n):
        # Work linearization: every chord of eq. (8) under-estimates w̄.
        for seg in instance.task(j).segments():
            lp.add_constraint(
                {x_vars[j]: seg.slope, w_vars[j]: -1.0},
                "<=",
                -seg.intercept,
                name=f"work{j}l{seg.l}",
            )

    for (i, j) in instance.dag.edges:
        lp.add_constraint(
            {c_vars[i]: 1.0, x_vars[j]: 1.0, c_vars[j]: -1.0},
            "<=",
            0.0,
            name=f"prec{i}-{j}",
        )

    for j in instance.dag.sources():
        lp.add_constraint(
            {x_vars[j]: 1.0, c_vars[j]: -1.0}, "<=", 0.0, name=f"fit{j}"
        )
    for j in instance.dag.sinks():
        lp.add_constraint(
            {c_vars[j]: 1.0, l_var: -1.0}, "<=", 0.0, name=f"span{j}"
        )

    lp.add_constraint({l_var: 1.0, c_max_var: -1.0}, "<=", 0.0, name="L<=C")
    lp.add_constraint(
        {**{w: 1.0 for w in w_vars}, c_max_var: -float(m)},
        "<=",
        0.0,
        name="W/m<=C",
    )

    return AllotmentLp(
        lp=lp,
        x_vars=tuple(x_vars),
        c_vars=tuple(c_vars),
        w_vars=tuple(w_vars),
        l_var=l_var,
        c_max_var=c_max_var,
    )



def literal_point(instance, values: Sequence[float]) -> np.ndarray:
    """Map a δ-form solution vector onto the literal LP (9) variables.

    ``x_j = p_j(m) + Σ_k δ_jk`` and ``w̄_j = w_j(p_j(m)) + Σ_k
    slope_k·δ_jk``, summed here in plain Python from the per-task
    segments, beside the solver's ``C_j``, ``L`` and ``C``, in the
    ``3n + 2`` layout of :func:`full_allotment_arrays`.
    """
    n = instance.n_tasks
    out = np.zeros(3 * n + 2)
    col = n
    for j in range(n):
        t = instance.task(j)
        segs = t.segments()
        delta = [float(v) for v in values[col:col + len(segs)]]
        col += len(segs)
        out[3 * j] = t.min_time + math.fsum(delta)
        out[3 * j + 1] = values[j]
        out[3 * j + 2] = _anchor_work(t) + math.fsum(
            seg.slope * d for seg, d in zip(segs, delta)
        )
    out[3 * n] = values[-2]
    out[3 * n + 1] = values[-1]
    return out


def _anchor_work(task) -> float:
    """``w(p(m))`` on the chord nearest ``p(m)`` (a rigid task's
    ``1·p(1)``)."""
    segs = task.segments()
    if not segs:
        l, p = task.breakpoints[0]
        return l * p
    return segs[-1].slope * task.min_time + segs[-1].intercept


@dataclass
class DeltaLp:
    """LP (9)'s δ form in the modeling layer with its variable handles."""

    lp: LinearProgram
    c_vars: Tuple[int, ...]
    delta_vars: Tuple[Tuple[int, ...], ...]  #: per task, segment order
    l_var: int
    c_max_var: int


def build_delta_lp(instance, deadline: Optional[float] = None) -> DeltaLp:
    """LP (9) of ``instance`` in the δ form, one constraint at a time.

    Variables ``C_0 .. C_{n-1}``, then each task's ``δ`` in segment
    order (``0 <= δ <= x_hi - x_lo``, the last segment reaching down to
    ``p(m)``), then ``L`` and ``C``.  A task's run time is ``p_j(m) +
    Σ δ_j``.  Rows: one per arc ``C_i - C_j + (run time of j) <= 0``,
    the sources' ``(run time) - C_j <= 0``, the sinks' ``C_j - L <=
    0``, ``L - C <= 0`` and
    ``Σ slope·δ - m·C <= -Σ_j w_j(p_j(m))``, constants moved to the
    right.  With a ``deadline``: ``L <= deadline``, the slopes as the
    objective, ``C`` free.
    """
    lp = LinearProgram(
        name=f"allotment(9) delta n={instance.n_tasks} m={instance.m}"
    )
    n = instance.n_tasks
    m = instance.m
    tasks = [instance.task(j) for j in range(n)]
    c_vars = [lp.add_variable(f"C{j}", lo=0.0) for j in range(n)]
    delta_vars: List[Tuple[int, ...]] = []
    slope_of = {}
    for j, t in enumerate(tasks):
        segs = t.segments()
        handles = []
        for k, seg in enumerate(segs):
            x_lo = t.min_time if k == len(segs) - 1 else seg.x_lo
            v = lp.add_variable(
                f"d{j}_{seg.l}",
                lo=0.0,
                hi=seg.x_hi - x_lo,
                obj=0.0 if deadline is None else seg.slope,
            )
            slope_of[v] = seg.slope
            handles.append(v)
        delta_vars.append(tuple(handles))
    if deadline is None:
        l_var = lp.add_variable("L", lo=0.0)
        c_max_var = lp.add_variable("C", lo=0.0, obj=1.0)
    else:
        l_var = lp.add_variable("L", lo=0.0, hi=deadline)
        c_max_var = lp.add_variable("C", lo=0.0)

    def run_time(j):
        """Task ``j``'s run time as row coefficients and the
        right-hand side it leaves."""
        return {v: 1.0 for v in delta_vars[j]}, -tasks[j].min_time

    for (i, j) in instance.dag.edges:
        coef, rhs = run_time(j)
        lp.add_constraint(
            {c_vars[i]: 1.0, c_vars[j]: -1.0, **coef},
            "<=",
            rhs,
            name=f"prec{i}-{j}",
        )
    for j in instance.dag.sources():
        coef, rhs = run_time(j)
        lp.add_constraint(
            {c_vars[j]: -1.0, **coef}, "<=", rhs, name=f"fit{j}"
        )
    for j in instance.dag.sinks():
        lp.add_constraint(
            {c_vars[j]: 1.0, l_var: -1.0}, "<=", 0.0, name=f"span{j}"
        )
    lp.add_constraint({l_var: 1.0, c_max_var: -1.0}, "<=", 0.0, name="L<=C")
    lp.add_constraint(
        {**slope_of, c_max_var: -float(m)},
        "<=",
        -math.fsum(_anchor_work(t) for t in tasks),
        name="W/m<=C",
    )
    return DeltaLp(
        lp=lp,
        c_vars=tuple(c_vars),
        delta_vars=tuple(delta_vars),
        l_var=l_var,
        c_max_var=c_max_var,
    )
