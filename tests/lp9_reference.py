"""Test-only references for the library's LP assemblies.

* :func:`full_allotment_arrays` — LP (9) with every fit and span row.
  The solver assembles LP (9) without the fit rows ``x_j <= C_j`` of
  tasks that have a predecessor and the span rows ``C_j <= L`` of tasks
  that have a successor, because the precedence rows imply them
  (:func:`repro.core.lp.lp9_arrays`).  This keeps the full row set —
  per task fit, span and work segments, then the arcs, ``L <= C`` and
  ``W/m <= C`` — over the same variable layout, so tests can check that
  the trimmed LP has the same optimum and that its solution satisfies
  every row of the full one.
* :func:`build_allotment_lp` — LP (9) written one constraint at a time
  in the :mod:`lp_oracle` modeling layer, row for row the layout of
  :func:`repro.core.lp.lp9_arrays`.  Given a ``deadline`` it builds the
  deadline view that every probe of
  :mod:`repro.core.allotment_bsearch` solves: the same rows, ``L``
  bounded by the deadline, and the objective on the ``w̄_j`` instead of
  ``C``.

The per-constraint build is what the bulk NumPy assembly replaced;
tests pin the assembly to it matrix for matrix and solution for
solution.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from lp_oracle import LinearProgram

from repro.core.arrays import instance_arrays
from repro.core.lp import AllotmentArrays


def full_allotment_arrays(instance) -> AllotmentArrays:
    """LP (9) of ``instance`` with every row, untrimmed."""
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
    hi[xs] = arr.max_time
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
    """LP (9) of ``instance``, one constraint at a time.

    ``3n + 2`` variables and
    ``Σ_j (#segments_j) + |E| + #sources + #sinks + 2`` constraints, in
    the row order of :func:`repro.core.lp.lp9_arrays`.  With a
    ``deadline``, the deadline view: ``L <= deadline`` and
    ``min Σ_j w̄_j``, with ``C`` free.
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

