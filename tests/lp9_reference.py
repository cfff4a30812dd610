"""Test-only reference: LP (9) with every fit and span row.

The solver assembles LP (9) without the fit rows ``x_j <= C_j`` of
tasks that have a predecessor and the span rows ``C_j <= L`` of tasks
that have a successor, because the precedence rows imply them
(:func:`repro.core.lp.lp9_arrays`).  This module keeps the full row set
— per task fit, span and work segments, then the arcs, ``L <= C`` and
``W/m <= C`` — over the same variable layout, so tests can check that
the trimmed LP has the same optimum and that its solution satisfies
every row of the full one.
"""

import numpy as np

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
