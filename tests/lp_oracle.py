"""Test-only small-LP oracle: a modeling layer and two independent solvers.

The library hands every LP to HiGHS as bulk-assembled arrays
(:mod:`repro.lpsolve.scipy_backend`).  This module keeps a second way in,
built one constraint at a time, and a solver that shares no code with
HiGHS, so tests can check the library's path against them:

* :class:`LinearProgram` — a builder for ``min c^T v`` over box-bounded
  variables with ``<=``/``>=``/``==`` rows, one constraint at a time;
* :func:`solve_with_simplex` — a dense two-phase primal simplex in
  NumPy, fine for the few dozen rows of a test instance;
* :func:`solve_with_scipy` — the per-constraint translation of a
  :class:`LinearProgram` into ``scipy.optimize.linprog``;
* :func:`solve_arrays_with_linprog` — one ``linprog`` call on
  bulk-assembled ``A_ub v <= b_ub`` arrays, HiGHS from its own slack
  start with presolve.

The simplex reduces the model to the standard form

    min c^T z   s.t.   A z = b,  z >= 0,  b >= 0,

via the classic transformations:

* variables are shifted by their (finite) lower bounds;
* finite upper bounds become explicit ``<=`` rows;
* ``<=`` rows get slack variables, ``>=`` rows get surplus variables;
* phase 1 minimizes the sum of artificial variables to find a basic
  feasible solution, phase 2 optimizes the true objective.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
a stall is detected, which guarantees termination.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.lpsolve import LpError, LpSolution, LpStatus

__all__ = [
    "LinearProgram",
    "solve_arrays_with_linprog",
    "solve_with_scipy",
    "solve_with_simplex",
]

_TOL = 1e-9


class LinearProgram:
    """Mutable builder for ``min c^T v`` subject to linear constraints.

    Variables are identified by the integer handle returned from
    :meth:`add_variable`.  Constraints are sparse: a mapping from variable
    handle to coefficient.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._obj: List[float] = []
        self._lo: List[float] = []
        self._hi: List[float] = []
        self._var_names: List[str] = []
        # Each constraint: (coeffs dict, sense, rhs, name)
        self._cons: List[Tuple[Dict[int, float], str, float, str]] = []

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str = "",
        lo: float = 0.0,
        hi: float = float("inf"),
        obj: float = 0.0,
    ) -> int:
        """Add a variable with bounds ``[lo, hi]`` and objective coefficient
        ``obj``; returns its integer handle."""
        if lo > hi:
            raise ValueError(f"variable {name!r}: lo={lo} > hi={hi}")
        self._obj.append(float(obj))
        self._lo.append(float(lo))
        self._hi.append(float(hi))
        self._var_names.append(name or f"v{len(self._obj) - 1}")
        return len(self._obj) - 1

    def set_objective(self, var: int, coef: float) -> None:
        """Set (overwrite) the objective coefficient of ``var``."""
        self._obj[var] = float(coef)

    def add_constraint(
        self,
        coeffs: Dict[int, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> int:
        """Add ``sum coeffs[v] * v  (sense)  rhs`` with sense in
        {"<=", ">=", "=="}; returns the constraint index."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        clean = {int(v): float(c) for v, c in coeffs.items() if c != 0.0}
        for v in clean:
            if not (0 <= v < len(self._obj)):
                raise ValueError(f"constraint references unknown variable {v}")
        self._cons.append((clean, sense, float(rhs), name))
        return len(self._cons) - 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return len(self._obj)

    @property
    def n_constraints(self) -> int:
        return len(self._cons)

    @property
    def objective_coefficients(self) -> Tuple[float, ...]:
        return tuple(self._obj)

    @property
    def bounds(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self._lo, self._hi))

    @property
    def constraints(
        self,
    ) -> Tuple[Tuple[Dict[int, float], str, float, str], ...]:
        return tuple(self._cons)

    def variable_name(self, var: int) -> str:
        return self._var_names[var]

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, backend: str = "simplex") -> LpSolution:
        """Solve with ``backend`` ``"simplex"`` or ``"scipy"``.  Raises
        :class:`LpError` when the problem is infeasible or unbounded."""
        if backend == "simplex":
            return solve_with_simplex(self)
        if backend == "scipy":
            return solve_with_scipy(self)
        raise ValueError(f"unknown backend {backend!r}")

    def check_solution(
        self, values: Sequence[float], tol: float = 1e-6
    ) -> List[str]:
        """Return human-readable descriptions of violated constraints/bounds
        (empty list means the point is feasible within ``tol``)."""
        bad: List[str] = []
        scale = 1.0 + max((abs(v) for v in values), default=0.0)
        for v, (lo, hi) in enumerate(zip(self._lo, self._hi)):
            if values[v] < lo - tol * scale:
                bad.append(
                    f"{self._var_names[v]} = {values[v]} < lower bound {lo}"
                )
            if values[v] > hi + tol * scale:
                bad.append(
                    f"{self._var_names[v]} = {values[v]} > upper bound {hi}"
                )
        for idx, (coeffs, sense, rhs, name) in enumerate(self._cons):
            lhs = sum(c * values[v] for v, c in coeffs.items())
            label = name or f"c{idx}"
            if sense == "<=" and lhs > rhs + tol * scale:
                bad.append(f"{label}: {lhs} <= {rhs} violated")
            elif sense == ">=" and lhs < rhs - tol * scale:
                bad.append(f"{label}: {lhs} >= {rhs} violated")
            elif sense == "==" and abs(lhs - rhs) > tol * scale:
                bad.append(f"{label}: {lhs} == {rhs} violated")
        return bad

    def __repr__(self) -> str:
        return (
            f"LinearProgram({self.name!r}, vars={self.n_variables}, "
            f"cons={self.n_constraints})"
        )


# ---------------------------------------------------------------------------
# SciPy/HiGHS, one constraint at a time
# ---------------------------------------------------------------------------
def solve_with_scipy(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` with ``scipy.optimize.linprog(method="highs")``."""
    n = lp.n_variables
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    b_ub: List[float] = []
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    b_eq: List[float] = []

    for coeffs, sense, rhs, _name in lp.constraints:
        if sense == "==":
            r = len(b_eq)
            for v, coef in coeffs.items():
                eq_rows.append(r)
                eq_cols.append(v)
                eq_vals.append(coef)
            b_eq.append(rhs)
        else:
            sign = 1.0 if sense == "<=" else -1.0
            r = len(b_ub)
            for v, coef in coeffs.items():
                ub_rows.append(r)
                ub_cols.append(v)
                ub_vals.append(sign * coef)
            b_ub.append(sign * rhs)

    res = linprog(
        np.asarray(lp.objective_coefficients, dtype=float),
        A_ub=(
            csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), n))
            if b_ub
            else None
        ),
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=(
            csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), n))
            if b_eq
            else None
        ),
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=list(lp.bounds),
        method="highs",
    )
    if res.status == 2:
        raise LpError(LpStatus.INFEASIBLE)
    if res.status == 3:
        raise LpError(LpStatus.UNBOUNDED)
    if not res.success:
        raise LpError(f"scipy/highs failed: {res.message}")
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        values=tuple(float(v) for v in res.x),
        backend="scipy",
        iterations=int(getattr(res, "nit", 0) or 0),
    )


def solve_arrays_with_linprog(arrays) -> LpSolution:
    """Solve an ``A_ub v <= b_ub`` assembly (``n_variables``, ``c``,
    ``lo``/``hi``, COO ``rows``/``cols``/``vals``, ``b_ub``) with one
    ``scipy.optimize.linprog(method="highs")`` call over a CSR
    matrix."""
    a_ub = csr_matrix(
        (arrays.vals, (arrays.rows, arrays.cols)),
        shape=(len(arrays.b_ub), arrays.n_variables),
    )
    res = linprog(
        arrays.c,
        A_ub=a_ub,
        b_ub=arrays.b_ub,
        bounds=np.column_stack([arrays.lo, arrays.hi]),
        method="highs",
    )
    if res.status == 2:
        raise LpError(LpStatus.INFEASIBLE)
    if not res.success:
        raise LpError(res.message)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        values=tuple(float(v) for v in res.x),
        backend="linprog",
        iterations=int(res.nit or 0),
    )


# ---------------------------------------------------------------------------
# dense two-phase primal simplex
# ---------------------------------------------------------------------------
def solve_with_simplex(
    lp: LinearProgram, max_iterations: int = 0
) -> LpSolution:
    """Solve ``lp`` with the dense two-phase simplex.

    ``max_iterations`` of 0 picks a generous default proportional to the
    tableau size.  Raises :class:`LpError` on infeasibility/unboundedness.
    """
    n = lp.n_variables
    obj = np.asarray(lp.objective_coefficients, dtype=float)
    lo = np.array([b[0] for b in lp.bounds], dtype=float)
    hi = np.array([b[1] for b in lp.bounds], dtype=float)
    if not np.all(np.isfinite(lo)):
        raise LpError(
            "simplex backend requires finite lower bounds on all variables"
        )

    # --- assemble rows: original constraints with shifted variables -------
    rows: List[Tuple[np.ndarray, str, float]] = []
    for coeffs, sense, rhs, _name in lp.constraints:
        a = np.zeros(n)
        shift = 0.0
        for v, c in coeffs.items():
            a[v] = c
            shift += c * lo[v]
        rows.append((a, sense, rhs - shift))
    # Upper bounds (on the shifted variable: z_v <= hi_v - lo_v).
    for v in range(n):
        if np.isfinite(hi[v]):
            a = np.zeros(n)
            a[v] = 1.0
            rows.append((a, "<=", hi[v] - lo[v]))

    m_rows = len(rows)
    # Count slacks/surplus.
    n_slack = sum(1 for _, s, _ in rows if s in ("<=", ">="))
    total = n + n_slack
    A = np.zeros((m_rows, total))
    b = np.zeros(m_rows)
    slack_col = n
    art_rows: List[int] = []
    basis = [-1] * m_rows  # column index of the basic variable per row

    for i, (a, sense, rhs) in enumerate(rows):
        if rhs < 0:  # normalize to b >= 0
            a = -a
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        A[i, :n] = a
        b[i] = rhs
        if sense == "<=":
            A[i, slack_col] = 1.0
            basis[i] = slack_col
            slack_col += 1
        elif sense == ">=":
            A[i, slack_col] = -1.0
            slack_col += 1
            art_rows.append(i)
        else:  # ==
            art_rows.append(i)

    # Artificial variables for rows lacking an identity column.
    n_art = len(art_rows)
    if n_art:
        A = np.hstack([A, np.zeros((m_rows, n_art))])
        for k, i in enumerate(art_rows):
            A[i, total + k] = 1.0
            basis[i] = total + k
    n_cols = A.shape[1]

    if max_iterations <= 0:
        max_iterations = 200 * (m_rows + n_cols + 10)

    iters = 0

    def pivot(tab_A, tab_b, cost, basis):
        """Run simplex iterations in place; returns status string."""
        nonlocal iters
        stall = 0
        last_obj = np.inf
        bland = False
        while True:
            if iters >= max_iterations:
                raise LpError(
                    f"simplex iteration limit ({max_iterations}) exceeded"
                )
            iters += 1
            # Reduced costs: c_j - c_B^T B^{-1} A_j. We keep the tableau in
            # canonical form, so reduced costs are just the cost row.
            rc = cost
            if bland:
                enter = -1
                for j in range(len(rc)):
                    if rc[j] < -_TOL:
                        enter = j
                        break
            else:
                enter = int(np.argmin(rc))
                if rc[enter] >= -_TOL:
                    enter = -1
            if enter < 0:
                return LpStatus.OPTIMAL
            col = tab_A[:, enter]
            mask = col > _TOL
            if not np.any(mask):
                return LpStatus.UNBOUNDED
            ratios = np.full(len(tab_b), np.inf)
            ratios[mask] = tab_b[mask] / col[mask]
            leave = int(np.argmin(ratios))
            if bland:
                # Smallest basis index among ties (Bland's rule).
                best = ratios[leave]
                cands = [
                    i
                    for i in range(len(tab_b))
                    if mask[i] and ratios[i] <= best + _TOL
                ]
                leave = min(cands, key=lambda i: basis[i])
            # Gaussian pivot on (leave, enter).
            piv = tab_A[leave, enter]
            tab_A[leave] /= piv
            tab_b[leave] /= piv
            for i in range(len(tab_b)):
                if i != leave and abs(tab_A[i, enter]) > 0:
                    f = tab_A[i, enter]
                    tab_A[i] -= f * tab_A[leave]
                    tab_b[i] -= f * tab_b[leave]
            f = cost[enter]
            if abs(f) > 0:
                cost -= f * tab_A[leave]
            basis[leave] = enter
            # Stall detection: if the basic solution stops changing
            # (degenerate pivots), switch to Bland's rule, which provably
            # terminates.
            proxy = float(tab_b.sum())
            if abs(proxy - last_obj) <= _TOL:
                stall += 1
                if stall > 2 * len(tab_b) + 10:
                    bland = True
            else:
                stall = 0
            last_obj = proxy

    # --- phase 1 -----------------------------------------------------------
    tab_A = A.copy()
    tab_b = b.copy()
    if n_art:
        cost1 = np.zeros(n_cols)
        cost1[total:] = 1.0
        # Canonicalize: subtract artificial rows from cost row.
        for k, i in enumerate(art_rows):
            cost1 -= tab_A[i]
        status = pivot(tab_A, tab_b, cost1, basis)
        if status == LpStatus.UNBOUNDED:  # pragma: no cover - impossible
            raise LpError("phase-1 unbounded (internal error)")
        # Objective of phase 1 = sum of artificials at the basic solution.
        art_val = sum(
            tab_b[i] for i in range(m_rows) if basis[i] >= total
        )
        if art_val > 1e-7 * max(1.0, float(np.abs(b).max())):
            raise LpError(LpStatus.INFEASIBLE)
        # Drive remaining (degenerate) artificials out of the basis.
        for i in range(m_rows):
            if basis[i] >= total:
                row = tab_A[i, :total]
                cand = np.flatnonzero(np.abs(row) > _TOL)
                if cand.size:
                    enter = int(cand[0])
                    piv = tab_A[i, enter]
                    tab_A[i] /= piv
                    tab_b[i] /= piv
                    for r in range(m_rows):
                        if r != i and abs(tab_A[r, enter]) > 0:
                            f = tab_A[r, enter]
                            tab_A[r] -= f * tab_A[i]
                            tab_b[r] -= f * tab_b[i]
                    basis[i] = enter
                # else: row is all-zero over real columns -> redundant row.

    # --- phase 2 -----------------------------------------------------------
    cost2 = np.zeros(n_cols)
    cost2[:n] = obj
    if n_art:
        cost2[total:] = 1e12  # forbid re-entering artificials
    # Canonicalize the cost row w.r.t. the current basis.
    for i in range(m_rows):
        j = basis[i]
        if j >= 0 and abs(cost2[j]) > 0:
            cost2 -= cost2[j] * tab_A[i]
    status = pivot(tab_A, tab_b, cost2, basis)
    if status == LpStatus.UNBOUNDED:
        raise LpError(LpStatus.UNBOUNDED)

    # --- extract solution ---------------------------------------------------
    z = np.zeros(n_cols)
    for i in range(m_rows):
        if basis[i] >= 0:
            z[basis[i]] = tab_b[i]
    x = z[:n] + lo
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(np.dot(obj, x)),
        values=tuple(float(v) for v in x),
        backend="simplex",
        iterations=iters,
    )
