"""Self-tests of the test-only LP oracle (:mod:`lp_oracle`): its
modeling layer and both of its solvers.  Plus the pin of the package's
one HiGHS path (:class:`repro.lpsolve.scipy_backend.HighsModel`) to the
``scipy.optimize.linprog`` call it replaced."""

import numpy as np
import pytest
from lp_oracle import LinearProgram, solve_with_simplex
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.batchkernel import assemble_batch_lp, pack_csrs, stack_profiles
from repro.core.allotment_bsearch import _DeadlineSolver
from repro.core.lp import solve_allotment_lp
from repro.lpsolve import LpError, LpSolution, LpStatus
from repro.lpsolve.scipy_backend import HighsModel, solve_ub_blocks
from repro.workloads import make_instance

BACKENDS = ["simplex", "scipy"]


def tiny_lp():
    """min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 3  -> opt at (1,3), -7."""
    lp = LinearProgram("tiny")
    x = lp.add_variable("x", lo=0.0, hi=3.0, obj=-1.0)
    y = lp.add_variable("y", lo=0.0, hi=3.0, obj=-2.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 4.0)
    return lp, x, y


class TestModel:
    def test_variable_handles(self):
        lp = LinearProgram()
        assert lp.add_variable("a") == 0
        assert lp.add_variable("b") == 1
        assert lp.n_variables == 2

    def test_bad_bounds(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable("x", lo=2.0, hi=1.0)

    def test_bad_sense(self):
        lp = LinearProgram()
        v = lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_constraint({v: 1.0}, "<", 1.0)

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_constraint({5: 1.0}, "<=", 1.0)

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram()
        v = lp.add_variable("x")
        w = lp.add_variable("y")
        idx = lp.add_constraint({v: 0.0, w: 1.0}, "<=", 1.0)
        coeffs, _, _, _ = lp.constraints[idx]
        assert v not in coeffs

    def test_check_solution_flags_violations(self):
        lp, x, y = tiny_lp()
        assert lp.check_solution([1.0, 3.0]) == []
        assert lp.check_solution([4.0, 3.0])  # x > hi and sum > 4
        assert lp.check_solution([-1.0, 0.0])  # below lo

    def test_set_objective(self):
        lp = LinearProgram()
        v = lp.add_variable("x", obj=1.0)
        lp.set_objective(v, 5.0)
        assert lp.objective_coefficients[0] == 5.0

    def test_repr(self):
        lp, _, _ = tiny_lp()
        assert "vars=2" in repr(lp)

    def test_unknown_backend(self):
        lp, _, _ = tiny_lp()
        with pytest.raises(ValueError):
            lp.solve(backend="gurobi")


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolvers:
    def test_tiny_optimum(self, backend):
        lp, x, y = tiny_lp()
        sol = lp.solve(backend=backend)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-7.0, abs=1e-7)
        assert sol[x] == pytest.approx(1.0, abs=1e-7)
        assert sol[y] == pytest.approx(3.0, abs=1e-7)

    def test_equality_constraint(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x", obj=1.0)
        y = lp.add_variable("y", obj=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "==", 5.0)
        lp.add_constraint({x: 1.0, y: -1.0}, ">=", 1.0)
        sol = lp.solve(backend=backend)
        assert sol.objective == pytest.approx(5.0, abs=1e-7)

    def test_geq_constraints(self, backend):
        """min x + y s.t. x + 2y >= 6, 2x + y >= 6 -> (2, 2), obj 4."""
        lp = LinearProgram()
        x = lp.add_variable("x", obj=1.0)
        y = lp.add_variable("y", obj=1.0)
        lp.add_constraint({x: 1.0, y: 2.0}, ">=", 6.0)
        lp.add_constraint({x: 2.0, y: 1.0}, ">=", 6.0)
        sol = lp.solve(backend=backend)
        assert sol.objective == pytest.approx(4.0, abs=1e-6)

    def test_infeasible_detected(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x", hi=1.0)
        lp.add_constraint({x: 1.0}, ">=", 2.0)
        with pytest.raises(LpError):
            lp.solve(backend=backend)

    def test_unbounded_detected(self, backend):
        lp = LinearProgram()
        lp.add_variable("x", obj=-1.0)  # min -x, x >= 0 unbounded
        lp.add_variable("y")
        with pytest.raises(LpError):
            lp.solve(backend=backend)

    def test_nonzero_lower_bounds(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x", lo=2.0, hi=10.0, obj=1.0)
        y = lp.add_variable("y", lo=3.0, hi=10.0, obj=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, ">=", 7.0)
        sol = lp.solve(backend=backend)
        assert sol.objective == pytest.approx(7.0, abs=1e-7)
        assert sol[x] >= 2.0 - 1e-9 and sol[y] >= 3.0 - 1e-9

    def test_degenerate_lp(self, backend):
        """Multiple redundant constraints through one vertex."""
        lp = LinearProgram()
        x = lp.add_variable("x", obj=-1.0, hi=5.0)
        for rhs in (5.0, 5.0, 5.0):
            lp.add_constraint({x: 1.0}, "<=", rhs)
        sol = lp.solve(backend=backend)
        assert sol.objective == pytest.approx(-5.0, abs=1e-7)

    def test_feasible_solution_passes_check(self, backend):
        lp, _, _ = tiny_lp()
        sol = lp.solve(backend=backend)
        assert lp.check_solution(sol.values) == []


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_lps_agree(self, seed):
        """Both backends find the same optimum on random feasible LPs."""
        rng = np.random.default_rng(seed)
        n_vars, n_cons = 6, 8
        lp = LinearProgram(f"rand{seed}")
        vs = [
            lp.add_variable(f"v{i}", lo=0.0, hi=10.0,
                            obj=float(rng.normal()))
            for i in range(n_vars)
        ]
        # Constraints a^T v <= b with a >= 0 and b > 0 keep 0 feasible.
        for _ in range(n_cons):
            coeffs = {
                v: float(rng.uniform(0, 1)) for v in vs if rng.random() < 0.7
            }
            if coeffs:
                lp.add_constraint(coeffs, "<=", float(rng.uniform(2, 8)))
        a = lp.solve(backend="scipy")
        b = lp.solve(backend="simplex")
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_simplex_reports_iterations(self):
        lp, _, _ = tiny_lp()
        sol = solve_with_simplex(lp)
        assert sol.iterations > 0
        assert sol.backend == "simplex"

    def test_infinite_lower_bound_rejected_by_simplex(self):
        lp = LinearProgram()
        lp.add_variable("x", lo=float("-inf"), obj=1.0)
        with pytest.raises(LpError):
            solve_with_simplex(lp)


# ---------------------------------------------------------------------------
# the one HiGHS path, pinned to the linprog call it replaced
# ---------------------------------------------------------------------------
_FAMILIES = ("layered", "erdos_renyi", "chain", "fork_join")


def solve_with_linprog(arrays) -> LpSolution:
    """The reference: the one-shot ``linprog(method="highs")`` call,
    over a CSR matrix, that solved every cold LP of the package before
    :class:`HighsModel` became the only way into HiGHS."""
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


@pytest.fixture()
def highs_runs(monkeypatch):
    """Every :meth:`HighsModel.solve` the test makes, as ``(arrays
    loaded, LpSolution or the LpError raised)``."""
    runs = []
    solve = HighsModel.solve

    def recorded(model):
        arrays = model.arrays
        try:
            sol = solve(model)
        except LpError as exc:
            runs.append((arrays, exc))
            raise
        runs.append((arrays, sol))
        return sol

    monkeypatch.setattr(HighsModel, "solve", recorded)
    return runs


def assert_runs_match_linprog(runs):
    for arrays, got in runs:
        if isinstance(got, LpError):
            with pytest.raises(LpError):
                solve_with_linprog(arrays)
            continue
        ref = solve_with_linprog(arrays)
        assert got.values == ref.values
        assert got.objective == ref.objective
        assert got.iterations == ref.iterations


class TestOneHighsPath:
    """Every cold HiGHS solve — LP (9), a deadline probe of the binary
    search, a block of the batched tier — equals the ``linprog`` call
    on the same arrays: values, objective and iteration count."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_lp9_assemblies(self, family, highs_runs):
        for n, m, seed in ((24, 4, 1), (150, 8, 2), (500, 16, 3)):
            solve_allotment_lp(make_instance(family, n, m, seed=seed))
        assert len(highs_runs) == 3
        assert_runs_match_linprog(highs_runs)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_deadline_probes(self, family, highs_runs):
        """One search's probe ladder, from below the all-``m`` critical
        path (infeasible) up to the sequential makespan."""
        inst = make_instance(family, 60, 8, seed=4)
        low, high = inst.min_critical_path(), inst.sequential_makespan()
        deadlines = [0.5 * low, 0.99 * low, *np.linspace(low, high, 8)]
        solver = _DeadlineSolver(inst)
        results = [solver.solve(d) for d in deadlines]
        assert results[0] is None and results[1] is None
        assert results[-1] is not None
        assert len(highs_runs) == len(deadlines)
        assert_runs_match_linprog(highs_runs)

    def test_batched_blocks(self, highs_runs):
        batch = [
            make_instance(family, 80, m, seed=5)
            for family in _FAMILIES
            for m in (4, 16)
        ]
        blocks = assemble_batch_lp(
            stack_profiles(batch), pack_csrs([i.dag.to_csr() for i in batch])
        )
        solve_ub_blocks(blocks)
        assert len(highs_runs) == len(blocks)
        assert_runs_match_linprog(highs_runs)
