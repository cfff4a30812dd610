"""Self-tests of the test-only LP oracle (:mod:`lp_oracle`): its
modeling layer and both of its solvers.  Plus the pin of the package's
one HiGHS path (:class:`repro.lpsolve.scipy_backend.HighsModel`) to the
``scipy.optimize.linprog`` call it replaced, and of LP (9)'s start
basis."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from lp9_reference import full_allotment_arrays
from lp_oracle import (
    LinearProgram,
    solve_arrays_with_linprog,
    solve_with_simplex,
)
from scipy.optimize._highspy._core import HighsPresolveStatus

from repro import Instance
from repro.batchkernel import assemble_batch_lp, pack_csrs, stack_profiles
from repro.core import allotment_bsearch
from repro.core.allotment_bsearch import (
    _DeadlineSolver,
    bsearch_allotment,
    deadline_work_lp,
)
from repro.core.lp import (
    AllotmentArrays,
    assemble_allotment_arrays,
    solve_allotment_lp,
)
from repro.dag import FAMILIES
from repro.lpsolve import LpError, LpStatus
from repro.lpsolve.scipy_backend import (
    BASIC,
    HighsModel,
    solve_ub_arrays,
    solve_ub_blocks,
)
from repro.models.profiles import linear_speedup_profile
from repro.obs import trace as obs_trace
from repro.workloads import MODELS, make_instance

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


def assert_runs_near_linprog(runs):
    """Each recorded solve against the one-shot
    ``linprog(method="highs")`` call on the same arrays: both fail, or
    the objectives agree within 1e-12 relative and ``x`` lies inside
    its bounds.  The start basis (or, warm, the previous optimum)
    moves the last bits of the optimum against ``linprog``'s slack
    start."""
    for arrays, got in list(runs):
        if isinstance(got, LpError):
            with pytest.raises(LpError):
                solve_arrays_with_linprog(arrays)
            continue
        ref = solve_arrays_with_linprog(arrays)
        assert got.objective == pytest.approx(ref.objective, rel=1e-12)
        x = np.asarray(got.values)
        assert np.all(arrays.lo <= x) and np.all(x <= arrays.hi)


def assert_runs_match_linprog(runs):
    """:func:`assert_runs_near_linprog` for fresh-model solves, which
    the package's own fresh-model paths — :func:`solve_ub_arrays`,
    :func:`solve_ub_blocks` — must reproduce bit for bit: values,
    objective and pivots."""
    assert_runs_near_linprog(runs)
    for arrays, got in list(runs):
        if isinstance(got, LpError):
            with pytest.raises(LpError):
                solve_ub_arrays(arrays)
            continue
        assert solve_ub_arrays(arrays) == got
        assert solve_ub_blocks([arrays]) == [got]


def outcomes(runs):
    """Recorded runs, comparable across two solvers: each solution
    whole, each failure as its status."""
    return [
        (got.status,) if isinstance(got, LpError) else got
        for _arrays, got in runs
    ]


class TestOneHighsPath:
    """Every HiGHS solve — LP (9), a deadline probe of the binary
    search, a block of the batched tier — agrees with the ``linprog``
    call on the same arrays, and the fresh-model paths agree with each
    other bit for bit."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_lp9_assemblies(self, family, highs_runs):
        for n, m, seed in ((24, 4, 1), (150, 8, 2), (500, 16, 3)):
            solve_allotment_lp(make_instance(family, n, m, seed=seed))
        assert len(highs_runs) == 3
        assert_runs_match_linprog(highs_runs)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_deadline_probes(self, family, highs_runs):
        """One search's probe ladder in its one resident model: cold at
        the sequential makespan, where a search opens, then warm from
        below the all-``m`` critical path (infeasible) up to the
        sequential makespan.  Every probe agrees with ``linprog``; the
        cold one is bit for bit a fresh model's, and a second solver
        repeats the whole ladder bit for bit."""
        inst = make_instance(family, 60, 8, seed=4)
        low, high = inst.min_critical_path(), inst.sequential_makespan()
        deadlines = [high, 0.5 * low, 0.99 * low, *np.linspace(low, high, 8)]
        solver = _DeadlineSolver(inst)
        results = [solver.solve(d) for d in deadlines]
        assert results[1] is None and results[2] is None
        assert results[0] is not None and results[-1] is not None
        assert len(highs_runs) == len(deadlines)
        ladder = outcomes(highs_runs)
        assert_runs_near_linprog(highs_runs)
        assert_runs_match_linprog(highs_runs[:1])
        del highs_runs[:]
        again = _DeadlineSolver(inst)
        assert [again.solve(d) for d in deadlines] == results
        assert outcomes(highs_runs) == ladder

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
        # A block is the per-instance assembly, so the pipeline's fresh
        # model solves it bit for bit like the batch.
        for inst, (_arrays, sol) in zip(batch, highs_runs):
            assert solve_ub_arrays(assemble_allotment_arrays(inst)) == sol


# ---------------------------------------------------------------------------
# LP (9)'s critical-path start basis
# ---------------------------------------------------------------------------
def start_vertex(arrays):
    """The basic solution of ``arrays.start_basis()``, densely: every
    nonbasic column at its lower bound and every nonbasic row at its
    upper bound.  Returns ``(v, slack)`` for ``A v + slack = b_ub``."""
    col_status, row_status = arrays.start_basis()
    n_rows, n_cols = len(arrays.b_ub), arrays.n_variables
    a = np.zeros((n_rows, n_cols))
    np.add.at(a, (arrays.rows, arrays.cols), arrays.vals)
    v = np.where(col_status == BASIC, 0.0, arrays.lo)
    basic_cols = np.flatnonzero(col_status == BASIC)
    basic_rows = np.flatnonzero(row_status == BASIC)
    b = np.hstack([a[:, basic_cols], np.eye(n_rows)[:, basic_rows]])
    solved = np.linalg.solve(b, arrays.b_ub - a @ v)
    v[basic_cols] = solved[:len(basic_cols)]
    return v, arrays.b_ub - a @ v


def linear_speedup(inst):
    """``inst`` with every task at perfect linear speedup from its own
    ``p_j(1)`` (:func:`repro.models.profiles.linear_speedup_profile`):
    the work is flat, so every segment slope in ``W/m <= C`` is 0 up to
    rounding."""
    return Instance.from_profile_fn(
        inst.dag,
        inst.m,
        lambda j: linear_speedup_profile(inst.task(j).time(1), inst.m),
    )


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    model=st.sampled_from([*MODELS, "linear"]),
    n=st.integers(2, 40),
    m=st.sampled_from([1, 2, 8, 32]),
    seed=st.integers(0, 10_000),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_start_basis_skips_presolve_and_reaches_lp9(family, model, n, m, seed):
    """Every family and profile model: the start basis has exactly one
    basic entry per row, and its vertex (every task at ``p_j(m)``,
    ``C_j`` its earliest finish) violates no row but ``W/m <= C``; the
    fresh model never presolves, its optimum is the literal LP (9)'s
    within 1e-12 relative, and a chain — optimal at the start vertex —
    takes no pivot.  ``linear`` is every task at linear speedup (the
    boundary case of Assumption 2), whose flat slopes HiGHS drops."""
    if model == "linear":
        inst = linear_speedup(make_instance(family, n, m, seed=seed))
    else:
        inst = make_instance(family, n, m, model=model, seed=seed)
    arrays = assemble_allotment_arrays(inst)
    col_status, row_status = arrays.start_basis()
    assert len(col_status) == arrays.n_variables
    assert len(row_status) == len(arrays.b_ub)
    assert (
        np.count_nonzero(col_status == BASIC)
        + np.count_nonzero(row_status == BASIC)
        == len(arrays.b_ub)
    )
    v, slack = start_vertex(arrays)
    scale = max(1.0, float(np.max(np.abs(arrays.b_ub))))
    assert np.all(slack[:-1] >= -1e-9 * scale)
    assert np.all(v >= arrays.lo - 1e-9 * scale)
    model_ = HighsModel(arrays)
    sol = model_.solve()
    assert (
        model_._h.getModelPresolveStatus()
        == HighsPresolveStatus.kNotPresolved
    )
    ref = solve_arrays_with_linprog(full_allotment_arrays(inst))
    assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
    if family == "chain":
        assert sol.iterations == 0


def test_tiny_coefficients_load_with_a_warning():
    """HiGHS drops matrix entries of magnitude at most 1e-9 while
    loading and reports ``kWarning``; the model still loads, and solves
    like the one whose entries are exactly 0.  A linear-speedup LP (9)
    has such entries: its segment slopes are 0 up to rounding."""
    inst = linear_speedup(make_instance("layered", 30, 4, seed=2))
    arrays = assemble_allotment_arrays(inst)
    slopes = (arrays.rows == len(arrays.b_ub) - 1) & (
        arrays.cols < arrays.n_variables - 2
    )
    assert np.all(np.abs(arrays.vals[slopes]) <= 1e-9)
    assert np.any(arrays.vals[slopes] != 0.0)
    zero = arrays.vals.copy()
    zero[slopes] = 0.0
    flat = HighsModel(arrays._replace(vals=zero))
    model = HighsModel(arrays)
    for m in (model, flat):
        assert len(m._h.getLp().a_matrix_.value_) == (
            len(zero) - np.count_nonzero(slopes)
        )
    assert model.solve() == flat.solve()


class TestProbeErrors:
    """A deadline probe that HiGHS proves infeasible is a missed
    deadline (:meth:`TestOneHighsPath.test_deadline_probes`); any other
    :class:`LpError` of the probe is an error of the search, not a
    deadline verdict."""

    def test_rejected_start_basis_propagates(self, monkeypatch):
        inst = make_instance("layered", 30, 4, seed=2)
        solver = _DeadlineSolver(inst)
        start_basis = AllotmentArrays.start_basis

        def all_basic(arrays):
            col_status, row_status = start_basis(arrays)
            return np.full_like(col_status, BASIC), row_status

        monkeypatch.setattr(AllotmentArrays, "start_basis", all_basic)
        with pytest.raises(LpError, match="start basis") as err:
            solver.solve(inst.sequential_makespan())
        assert err.value.status is None

    def test_search_builds_one_start_basis(self, monkeypatch):
        built = []
        start_basis = AllotmentArrays.start_basis

        def counted(arrays):
            built.append(arrays)
            return start_basis(arrays)

        monkeypatch.setattr(AllotmentArrays, "start_basis", counted)
        inst = make_instance("layered", 30, 4, seed=2)
        report = bsearch_allotment(inst, 0.3)
        assert report.lp_solves > 1
        assert len(built) == 1


class TestResidentSearch:
    """A search loads one HiGHS model at its first probe and answers
    every later probe by moving the bound of ``L`` and re-solving warm."""

    def test_search_loads_one_model(self, monkeypatch):
        loaded = []

        class Counted(HighsModel):
            def __init__(self, arrays):
                loaded.append(arrays)
                super().__init__(arrays)

        monkeypatch.setattr(allotment_bsearch, "HighsModel", Counted)
        inst = make_instance("layered", 40, 4, seed=1)
        with obs_trace.tracing() as tracer:
            report = bsearch_allotment(inst, 0.3)
        totals = tracer.counter_totals()
        assert len(loaded) == 1
        assert totals["bsearch_probes"] == report.lp_solves > 3
        assert totals["warm_starts"] == totals["bsearch_probes"] - 1

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_search_is_deterministic(self, family):
        inst = make_instance(family, 60, 8, seed=4)
        assert bsearch_allotment(inst, 0.3) == bsearch_allotment(inst, 0.3)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_lone_probe_agrees_with_the_search(self, family, monkeypatch):
        """:func:`deadline_work_lp` solves a deadline cold in a fresh
        model; the search's warm probe of the same deadline is feasible
        exactly when it is, with the same total work within 1e-12
        relative."""
        probes = []
        solve = _DeadlineSolver.solve

        def recorded(solver, deadline):
            res = solve(solver, deadline)
            probes.append((deadline, res))
            return res

        monkeypatch.setattr(_DeadlineSolver, "solve", recorded)
        inst = make_instance(family, 60, 8, seed=4)
        bsearch_allotment(inst, 0.3)
        searched = list(probes)
        assert len(searched) > 3
        for deadline, res in searched:
            lone = deadline_work_lp(inst, deadline)
            assert (lone is None) == (res is None)
            if res is not None:
                assert res.total_work == pytest.approx(
                    lone.total_work, rel=1e-12
                )
