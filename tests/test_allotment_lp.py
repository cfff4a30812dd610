"""Tests for LP (9) construction and its optimum (:mod:`repro.core.lp`)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from lp9_reference import build_allotment_lp, full_allotment_arrays
from lp_oracle import solve_with_scipy, solve_with_simplex

from repro import Instance, MalleableTask
from repro.core import solve_allotment_lp
from repro.core.lp import assemble_allotment_arrays
from repro.lpsolve.scipy_backend import solve_ub_arrays
from repro.dag import chain_dag, diamond_dag, independent_dag
from repro.models import power_law_profile
from repro.workloads import make_instance


def make_inst(dag, m, d=0.5, p1=10.0):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(p1, d, m)
    )


class TestConstruction:
    def test_sizes(self):
        inst = make_inst(diamond_dag(3), 4)
        built = build_allotment_lp(inst)
        n, m = inst.n_tasks, inst.m
        assert built.lp.n_variables == 3 * n + 2
        # One segment row per canonical chord, |E| precedence rows, fit
        # rows of the sources, span rows of the sinks, L<=C and W/m<=C.
        segs = sum(len(inst.task(j).segments()) for j in range(n))
        dag = inst.dag
        assert built.lp.n_constraints == (
            len(dag.sources()) + len(dag.sinks()) + segs + dag.n_edges + 2
        )

    def test_variable_bounds_match_profiles(self):
        inst = make_inst(chain_dag(3), 4)
        built = build_allotment_lp(inst)
        for j, v in enumerate(built.x_vars):
            lo, hi = built.lp.bounds[v]
            assert lo == pytest.approx(inst.task(j).min_time)
            assert hi == pytest.approx(inst.task(j).max_time)


class TestSingleTask:
    def test_single_task_optimum(self):
        """One task alone: C* = max over the tradeoff of max(x, w(x)/m);
        for a power law the best is x = p(m) where both equal W(m)/m...
        actually min over x of max(x, w(x)/m)."""
        m = 4
        inst = make_inst(independent_dag(1), m, d=1.0)
        # Linear speedup: w(x) = p1 for all x, so optimum is
        # max(x, p1/m) minimized at x = p(m) = p1/m.
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(10.0 / 4, rel=1e-6)

    def test_rigid_single_task(self):
        m = 3
        inst = Instance([MalleableTask([5.0] * m)], independent_dag(1), m)
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(5.0, rel=1e-6)


class TestOptimumProperties:
    @pytest.mark.parametrize(
        "oracle", [solve_with_scipy, solve_with_simplex],
        ids=["scipy", "simplex"],
    )
    def test_backends_agree(self, oracle):
        """The library's HiGHS path finds the optimum each test-oracle
        solver finds on the per-constraint build of LP (9)."""
        inst = make_inst(diamond_dag(4), 6)
        res = solve_allotment_lp(inst)
        ref = oracle(build_allotment_lp(inst).lp)
        assert res.objective == pytest.approx(ref.objective, rel=1e-7)

    def test_objective_is_max_of_L_and_W_over_m(self):
        inst = make_inst(diamond_dag(5), 8)
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(
            max(res.critical_path, res.total_work / inst.m), rel=1e-5
        )

    def test_dominates_combinatorial_bounds(self):
        inst = make_inst(diamond_dag(5), 8)
        res = solve_allotment_lp(inst)
        assert res.objective >= inst.min_critical_path() - 1e-6
        assert (
            res.objective >= inst.min_total_work() / inst.m - 1e-6
        )

    def test_x_within_profile_ranges(self):
        inst = make_inst(diamond_dag(5), 8)
        res = solve_allotment_lp(inst)
        for j, x in enumerate(res.x):
            t = inst.task(j)
            assert t.min_time - 1e-7 <= x <= t.max_time + 1e-7

    def test_completion_times_respect_precedence(self):
        inst = make_inst(chain_dag(4), 4)
        res = solve_allotment_lp(inst)
        for (i, j) in inst.dag.edges:
            assert (
                res.completion[i] + res.x[j]
                <= res.completion[j] + 1e-6
            )

    def test_work_bar_at_least_true_work(self):
        inst = make_inst(diamond_dag(4), 6)
        res = solve_allotment_lp(inst)
        for j in range(inst.n_tasks):
            assert res.work_bar[j] >= res.work[j] - 1e-6

    def test_chain_optimum_is_full_speed(self):
        """On a chain, W/m never binds, so every task runs at x = p(m)."""
        m = 4
        inst = make_inst(chain_dag(5), m, d=0.5)
        res = solve_allotment_lp(inst)
        for j, x in enumerate(res.x):
            assert x == pytest.approx(inst.task(j).min_time, rel=1e-5)
        assert res.objective == pytest.approx(
            inst.min_critical_path(), rel=1e-6
        )

    def test_wide_graph_optimum_is_work_bound(self):
        """Many independent tasks: the work bound dominates and tasks are
        kept (nearly) sequential where the work function is increasing."""
        m = 4
        inst = make_inst(independent_dag(16), m, d=0.5)
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(
            res.total_work / m, rel=1e-5
        )

    def test_more_processors_never_hurts(self):
        vals = []
        for m in (2, 4, 8):
            inst = Instance.from_profile_fn(
                diamond_dag(6), m,
                lambda j: power_law_profile(10.0, 0.6, m),
            )
            vals.append(solve_allotment_lp(inst).objective)
        assert vals[0] >= vals[1] - 1e-6 >= vals[2] - 2e-6

    def test_lower_bound_vs_optimal_schedule(self):
        """eq. (11): C* <= OPT on an exactly solvable instance."""
        from repro.baselines import optimal_makespan

        m = 3
        inst = make_inst(diamond_dag(3), m, d=0.7)
        cstar = solve_allotment_lp(inst).objective
        opt = optimal_makespan(inst)
        assert cstar <= opt + 1e-6


# ---------------------------------------------------------------------------
# the trimmed row set against the full LP (9)
# ---------------------------------------------------------------------------
@st.composite
def lp_instances(draw):
    family = draw(
        st.sampled_from(
            ["chain", "layered", "erdos_renyi", "independent", "single"]
        )
    )
    size = 1 if family == "single" else draw(st.integers(2, 40))
    return make_instance(
        "independent" if family == "single" else family,
        size,
        draw(st.sampled_from([1, 2, 3, 4, 8, 16])),
        model=draw(st.sampled_from(["power", "amdahl", "log", "mixed"])),
        seed=draw(st.integers(0, 10_000)),
    )


def _dense(arrays):
    a = np.zeros((len(arrays.b_ub), arrays.n_variables))
    np.add.at(a, (arrays.rows, arrays.cols), arrays.vals)
    return a, np.asarray(arrays.b_ub)


@given(inst=lp_instances())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_trimmed_lp_matches_full_lp(inst):
    trimmed = assemble_allotment_arrays(inst)
    full = full_allotment_arrays(inst)
    sol = solve_ub_arrays(trimmed)
    ref = solve_ub_arrays(full)
    cstar = sol.objective
    assert abs(cstar - ref.objective) <= 1e-9 * max(1.0, abs(cstar))

    # The trimmed optimum (x*, C*, w̄*, L*, C*) is feasible for every row
    # of the full LP, the dropped fit and span rows included.
    a_full, b_full = _dense(full)
    v = np.asarray(sol.values)
    assert np.all(a_full @ v - b_full <= 1e-9)

    # Every trimmed row is a row of the full LP, and a task with neither
    # predecessor nor successor keeps both its fit and its span row.
    a_trim, b_trim = _dense(trimmed)
    full_rows = {tuple(r) + (b,) for r, b in zip(a_full, b_full)}
    trim_rows = {tuple(r) + (b,) for r, b in zip(a_trim, b_trim)}
    assert trim_rows <= full_rows
    n = inst.n_tasks
    dag = inst.dag
    for j in set(dag.sources()) & set(dag.sinks()):
        fit = np.zeros(3 * n + 2)
        fit[[3 * j, 3 * j + 1]] = (1.0, -1.0)
        span = np.zeros(3 * n + 2)
        span[[3 * j + 1, 3 * n]] = (1.0, -1.0)
        assert tuple(fit) + (0.0,) in trim_rows
        assert tuple(span) + (0.0,) in trim_rows


# ---------------------------------------------------------------------------
# HiGHS against the independent dense simplex
# ---------------------------------------------------------------------------
@st.composite
def small_lp_instances(draw):
    return make_instance(
        draw(
            st.sampled_from(
                ["chain", "layered", "erdos_renyi", "fork_join", "independent"]
            )
        ),
        draw(st.integers(2, 8)),
        draw(st.sampled_from([1, 2, 4, 8])),
        model=draw(st.sampled_from(["power", "amdahl", "log", "mixed"])),
        seed=draw(st.integers(0, 10_000)),
    )


@given(inst=small_lp_instances())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_highs_optimum_matches_oracle_simplex(inst):
    """C* of LP (9) from the library's HiGHS path equals the optimum the
    test oracle's dense simplex finds on the per-constraint build."""
    cstar = solve_allotment_lp(inst).objective
    ref = solve_with_simplex(build_allotment_lp(inst).lp).objective
    assert cstar == pytest.approx(ref, rel=1e-7)
