"""Tests for LP (9) construction and its optimum (:mod:`repro.core.lp`)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from lp9_reference import (
    build_allotment_lp,
    full_allotment_arrays,
    literal_point,
)
from lp_oracle import (
    solve_arrays_with_linprog,
    solve_with_scipy,
    solve_with_simplex,
)

from repro import Instance, MalleableTask
from repro.core import solve_allotment_lp
from repro.core.arrays import instance_arrays
from repro.core.lp import assemble_allotment_arrays
from repro.lpsolve.scipy_backend import solve_ub_arrays
from repro.dag import FAMILIES, chain_dag, diamond_dag, independent_dag
from repro.models import power_law_profile
from repro.workloads import MODELS, make_instance


def _total_work(inst, x):
    """``W = Σ_j w_j(x_j)`` through the per-task API."""
    return sum(inst.task(j).work_of_time(v) for j, v in enumerate(x))


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
            max(res.critical_path, _total_work(inst, res.x) / inst.m),
            rel=1e-5,
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
        work_bar = _work_bar(inst)
        for j, x in enumerate(res.x):
            assert work_bar[j] >= inst.task(j).work_of_time(x) - 1e-6

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
            _total_work(inst, res.x) / m, rel=1e-5
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
# the δ form against the literal LP (9)
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
    """The δ optimum, mapped onto LP (9)'s literal variables
    ``(x, C_j, w̄, L, C)``, satisfies every row of the untrimmed literal
    LP, and both optima agree."""
    arrays = assemble_allotment_arrays(inst)
    sol = solve_ub_arrays(arrays)
    ref = solve_arrays_with_linprog(full_allotment_arrays(inst))
    cstar = sol.objective
    assert abs(cstar - ref.objective) <= 1e-9 * max(1.0, abs(cstar))

    a_full, b_full = _dense(full_allotment_arrays(inst))
    v = literal_point(inst, sol.values)
    assert np.all(a_full @ v - b_full <= 1e-9)
    assert abs(v[-1] - cstar) <= 1e-9 * max(1.0, abs(cstar))

    # A task with neither predecessor nor successor keeps both its fit
    # row (Σδ_j - C_j <= -p_j(m)) and its span row (C_j - L <= 0).
    a, b = _dense(arrays)
    arr = instance_arrays(inst)
    nv = arrays.n_variables
    trim_rows = {tuple(r) + (bb,) for r, bb in zip(a, b)}
    dag = inst.dag
    for j in set(dag.sources()) & set(dag.sinks()):
        fit = np.zeros(nv)
        fit[j] = -1.0
        first = inst.n_tasks + arr.seg_ptr[j]  # task j's first δ column
        fit[first:first + arr.nseg[j]] = 1.0
        span = np.zeros(nv)
        span[[j, nv - 2]] = (1.0, -1.0)
        assert tuple(fit) + (-arr.min_time[j],) in trim_rows
        assert tuple(span) + (0.0,) in trim_rows


def _work_bar(inst):
    """``w̄*_j`` of LP (9)'s optimum, read off the δ solution by
    :func:`lp9_reference.literal_point`."""
    sol = solve_ub_arrays(assemble_allotment_arrays(inst))
    return literal_point(inst, sol.values)[2:3 * inst.n_tasks:3]


def _with_rows(inst, rows):
    """``inst`` with the task rows of ``rows`` ({j: times}) replaced."""
    times = inst.times.copy()
    for j, row in rows.items():
        times[j] = row
    return Instance(
        [MalleableTask(list(r)) for r in times], inst.dag, inst.m
    )


@st.composite
def delta_instances(draw):
    """Every DAG family and profile model, with some tasks replaced by
    hand-built rigid rows (no segment) or plateau-tail rows (``p(m)``
    inside the ``_PLATEAU_RTOL`` band below the last canonical break)."""
    m = draw(st.sampled_from([1, 2, 3, 4, 8]))
    inst = make_instance(
        draw(st.sampled_from(sorted(FAMILIES))),
        draw(st.integers(2, 12)),
        m,
        model=draw(st.sampled_from(list(MODELS))),
        seed=draw(st.integers(0, 10_000)),
    )
    rows = {}
    for j in range(inst.n_tasks):
        kind = draw(st.sampled_from(["keep", "keep", "rigid", "tail"]))
        p1 = draw(st.floats(1.0, 100.0))
        if kind == "rigid":
            rows[j] = [p1] * m
        elif kind == "tail" and m >= 2:
            # Speedup up to level m-1, then a drop of under 1e-7.
            head = [p1 / l ** 0.5 for l in range(1, m)]
            eps = draw(st.floats(1e-9, 9e-8))
            rows[j] = head + [head[-1] * (1.0 - eps)]
    return _with_rows(inst, rows)


@given(inst=delta_instances())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_delta_form_optimum_is_the_literal_lp_optimum(inst):
    """LP (9) in δ form has the literal LP (9)'s optimum ``C*`` (HiGHS
    and the oracle simplex), its read-back ``x_j`` lies in ``[p_j(m),
    p_j(1)]``, and its work ``w̄_j`` is at least ``w_j(x_j)``."""
    res = solve_allotment_lp(inst)
    built = build_allotment_lp(inst)
    for ref in (solve_with_scipy(built.lp), solve_with_simplex(built.lp)):
        assert res.objective == pytest.approx(ref.objective, rel=1e-9)
    work_bar = _work_bar(inst)
    for j, x in enumerate(res.x):
        t = inst.task(j)
        assert t.min_time <= x <= t.max_time * (1 + 1e-12)
        w = t.work_of_time(x)
        assert work_bar[j] >= w - 1e-9 * max(1.0, w)


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
