"""Tests for the baseline schedulers (naive, greedy, LTW, exact B&B)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Instance, assert_feasible, jz_schedule, solve
from repro.baselines import (
    SearchBudgetExceeded,
    greedy_critical_path_allotment,
    ltw_schedule,
    optimal_makespan,
    optimal_schedule,
)
from repro.core import capped_allotment
from repro.dag import (
    FAMILIES,
    chain_dag,
    diamond_dag,
    independent_dag,
    layered_dag,
)
from repro.models import power_law_profile
from repro.theory import ltw_parameters
from repro.workloads import MODELS, make_instance


def make_inst(dag, m, d=0.6, p1=10.0):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(p1, d, m)
    )


def greedy_spec(instance):
    """The greedy-critical-path allotment as first written: a fresh
    bound (both longest-path lengths and the work sum) and a fresh
    critical path per increment, read through the task views."""
    n = instance.n_tasks
    m = instance.m
    alloc = [1] * n

    def bound(a):
        L = instance.critical_path_for_allotment(a)
        W = instance.total_work_for_allotment(a)
        return max(L, W / m)

    current = bound(alloc)
    for _ in range(100000):
        weights = [instance.task(j).time(alloc[j]) for j in range(n)]
        path = instance.dag.longest_path(weights)
        best_j, best_gain = -1, 0.0
        for j in path:
            if alloc[j] >= m:
                continue
            t = instance.task(j)
            dt = t.time(alloc[j]) - t.time(alloc[j] + 1)
            dw = t.work(alloc[j] + 1) - t.work(alloc[j])
            gain = dt / (dw + 1e-12)
            if dt > 0 and gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0:
            break
        alloc[best_j] += 1
        new = bound(alloc)
        if new >= current - 1e-12:
            alloc[best_j] -= 1
            break
        current = new
    return alloc


@given(
    family=st.sampled_from(FAMILIES),
    model=st.sampled_from(MODELS),
    size=st.integers(4, 40),
    m=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_greedy_allotment_matches_spec(family, model, size, m, seed):
    inst = make_instance(family, size, m, model=model, seed=seed)
    assert greedy_critical_path_allotment(inst) == greedy_spec(inst)


class TestNaiveBaselines:
    @pytest.mark.parametrize(
        "algorithm", ["sequential", "full", "greedy-critical-path"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_feasible(self, algorithm, seed):
        inst = make_inst(layered_dag(14, 4, 0.5, seed=seed), 6)
        assert_feasible(inst, solve(inst, algorithm).schedule)

    def test_full_allotment_serializes(self):
        inst = make_inst(independent_dag(3), 4)
        s = solve(inst, "full").schedule
        assert s.makespan == pytest.approx(
            3 * inst.task(0).time(4)
        )

    def test_sequential_wins_on_wide_flat_graphs(self):
        """Many independent tasks, m processors: 1-proc packing is
        (work-)optimal while full allotment serializes."""
        m = 4
        inst = make_inst(independent_dag(8), m, d=0.5)
        seq = solve(inst, "sequential").schedule
        full = solve(inst, "full").schedule
        assert seq.makespan < full.makespan

    def test_full_wins_on_chains(self):
        """On a chain, parallelizing each task is the only speedup."""
        m = 4
        inst = make_inst(chain_dag(5), m, d=0.9)
        seq = solve(inst, "sequential").schedule
        full = solve(inst, "full").schedule
        assert full.makespan < seq.makespan

    def test_greedy_allotment_improves_bound(self):
        m = 8
        inst = make_inst(chain_dag(4), m, d=0.9)
        alloc = greedy_critical_path_allotment(inst)
        assert any(l > 1 for l in alloc)  # it did accelerate something
        base = max(
            inst.critical_path_for_allotment([1] * 4),
            inst.total_work_for_allotment([1] * 4) / m,
        )
        new = max(
            inst.critical_path_for_allotment(alloc),
            inst.total_work_for_allotment(alloc) / m,
        )
        assert new <= base + 1e-9


class TestLTW:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m", [4, 9])
    def test_feasible_and_within_its_bound(self, seed, m):
        inst = make_inst(layered_dag(15, 4, 0.5, seed=seed), m)
        out = ltw_schedule(inst)
        assert_feasible(inst, out.schedule)
        assert out.makespan <= out.ratio_bound * out.lower_bound + 1e-6

    def test_uses_table3_mu(self):
        inst = make_inst(diamond_dag(4), 10)
        out = ltw_schedule(inst)
        assert out.mu == ltw_parameters(10).mu

    def test_jz_bound_beats_ltw_bound_everywhere(self):
        from repro.core import jz_parameters

        for m in range(2, 40):
            assert jz_parameters(m).ratio < ltw_parameters(m).ratio

    def test_allotments_recorded(self):
        inst = make_inst(diamond_dag(4), 8)
        out = ltw_schedule(inst)
        assert len(out.allotment) == inst.n_tasks
        assert out.schedule.allotment(inst.n_tasks) == capped_allotment(
            out.allotment, out.mu
        )
        assert all(e.processors <= out.mu for e in out.schedule.entries)


class TestExactBnB:
    def test_single_task(self):
        inst = make_inst(independent_dag(1), 3, d=0.8)
        # One task alone: run it on all m processors.
        assert optimal_makespan(inst) == pytest.approx(
            inst.task(0).time(3)
        )

    def test_chain_optimum_is_full_speed(self):
        """On a chain the optimum runs every task on all processors."""
        m = 3
        inst = make_inst(chain_dag(3), m, d=0.7)
        assert optimal_makespan(inst) == pytest.approx(
            sum(inst.task(j).time(m) for j in range(3))
        )

    def test_two_independent_tasks_m2(self):
        """Exhaustively checkable: either side-by-side on 1+1 or
        serialized on 2 processors each."""
        m = 2
        inst = make_inst(independent_dag(2), m, d=0.5)
        p1, p2 = inst.task(0).time(1), inst.task(0).time(2)
        # side-by-side: max(p1, p1) = p1; both wide: 2*p2; mixed >= those.
        assert optimal_makespan(inst) == pytest.approx(
            min(p1, 2 * p2), rel=1e-9
        )

    def test_feasible_schedule_returned(self):
        inst = make_inst(diamond_dag(2), 3, d=0.6)
        s = optimal_schedule(inst)
        assert_feasible(inst, s)

    def test_optimal_at_most_heuristics(self):
        inst = make_inst(diamond_dag(3), 3, d=0.6)
        opt = optimal_makespan(inst)
        for s in (
            solve(inst, "sequential").schedule,
            solve(inst, "full").schedule,
            solve(inst, "greedy-critical-path").schedule,
            jz_schedule(inst).schedule,
        ):
            assert opt <= s.makespan + 1e-9

    def test_lp_bound_below_optimal(self):
        from repro.core import solve_allotment_lp

        inst = make_inst(diamond_dag(3), 3, d=0.6)
        assert (
            solve_allotment_lp(inst).objective
            <= optimal_makespan(inst) + 1e-9
        )

    def test_jz_within_proven_ratio_of_true_opt(self):
        """The headline guarantee against the *true* optimum."""
        for seed, d in ((1, 0.4), (2, 0.7), (3, 0.9)):
            inst = make_inst(layered_dag(6, 3, 0.5, seed=seed), 3, d=d)
            res = jz_schedule(inst)
            opt = optimal_makespan(inst)
            assert res.makespan <= res.ratio_bound * opt + 1e-9

    def test_budget_guard(self):
        inst = make_inst(layered_dag(12, 3, 0.5, seed=0), 4)
        with pytest.raises(SearchBudgetExceeded):
            optimal_schedule(inst, max_nodes=50)

    def test_empty_instance(self):
        from repro import Dag

        inst = Instance([], Dag(0), 2)
        assert optimal_makespan(inst) == 0.0
