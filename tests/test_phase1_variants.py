"""Tests for the binary-search phase-1 variant and LIST priority rules."""

import pytest

from repro import Dag, Instance, assert_feasible, solve
from repro.core import (
    PRIORITY_RULES,
    bsearch_allotment,
    deadline_work_lp,
    jz_parameters,
    list_schedule,
    list_schedule_with_priority,
    solve_allotment_lp,
)
from repro.dag import chain_dag, diamond_dag, layered_dag
from repro.models import power_law_profile


def make_inst(dag, m, d=0.6):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(10.0 + (j % 3), d, m)
    )


class TestDeadlineLp:
    def test_infeasible_deadline(self):
        inst = make_inst(chain_dag(3), 4)
        # Shorter than the all-m critical path: impossible.
        assert deadline_work_lp(inst, inst.min_critical_path() * 0.5) is None
        assert deadline_work_lp(inst, 0.0) is None

    def test_loose_deadline_gives_min_work(self):
        inst = make_inst(diamond_dag(3), 4)
        res = deadline_work_lp(inst, inst.sequential_makespan() * 2)
        # With no pressure, every task runs sequentially (minimum work).
        assert res.total_work == pytest.approx(
            inst.min_total_work(), rel=1e-5
        )

    def test_work_decreases_with_deadline(self):
        inst = make_inst(layered_dag(12, 4, 0.5, seed=1), 6)
        d_tight = inst.min_critical_path() * 1.05
        d_loose = inst.sequential_makespan()
        w_tight = deadline_work_lp(inst, d_tight).total_work
        w_loose = deadline_work_lp(inst, d_loose).total_work
        assert w_loose <= w_tight + 1e-6

    def test_empty_instance_has_zero_work(self):
        inst = Instance([], Dag(0, []), 4)
        res = deadline_work_lp(inst, 1.0)
        assert res.total_work == 0.0 and res.x == ()

    def test_x_within_deadline(self):
        inst = make_inst(diamond_dag(4), 6)
        d = inst.min_critical_path() * 1.2
        res = deadline_work_lp(inst, d)
        weights = res.x
        # The x themselves fit the deadline along every path.
        assert inst.dag.longest_path_length(list(weights)) <= d * (1 + 1e-6)


class TestBsearchAllotment:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_direct_lp_objective(self, seed):
        """The Remark's claim, measured: the binary search converges to
        the same balanced objective as LP (9), using many more solves."""
        inst = make_inst(layered_dag(14, 4, 0.5, seed=seed), 6)
        direct = solve_allotment_lp(inst)
        rho = jz_parameters(6).rho
        rep = bsearch_allotment(inst, rho)
        assert rep.objective == pytest.approx(
            direct.objective, rel=1e-3
        )
        assert rep.lp_solves > 3  # the avoided extra cost is real

    def test_allotment_is_valid(self):
        inst = make_inst(diamond_dag(4), 6)
        rep = bsearch_allotment(inst, 0.26)
        inst.validate_allotment(rep.allotment)

    def test_probes_leave_lp9_untouched(self):
        """The probes read the memoized LP (9) arrays that ``jz`` solves:
        a ``jz`` solve after a ``bsearch`` solve of the same instance
        object equals one made before it, bit for bit."""
        inst = make_inst(layered_dag(16, 4, 0.5, seed=3), 6)
        before = solve(inst, "jz")
        solve(inst, "bsearch")
        after = solve(inst, "jz")
        assert after.allotment == before.allotment
        assert after.lower_bound == before.lower_bound
        assert after.metadata["lp"].x == before.metadata["lp"].x
        assert [
            (e.task, e.start, e.processors, e.duration)
            for e in after.schedule.entries
        ] == [
            (e.task, e.start, e.processors, e.duration)
            for e in before.schedule.entries
        ]

    def test_schedulable_end_to_end(self):
        inst = make_inst(layered_dag(12, 4, 0.5, seed=5), 6)
        params = jz_parameters(6)
        rep = bsearch_allotment(inst, params.rho)
        sched = list_schedule(inst, rep.allotment, mu=params.mu)
        assert_feasible(inst, sched)
        # Same guarantee structure as the direct pipeline (empirically).
        assert sched.makespan <= params.ratio * rep.objective * (1 + 1e-6)


class TestPriorityVariants:
    @pytest.mark.parametrize("priority", PRIORITY_RULES)
    @pytest.mark.parametrize("seed", range(3))
    def test_all_rules_feasible(self, priority, seed):
        inst = make_inst(layered_dag(15, 4, 0.5, seed=seed), 6)
        sched = list_schedule_with_priority(
            inst, [2] * 15, mu=3, priority=priority
        )
        assert_feasible(inst, sched)

    def test_earliest_start_delegates_to_paper_list(self):
        inst = make_inst(layered_dag(12, 4, 0.5, seed=7), 6)
        a = list_schedule_with_priority(
            inst, [2] * 12, mu=3, priority="earliest-start"
        )
        b = list_schedule(inst, [2] * 12, mu=3)
        assert [(e.task, e.start) for e in a.entries] == [
            (e.task, e.start) for e in b.entries
        ]

    def test_unknown_rule(self):
        inst = make_inst(diamond_dag(3), 4)
        with pytest.raises(ValueError):
            list_schedule_with_priority(inst, [1] * 5, priority="magic")

    def test_critical_path_rule_prefers_long_chains(self):
        """A long chain plus many short independent tasks: CP priority
        starts the chain head first."""
        # Tasks 0->1->2 (chain), tasks 3..6 independent.
        dag = Dag(7, [(0, 1), (1, 2)])
        inst = make_inst(dag, 2, d=0.5)
        sched = list_schedule_with_priority(
            inst, [1] * 7, mu=1, priority="critical-path"
        )
        assert sched[0].start == 0.0

    def test_rules_can_differ(self):
        """On a contended instance at least two rules produce different
        schedules (otherwise the ablation is vacuous)."""
        inst = make_inst(layered_dag(18, 3, 0.6, seed=9), 4)
        makespans = {
            p: list_schedule_with_priority(
                inst, [2] * 18, mu=2, priority=p
            ).makespan
            for p in PRIORITY_RULES
        }
        assert len(set(round(v, 9) for v in makespans.values())) >= 2
