"""Tests for the heavy-path construction (Lemma 4.3 / Fig. 2)."""

import pytest

from repro import Instance, jz_schedule
from repro.core import extract_heavy_path
from repro.dag import chain_dag, diamond_dag, layered_dag
from repro.models import power_law_profile


def make_inst(dag, m, d=0.6):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(10.0 + (j % 4), d, m)
    )


class TestHeavyPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_covers_all_light_slots_on_jz_runs(self, seed):
        m = 8
        inst = make_inst(layered_dag(18, 5, 0.5, seed=seed), m)
        res = jz_schedule(inst)
        hp = extract_heavy_path(inst, res.schedule, res.mu)
        assert hp.covers_all_light_slots, hp

    @pytest.mark.parametrize("seed", range(3))
    def test_path_is_a_directed_path(self, seed):
        m = 6
        inst = make_inst(layered_dag(14, 4, 0.5, seed=seed), m)
        res = jz_schedule(inst)
        hp = extract_heavy_path(inst, res.schedule, res.mu)
        # Consecutive path tasks must be connected by a directed path in
        # the DAG (the construction may hop over transitive predecessors).
        for a, b in zip(hp.tasks, hp.tasks[1:]):
            assert inst.dag.reachable(a, b), (a, b)

    def test_last_task_finishes_at_makespan(self):
        m = 6
        inst = make_inst(layered_dag(14, 4, 0.5, seed=9), m)
        res = jz_schedule(inst)
        hp = extract_heavy_path(inst, res.schedule, res.mu)
        assert res.schedule[hp.tasks[-1]].end == pytest.approx(
            res.makespan
        )

    def test_execution_intervals_are_ordered(self):
        m = 6
        inst = make_inst(layered_dag(14, 4, 0.5, seed=10), m)
        res = jz_schedule(inst)
        hp = extract_heavy_path(inst, res.schedule, res.mu)
        for a, b in zip(hp.tasks, hp.tasks[1:]):
            assert (
                res.schedule[a].end <= res.schedule[b].start + 1e-9
            )

    def test_chain_path_is_whole_chain(self):
        """On a chain every slot is light (1 task runs at a time with
        l <= μ... the whole chain is the heavy path when μ >= 2)."""
        m = 4
        inst = make_inst(chain_dag(4), m)
        res = jz_schedule(inst)
        mu = res.mu
        hp = extract_heavy_path(inst, res.schedule, mu)
        assert len(hp.tasks) == 4

    def test_empty_schedule(self):
        from repro import Dag
        from repro.schedule import Schedule

        inst = Instance([], Dag(0), 4)
        hp = extract_heavy_path(inst, Schedule(4, []), 2)
        assert hp.tasks == ()
        assert hp.covers_all_light_slots

    def test_mu_validation(self):
        inst = make_inst(diamond_dag(3), 4)
        res = jz_schedule(inst)
        with pytest.raises(ValueError):
            extract_heavy_path(inst, res.schedule, 0)

    def test_lemma43_via_heavy_path_lengths(self):
        """The path's light-slot coverage, deflated by the per-task time
        stretch, fits under C* — the quantitative core of Lemma 4.3."""
        m = 8
        inst = make_inst(layered_dag(18, 5, 0.5, seed=11), m)
        res = jz_schedule(inst)
        rho, mu = res.rho, res.mu
        hp = extract_heavy_path(inst, res.schedule, mu)
        stretch = max(2 / (1 + rho), m / mu)
        assert hp.total_t1_t2 / stretch <= res.lower_bound + 1e-6 * (
            1 + res.lower_bound
        )
