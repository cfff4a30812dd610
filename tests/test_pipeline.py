"""Tests for the pluggable pipeline (:mod:`repro.pipeline`): registry,
runner, agreement with the step-by-step two-phase references
(:mod:`two_phase_reference`) and the bottom levels the critical-path
rule ranks by."""

import pytest
from two_phase_reference import jz_reference, ltw_reference

from repro import jz_schedule
from repro.baselines import ltw_schedule
from repro.baselines.ltw import LTW_RHO
from repro.core import bsearch_allotment, jz_parameters, list_schedule
from repro.core.list_variants import _bottom_levels_reference, bottom_levels
from repro.pipeline import (
    SchedulingPipeline,
    UnknownStrategyError,
    get_allotment,
    get_phase2,
    list_strategies,
    register_allotment,
    register_phase2,
    solve,
    strategy_names,
)
from repro.pipeline.registry import _REGISTRY
from repro.workloads import make_instance


def _inst(seed=0, family="layered", size=10, m=4, model="power"):
    return make_instance(family, size, m, model=model, seed=seed)


def _entries(schedule):
    return [
        (e.task, e.start, e.processors, e.duration)
        for e in schedule.entries
    ]


class TestRegistry:
    def test_builtins_registered(self):
        allot = strategy_names("allotment")
        phase2 = strategy_names("phase2")
        assert set(allot) >= {
            "jz", "bsearch", "ltw", "greedy-critical-path",
            "sequential", "full",
        }
        assert set(phase2) >= {
            "earliest-start", "critical-path",
            "longest-processing-time", "widest", "fifo",
        }
        # The headline acceptance number: at least 9 strategies total.
        assert len(allot) + len(phase2) >= 9

    def test_list_strategies_all_kinds_sorted(self):
        infos = list_strategies()
        assert [(i.kind, i.name) for i in infos] == sorted(
            (i.kind, i.name) for i in infos
        )
        assert list_strategies("allotment") + list_strategies(
            "phase2"
        ) == infos

    def test_list_strategies_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            list_strategies("nope")

    def test_alias_resolves_to_canonical(self):
        info = get_allotment("greedy")
        assert info.name == "greedy-critical-path"
        assert "greedy" in info.aliases
        # Canonical listing shows the entry once.
        names = [i.name for i in list_strategies("allotment")]
        assert names.count("greedy-critical-path") == 1
        assert "greedy" not in names

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownStrategyError, match="jz"):
            get_allotment("does-not-exist")
        with pytest.raises(UnknownStrategyError, match="earliest-start"):
            get_phase2("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_allotment("jz")(lambda instance, **kw: None)
        with pytest.raises(ValueError, match="already registered"):
            register_phase2("fifo")(lambda instance, allotment, mu=None: 0)

    def test_rejected_registration_leaves_no_residue(self):
        # A collision on the *alias* must not leave the new canonical
        # name half-registered.
        with pytest.raises(ValueError, match="already registered"):
            register_allotment("brand-new", aliases=("jz",))(
                lambda instance, **kw: None
            )
        with pytest.raises(UnknownStrategyError):
            get_allotment("brand-new")

    def test_custom_registration_and_cleanup(self):
        @register_allotment("test-only-ones", summary="test stub")
        def ones(instance, *, rho=None, mu=None):
            from repro.pipeline import AllotmentResult

            return AllotmentResult(allotment=(1,) * instance.n_tasks)

        try:
            rep = solve(_inst(), "test-only-ones")
            assert rep.algorithm == "test-only-ones"
            assert rep.makespan > 0
        finally:
            del _REGISTRY["allotment"]["test-only-ones"]


class TestSchedulingPipeline:
    def test_jz_bit_identical_to_legacy(self):
        inst = _inst(seed=3)
        ref = jz_reference(inst)
        rep = SchedulingPipeline().solve(inst)
        assert _entries(rep.schedule) == _entries(ref.schedule)
        assert rep.makespan == ref.makespan
        assert rep.lower_bound == ref.lower_bound
        assert rep.ratio_bound == ref.ratio_bound
        assert rep.observed_ratio == ref.observed_ratio
        assert rep.allotment == ref.allotment
        assert rep.mu == ref.mu
        assert rep.rho == ref.rho
        facade = jz_schedule(inst)
        assert _entries(facade.schedule) == _entries(ref.schedule)
        assert facade.allotment == ref.allotment

    def test_overrides_match_legacy(self):
        inst = _inst(seed=4, m=8)
        ref = jz_reference(inst, rho=0.3, mu=2)
        for rep in (
            SchedulingPipeline("jz", rho=0.3, mu=2).solve(inst),
            jz_schedule(inst, rho=0.3, mu=2),
        ):
            assert _entries(rep.schedule) == _entries(ref.schedule)
            assert rep.allotment == ref.allotment
            assert rep.rho == 0.3 and rep.mu == 2

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            SchedulingPipeline("jz", rho=1.5).solve(_inst())

    def test_unknown_strategy_fails_before_solving(self):
        with pytest.raises(UnknownStrategyError):
            SchedulingPipeline("nope")
        with pytest.raises(UnknownStrategyError):
            SchedulingPipeline("jz", "nope")

    def test_canonical_names_on_report(self):
        rep = solve(_inst(), "greedy")
        assert rep.algorithm == "greedy-critical-path"

    def test_stage_times_recorded(self):
        rep = solve(_inst())
        assert rep.allotment_time >= 0.0
        assert rep.schedule_time >= 0.0
        assert rep.wall_time == pytest.approx(
            rep.allotment_time + rep.schedule_time
        )

    def test_summary_is_json_friendly(self):
        import json

        rep = solve(_inst(), "sequential")
        text = json.dumps(rep.summary())
        assert "sequential" in text

    def test_trivial_bound_fallback(self):
        inst = _inst(seed=5)
        rep = solve(inst, "sequential")
        assert rep.lower_bound == inst.trivial_lower_bound()
        assert rep.ratio_bound is None
        assert rep.makespan >= rep.lower_bound - 1e-9

    def test_ratio_bound_dropped_for_unanalyzed_priority(self):
        inst = _inst(seed=13)
        assert solve(inst, "jz").ratio_bound is not None
        # The proof of r(m) needs the earliest-start rule; other
        # priorities must not claim it.
        for priority in ("critical-path", "fifo"):
            assert solve(inst, "jz", priority).ratio_bound is None

    def test_repr(self):
        assert "jz" in repr(SchedulingPipeline())


class TestLegacyAgreement:
    def test_ltw_schedule_matches_pipeline(self):
        for inst in (_inst(seed=7), _inst(seed=7, size=16, m=8)):
            ref = ltw_reference(inst)
            for rep in (ltw_schedule(inst), solve(inst, "ltw")):
                assert _entries(rep.schedule) == _entries(ref.schedule)
                assert rep.lower_bound == ref.lower_bound
                assert rep.ratio_bound == ref.ratio_bound
                assert rep.allotment == ref.allotment
                assert rep.mu == ref.mu and rep.rho == LTW_RHO

    def test_bsearch_allotment_matches_pipeline(self):
        inst = _inst(seed=8)
        params = jz_parameters(inst.m)
        report = bsearch_allotment(inst, params.rho)
        sched = list_schedule(inst, report.allotment, mu=params.mu)
        rep = solve(inst, "bsearch")
        assert sched.makespan == rep.makespan
        assert rep.lower_bound == inst.trivial_lower_bound()
        assert report.allotment == rep.allotment
        assert set(rep.metadata) == {"deadline", "objective", "lp_solves"}
        assert rep.metadata["deadline"] == report.deadline
        assert rep.metadata["objective"] == report.objective
        assert rep.metadata["lp_solves"] == report.lp_solves


class TestBottomLevelCache:
    def test_cache_matches_direct_computation(self):
        inst = _inst(seed=10)
        durations = [inst.task(j).time(2) for j in range(inst.n_tasks)]
        assert list(bottom_levels(inst, durations)) == pytest.approx(
            _bottom_levels_reference(inst, durations)
        )

    def test_distinct_durations_distinct_entries(self):
        inst = _inst(seed=11)
        d1 = [inst.task(j).time(1) for j in range(inst.n_tasks)]
        d2 = [inst.task(j).time(inst.m) for j in range(inst.n_tasks)]
        assert bottom_levels(inst, d1) != bottom_levels(inst, d2)

    def test_unweakrefable_object_still_works(self):
        class Fake:
            __slots__ = ("dag", "n_tasks")

        from repro.dag import Dag

        fake = Fake()
        fake.dag = Dag(2, [(0, 1)])
        fake.n_tasks = 2
        levels = bottom_levels(fake, (1.0, 2.0))
        assert levels == (3.0, 2.0)
