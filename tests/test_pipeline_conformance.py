"""Registry conformance suite.

Every registered strategy — current built-ins and anything registered
later — is exercised on one shared pool of generated instances covering
**all** speedup-profile models and several DAG shapes, and must deliver:

* a validator-clean schedule (no overlap, no precedence violation, no
  over-allocation),
* ``makespan >= lower_bound`` (the reported bound is certified),
* honest bookkeeping (canonical names, non-negative stage times).

The JZ composition is additionally pinned bit-identical to the
step-by-step transcription of the paper's algorithm
(:func:`two_phase_reference.jz_reference`) on the whole pool, so the
pipeline can never drift from it.
"""

import pytest
from two_phase_reference import jz_reference

from repro import jz_schedule
from repro.pipeline import SchedulingPipeline, list_strategies
from repro.schedule import validate_schedule
from repro.workloads import MODELS, make_instance

#: ≥3 DAG shapes × all profile models; small sizes keep the LP cheap.
_SHAPES = ("layered", "fork_join", "diamond")
_POOL_SPECS = [
    (family, model, seed)
    for seed, family in enumerate(_SHAPES)
    for model in MODELS
]

_ALLOTMENT_NAMES = [i.name for i in list_strategies("allotment")]
_PHASE2_NAMES = [i.name for i in list_strategies("phase2")]


@pytest.fixture(scope="module")
def pool():
    return [
        make_instance(family, 8, 4, model=model, seed=17 + seed)
        for (family, model, seed) in _POOL_SPECS
    ]


def _check_report(instance, rep):
    problems = validate_schedule(instance, rep.schedule)
    assert problems == [], (
        f"{rep.algorithm}×{rep.priority} on {instance.name}: {problems}"
    )
    assert len(rep.schedule.entries) == instance.n_tasks
    assert rep.lower_bound > 0
    assert rep.makespan >= rep.lower_bound - 1e-9, (
        f"{rep.algorithm}×{rep.priority} on {instance.name}: makespan "
        f"{rep.makespan} below certified bound {rep.lower_bound}"
    )
    if rep.ratio_bound is not None and rep.ratio_bound != float("inf"):
        assert rep.observed_ratio <= rep.ratio_bound + 1e-9
    assert rep.allotment_time >= 0.0 and rep.schedule_time >= 0.0
    assert len(rep.allotment) == instance.n_tasks


class TestConformance:
    @pytest.mark.parametrize("algorithm", _ALLOTMENT_NAMES)
    def test_every_allotment_strategy_on_full_pool(self, algorithm, pool):
        pipe = SchedulingPipeline(algorithm)
        for inst in pool:
            rep = pipe.solve(inst)
            assert rep.algorithm == algorithm
            _check_report(inst, rep)

    @pytest.mark.parametrize("priority", _PHASE2_NAMES)
    def test_every_phase2_strategy_on_full_pool(self, priority, pool):
        # Drive phase-2 rules behind the cheap LP-free allotment so the
        # cross-product stays fast; feasibility must hold regardless of
        # which allotment feeds them.
        pipe = SchedulingPipeline("greedy-critical-path", priority)
        for inst in pool:
            rep = pipe.solve(inst)
            assert rep.priority == priority
            _check_report(inst, rep)

    @pytest.mark.parametrize("priority", _PHASE2_NAMES)
    def test_phase2_strategies_behind_jz(self, priority, pool):
        pipe = SchedulingPipeline("jz", priority)
        for inst in pool[:3]:
            _check_report(inst, pipe.solve(inst))


class TestJZEquivalence:
    def test_bit_identical_to_prerefactor_on_full_pool(self, pool):
        pipe = SchedulingPipeline("jz", "earliest-start")
        for inst in pool:
            ref = jz_reference(inst)
            for rep in (pipe.solve(inst), jz_schedule(inst)):
                assert [
                    (e.task, e.start, e.processors, e.duration)
                    for e in rep.schedule.entries
                ] == [
                    (e.task, e.start, e.processors, e.duration)
                    for e in ref.schedule.entries
                ], f"JZ pipeline diverged from the reference on {inst.name}"
                assert rep.makespan == ref.makespan
                assert rep.lower_bound == ref.lower_bound
                assert rep.ratio_bound == ref.ratio_bound
                assert rep.observed_ratio == ref.observed_ratio
                assert rep.allotment == ref.allotment
                assert (rep.mu, rep.rho) == (ref.mu, ref.rho)
