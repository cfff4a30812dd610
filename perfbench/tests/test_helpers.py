"""Tests for the benchmark's own helpers (inputs, statistics, checks)."""

import pytest

from perfbench import common, inputs
from repro.core.instance import Instance
from repro.core.task import MalleableTask
from repro.dag import Dag
from repro.schedule import Schedule, ScheduledTask
from repro.service import ServiceError


def _content(raws):
    return [(r.name, r.m, r.n, r.edges.tolist(), r.times) for r in raws]


def _plan(seed):
    return [
        inputs.plan_instance(seed, ("layered", "chain"), 60, 4, i)
        for i in range(4)
    ]


def test_seeded_inputs_are_deterministic():
    first = _plan(7)
    assert _content(first) == _content(_plan(7))
    assert _content(first) != _content(_plan(8))
    assert [r.name.split("-")[0] for r in first] == [
        "layered", "chain", "layered", "chain"
    ]
    assert inputs.retime_targets(7, 60, 10) == inputs.retime_targets(7, 60, 10)
    assert inputs.request_plan(7, 300, 40, 0.1) == inputs.request_plan(
        7, 300, 40, 0.1
    )
    fam = [inputs.family_instance("erdos_renyi", 30, 4, 5) for _ in range(2)]
    assert _content(fam[:1]) == _content(fam[1:])
    assert inputs.instance_dicts("layered", 20, 4, [3, 4]) == (
        inputs.instance_dicts("layered", 20, 4, [3, 4])
    )


def test_request_plan_mixes_hits_and_numbered_misses():
    plan = inputs.request_plan(1, 2000, 40, 0.1)
    misses = [idx for kind, idx in plan if kind == "miss"]
    assert misses == list(range(len(misses)))
    assert 150 < len(misses) < 250
    assert all(0 <= idx < 40 for kind, idx in plan if kind == "hit")


def test_raw_instance_builds_fresh_objects_with_equal_content():
    raw = inputs.sampled_instance("layered", 50, 4, 3)
    a, b = raw.build(), raw.build()
    assert a is not b and a.dag is not b.dag
    assert a.content_key() == b.content_key()
    assert inputs.raw_of(a).times == raw.times


def test_percentile_is_nearest_rank():
    xs = list(range(100, 0, -1))  # 1..100, unsorted
    assert common.percentile(xs, 90) == 90
    assert common.percentile(xs, 50) == 50
    assert common.percentile(list(range(1, 21)), 50) == 10


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        common.percentile(list(range(1, 100)), 90)  # 9 samples beyond
    with pytest.raises(ValueError):
        common.percentile(list(range(1, 20)), 50)
    with pytest.raises(ValueError):
        common.percentile([1.0] * 50, 100)


def _two_task_chain():
    tasks = [MalleableTask((2.0, 1.5)), MalleableTask((2.0, 1.5))]
    return Instance(tasks, Dag(2, [(0, 1)]), 2)


def _schedule(start_of_second):
    return Schedule(
        2,
        [
            ScheduledTask(task=0, start=0.0, processors=1, duration=2.0),
            ScheduledTask(
                task=1, start=start_of_second, processors=1, duration=2.0
            ),
        ],
    )


def test_check_schedule_accepts_a_feasible_schedule():
    assert common.check_schedule(_two_task_chain(), _schedule(2.0), 3.0, 2.0) == []


def test_check_schedule_flags_a_broken_precedence_arc():
    problems = common.check_schedule(_two_task_chain(), _schedule(1.0), 3.0, None)
    assert problems


def test_check_schedule_flags_makespan_below_lower_bound():
    problems = common.check_schedule(_two_task_chain(), _schedule(2.0), 4.5, None)
    assert any("below the lower bound" in p for p in problems)


def test_check_schedule_flags_makespan_above_ratio_bound():
    problems = common.check_schedule(_two_task_chain(), _schedule(2.0), 1.0, 2.0)
    assert any("exceeds" in p for p in problems)


@pytest.mark.parametrize(
    "status, code",
    [(503, "overloaded"), (504, "deadline_exceeded"), (0, "connection_error")],
)
def test_refused_requests_count_as_failed(status, code):
    def refuse():
        raise ServiceError(status, {"status": "error", "code": code,
                                    "error": "refused"})

    reply, err = common.service_call(refuse)
    assert reply is None and str(status) in err
    tally = common.Tally()
    tally.record("request", [err] if err else [])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_answered_request_counts_as_done():
    reply, err = common.service_call(lambda: {"cached": True})
    assert reply == {"cached": True} and err is None
    tally = common.Tally()
    tally.record("request", [])
    assert (tally.attempted, tally.failed) == (1, 0)


@pytest.mark.parametrize("shape, n", [("layered", 120), ("erdos_renyi", 400)])
def test_frontier_counts_match_the_tracer(shape, n):
    from repro.obs import trace as obs_trace
    from repro.pipeline import SchedulingPipeline

    inst = inputs.sampled_instance(shape, n, 8, 2).build()
    with obs_trace.tracing() as tr:
        rep = SchedulingPipeline("jz", "earliest-start").solve(inst)
    totals = tr.counter_totals()
    assert common.frontier_counts(inst, rep.schedule) == (
        totals["frontier_size_sum"], totals["frontier_peak"]
    )


def test_counter_store_flags_a_mismatch(tmp_path):
    key = "plan-deep-seed1"
    assert common.check_counters(tmp_path, key, "src-a", {"lp.rows": 1}) is None
    assert common.check_counters(tmp_path, key, "src-a", {"lp.rows": 1}) is None
    mismatch = common.check_counters(tmp_path, key, "src-a", {"lp.rows": 2})
    assert mismatch and "lp.rows" in mismatch
    # Another program source records afresh instead of comparing.
    assert common.check_counters(tmp_path, key, "src-b", {"lp.rows": 2}) is None


def test_schedule_digest_depends_on_every_entry():
    a, b = common.ScheduleDigest(), common.ScheduleDigest()
    a.add(_schedule(2.0))
    b.add(_schedule(2.5))
    assert a.hexdigest() != b.hexdigest()
    c = common.ScheduleDigest()
    c.add(_schedule(2.0))
    assert c.hexdigest() == a.hexdigest() and c.count == 1


def test_metrics_block_requires_exactly_the_declared_names():
    declared = {"solve_s": "s", "setup_s": "s"}
    block = common.metrics_block(declared, {"solve_s": 1.5, "setup_s": 0.2})
    assert block["solve_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(RuntimeError):
        common.metrics_block(declared, {"solve_s": 1.5})
    with pytest.raises(RuntimeError):
        common.metrics_block(declared, {"solve_s": 1.5, "setup_s": 1, "x": 2})
