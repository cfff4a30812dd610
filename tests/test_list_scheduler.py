"""Tests for LIST (Table 1), the μ cap and resuming an earlier run."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dag, Instance, MalleableTask, assert_feasible
from repro.core import capped_allotment, list_schedule
from repro.core.list_scheduler import list_run, list_schedule_reference
from repro.dag import (
    FAMILIES,
    chain_dag,
    diamond_dag,
    independent_dag,
    layered_dag,
    random_family,
)
from repro.models import power_law_profile
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.schedule import busy_profile
from repro.workloads import MODELS, make_tasks_for_dag


def make_inst(dag, m, d=0.5, p1=10.0):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(p1, d, m)
    )


class TestCappedAllotment:
    def test_caps(self):
        assert capped_allotment([1, 4, 8], 3) == [1, 3, 3]

    def test_identity_when_mu_large(self):
        assert capped_allotment([1, 2, 3], 10) == [1, 2, 3]

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            capped_allotment([1], 0)


class TestListScheduleBasics:
    def test_chain_is_sequential(self):
        m = 4
        inst = make_inst(chain_dag(3), m)
        s = list_schedule(inst, [m] * 3)
        assert_feasible(inst, s)
        # On a chain, each task starts exactly when the previous ends.
        assert s[1].start == pytest.approx(s[0].end)
        assert s[2].start == pytest.approx(s[1].end)
        assert s.makespan == pytest.approx(
            sum(inst.task(j).time(m) for j in range(3))
        )

    def test_independent_tasks_packed(self):
        m = 4
        inst = make_inst(independent_dag(4), m)
        s = list_schedule(inst, [1] * 4)
        assert_feasible(inst, s)
        # All four fit side by side.
        assert s.makespan == pytest.approx(inst.task(0).time(1))

    def test_diamond(self):
        m = 2
        inst = make_inst(diamond_dag(2), m)
        s = list_schedule(inst, [1] * 4)
        assert_feasible(inst, s)
        # source, two parallel, sink
        assert s.makespan == pytest.approx(3 * inst.task(0).time(1))

    def test_mu_cap_applied(self):
        m = 8
        inst = make_inst(independent_dag(3), m)
        s = list_schedule(inst, [8, 8, 8], mu=2)
        for e in s.entries:
            assert e.processors == 2

    def test_mu_none_means_no_cap(self):
        m = 4
        inst = make_inst(independent_dag(1), m)
        s = list_schedule(inst, [4], mu=None)
        assert s[0].processors == 4

    def test_invalid_allotment(self):
        inst = make_inst(chain_dag(2), 4)
        with pytest.raises(ValueError):
            list_schedule(inst, [0, 1])
        with pytest.raises(ValueError):
            list_schedule(inst, [1])
        with pytest.raises(ValueError):
            list_schedule(inst, [1, 5])

    def test_invalid_mu(self):
        inst = make_inst(chain_dag(2), 4)
        with pytest.raises(ValueError):
            list_schedule(inst, [1, 1], mu=5)

    def test_empty_instance(self):
        inst = Instance([], Dag(0), 3)
        s = list_schedule(inst, [])
        assert s.makespan == 0.0


class TestListScheduleProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_on_random_dags(self, seed):
        m = 6
        dag = layered_dag(18, 5, 0.4, seed=seed)
        inst = make_inst(dag, m, d=0.6)
        import random

        rng = random.Random(seed)
        alloc = [rng.randint(1, m) for _ in range(18)]
        s = list_schedule(inst, alloc, mu=3)
        assert_feasible(inst, s)

    def test_no_unnecessary_idle_at_time_zero(self):
        """LIST is greedy: some source task starts at time 0."""
        m = 4
        dag = layered_dag(12, 4, 0.5, seed=2)
        inst = make_inst(dag, m)
        s = list_schedule(inst, [2] * 12, mu=2)
        assert min(e.start for e in s.entries) == 0.0

    def test_graham_bound_for_unit_allotment(self):
        """Classic Graham bound: Cmax <= W/m + L for l_j = 1."""
        m = 4
        dag = layered_dag(20, 5, 0.5, seed=3)
        inst = make_inst(dag, m)
        s = list_schedule(inst, [1] * 20)
        W = inst.total_work_for_allotment([1] * 20)
        L = inst.critical_path_for_allotment([1] * 20)
        assert s.makespan <= W / m + L + 1e-6

    def test_machine_never_fully_idle_before_makespan(self):
        """List schedules never have an interval with zero busy processors
        strictly inside [0, makespan) (some ready task would have run)."""
        m = 4
        dag = layered_dag(15, 4, 0.6, seed=4)
        inst = make_inst(dag, m)
        s = list_schedule(inst, [2] * 15, mu=2)
        prof = busy_profile(s)
        for k, (t, busy) in enumerate(prof):
            end = prof[k + 1][0] if k + 1 < len(prof) else s.makespan
            if end - t > 1e-9 and t < s.makespan - 1e-9:
                assert busy > 0, f"idle interval [{t}, {end})"

    def test_deterministic(self):
        m = 4
        dag = layered_dag(15, 4, 0.6, seed=5)
        inst = make_inst(dag, m)
        a = list_schedule(inst, [2] * 15, mu=2)
        b = list_schedule(inst, [2] * 15, mu=2)
        assert [
            (e.task, e.start, e.processors) for e in a.entries
        ] == [(e.task, e.start, e.processors) for e in b.entries]


# ---------------------------------------------------------------------------
# resuming an earlier run
# ---------------------------------------------------------------------------


def _entries(schedule):
    return [
        (e.task, e.start, e.processors, e.duration) for e in schedule.entries
    ]


def _resume_instance(shape, seed):
    """A random layered instance of ``shape``: ``"tiny"`` (below 64
    tasks), ``"deep"`` (256–320 tasks in 25 levels, mean level width
    below 13) or ``"wide"`` (290–320 tasks in 3 levels)."""
    rng = random.Random(seed)
    m = rng.choice([2, 4, 8])
    if shape == "tiny":
        n = rng.randint(2, 63)
        dag = layered_dag(n, rng.randint(1, max(1, n // 3)), 0.4, seed=seed)
    elif shape == "deep":
        dag = layered_dag(rng.randint(256, 320), 25, 0.15, seed=seed)
    else:
        dag = layered_dag(rng.randint(290, 320), 3, 0.03, seed=seed)
    model = rng.choice(["power", "amdahl", "log"])
    return Instance(make_tasks_for_dag(dag, m, model=model, seed=seed), dag, m)


def _expected_reuse(parent, alloc, mu, order, child, alloc2, mu2):
    """``k*`` from its definition: the earliest step at which a task
    whose capped allotment or duration changed becomes ready."""
    def placed(inst, a, cap):
        cap = inst.m if cap is None else cap
        lj = [min(x, cap) for x in a]
        return lj, [inst.task(j).time(lj[j]) for j in range(inst.n_tasks)]

    (l1, p1), (l2, p2) = placed(parent, alloc, mu), placed(child, alloc2, mu2)
    pos = {j: i for i, j in enumerate(order)}
    return min(
        (
            max((pos[q] + 1 for q in child.dag.predecessors(j)), default=0)
            for j in range(child.n_tasks)
            if (l1[j], p1[j]) != (l2[j], p2[j])
        ),
        default=child.n_tasks,
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from(["tiny", "deep", "wide"]),
    st.sampled_from(["retime", "allotment", "mu", "none"]),
    st.integers(0, 2**16),
    st.integers(1, 3),
)
def test_resumed_run_equals_full_run_and_reference(shape, change, seed, k):
    """Property: a run resumed from an earlier run's record equals a
    from-scratch run and the Table 1 reference entry for entry, and
    replays exactly ``k*`` steps."""
    rng = random.Random(seed)
    parent = _resume_instance(shape, seed)
    n, m = parent.n_tasks, parent.m
    alloc = [rng.randint(1, m) for _ in range(n)]
    mu = rng.choice([None, (m + 1) // 2])
    before = list_run(parent, alloc, mu=mu)
    child, alloc2, mu2 = parent, list(alloc), mu
    # Changing a source replays nothing; change tasks with predecessors.
    inner = [j for j in range(n) if parent.dag.in_degree(j)] or [0]
    touched = rng.sample(inner, min(k, len(inner)))
    if change == "retime":
        evolution = parent.evolve()
        factor = rng.uniform(0.5, 2.0)
        for j in touched:
            evolution.retime(j, [factor * t for t in parent.task(j).times])
        child, _ = evolution.commit()
        assert child.dag is parent.dag
    elif change == "allotment":
        for j in touched:
            alloc2[j] = rng.randint(1, m)
    elif change == "mu":
        mu2 = m if mu is not None else max(1, m // 2)

    resumed = list_run(child, alloc2, mu=mu2, previous=before)
    fresh = list_run(child, alloc2, mu=mu2)
    assert _entries(resumed.schedule) == _entries(fresh.schedule)
    assert _entries(resumed.schedule) == _entries(
        list_schedule_reference(child, alloc2, mu=mu2)
    )
    assert resumed.order.tolist() == fresh.order.tolist()
    assert fresh.reused == 0
    assert resumed.reused == _expected_reuse(
        parent, alloc, mu, before.order.tolist(), child, alloc2, mu2
    )
    if change == "none":
        assert resumed.reused == n


def test_resume_needs_the_same_dag_object_and_machine():
    dag = layered_dag(30, 5, 0.4, seed=1)
    inst = make_inst(dag, 4)
    before = list_run(inst, [2] * 30)
    same = list_run(inst, [2] * 30, previous=before)
    assert same.reused == 30
    copy = Instance(list(inst.tasks), layered_dag(30, 5, 0.4, seed=1), 4)
    assert copy.dag == dag and copy.dag is not dag
    assert list_run(copy, [2] * 30, previous=before).reused == 0
    wider = Instance(
        [MalleableTask(list(t.times) + [t.times[-1]]) for t in inst.tasks],
        dag,
        5,
    )
    assert list_run(wider, [2] * 30, previous=before).reused == 0


def test_counters_split_decided_and_replayed_steps():
    """``/metrics`` and an armed tracer count the steps a resumed run
    decided and the steps it replayed; the two add up to ``n``."""
    inst = make_inst(layered_dag(40, 8, 0.4, seed=3), 4)
    before = list_run(inst, [2] * 40)
    j = max(v for v in range(40) if inst.dag.in_degree(v))
    child, _ = inst.evolve().retime(
        j, [2.0 * t for t in inst.task(j).times]
    ).commit()
    state = REGISTRY.counter_state()
    with obs_trace.tracing() as tracer:
        run = list_run(child, [2] * 40, previous=before)
    assert 0 < run.reused < 40
    delta = REGISTRY.counters_since(state)
    assert delta[
        ("repro_solver_frontier_steps_total", (("tier", "array"),))
    ] == 40 - run.reused
    assert delta[("repro_solver_list_steps_reused_total", ())] == run.reused
    totals = tracer.counter_totals()
    assert totals["frontier_steps"] == 40 - run.reused
    assert totals["list_steps_reused"] == run.reused
    # Every decided task's start is evaluated at least once.
    assert totals["timeline_refreshes"] >= 40 - run.reused


def test_resume_keeps_the_pick_order_on_a_near_tie():
    """A (task 1) and B (task 2) are ready together with starts 1e-13
    apart, inside the selection tolerance: LIST picks the lower id, A,
    although B starts earlier, so the pick order differs from the
    ``(start, task)`` order of ``Schedule.entries``.  Retiming A, the
    earlier pick, and then its successor C must replay exactly the steps
    taken before each becomes ready."""
    q = 1.0 - 1e-13

    def task(t):
        return MalleableTask([t, 0.6 * t])

    # ids: P=0, A=1 (after P), B=2 (after Q), Q=3, C=4 (after A)
    inst = Instance(
        [task(1.0), task(0.5), task(0.5), task(q), task(0.5)],
        Dag(5, [(0, 1), (3, 2), (1, 4)]),
        2,
    )
    alloc = [1] * 5

    def run(instance, previous=None):
        return list_run(instance, alloc, previous=previous)

    first = run(inst)
    assert first.order.tolist() == [0, 3, 1, 2, 4]
    assert [e.task for e in first.schedule.entries] == [0, 3, 2, 1, 4]

    retimed, _ = inst.evolve().retime(1, [0.7, 0.42]).commit()
    second = run(retimed, first)
    assert second.reused == 1  # A is ready after P, the first pick
    assert second.order.tolist() == [0, 3, 1, 2, 4]
    assert _entries(second.schedule) == _entries(
        list_schedule_reference(retimed, alloc)
    )

    again, _ = retimed.evolve().retime(4, [0.8, 0.48]).commit()
    third = run(again, second)
    # C is ready after A, the third pick: the replayed prefix is P, Q, A
    # — not P, Q, B, the first three entries by (start, task).
    assert third.reused == 3
    assert _entries(third.schedule) == _entries(
        list_schedule_reference(again, alloc)
    )


# ---------------------------------------------------------------------------
# the kernel: LIST on the free-processor staircase
# ---------------------------------------------------------------------------

#: lcm(1..8): ``c * _LCM // min(l, k)`` is an integral profile with
#: linear speed-up up to ``k`` processors and none beyond, so its work
#: never falls.
_LCM = 840


def _integral_instance(dag, m, rng):
    """Integer-valued times: many starts tie exactly."""
    tasks = []
    for _ in range(dag.n_nodes):
        c, k = rng.randint(1, 9), rng.randint(1, min(m, 8))
        tasks.append(
            MalleableTask([c * _LCM // min(l, k) for l in range(1, m + 1)])
        )
    return Instance(tasks, dag, m)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.sampled_from(MODELS + ("integral",)),
    st.integers(1, 32),
    st.integers(2, 40),
    st.integers(0, 2**16),
)
def test_staircase_equals_reference(family, model, m, size, seed):
    """Property: the staircase equals the Table 1 reference entry for
    entry, on a cold run and on a run resumed from the record of a
    retimed parent's run."""
    rng = random.Random(seed)
    dag = random_family(family, size, seed=seed)
    n = dag.n_nodes
    if model == "integral":
        inst = _integral_instance(dag, m, rng)
    else:
        inst = Instance(
            make_tasks_for_dag(dag, m, model=model, seed=seed), dag, m
        )
    alloc = [rng.randint(1, m) for _ in range(n)]
    mu = rng.choice([None, 1, (m + 1) // 2, rng.randint(1, m)])

    cold = list_run(inst, alloc, mu)
    assert _entries(cold.schedule) == _entries(
        list_schedule_reference(inst, alloc, mu=mu)
    )
    inner = [j for j in range(n) if dag.in_degree(j)]
    if not inner:
        return
    j = rng.choice(inner)
    factor = rng.choice([0.5, 2.0, 3.0])
    child, _ = inst.evolve().retime(
        j, [factor * t for t in inst.task(j).times]
    ).commit()
    resumed = list_run(child, alloc, mu, previous=cold)
    assert resumed.reused > 0
    assert _entries(resumed.schedule) == _entries(
        list_schedule_reference(child, alloc, mu=mu)
    )
    assert resumed.order.tolist() == list_run(child, alloc, mu).order.tolist()


def _unit_instance(times, arcs, m):
    """Tasks given by their one-processor time ``t`` on ``m``
    processors; every allotment below is 1."""
    return Instance(
        [MalleableTask([t] + [0.6 * t] * (m - 1)) for t in times],
        Dag(len(times), arcs),
        m,
    )


def test_near_tie_among_pending_ready_times():
    """X (task 0) and Y (task 1) become ready 5e-13 apart, after Q and
    P, while a third processor is idle: both wait on their ready times,
    not on the staircase.  LIST picks X, the lower id, although Y is
    ready a hair earlier; the tie sits inside one demand's pending
    heap."""
    d = 1.0 + 5e-13
    # ids: X=0 (after Q), Y=1 (after P), P=2, Q=3
    inst = _unit_instance([0.5, 0.5, 1.0, d], [(3, 0), (2, 1)], 3)
    alloc = [1] * 4
    run = list_run(inst, alloc)
    assert run.order.tolist() == [2, 3, 0, 1]
    assert _entries(run.schedule) == _entries(
        list_schedule_reference(inst, alloc)
    )
    assert run.schedule[1].start < run.schedule[0].start


def test_near_tie_pick_leaves_a_start_below_the_last_pick():
    """X (task 0, ready at 1) and Y (task 1, ready 1e-13 earlier) tie
    within the tolerance on two processors; LIST picks X, and Y, which
    still fits before X's start, then starts below it: its start is not
    on the staircase of X's pick."""
    q = 1.0 - 1e-13
    # ids: X=0 (after P), Y=1 (after Q), P=2, Q=3
    inst = _unit_instance([0.5, 0.5, 1.0, q], [(2, 0), (3, 1)], 2)
    alloc = [1] * 4
    run = list_run(inst, alloc)
    assert run.order.tolist() == [2, 3, 0, 1]
    assert run.schedule[1].start == q < run.schedule[0].start
    assert _entries(run.schedule) == _entries(
        list_schedule_reference(inst, alloc)
    )


def test_successor_ready_below_the_last_pick():
    """As above, and Y lasts 1e-14, below the tolerance: its successor
    Z (task 4) is ready before X's start and starts there, below the
    latest pick start, although Y itself was picked from below it."""
    q = 1.0 - 1e-13
    # ids: X=0 (after P), Y=1 (after Q), P=2, Q=3, Z=4 (after Y)
    inst = _unit_instance(
        [0.5, 1e-14, 1.0, q, 0.5], [(2, 0), (3, 1), (1, 4)], 2
    )
    alloc = [1] * 5
    run = list_run(inst, alloc)
    assert run.order.tolist() == [2, 3, 0, 1, 4]
    assert run.schedule[4].start == run.schedule[1].end
    assert run.schedule[4].start < run.schedule[0].start
    assert _entries(run.schedule) == _entries(
        list_schedule_reference(inst, alloc)
    )


def test_staircase_counts_at_most_mu_evaluations_per_step():
    """``timeline_refreshes`` counts one evaluation per demand swept per
    decided step: at least one, at most ``μ``, with no near-tie to fall
    back on."""
    dag = layered_dag(320, 3, 0.03, seed=5)
    inst = Instance(make_tasks_for_dag(dag, 8, seed=5), dag, 8)
    rng = random.Random(5)
    alloc = [rng.randint(1, 8) for _ in range(inst.n_tasks)]
    with obs_trace.tracing() as tracer:
        list_schedule(inst, alloc, mu=3)
    totals = tracer.counter_totals()
    steps = totals["frontier_steps"]
    assert steps == inst.n_tasks
    assert steps <= totals["timeline_refreshes"] <= 3 * steps
