"""Tests for delta re-solves and replanning.

Covers :mod:`repro.pipeline.incremental` (the warm-LP session),
:mod:`repro.schedule.replan` (schedule diffing + anchored scheduling),
the service's ``/evolve``/``/replan`` endpoints and the ``repro
evolve`` CLI.  The central contract: the warm path is an *optimization
only* — every delta re-solve must land on the same allotment and
makespan as a cold pipeline solve of the evolved instance.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy._core import HighsPresolveStatus

from repro import Instance, MalleableTask
from repro.cli import main
from repro.core.evolve import evolve
from repro.core.lp import AllotmentArrays, assemble_allotment_arrays
from repro.dag import Dag, erdos_renyi_dag, layered_dag
from repro.io import save_instance, schedule_from_dict
from repro.lpsolve.scipy_backend import HighsModel
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.pipeline import ReplanSession, SchedulingPipeline
from repro.schedule import (
    FrozenStartConflict,
    Schedule,
    ScheduledTask,
    diff_schedules,
    replan_schedule,
    validate_schedule,
)
from repro.service import ServiceClient, serve_in_thread
from repro.workloads import make_instance, make_tasks_for_dag


def _inst(seed=0, size=12, m=4):
    return make_instance("layered", size, m, model="power", seed=seed)


def _scaled_times(inst, j, factor=1.5):
    return [factor * t for t in inst.task(j).times]


def _retime_ops(inst, tasks, factor=1.4):
    return [
        {"op": "retime", "task": j, "times": _scaled_times(inst, j, factor)}
        for j in tasks
    ]


# ---------------------------------------------------------------------------
# diff_schedules
# ---------------------------------------------------------------------------


class TestDiffSchedules:
    def _sched(self, entries, m=2):
        return Schedule(
            m,
            [
                ScheduledTask(
                    task=t, start=s, processors=p, duration=d
                )
                for (t, s, p, d) in entries
            ],
        )

    def test_identical_schedules_diff_empty(self):
        s = self._sched([(0, 0.0, 1, 2.0), (1, 2.0, 2, 1.0)])
        d = diff_schedules(s, s)
        assert d.n_disturbed == 0
        assert d.n_unchanged == 2
        assert d.total_shift == 0.0
        assert not d.moved and not d.resized

    def test_moved_and_resized(self):
        old = self._sched([(0, 0.0, 1, 2.0), (1, 2.0, 2, 1.0)])
        new = self._sched([(0, 0.5, 1, 2.0), (1, 2.0, 1, 2.0)])
        d = diff_schedules(old, new)
        assert d.moved == ((0, 0.0, 0.5),)
        assert d.resized == ((1, 2, 1),)
        assert d.n_disturbed == 2
        assert d.max_shift == 0.5

    def test_node_map_removal_and_addition(self):
        old = self._sched([(0, 0.0, 1, 2.0), (1, 2.0, 2, 1.0)])
        # Task 0 removed; old task 1 is new task 0; task 1 is brand new.
        new = self._sched([(0, 2.0, 2, 1.0), (1, 3.0, 1, 1.0)])
        d = diff_schedules(old, new, node_map=(-1, 0))
        assert d.removed == (0,)
        assert d.added == (1,)
        assert d.n_unchanged == 1
        assert d.n_disturbed == 0

    def test_summary_shape(self):
        old = self._sched([(0, 0.0, 1, 2.0)])
        new = self._sched([(0, 1.0, 2, 1.5)])
        s = json.loads(json.dumps(diff_schedules(old, new).summary()))
        assert s["n_disturbed"] == 1
        assert s["moved"][0]["task"] == 0
        assert s["resized"][0]["new_processors"] == 2


# ---------------------------------------------------------------------------
# anchored replanning
# ---------------------------------------------------------------------------


class TestReplanSchedule:
    def test_noop_replan_reproduces_schedule(self):
        inst = _inst()
        report = SchedulingPipeline("jz", "earliest-start").solve(inst)
        sched = replan_schedule(
            inst, report.allotment, report.schedule, mu=report.mu
        )
        validate_schedule(inst, sched)
        d = diff_schedules(report.schedule, sched)
        assert d.n_disturbed == 0

    def test_completed_task_frozen(self):
        inst = _inst()
        report = SchedulingPipeline("jz", "earliest-start").solve(inst)
        entry = max(report.schedule.entries, key=lambda e: e.start)
        child, delta = (
            inst.evolve().mark_completed(entry.task, entry.start).commit()
        )
        sched = replan_schedule(
            child,
            report.allotment,
            report.schedule,
            node_map=delta.node_map,
            completed=delta.completed,
            mu=report.mu,
        )
        validate_schedule(child, sched)
        got = next(e for e in sched.entries if e.task == entry.task)
        assert got.start == entry.start
        assert got.processors == entry.processors

    def test_removal_keeps_unrelated_tasks_in_place(self):
        inst = _inst(seed=3, size=20)
        report = SchedulingPipeline("jz", "earliest-start").solve(inst)
        # Drop a sink: nothing depends on it, so anchored replanning
        # should keep every surviving task exactly where it was.
        sink = inst.dag.sinks()[0]
        child, delta = inst.evolve().remove_task(sink).commit()
        allot = tuple(
            a
            for j, a in enumerate(report.allotment)
            if j != sink
        )
        sched = replan_schedule(
            child,
            allot,
            report.schedule,
            node_map=delta.node_map,
            mu=report.mu,
        )
        validate_schedule(child, sched)
        d = diff_schedules(report.schedule, sched, node_map=delta.node_map)
        assert d.removed == (sink,)
        assert d.n_disturbed == 0

    def test_invalid_completed_id_rejected(self):
        inst = _inst()
        report = SchedulingPipeline("jz", "earliest-start").solve(inst)
        with pytest.raises(ValueError, match="completed"):
            replan_schedule(
                inst,
                report.allotment,
                report.schedule,
                completed={inst.n_tasks: 0.0},
            )


#: Completes task 2 of ``make_instance("chain", 5, 4, seed=1)`` at 0.0,
#: while its predecessor 1 completes at 17.385 in every schedule.
_FROZEN_TOO_EARLY = [{"op": "complete", "task": 2, "start": 0.0}]


def _chain():
    return make_instance("chain", 5, 4, seed=1)


#: The validator's violation for it, which the refusal carries.
_PRECEDENCE_1_2 = "precedence (1, 2) violated: task 2 starts at 0.0 before task 1"


class TestRefusedAnchors:
    """Frozen starts that the anchored schedule cannot keep are refused
    with :class:`FrozenStartConflict` (a :class:`ValueError`), never
    returned infeasible."""

    def test_frozen_before_its_predecessor_raises(self):
        inst = _chain()
        report = SchedulingPipeline("jz", "earliest-start").solve(inst)
        child, delta = evolve(inst, _FROZEN_TOO_EARLY)
        with pytest.raises(FrozenStartConflict) as err:
            replan_schedule(
                child,
                report.allotment,
                report.schedule,
                node_map=delta.node_map,
                completed=delta.completed,
                mu=report.mu,
            )
        assert isinstance(err.value, ValueError)
        assert str(err.value).startswith(_PRECEDENCE_1_2)

    def test_frozen_over_capacity_names_the_task(self):
        inst = make_instance("erdos_renyi", 12, 4, seed=3)
        report = SchedulingPipeline("jz", "earliest-start").solve(inst)
        ops = [{"op": "complete", "task": j, "start": 0.0} for j in range(6)]
        child, delta = evolve(inst, ops)
        with pytest.raises(
            FrozenStartConflict,
            match=r"completed task \d+ frozen at 0\.0: capacity exceeded",
        ):
            replan_schedule(
                child,
                report.allotment,
                report.schedule,
                node_map=delta.node_map,
                completed=delta.completed,
                mu=report.mu,
            )

    def test_session_keeps_the_free_round(self):
        """The refused round leaves the session at the child with the
        free re-solve's round, as ``replan=False`` would, and the
        session goes on from there."""
        inst = _chain()
        session = ReplanSession(inst)
        session.solve()
        with pytest.raises(FrozenStartConflict, match=r"precedence \(1, 2\)"):
            session.apply(_FROZEN_TOO_EARLY, replan=True)
        free = ReplanSession(inst)
        free.solve()
        expected = free.apply(_FROZEN_TOO_EARLY).report
        assert session.instance.content_key() == free.instance.content_key()
        assert session.report.allotment == expected.allotment
        assert session.report.schedule.entries == expected.schedule.entries
        assert validate_schedule(session.instance, session.report.schedule) == []
        nxt = session.apply(_retime_ops(session.instance, [4]), replan=True)
        assert nxt.mode == "anchored"
        assert validate_schedule(session.instance, nxt.report.schedule) == []

    def test_cli_exits_1_and_writes_no_schedule(self, tmp_path, capsys):
        inst_path, ops_path = tmp_path / "inst.json", tmp_path / "ops.json"
        save_instance(_chain(), inst_path)
        ops_path.write_text(json.dumps(_FROZEN_TOO_EARLY))
        out = tmp_path / "rs.json"
        rc = main([
            "evolve", str(inst_path), "--ops", str(ops_path), "--replan",
            "--anchored", "--schedule-out", str(out),
        ])
        assert rc == 1
        assert _PRECEDENCE_1_2 in capsys.readouterr().err
        assert not out.exists()


_OP_FAMILIES = ["layered", "erdos_renyi", "chain", "fork_join", "diamond"]


@given(
    family=st.sampled_from(_OP_FAMILIES),
    n=st.sampled_from([6, 10, 20]),
    m=st.sampled_from([2, 4]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_anchored_replan_is_feasible_or_refused(family, n, m, seed, data):
    """Random evolutions that complete tasks at their own old starts,
    mixed with retimes and added tasks: the anchored replan returns a
    validator-clean schedule or refuses the frozen starts with
    :class:`FrozenStartConflict`; no other error escapes."""
    inst = make_instance(family, n, m, seed=seed)
    session = ReplanSession(inst)
    old = session.solve().schedule
    tasks = st.sampled_from(range(inst.n_tasks))
    done = data.draw(st.lists(tasks, min_size=1, max_size=3, unique=True))
    ops = [{"op": "complete", "task": j, "start": old[j].start} for j in done]
    for j in data.draw(st.lists(tasks, max_size=2, unique=True)):
        factor = data.draw(st.sampled_from([0.5, 1.6]))
        ops.append(
            {"op": "retime", "task": j, "times": _scaled_times(inst, j, factor)}
        )
    if data.draw(st.booleans()):
        ops.append({
            "op": "add_task",
            "times": list(inst.times[data.draw(tasks)]),
            "predecessors": data.draw(st.lists(tasks, max_size=2, unique=True)),
            "successors": data.draw(st.lists(tasks, max_size=1, unique=True)),
        })
    try:
        child, delta = evolve(inst, ops)
    except ValueError:  # an added task closed a cycle
        return
    try:
        result = session.resolve_delta(child, delta, replan=True)
    except FrozenStartConflict as exc:
        assert re.match(
            r"completed task \d+ frozen at .*: capacity exceeded"
            r"|precedence \(\d+, \d+\) violated",
            str(exc),
        ), exc
        return
    assert validate_schedule(child, result.report.schedule) == []


# ---------------------------------------------------------------------------
# ReplanSession
# ---------------------------------------------------------------------------


class TestReplanSession:
    def test_cold_solve_matches_pipeline(self):
        inst = _inst()
        ref = SchedulingPipeline("jz", "earliest-start").solve(inst)
        session = ReplanSession(inst)
        report = session.solve()
        assert report.makespan == ref.makespan
        assert report.lower_bound == ref.lower_bound
        assert report.allotment == ref.allotment

    def test_warm_delta_matches_cold(self):
        inst = _inst(seed=1, size=16)
        session = ReplanSession(inst)
        session.solve()
        child, delta = evolve(inst, _retime_ops(inst, [2, 5]))
        result = session.resolve_delta(child, delta)
        assert result.mode == "warm"
        assert result.lp_edits > 0
        cold = SchedulingPipeline("jz", "earliest-start").solve(child)
        assert result.report.allotment == cold.allotment
        assert result.report.makespan == cold.makespan
        validate_schedule(child, result.report.schedule)
        assert result.disturbance is not None

    def test_traced_warm_retime_opens_one_lp_solve_span(self):
        """A warm round's HiGHS run is one ``lp.solve`` span (``warm``)
        holding every pivot of the round, as the metric counts them."""
        inst = _inst(seed=4, size=60)
        session = ReplanSession(inst)
        session.solve()
        before = REGISTRY.counter_state()
        with obs_trace.tracing() as tracer:
            result = session.apply(_retime_ops(inst, [1, 10], 2.5))
        assert result.mode == "warm"
        pivots = REGISTRY.counters_since(before)[
            ("repro_solver_lp_pivots_total", ())
        ]
        assert pivots > 0
        (span,) = [s for s in tracer.spans() if s.name == "lp.solve"]
        arrays = assemble_allotment_arrays(session.instance)
        assert span.args == {
            "rows": len(arrays.b_ub), "nnz": len(arrays.vals), "warm": True,
        }
        assert span.counters == {"lp_pivots": pivots, "warm_starts": 1}
        assert tracer.counter_totals()["lp_pivots"] == pivots

    def test_only_fresh_models_build_the_start_basis(self, monkeypatch):
        """The cold round builds LP (9)'s start basis once, a warm retime
        builds none (the model keeps its own optimal basis), a
        structural delta's fresh model builds it again, and no round
        presolves."""
        built, models = [], []
        start_basis = AllotmentArrays.start_basis
        init = HighsModel.__init__

        def counted(arrays):
            built.append(arrays)
            return start_basis(arrays)

        def kept(model, arrays):
            init(model, arrays)
            models.append(model)

        monkeypatch.setattr(AllotmentArrays, "start_basis", counted)
        monkeypatch.setattr(HighsModel, "__init__", kept)
        inst = _inst(seed=4, size=60)
        session = ReplanSession(inst)
        session.solve()
        assert len(built) == len(models) == 1
        assert session.apply(_retime_ops(inst, [1, 10], 2.5)).mode == "warm"
        assert len(built) == len(models) == 1
        grown = session.apply([
            {"op": "add_task", "times": [9.0, 5.0, 4.0, 3.5],
             "predecessors": [0]},
        ])
        assert grown.mode == "cold"
        assert len(built) == len(models) == 2
        not_presolved = HighsPresolveStatus.kNotPresolved
        assert all(
            m._h.getModelPresolveStatus() == not_presolved for m in models
        )

    def test_traced_warm_retime_is_traced_and_counted_like_a_solve(self):
        """A warm round runs the pipeline's own solve: the spans of
        ``SchedulingPipeline("jz").solve`` on the same child, the warm
        ``lp.solve`` inside ``phase1.allot``, and one counted jz solve."""
        inst = _inst(seed=4, size=60)
        session = ReplanSession(inst)
        session.solve()
        child, delta = evolve(inst, _retime_ops(inst, [1, 10], 2.5))
        solves = ("repro_solver_solves_total", (("algorithm", "jz"),))
        before = REGISTRY.counter_state()
        with obs_trace.tracing() as tracer:
            result = session.resolve_delta(child, delta)
        assert result.mode == "warm"
        assert REGISTRY.counters_since(before).get(solves) == 1
        with obs_trace.tracing() as reference:
            SchedulingPipeline("jz").solve(child)

        def names(tr):
            return sorted(s.name for s in tr.spans())

        assert names(tracer) == names(reference)
        (allot,) = [s for s in tracer.spans() if s.name == "phase1.allot"]
        (lp,) = [s for s in tracer.spans() if s.name == "lp.solve"]
        assert lp.args["warm"] is True
        assert allot.ts_us <= lp.ts_us
        assert lp.ts_us + lp.dur_us <= allot.ts_us + allot.dur_us

    def test_structural_delta_goes_cold(self):
        inst = _inst()
        session = ReplanSession(inst)
        session.solve()
        child, delta = evolve(
            inst,
            [{"op": "add_task", "times": _scaled_times(inst, 0),
              "predecessors": [inst.dag.sinks()[0]]}],
        )
        result = session.resolve_delta(child, delta)
        assert result.mode == "cold"
        cold = SchedulingPipeline("jz", "earliest-start").solve(child)
        assert result.report.makespan == cold.makespan

    def test_stale_delta_rejected(self):
        inst = _inst()
        session = ReplanSession(inst)
        session.solve()
        session.apply(_retime_ops(inst, [0]))
        # A delta cut against the original instance no longer applies.
        child, delta = evolve(inst, _retime_ops(inst, [1]))
        with pytest.raises(ValueError, match="descend"):
            session.resolve_delta(child, delta)

    def test_anchored_replan_mode(self):
        inst = _inst(seed=2, size=16)
        session = ReplanSession(inst)
        first = session.solve()
        entry = min(first.schedule.entries, key=lambda e: e.start)
        result = session.apply(
            [{"op": "complete", "task": entry.task,
              "start": entry.start}]
            + _retime_ops(inst, [entry.task + 1], 2.0),
            replan=True,
        )
        assert result.mode == "anchored"
        assert result.report.ratio_bound is None
        validate_schedule(session.instance, result.report.schedule)
        frozen = next(
            e
            for e in result.report.schedule.entries
            if e.task == entry.task
        )
        assert frozen.start == entry.start

    def test_segment_count_swap_goes_cold(self):
        """A retime pair that moves work segments between tasks keeps
        the LP's row and nonzero counts but not its pattern: the
        resident model must refuse the update and the session re-solve
        cold, not report the old model's bound as certified."""
        edges = [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8),
                 (7, 9)]
        times = [[10, 6, 5, 5], [8, 8, 8, 8]] + [[12, 7, 5, 4]] * 8
        inst = Instance(
            [MalleableTask([float(t) for t in ts]) for ts in times],
            Dag(10, edges),
            4,
        )
        session = ReplanSession(inst)
        session.solve()
        result = session.apply([
            {"op": "retime", "task": 0, "times": [10.0, 10.0, 10.0, 10.0]},
            {"op": "retime", "task": 1, "times": [8.0, 5.0, 4.0, 4.0]},
        ])
        cold = SchedulingPipeline("jz", "earliest-start").solve(
            session.instance
        )
        assert result.mode == "cold"
        assert result.report.lower_bound == cold.lower_bound
        assert result.report.allotment == cold.allotment
        assert result.report.schedule.entries == cold.schedule.entries

    def test_non_jz_algorithm_delegates(self):
        inst = _inst()
        session = ReplanSession(inst, algorithm="ltw")
        report = session.solve()
        ref = SchedulingPipeline("ltw", "earliest-start").solve(inst)
        assert report.makespan == ref.makespan
        result = session.apply(_retime_ops(inst, [0]))
        assert result.mode == "cold"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(0, 2**16),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
    st.floats(min_value=1.05, max_value=3.0),
    st.sampled_from([10, 64, 256]),
)
def test_warm_resolve_pinned_to_cold_solve(seed, tasks, factor, size):
    """Property: warm re-solves are bit-equal to cold solves."""
    inst = _inst(seed=seed % 31, size=size + seed % 9)
    session = ReplanSession(inst)
    session.solve()
    ops = _retime_ops(
        inst, sorted({t % inst.n_tasks for t in tasks}), factor
    )
    result = session.apply(ops)
    cold = SchedulingPipeline("jz", "earliest-start").solve(
        session.instance
    )
    assert result.report.allotment == cold.allotment
    assert result.report.makespan == cold.makespan
    assert result.report.schedule.entries == cold.schedule.entries


def _chain_instance(shape):
    """An n >= 256 instance per shape: deep (layered, 30 levels) or wide
    (Erdős–Rényi).  Tasks 0 and 1 carry the profiles of
    :meth:`TestReplanSession.test_segment_count_swap_goes_cold` so the
    chain can swap their segment counts."""
    if shape == "layered":
        dag = layered_dag(300, 30, 0.15, seed=5)
    else:
        dag = erdos_renyi_dag(400, 0.0015, seed=2)
    tasks = make_tasks_for_dag(dag, 4, model="power", seed=3)
    tasks[0] = MalleableTask([10.0, 6.0, 5.0, 5.0])
    tasks[1] = MalleableTask([8.0, 8.0, 8.0, 8.0])
    return Instance(tasks, dag, 4)


@pytest.mark.parametrize("shape", ["layered", "erdos_renyi"])
def test_session_chain_pinned_to_cold_solves(shape):
    """Every round of a multi-round session — warm retimes resuming
    LIST, a structural cold fallback, the segment-count swap, an
    anchored round and the free round after it — equals a cold solve of
    that round's instance."""
    inst = _chain_instance(shape)
    pipe = SchedulingPipeline("jz", "earliest-start")
    session = ReplanSession(inst)
    first = session.solve()
    assert first.schedule.entries == pipe.solve(inst).schedule.entries
    # Late tasks with predecessors: LIST replays the steps before them.
    late = [j for j in range(inst.n_tasks - 1, 0, -7)
            if inst.dag.in_degree(j)]

    def retimes(*tasks):
        return _retime_ops(session.instance, tasks, 1.37)

    rounds = [
        ("warm", lambda: retimes(late[0]), False),
        ("warm", lambda: retimes(late[1], late[2]), False),
        ("cold", lambda: [{"op": "add_task",
                           "times": _scaled_times(session.instance, 2),
                           "predecessors": [late[3]]}], False),
        ("warm", lambda: retimes(late[4]), False),
        ("cold", lambda: [
            {"op": "retime", "task": 0, "times": [10.0] * 4},
            {"op": "retime", "task": 1, "times": [8.0, 5.0, 4.0, 4.0]},
        ], False),
        ("anchored", lambda: [
            {"op": "complete", "task": e.task, "start": e.start}
            for e in session.report.schedule.entries[:3]
        ] + retimes(late[5]), True),
        ("warm", lambda: retimes(late[6]), False),
    ]
    for mode, ops, replan in rounds:
        result = session.apply(ops(), replan=replan)
        assert result.mode == mode
        cold = pipe.solve(session.instance)
        report = result.report
        assert report.allotment == cold.allotment
        reused = report.metadata["list_steps_reused"]
        if mode == "anchored":
            validate_schedule(session.instance, report.schedule)
            continue
        assert report.schedule.entries == cold.schedule.entries
        if mode == "warm":
            assert reused > 0
        elif result.delta.is_structural:
            assert reused == 0


# ---------------------------------------------------------------------------
# service endpoints
# ---------------------------------------------------------------------------


@pytest.fixture()
def client():
    with serve_in_thread(workers=0) as handle:
        with ServiceClient(port=handle.port) as c:
            yield c


class TestServiceEndpoints:
    def test_evolve_round_trip(self, client):
        inst = _inst()
        ops = _retime_ops(inst, [0])
        reply = client.evolve(inst, ops)
        assert reply["status"] == "ok"
        child, delta = evolve(inst, ops)
        assert reply["fingerprint"] == child.content_key()
        assert reply["parent_fingerprint"] == inst.content_key()
        assert reply["delta"]["structural"] is False
        assert reply["instance"]["fingerprint"] == child.content_key()

    def test_evolve_rejects_bad_ops(self, client):
        from repro.service import ServiceError

        inst = _inst()
        with pytest.raises(ServiceError) as info:
            client.evolve(inst, [{"op": "add_edge", "source": 1,
                                  "target": 1}])
        assert info.value.http_status == 400

    def test_replan_matches_direct_solve(self, client):
        inst = _inst()
        ops = _retime_ops(inst, [0, 3])
        reply = client.replan(inst, ops)
        assert reply["status"] == "ok"
        child, _delta = evolve(inst, ops)
        ref = SchedulingPipeline("jz", "earliest-start").solve(child)
        assert reply["makespan"] == ref.makespan
        assert reply["instance_key"] == child.content_key()
        assert reply["mode"] == "resolve"
        assert reply["parent"]["instance_key"] == inst.content_key()
        assert reply["disturbance"]["n_disturbed"] >= 0

    def test_replan_is_cached_on_repeat(self, client):
        inst = _inst(seed=5)
        ops = _retime_ops(inst, [1])
        client.replan(inst, ops)
        again = client.replan(inst, ops)
        assert again["cached"] is True
        assert again["parent"]["cached"] is True

    def test_anchored_replan_schedule_is_feasible(self, client):
        inst = _inst(seed=6, size=16)
        first = client.solve(inst)
        sched = schedule_from_dict(first["schedule"])
        entry = min(sched.entries, key=lambda e: e.start)
        ops = [
            {"op": "complete", "task": entry.task, "start": entry.start}
        ] + _retime_ops(inst, [(entry.task + 1) % inst.n_tasks], 1.8)
        reply = client.replan(inst, ops, anchored=True)
        assert reply["mode"] == "anchored"
        assert reply["ratio_bound"] is None
        child, _ = evolve(inst, ops)
        got = schedule_from_dict(reply["schedule"])
        validate_schedule(child, got)
        frozen = next(e for e in got.entries if e.task == entry.task)
        assert frozen.start == entry.start


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCliEvolve:
    def _write(self, tmp_path, inst, ops):
        inst_path = tmp_path / "inst.json"
        ops_path = tmp_path / "ops.json"
        save_instance(inst, inst_path)
        ops_path.write_text(json.dumps(ops))
        return str(inst_path), str(ops_path)

    def test_evolve_writes_child(self, tmp_path, capsys):
        inst = _inst()
        inst_path, ops_path = self._write(
            tmp_path, inst, _retime_ops(inst, [0])
        )
        out_path = tmp_path / "child.json"
        rc = main(
            ["evolve", inst_path, "--ops", ops_path, "-o", str(out_path)]
        )
        assert rc == 0
        child, _ = evolve(inst, _retime_ops(inst, [0]))
        written = json.loads(out_path.read_text())
        assert written["fingerprint"] == child.content_key()
        assert "fingerprint:" in capsys.readouterr().out

    def test_evolve_replan_prints_disturbance(self, tmp_path, capsys):
        inst = _inst()
        inst_path, ops_path = self._write(
            tmp_path, inst, _retime_ops(inst, [2], 2.0)
        )
        rc = main(["evolve", inst_path, "--ops", ops_path, "--replan"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan=" in out
        assert "disturbance:" in out

    def test_bad_ops_exit_code(self, tmp_path, capsys):
        inst = _inst()
        inst_path, ops_path = self._write(
            tmp_path,
            inst,
            [{"op": "add_edge", "source": 2, "target": 2}],
        )
        assert main(["evolve", inst_path, "--ops", ops_path]) == 1

    def test_anchored_requires_replan(self, tmp_path, capsys):
        inst = _inst()
        inst_path, ops_path = self._write(
            tmp_path, inst, _retime_ops(inst, [0])
        )
        rc = main(
            ["evolve", inst_path, "--ops", ops_path, "--anchored"]
        )
        assert rc == 2
