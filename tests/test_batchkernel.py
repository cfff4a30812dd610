"""Property suite for the block-diagonal stage functions.

Every stage of :mod:`repro.batchkernel` claims to be an *exact-float*
replica of its per-instance reference — not approximately equal,
bit-identical.  The hypothesis strategies below draw batches of mixed
sizes, mixed DAG shapes, mixed profile models and **mixed m**
(heterogeneous padding is the subtlest part of the pack), and each test
asserts slice-for-slice equality against the pinned per-instance path:

* CSR packing vs the original ``DagCsr`` arrays;
* block-diagonal LP assembly vs ``assemble_allotment_arrays``,
  element for element;
* vectorized rounding vs ``round_fractional_times``;
* the block-by-block phase-2 scheduler vs ``list_schedule`` and
  ``list_schedule_reference`` — schedules compared entry for entry
  with ``==`` on floats — and its allotment checks, near-tie fallback
  and work counters.

Plus the engine's ``kernel_tier`` column: every earliest-start record,
in the in-parent group or not, says ``"array"``.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dag, Instance, MalleableTask
from repro.batchkernel import (
    assemble_batch_lp,
    batched_list_schedule,
    batched_round,
    extract_block_x,
    pack_csrs,
    stack_profiles,
)
from repro.core import solve_allotment_lp
from repro.core.arrays import instance_arrays
from repro.core.list_scheduler import (
    dispatch_tier,
    list_run,
    list_schedule,
    list_schedule_reference,
)
from repro.core.lp import assemble_allotment_arrays
from repro.core.rounding import round_fractional_times
from repro.engine import BatchRunner, read_jsonl, write_jsonl
from repro.lpsolve.scipy_backend import solve_ub_blocks
from repro.obs import trace as obs_trace
from repro.pipeline import SchedulingPipeline
from repro.workloads import make_instance

_FAMILIES = ("erdos_renyi", "layered", "fork_join", "chain", "diamond")
_MODELS = ("power", "amdahl")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def instances(draw, max_size=28, max_m=6, min_m=1):
    """One random instance: family × size × m × profile model × seed."""
    family = draw(st.sampled_from(_FAMILIES))
    # layered_dag needs at least as many nodes as layers (>= 2).
    size = draw(st.integers(2 if family == "layered" else 1, max_size))
    m = draw(st.integers(min_m, max_m))
    model = draw(st.sampled_from(_MODELS))
    seed = draw(st.integers(0, 10_000))
    return make_instance(family, size, m, model=model, seed=seed)


def batches(max_blocks=5, **kwargs):
    """Mixed-size, mixed-shape, mixed-m batches (possibly empty)."""
    return st.lists(instances(**kwargs), min_size=0, max_size=max_blocks)


_SET = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _entries(schedule):
    return [
        (e.task, e.start, e.processors, e.duration)
        for e in schedule.entries
    ]


# ---------------------------------------------------------------------------
# packing: CSR union
# ---------------------------------------------------------------------------
@given(batch=batches())
@_SET
def test_pack_csrs_blocks_roundtrip(batch):
    csrs = [inst.dag.to_csr() for inst in batch]
    bcsr = pack_csrs(csrs)
    assert bcsr.n_blocks == len(batch)
    assert bcsr.n_total == sum(c.n for c in csrs)
    for b, c in enumerate(csrs):
        s = bcsr.block_slice(b)
        off = bcsr.node_ptr[b]
        e0, e1 = bcsr.edge_ptr[b], bcsr.edge_ptr[b + 1]
        assert (bcsr.row_of[s] == b).all()
        np.testing.assert_array_equal(
            bcsr.union.succ_indptr[s.start:s.stop + 1] - e0,
            c.succ_indptr,
        )
        np.testing.assert_array_equal(
            bcsr.union.succ_indices[e0:e1] - off, c.succ_indices
        )
        np.testing.assert_array_equal(
            bcsr.union.pred_indptr[s.start:s.stop + 1] - e0,
            c.pred_indptr,
        )
        np.testing.assert_array_equal(
            bcsr.union.pred_indices[e0:e1] - off, c.pred_indices
        )


# ---------------------------------------------------------------------------
# profile stacking vs instance_arrays
# ---------------------------------------------------------------------------
@given(batch=batches())
@_SET
def test_stack_profiles_matches_instance_arrays(batch):
    sp = stack_profiles(batch)
    assert sp.m_max == (max(i.m for i in batch) if batch else 1)
    for b, inst in enumerate(batch):
        s, e = int(sp.node_ptr[b]), int(sp.node_ptr[b + 1])
        ref = instance_arrays(inst)
        m = inst.m
        np.testing.assert_array_equal(sp.times[s:e, :m], ref.times)
        # Padded columns are the plateau p(m_b).
        if m < sp.m_max:
            np.testing.assert_array_equal(
                sp.times[s:e, m:],
                np.repeat(ref.times[:, m - 1:m], sp.m_max - m, axis=1),
            )
        np.testing.assert_array_equal(sp.min_time[s:e], ref.min_time)
        np.testing.assert_array_equal(sp.work_lo[s:e], ref.work_lo)
        np.testing.assert_array_equal(sp.nseg[s:e], ref.nseg)
        np.testing.assert_array_equal(sp.anchor_work[s:e], ref.anchor_work)
        owners = (sp.seg_tasks >= s) & (sp.seg_tasks < e)
        np.testing.assert_array_equal(sp.seg_tasks[owners] - s, ref.seg_tasks)
        np.testing.assert_array_equal(
            sp.seg_ptr[s:e + 1] - sp.seg_ptr[s], ref.seg_ptr
        )
        segs = (sp.seg_task >= s) & (sp.seg_task < e)
        np.testing.assert_array_equal(
            sp.seg_task[segs] - s, ref.seg_task
        )
        np.testing.assert_array_equal(sp.seg_slope[segs], ref.seg_slope)
        np.testing.assert_array_equal(
            sp.seg_intercept[segs], ref.seg_intercept
        )
        np.testing.assert_array_equal(sp.seg_len[segs], ref.seg_len)
        # Breakpoints equal the task's canonical list.
        for j in range(inst.n_tasks):
            bp = inst.task(j).breakpoints
            lo, hi = sp.brk_ptr[s + j], sp.brk_ptr[s + j + 1]
            assert list(sp.brk_level[lo:hi]) == [l for l, _ in bp]
            assert list(sp.brk_value[lo:hi]) == [p for _, p in bp]


# ---------------------------------------------------------------------------
# block-diagonal LP assembly vs the per-instance assembly
# ---------------------------------------------------------------------------
@given(batch=batches())
@_SET
def test_assemble_batch_lp_matches_reference(batch):
    sp = stack_profiles(batch)
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    blocks = assemble_batch_lp(sp, bcsr)
    assert len(blocks) == len(batch)
    for arrays, inst in zip(blocks, batch):
        ref = assemble_allotment_arrays(inst)
        assert arrays.n_variables == ref.n_variables
        for name in ("c", "lo", "hi", "rows", "cols", "vals", "b_ub"):
            np.testing.assert_array_equal(
                getattr(arrays, name), getattr(ref, name), err_msg=name
            )


@given(batch=batches(max_blocks=3, max_size=12))
@_SET
def test_extract_block_x_reads_back_each_block(batch):
    """Each block's ``x`` read back from its own δ columns is the
    per-instance LP (9) read-back, bit for bit."""
    sp = stack_profiles(batch)
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    sols = solve_ub_blocks(assemble_batch_lp(sp, bcsr))
    x = extract_block_x(sp, sols)
    assert x.tolist() == [
        v for inst in batch for v in solve_allotment_lp(inst).x
    ]


# ---------------------------------------------------------------------------
# batched rounding vs round_fractional_times
# ---------------------------------------------------------------------------
@given(
    batch=batches(),
    rho=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
@_SET
def test_batched_round_matches_reference(batch, rho, seed):
    sp = stack_profiles(batch)
    rng = np.random.default_rng(seed)
    u = rng.random(int(sp.node_ptr[-1]))
    x = sp.min_time + u * (sp.times[:, 0] - sp.min_time)
    got = batched_round(sp, x, np.full(len(x), rho))
    for b, inst in enumerate(batch):
        s, e = int(sp.node_ptr[b]), int(sp.node_ptr[b + 1])
        ref = round_fractional_times(inst, list(x[s:e]), rho)
        assert list(got[s:e]) == ref


def test_batched_round_rejects_out_of_range():
    inst = make_instance("chain", 3, 4, seed=0)
    sp = stack_profiles([inst])
    bad = sp.times[:, 0] * 3.0
    with pytest.raises(ValueError):
        batched_round(sp, bad, np.zeros(len(bad)))


# ---------------------------------------------------------------------------
# block-by-block phase-2 scheduler: bit-identical schedules
# ---------------------------------------------------------------------------
@given(batch=batches(), seed=st.integers(0, 10_000))
@_SET
def test_batched_list_schedule_bit_identical(batch, seed):
    sp = stack_profiles(batch)
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    rng = np.random.default_rng(seed)
    # A random feasible allotment per task (1..m_b) exercises far more
    # timeline shapes than any one strategy's output would.
    alloc = (
        1 + rng.integers(0, sp.m_of_task, endpoint=False)
        if len(sp.m_of_task) else np.zeros(0, dtype=np.intp)
    ).astype(np.intp)
    schedules = batched_list_schedule(sp, bcsr, alloc)
    assert len(schedules) == len(batch)
    for b, inst in enumerate(batch):
        s, e = int(sp.node_ptr[b]), int(sp.node_ptr[b + 1])
        block_alloc = list(alloc[s:e])
        ref = list_schedule(inst, block_alloc)
        assert _entries(schedules[b]) == _entries(ref)
        assert schedules[b].makespan == ref.makespan
        assert _entries(schedules[b]) == _entries(
            list_schedule_reference(inst, block_alloc)
        )


def _mixed_m_pack():
    batch = [
        make_instance("layered", 12, 4, seed=1),
        make_instance("erdos_renyi", 10, 2, seed=2),
    ]
    sp = stack_profiles(batch)
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    return sp, bcsr, np.ones(bcsr.n_total, dtype=np.intp)


@pytest.mark.parametrize("where, value, message", [
    (5, 0, r"block 0: allotment\[5\] = 0 outside \[1, 4\]"),
    # m = 4 is valid in the first block but one too wide in the second.
    (12 + 3, 3, r"block 1: allotment\[3\] = 3 outside \[1, 2\]"),
])
def test_batched_list_schedule_rejects_allotment(where, value, message):
    sp, bcsr, alloc = _mixed_m_pack()
    alloc[where] = value
    with pytest.raises(ValueError, match=message):
        batched_list_schedule(sp, bcsr, alloc)


@pytest.mark.parametrize("algorithm", ["jz", "sequential"])
def test_batched_list_schedule_counts_list_work(algorithm):
    """A traced batched_list_schedule decides every packed task once and
    adds, per block, the work a traced per-instance run adds per run."""
    batch = [
        make_instance("erdos_renyi", 30, 4, seed=5),
        make_instance("layered", 24, 6, seed=6),
        make_instance("fork_join", 18, 3, seed=7),
    ]
    pipe = SchedulingPipeline(algorithm, "earliest-start")
    reports = [pipe.solve(inst) for inst in batch]
    alloc = np.concatenate([
        np.minimum(rep.allotment, rep.mu or inst.m)
        for rep, inst in zip(reports, batch)
    ])
    sp = stack_profiles(batch)
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    with obs_trace.tracing() as tracer:
        schedules = batched_list_schedule(sp, bcsr, alloc)
    got = tracer.counter_totals()
    assert got["frontier_steps"] == sum(i.n_tasks for i in batch)
    want = {"timeline_refreshes": 0, "frontier_size_sum": 0}
    for sched, rep, inst in zip(schedules, reports, batch):
        assert _entries(sched) == _entries(rep.schedule)
        with obs_trace.tracing() as one:
            list_run(inst, rep.allotment, rep.mu)
        for key in want:
            want[key] += one.counter_totals()[key]
    assert {k: got[k] for k in want} == want


def _unit_instance(times, arcs, m):
    """Tasks given by their one-processor time ``t``, ``0.6·t`` on more
    processors; an allotment of ones runs each on one."""
    return Instance(
        [MalleableTask([t] + [0.6 * t] * (m - 1)) for t in times],
        Dag(len(times), arcs),
        m,
    )


def test_batched_list_schedule_near_tie_fallback():
    """Blocks whose ready set holds starts within the selection
    tolerance but not equal take the exact scan
    (``core.list_scheduler._scan_select``) that picks the lower id, not
    the earliest start; every block equals the reference LIST, entry
    for entry.  The first near-tie block is the one whose schedule
    moves if the fallback picks the exact minimum; the others are the
    constructions of ``tests/test_list_scheduler.py``."""
    q = 1.0 - 1e-13
    batch = [
        make_instance("layered", 20, 4, seed=1),
        _unit_instance([q, 1.0, 2.0, 0.5, 1.0], [(1, 2), (1, 3)], 2),
        _unit_instance([0.5, 0.5, 1.0, 1.0 + 5e-13], [(3, 0), (2, 1)], 3),
        _unit_instance([0.5, 0.5, 1.0, q], [(2, 0), (3, 1)], 2),
        _unit_instance(
            [0.5, 1e-14, 1.0, q, 0.5], [(2, 0), (3, 1), (1, 4)], 2
        ),
    ]
    sp = stack_profiles(batch)
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    schedules = batched_list_schedule(
        sp, bcsr, np.ones(bcsr.n_total, dtype=np.intp)
    )
    for sched, inst in zip(schedules, batch):
        assert _entries(sched) == _entries(
            list_schedule_reference(inst, [1] * inst.n_tasks)
        )
    # Task 4 is ready at 1 - 1e-13, tasks 2 and 3 at 1: the lower id
    # wins the near-tie, so task 2 starts first and task 4 waits.
    near = schedules[1]
    assert near[2].start == near[3].start == 1.0 < near[4].start


# ---------------------------------------------------------------------------
# the engine's kernel_tier column
# ---------------------------------------------------------------------------
def _assert_matches_pipeline(records, instances, priority="earliest-start"):
    """Batch records equal direct per-instance pipeline solves."""
    for rec, inst in zip(records, instances):
        rep = SchedulingPipeline("jz", priority).solve(inst)
        assert rec.makespan == rep.makespan
        assert rec.lower_bound == rep.lower_bound
        assert rec.observed_ratio == rep.observed_ratio


def test_runner_auto_routing(tmp_path):
    batch = [
        make_instance("erdos_renyi", 24, 4, seed=s) for s in range(5)
    ]
    # The in-parent group and a singleton batch both run the staircase.
    auto = BatchRunner(workers=0).run(batch)
    assert auto.summary()["kernel_tiers"] == {"array": 5}
    _assert_matches_pipeline(auto.records, batch)
    single = BatchRunner(workers=0).run(batch[:1])
    assert single.records[0].kernel_tier == "array"

    # Any other phase-2 rule is a priority-rule loop.
    cp = BatchRunner(workers=0, priority="critical-path").run(batch)
    assert all(r.kernel_tier == "loop" for r in cp.records)
    _assert_matches_pipeline(cp.records, batch, "critical-path")

    # JSONL roundtrip: additive v2 column, omitted when None.
    path = tmp_path / "records.jsonl"
    write_jsonl(auto.records, path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert all(l["kernel_tier"] == "array" for l in lines)
    back = read_jsonl(path)
    assert [r.kernel_tier for r in back] == ["array"] * 5
    from repro.engine.batch import BatchRecord

    assert "kernel_tier" not in BatchRecord(
        index=0, status="error", error="boom"
    ).to_dict()
    # Pre-tier version-2 lines (no column) read back as None, and lines
    # written while the batched tier ran keep their "batched".
    stripped = [
        {k: v for k, v in l.items() if k != "kernel_tier"}
        for l in lines
    ]
    path2 = tmp_path / "old.jsonl"
    path2.write_text(
        "".join(json.dumps(l) + "\n" for l in stripped)
    )
    assert all(r.kernel_tier is None for r in read_jsonl(path2))
    path3 = tmp_path / "batched.jsonl"
    path3.write_text("".join(
        json.dumps({**l, "kernel_tier": "batched"}) + "\n" for l in lines
    ))
    assert [r.kernel_tier for r in read_jsonl(path3)] == ["batched"] * 5


def test_runner_batched_mixed_with_paths(tmp_path):
    from repro.io import save_instance

    batch = [
        make_instance("layered", 20, 4, seed=s) for s in range(3)
    ]
    p = tmp_path / "inst.json"
    save_instance(batch[0], p)
    result = BatchRunner(workers=0).run([batch[1], str(p), batch[2]])
    # Paths load in workers and stay out of the in-parent group;
    # pre-built instances are grouped around them, order preserved.
    assert [r.kernel_tier for r in result.records] == ["array"] * 3
    assert result.n_ok == 3
    _assert_matches_pipeline(result.records, [batch[1], batch[0], batch[2]])


def test_dispatch_tier_array_for_wide_instances():
    """LIST has one kernel, the staircase, whatever the shape: wide,
    deep and thin, or tiny."""
    wide = make_instance("independent", 600, 4, seed=0)
    assert dispatch_tier(wide) == "array"
    deep = make_instance("chain", 300, 4, seed=0)
    assert dispatch_tier(deep) == "array"
    tiny = make_instance("erdos_renyi", 50, 4, seed=3)
    assert dispatch_tier(tiny) == "array"
