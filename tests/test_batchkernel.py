"""Property suite for the cross-instance batched kernel tier.

Every batched stage of :mod:`repro.batchkernel` claims to be an
*exact-float* replica of its per-instance reference — not approximately
equal, bit-identical.  The hypothesis strategies below draw batches of
mixed sizes, mixed DAG shapes, mixed profile models and **mixed m**
(heterogeneous padding is the subtlest part of the pack), and each test
asserts slice-for-slice equality against the pinned per-instance path:

* CSR packing vs the original ``DagCsr`` arrays;
* batched longest-path / lower-bound kernels vs
  ``Dag.longest_path_length`` / ``Instance.trivial_lower_bound``;
* block-diagonal LP assembly vs ``assemble_allotment_arrays``,
  element for element;
* vectorized rounding vs ``round_fractional_times``;
* the lockstep phase-2 scheduler and :func:`solve_batch` vs
  ``list_schedule`` / :class:`repro.pipeline.SchedulingPipeline` —
  schedules compared entry for entry with ``==`` on floats.

Plus the engine's routing into the tier (JSONL ``kernel_tier`` column)
and the tiny-n dispatch regression test.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batchkernel import (
    AUTO_MAX_TASKS,
    BatchKernelError,
    assemble_batch_lp,
    batched_list_schedule,
    batched_longest_path_lengths,
    batched_round,
    batched_trivial_lower_bounds,
    eligible_strategy,
    pack_csrs,
    solve_batch,
    stack_profiles,
)
from repro.core.arrays import instance_arrays
from repro.core.list_scheduler import (
    dispatch_tier,
    list_schedule,
    list_schedule_loop,
)
from repro.core.lp import assemble_allotment_arrays
from repro.core.rounding import round_fractional_times
from repro.engine import BatchRunner, read_jsonl, write_jsonl
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
_SET_SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _entries(schedule):
    return [
        (e.task, e.start, e.processors, e.duration)
        for e in schedule.entries
    ]


# ---------------------------------------------------------------------------
# packing: CSR union and kernel equality
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


@given(batch=batches())
@_SET
def test_batched_level_kernels_exact(batch):
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    dur = np.concatenate(
        [[t.min_time for t in inst.tasks] for inst in batch]
    ) if batch else np.zeros(0)
    cps = batched_longest_path_lengths(bcsr, dur)
    lows = batched_trivial_lower_bounds(batch, bcsr)
    for b, inst in enumerate(batch):
        s = bcsr.block_slice(b)
        # Exact equality: same floats, block-local reads.
        assert cps[b] == inst.dag.longest_path_length(list(dur[s]))
        assert lows[b] == inst.trivial_lower_bound()


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
        np.testing.assert_array_equal(sp.max_time[s:e], ref.max_time)
        np.testing.assert_array_equal(sp.work_lo[s:e], ref.work_lo)
        np.testing.assert_array_equal(sp.nseg[s:e], ref.nseg)
        segs = (sp.seg_task >= s) & (sp.seg_task < e)
        np.testing.assert_array_equal(
            sp.seg_task[segs] - s, ref.seg_task
        )
        np.testing.assert_array_equal(sp.seg_slope[segs], ref.seg_slope)
        np.testing.assert_array_equal(
            sp.seg_intercept[segs], ref.seg_intercept
        )
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
    x = sp.min_time + u * (sp.max_time - sp.min_time)
    got = batched_round(sp, x, np.full(len(x), rho))
    for b, inst in enumerate(batch):
        s, e = int(sp.node_ptr[b]), int(sp.node_ptr[b + 1])
        ref = round_fractional_times(inst, list(x[s:e]), rho)
        assert list(got[s:e]) == ref


def test_batched_round_rejects_out_of_range():
    inst = make_instance("chain", 3, 4, seed=0)
    sp = stack_profiles([inst])
    bad = sp.max_time * 3.0
    with pytest.raises(ValueError):
        batched_round(sp, bad, np.zeros(len(bad)))


# ---------------------------------------------------------------------------
# lockstep phase-2 scheduler: bit-identical schedules
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
        # And against the loop tier, so all three tiers are pinned to
        # the same floats.
        assert _entries(schedules[b]) == _entries(
            list_schedule_loop(inst, block_alloc)
        )


# ---------------------------------------------------------------------------
# solve_batch vs the per-instance pipeline
# ---------------------------------------------------------------------------
@given(
    # ltw_parameters requires m >= 2 on both paths, so pin min_m here.
    batch=batches(max_blocks=4, max_size=20, min_m=2),
    algorithm=st.sampled_from(("jz", "ltw", "sequential", "full")),
)
@_SET_SLOW
def test_solve_batch_matches_pipeline(batch, algorithm):
    reports = solve_batch(batch, algorithm)
    assert len(reports) == len(batch)
    pipe = SchedulingPipeline(algorithm, "earliest-start")
    for rep, inst in zip(reports, batch):
        ref = pipe.solve(inst)
        assert _entries(rep.schedule) == _entries(ref.schedule)
        assert rep.makespan == ref.makespan
        assert rep.allotment == ref.allotment
        assert rep.mu == ref.mu
        assert rep.rho == ref.rho
        assert rep.lower_bound == ref.lower_bound
        assert rep.ratio_bound == ref.ratio_bound
        assert rep.metadata["kernel_tier"] == "batched"


def test_solve_batch_edge_cases():
    assert solve_batch([], "jz") == []
    one = make_instance("layered", 12, 3, seed=7)
    [rep] = solve_batch([one], "sequential")
    ref = SchedulingPipeline("sequential", "earliest-start").solve(one)
    assert _entries(rep.schedule) == _entries(ref.schedule)
    with pytest.raises(BatchKernelError):
        solve_batch([one], "jz", priority="critical-path")
    with pytest.raises(BatchKernelError):
        solve_batch([one], "greedy")


def test_eligible_strategy():
    assert eligible_strategy("jz", "earliest-start")
    assert eligible_strategy("sequential", "earliest-start")
    assert eligible_strategy("full", "earliest-start")
    assert eligible_strategy("ltw", "earliest-start")
    assert not eligible_strategy("jz", "critical-path")
    assert not eligible_strategy("greedy", "earliest-start")
    assert not eligible_strategy("no-such", "earliest-start")


# ---------------------------------------------------------------------------
# engine routing into the batched tier and the JSONL column
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
    auto = BatchRunner(workers=0).run(batch)
    assert all(r.kernel_tier == "batched" for r in auto.records)
    _assert_matches_pipeline(auto.records, batch)
    assert auto.summary()["kernel_tiers"] == {"batched": 5}

    # Singleton batches stay per-instance (no win to batch).
    single = BatchRunner(workers=0).run(batch[:1])
    assert single.records[0].kernel_tier in ("loop", "array")
    _assert_matches_pipeline(single.records, batch[:1])

    # Ineligible strategies never batch.
    cp = BatchRunner(workers=0, priority="critical-path").run(batch)
    assert all(r.kernel_tier == "loop" for r in cp.records)
    _assert_matches_pipeline(cp.records, batch, "critical-path")

    # The batched tier takes instances of at most AUTO_MAX_TASKS tasks.
    assert batch[0].n_tasks <= AUTO_MAX_TASKS

    # JSONL roundtrip: additive v2 column, omitted when None.
    path = tmp_path / "records.jsonl"
    write_jsonl(auto.records, path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert all(l["kernel_tier"] == "batched" for l in lines)
    back = read_jsonl(path)
    assert [r.kernel_tier for r in back] == ["batched"] * 5
    from repro.engine.batch import BatchRecord

    assert "kernel_tier" not in BatchRecord(
        index=0, status="error", error="boom"
    ).to_dict()
    # Pre-tier version-2 lines (no column) read back as None.
    stripped = [
        {k: v for k, v in l.items() if k != "kernel_tier"}
        for l in lines
    ]
    path2 = tmp_path / "old.jsonl"
    path2.write_text(
        "".join(json.dumps(l) + "\n" for l in stripped)
    )
    assert all(r.kernel_tier is None for r in read_jsonl(path2))


def test_runner_batched_mixed_with_paths(tmp_path):
    from repro.io import save_instance

    batch = [
        make_instance("layered", 20, 4, seed=s) for s in range(3)
    ]
    p = tmp_path / "inst.json"
    save_instance(batch[0], p)
    result = BatchRunner(workers=0).run([batch[1], str(p), batch[2]])
    # Paths load in workers and stay per-instance; pre-built instances
    # batch around them, order preserved.
    assert [r.kernel_tier for r in result.records] == [
        "batched", "loop", "batched"
    ]
    assert result.n_ok == 3
    _assert_matches_pipeline(result.records, [batch[1], batch[0], batch[2]])


def test_runner_batched_group_falls_back_whole(monkeypatch):
    # Any batched-tier failure must re-solve the whole group on the
    # per-instance path — never half batched, half retried.
    import repro.engine.batch as eb

    def boom(*a, **k):
        raise RuntimeError("batched tier exploded")

    monkeypatch.setattr("repro.batchkernel.solve_batch", boom)
    batch = [
        make_instance("erdos_renyi", 16, 3, seed=s) for s in range(4)
    ]
    result = eb.BatchRunner(workers=0).run(batch)
    assert result.n_ok == 4
    assert all(r.kernel_tier in ("loop", "array")
               for r in result.records)


# ---------------------------------------------------------------------------
# tiny-n dispatch: no batch arrays on small instances
# ---------------------------------------------------------------------------
def test_tiny_n_dispatch_allocates_no_batch_arrays(monkeypatch):
    """Solves below 256 tasks run entirely on the loop tier: no
    ArrayTimeline, no instance_arrays pack, no level structure."""
    insts = [make_instance("erdos_renyi", n, 4, seed=3) for n in (50, 200)]
    expected = [
        _entries(list_schedule_loop(inst, [1] * inst.n_tasks))
        for inst in insts
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError(
            "tiny-n solve touched batch/array state"
        )

    monkeypatch.setattr(
        "repro.core.list_scheduler.ArrayTimeline", forbidden
    )
    monkeypatch.setattr("repro.core.arrays.instance_arrays", forbidden)
    monkeypatch.setattr("repro.dag.csr.DagCsr.depths", forbidden)
    for inst, want in zip(insts, expected):
        assert dispatch_tier(inst) == "loop"
        assert _entries(list_schedule(inst, [1] * inst.n_tasks)) == want


def test_dispatch_tier_array_for_wide_instances():
    wide = make_instance("independent", 600, 4, seed=0)
    assert dispatch_tier(wide) == "array"
    # Deep-and-thin stays on the loop tier even above the tiny cutoff.
    deep = make_instance("chain", 300, 4, seed=0)
    assert dispatch_tier(deep) == "loop"
