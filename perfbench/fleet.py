"""The batched-fleet workload: ``fleet-small``.

One caller, closed loop: each operation is one
``BatchRunner(algorithm="jz", priority="earliest-start").run`` call, with
default settings (so ``batch_kernel="auto"`` sends the whole batch to the
batched tier), over one batch of a seeded 100-instance fleet, built
fresh.  The ten batches that cover the fleet once are the counted set;
later calls cycle through the same batches, must reproduce their records
exactly, and continue until ``--seconds`` have passed.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from . import common
from .common import Span, Tally, duration, timed_span
from .inputs import family_instance, sub_seeds

#: Why: the only workload on ``repro.batchkernel`` and the only one that
#: solves many small LPs: per-call LP overhead and the batched assembly
#: show here and nowhere else, and the ROADMAP's "is the block-diagonal
#: saving noise" decision is made here.  ``solve_ub_blocks`` takes about
#: three quarters of the batched stages, ``batched_list_schedule`` most
#: of the rest.  A call covers a tenth of the fleet so a run holds
#: enough calls for a steady median.  Isolates: ``batchkernel`` and
#: ``engine``.
FLEET_SIZE = 100
BATCH = 10
FLEET_N = 500
FLEET_M = 8

#: Size of the two instances of the set-up's warm-up call.
WARM_UP_N = 100

#: Fleet instances re-solved one by one through the pipeline to check
#: the batched records (a seeded sample; all 100 would dominate the run).
CHECK_SAMPLE = 8


def _record_problems(rec) -> List[str]:
    """A batch record carries no schedule by default, so only its
    numbers can be checked here; the sampled re-solves check schedules."""
    if not rec.ok:
        return [f"record failed: {(rec.error or '')[:200]}"]
    return common.bound_problems(rec.makespan, rec.lower_bound, rec.ratio_bound)


def _record_key(rec):
    return (rec.index, rec.makespan, rec.lower_bound, rec.mu, rec.rho,
            rec.kernel_tier)


def _stage_path(batch, result) -> Dict:
    """The batched tier one public stage at a time, timed; checked
    against the records ``BatchRunner`` returned for the same batch."""
    from repro.batchkernel import (
        assemble_batch_lp,
        batched_list_schedule,
        batched_round,
        extract_block_x,
        pack_csrs,
        stack_profiles,
    )
    from repro.core.parameters import resolve_parameters
    from repro.lpsolve.scipy_backend import solve_ub_blocks

    t0 = time.perf_counter()
    bcsr = pack_csrs([inst.dag.to_csr() for inst in batch])
    sp = stack_profiles(batch)
    t1 = time.perf_counter()
    blocks = assemble_batch_lp(sp, bcsr)
    t2 = time.perf_counter()
    sols = solve_ub_blocks(blocks)
    t3 = time.perf_counter()
    n_b = np.diff(sp.node_ptr)
    params = [resolve_parameters(inst.m) for inst in batch]
    x = extract_block_x(sp, sols)
    allot = batched_round(sp, x, np.repeat([p.rho for p in params], n_b))
    t4 = time.perf_counter()
    alloc = np.minimum(allot, np.repeat([p.mu for p in params], n_b))
    schedules = batched_list_schedule(sp, bcsr, alloc)
    t5 = time.perf_counter()
    problems = [
        f"stage path differs from record {b}"
        for b, rec in enumerate(result.records)
        if (schedules[b].makespan, sols[b].objective)
        != (rec.makespan, rec.lower_bound)
    ]
    return {
        "times": {
            "batchkernel.pack_s": t1 - t0,
            "batchkernel.lp_assemble_s": t2 - t1,
            "batchkernel.lp_solve_s": t3 - t2,
            "batchkernel.round_s": t4 - t3,
            "batchkernel.list_s": t5 - t4,
        },
        "iterations": sum(s.iterations for s in sols),
        "lp_size": (sum(len(b.b_ub) for b in blocks),
                    sum(len(b.vals) for b in blocks)),
        "schedules": schedules,
        "problems": problems,
    }


def run(seed: int, seconds: float, traced: bool) -> Dict:
    from repro.core.lp import assemble_allotment_arrays
    from repro.engine import BatchRunner
    from repro.pipeline import SchedulingPipeline

    probe = common.SpeedProbe("solver")
    runner = BatchRunner(algorithm="jz", priority="earliest-start")

    def make_inputs():
        seeds = sub_seeds(seed, "fleet", FLEET_SIZE)
        raws = [
            family_instance("erdos_renyi", FLEET_N, FLEET_M, s) for s in seeds
        ]
        warm_up = [
            family_instance("erdos_renyi", WARM_UP_N, FLEET_M, s)
            for s in sub_seeds(seed, "fleet-warm-up", 2)
        ]
        return raws, warm_up

    (raws, warm_up), gen_span = timed_span(make_inputs)
    batches = [raws[k:k + BATCH] for k in range(0, FLEET_SIZE, BATCH)]

    def program_setup():
        # A small batched call lets the batched tier's lazy set-up finish
        # before the first timed call.
        runner.run([r.build() for r in warm_up])
        return [r.build() for r in batches[0]]

    first, setup_spans = common.repeated_setup(program_setup, probe)

    tally = Tally()
    calls: List[Span] = []
    reference: Dict[int, list] = {}
    first_records: Dict[int, object] = {}
    digest = common.ScheduleDigest()
    counters: Dict = {"lpsolve.iterations": 0}
    counted_batched = 0
    ratios: List[float] = []
    stage_times: Dict[str, List[float]] = {}
    overhead: List[float] = []
    stage_iterations = 0
    stage_lp_size = (0, 0)
    fsum = fpeak = 0
    batched = records = 0

    begin = time.perf_counter()
    k = 0
    while k < len(batches) or time.perf_counter() - begin < seconds:
        b = k % len(batches)
        counted = k < len(batches)
        batch = first if k == 0 else [r.build() for r in batches[b]]
        before = common.counter_snapshot()
        try:
            result, span = timed_span(runner.run, batch)
        except Exception as exc:  # the whole batch call failed
            for raw in batches[b]:
                tally.record(raw.name, [repr(exc)])
            k += 1
            continue
        pivots = common.lp_pivots_since(before)
        calls.append(span)
        keys = [_record_key(r) for r in result.records]
        diverged = not counted and keys != reference[b]
        for rec in result.records:
            problems = _record_problems(rec)
            if diverged:
                problems.append("re-run differs from the first run")
            tally.record(f"batch {b} record {rec.index}", problems)
        tiers = [r.kernel_tier == "batched" for r in result.records]
        batched += sum(tiers)
        records += len(tiers)
        if counted:
            reference[b] = keys
            first_records[b] = result.records
            for rec in result.records:
                digest.add_numbers(*_record_key(rec))
                if rec.ok:
                    ratios.append(rec.makespan / rec.lower_bound)
            counters["lpsolve.iterations"] += pivots
            counted_batched += sum(tiers)
        if traced:
            fresh = [r.build() for r in batches[b]]
            stage = _stage_path(fresh, result)
            for name, v in stage["times"].items():
                stage_times.setdefault(name, []).append(v)
            overhead.append(duration(span) - sum(stage["times"].values()))
            tally.flag("stage path", stage["problems"])
            if counted:
                stage_iterations += stage["iterations"]
                stage_lp_size = tuple(
                    a + s for a, s in zip(stage_lp_size, stage["lp_size"])
                )
                for inst, sched in zip(fresh, stage["schedules"]):
                    s, p = common.frontier_counts(inst, sched)
                    fsum += s
                    fpeak = max(fpeak, p)
        k += 1
        probe.maybe()
    probe.sample()

    # ---- checks outside the timed region --------------------------------
    pipe = SchedulingPipeline("jz", "earliest-start")
    rng = np.random.default_rng(sub_seeds(seed, "fleet-check", 1)[0])
    for idx in (int(i) for i in rng.choice(FLEET_SIZE, CHECK_SAMPLE, False)):
        inst = raws[idx].build()
        rep = pipe.solve(inst)
        problems = common.check_schedule(
            inst, rep.schedule, rep.lower_bound, rep.ratio_bound
        )
        recs = first_records.get(idx // BATCH)
        rec = recs[idx % BATCH] if recs else None
        if rec is None or (rec.makespan, rec.lower_bound) != (
            rep.makespan, rep.lower_bound
        ):
            problems.append("batched record differs from a pipeline solve")
        tally.flag(f"fleet[{idx}] check", problems)

    rows = cols = nnz = 0
    for raw in raws:
        arrays = assemble_allotment_arrays(raw.build())
        rows += len(arrays.b_ub)
        cols += arrays.n_variables
        nnz += len(arrays.vals)
    counters.update({"lp.rows": rows, "lp.cols": cols, "lp.nnz": nnz})
    counters["engine.batched_share"] = counted_batched / FLEET_SIZE
    counters["schedules"] = digest.count
    counters["schedule_sha256"] = digest.hexdigest()

    # Every time below is CPU time at the nominal host speed.
    call_s = probe.scaled(calls, "cpu", "solver")
    e2e = {
        "setup_s": probe.phase_scale(
            "cpu", "solver", setup_spans[-1].w1
        ) * (
            gen_span.cpu + common.median(sp.cpu for sp in setup_spans)
        ),
        "solve_s": common.median(call_s) / BATCH,
        "op_p50_ms": 1000.0 * common.median(call_s),
        "schedules_per_s": records / common.typical_busy(call_s),
        "makespan_ratio": common.mean(ratios),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    layers: Dict[str, float] = {}
    if traced:
        if stage_lp_size != (rows, nnz):
            tally.flag("lp size", ["batched LP differs in size"])
        if stage_iterations != counters["lpsolve.iterations"]:
            tally.flag("counters", ["stage-path LP iterations differ"])
        layers.update(
            {k: common.mean(v) / BATCH for k, v in stage_times.items()}
        )
        layers.update({
            "lp.rows": rows,
            "lp.cols": cols,
            "lp.nnz": nnz,
            "lpsolve.iterations": stage_iterations,
            "batchkernel.lp_iterations": stage_iterations,
            "list.frontier_size_sum": fsum,
            "list.frontier_peak": fpeak,
            "engine.batched_share": batched / records,
            "engine.overhead_s": common.mean(overhead) / BATCH,
            "trace.unaccounted_share": (
                common.mean(overhead)
                / common.mean(duration(sp) for sp in calls)
            ),
        })
    return {
        "e2e": e2e,
        "layers": layers,
        "counters": counters,
        "tally": tally,
        "samples": probe.timeline({
            "call": calls, "inputs": [gen_span], "setup": setup_spans,
        }),
    }
