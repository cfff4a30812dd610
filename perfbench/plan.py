"""The in-process planning workloads: ``plan-deep`` and ``plan-wide``.

One caller, closed loop.  Operations come from an unbounded seeded
stream: cold solves of freshly built instances of one shape and, for
``plan-deep``, warm retimes after each cold solve.  The first
``counted`` cold solves and their retimes are the counted set: the work
counters, the schedule digest and ``makespan_ratio`` cover it alone, so
they depend on the seed only.  The run always completes the counted set,
then keeps taking operations off the stream until ``--seconds`` have
passed; every timing metric is over all operations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from . import common
from .common import Span, Tally, duration, timed_span
from .inputs import (
    plan_instance,
    raw_of,
    retime_targets,
    sampled_instance,
    stream_seed,
    sub_seeds,
)


@dataclass(frozen=True)
class PlanSpec:
    name: str
    shape: str
    n: int
    m: int
    #: cold solves in the counted set
    counted: int
    #: warm retimes after each cold solve
    retimes_per_cold: int
    #: resident replan sessions the retimes rotate over
    sessions: int


#: Why: LP (9) is about 80% of a cold solve on this shape, so an LP
#: change (assembly or HiGHS) shows here and a phase-2 change should not;
#: LIST runs on the loop tier.  The warm retimes exercise the resident
#: HiGHS model of ``ReplanSession`` (``pipeline.incremental`` and
#: ``lpsolve.highs_warm``).  Isolates: ``core.lp`` + ``lpsolve``, and the
#: warm-replan path.  Chain instances are not solved: their solve time is
#: bimodal across seeds, so a run's median jumped between two clusters.
PLAN_DEEP = PlanSpec(
    name="plan-deep",
    shape="layered",
    n=1000,
    m=8,
    counted=8,
    retimes_per_cold=2,
    sessions=2,
)

#: Why: the only workload where LIST dominates (the array tier's
#: ``list_schedule`` is about 60% of a solve, the frontier peaks near 500
#: tasks); LP is the rest, so it also shows how much of an LP gain
#: survives on a wide DAG.  Isolates: ``core.list_scheduler``.
PLAN_WIDE = PlanSpec(
    name="plan-wide",
    shape="erdos_renyi",
    n=2000,
    m=8,
    counted=2,
    retimes_per_cold=0,
    sessions=0,
)

SPECS = {spec.name: spec for spec in (PLAN_DEEP, PLAN_WIDE)}

#: A retime multiplies one task's processing times by this factor.
RETIME_FACTOR = 1.37

#: Length of the pre-drawn retime-target stream (far more than a run uses).
RETIME_STREAM = 4096

#: Size of the set-up's warm-up solve.
WARM_UP_N = 200


def _layer_path(raw, report, pivots: int, totals: common.LayerTotals,
                counted: bool) -> List[str]:
    """The traced run's second solve of a cold instance, one layer at a
    time; returns every way it differs from the pipeline's ``report``."""
    res = common.layer_solve(raw.build())
    totals.add(res, counted)
    problems = []
    if not common.same_schedule(res.schedule, report.schedule):
        problems.append("layer path schedule differs from the pipeline")
    if res.allotment != report.allotment:
        problems.append("layer path allotment differs from the pipeline")
    if res.lower_bound != report.lower_bound:
        problems.append("layer path lower bound differs")
    if res.counters.get("lp_pivots", 0) != pivots:
        problems.append("layer path LP pivots differ from the pipeline")
    return problems


def run(spec: PlanSpec, seed: int, seconds: float, traced: bool) -> Dict:
    from repro.core.lp import assemble_allotment_arrays
    from repro.pipeline import ReplanSession, SchedulingPipeline

    probe = common.SpeedProbe("solver")
    pipe = SchedulingPipeline("jz", "earliest-start")

    def cold_input(i: int):
        return plan_instance(seed, (spec.shape,), spec.n, spec.m, i)

    # ---- set-up ---------------------------------------------------------
    def make_inputs():
        counted_raws = [cold_input(i) for i in range(spec.counted)]
        parents = [
            sampled_instance(
                spec.shape, spec.n, spec.m, stream_seed(seed, "session", s)
            )
            for s in range(spec.sessions)
        ]
        warm_up = sampled_instance(
            spec.shape, WARM_UP_N, spec.m, stream_seed(seed, "warm-up", 0)
        )
        targets = retime_targets(seed, spec.n, RETIME_STREAM)
        return counted_raws, parents, warm_up, targets

    (counted_raws, parents, warm_up, targets), gen_span = timed_span(
        make_inputs
    )

    def program_setup():
        # A small solve lets the solve path's lazy set-up finish before
        # the first timed operation.
        pipe.solve(warm_up.build())
        sessions = []
        for parent in parents:
            session = ReplanSession(parent.build())
            session.solve()
            sessions.append(session)
        return counted_raws[0].build(), sessions

    (first, sessions), setup_spans = common.repeated_setup(
        program_setup, probe
    )

    # ---- measured loop --------------------------------------------------
    layer_totals = common.LayerTotals()
    tally = Tally()
    cold: List[Span] = []
    replans: List[Span] = []
    replan_allot: List[float] = []
    replan_list: List[float] = []
    warm = 0
    digest = common.ScheduleDigest()
    counters = {
        "lp.rows": 0, "lp.cols": 0, "lp.nnz": 0,
        "lpsolve.iterations": 0, "list.frontier_size_sum": 0,
        "list.frontier_peak": 0, "replan.lp_edits": 0,
    }
    ratios: List[float] = []
    counted_replans = spec.counted * spec.retimes_per_cold
    sample_at = (
        sub_seeds(seed, "replan-check", 1)[0] % counted_replans
        if counted_replans else -1
    )
    sampled = None
    n_replans = 0

    begin = time.perf_counter()

    def more(i: int) -> bool:
        return i < spec.counted or time.perf_counter() - begin < seconds

    i = 0
    while more(i):
        counted = i < spec.counted
        raw = counted_raws[i] if counted else cold_input(i)
        inst = first if i == 0 else raw.build()
        before = common.counter_snapshot()
        try:
            rep, span = timed_span(pipe.solve, inst)
        except Exception as exc:  # a failed solve is a measured failure
            tally.record(f"cold {raw.name}", [repr(exc)])
            rep = None
        if rep is not None:
            pivots = common.lp_pivots_since(before)
            cold.append(span)
            problems = common.check_schedule(
                inst, rep.schedule, rep.lower_bound, rep.ratio_bound
            )
            if counted:
                arrays = assemble_allotment_arrays(inst)
                counters["lp.rows"] += len(arrays.b_ub)
                counters["lp.cols"] += arrays.n_variables
                counters["lp.nnz"] += len(arrays.vals)
                counters["lpsolve.iterations"] += pivots
                fsum, fpeak = common.frontier_counts(inst, rep.schedule)
                counters["list.frontier_size_sum"] += fsum
                counters["list.frontier_peak"] = max(
                    counters["list.frontier_peak"], fpeak
                )
                digest.add(rep.schedule)
                ratios.append(rep.makespan / rep.lower_bound)
            if traced:
                problems += _layer_path(
                    raw, rep, pivots, layer_totals, counted
                )
            tally.record(f"cold {raw.name}", problems)
        del inst
        probe.maybe()
        for _ in range(spec.retimes_per_cold):
            if not (counted or more(i)):
                break
            session = sessions[n_replans % len(sessions)]
            cur = session.instance
            tid = targets[n_replans % len(targets)]
            times = [RETIME_FACTOR * x for x in cur.task(tid).times]
            child, delta = cur.evolve().retime(tid, times).commit()
            try:
                d, span = timed_span(session.resolve_delta, child, delta)
            except Exception as exc:
                tally.record(f"retime {tid}", [repr(exc)])
                n_replans += 1
                continue
            replans.append(span)
            replan_allot.append(d.report.allotment_time)
            replan_list.append(d.report.schedule_time)
            warm += d.mode == "warm"
            problems = common.check_schedule(
                child, d.report.schedule, d.report.lower_bound,
                d.report.ratio_bound,
            )
            if counted:
                counters["replan.lp_edits"] += d.lp_edits
                digest.add(d.report.schedule)
                ratios.append(d.report.makespan / d.report.lower_bound)
                if n_replans == sample_at:
                    sampled = (
                        raw_of(child), d.report.allotment, d.report.makespan
                    )
            tally.record(f"retime {tid}", problems)
            n_replans += 1
            probe.maybe()
        i += 1
    probe.sample()

    # ---- checks outside the timed region --------------------------------
    if sampled is not None:
        child_raw, allotment, makespan = sampled
        ref = pipe.solve(child_raw.build())
        if ref.allotment != allotment or ref.makespan != makespan:
            tally.flag(
                "sampled replan",
                ["warm replan differs from a cold solve of its child"],
            )

    # Every time below is CPU time at the nominal host speed.
    cold_s = probe.scaled(cold, "cpu", "solver")
    replan_s = probe.scaled(replans, "cpu", "solver")
    e2e = {
        "setup_s": probe.phase_scale(
            "cpu", "solver", setup_spans[-1].w1
        ) * (
            gen_span.cpu + common.median(sp.cpu for sp in setup_spans)
        ),
        "solve_s": common.median(cold_s),
        "op_p50_ms": 1000.0 * common.median(replan_s or cold_s),
        "schedules_per_s": (len(cold_s) + len(replan_s))
        / common.typical_busy(cold_s, replan_s),
        "makespan_ratio": common.mean(ratios),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    counters["schedules"] = digest.count
    counters["schedule_sha256"] = digest.hexdigest()
    layers: Dict[str, float] = {}
    if traced:
        layers.update(layer_totals.metrics())
        layers["trace.unaccounted_share"] = 1.0 - sum(
            layer_totals.mean_times().values()
        ) / common.mean(duration(sp) for sp in cold)
        traced_counts = {
            k: v for k, v in layer_totals.counted.items() if k in counters
        }
        if traced_counts != {k: counters[k] for k in traced_counts}:
            tally.flag(
                "counters",
                [f"traced counters {traced_counts} differ from the "
                 "untraced ones"],
            )
        if replans:
            layers.update({
                "replan.allot_s": common.mean(replan_allot),
                "replan.list_s": common.mean(replan_list),
                "replan.lp_edits": counters["replan.lp_edits"],
                "replan.warm_share": warm / len(replans),
            })
    return {
        "e2e": e2e,
        "layers": layers,
        "counters": counters,
        "tally": tally,
        "samples": probe.timeline({
            "cold": cold,
            "replan": replans,
            "inputs": [gen_span],
            "setup": setup_spans,
        }),
    }
