"""Benchmark E5 — batch engine throughput and single-instance speedup.

Two measurements, written to ``BENCH_engine.json``:

1. **single** — wall clock of the optimized pipeline
   (:func:`repro.jz_schedule`: LP (9) + incremental LIST) vs. the seed
   path (the same LP (9) solve +
   :func:`repro.core.list_scheduler.list_schedule_reference`) on one
   500-task power-law instance.  Both arms solve phase 1 identically, so
   the ratio measures the LIST rewrite alone; both produce the same
   schedule — asserted here — so it is a pure implementation speedup.
2. **batch** — throughput (instances/second) of
   :class:`repro.engine.BatchRunner` over instance JSON files across
   worker counts — the ``repro batch a.json ... -w N`` route.  Paths
   never join the in-parent group, so ``workers=1`` solves in-process
   and every larger count runs the process pool (each row records the
   traced ``pool_chunks``); scaling efficiency is normalized by the
   cores actually available (process pools cannot scale past
   ``os.cpu_count()``).  Each worker count runs ``REPEATS`` times, each
   run in a fresh Python process, so no run inherits another's warm
   caches or pool; a row records the median and the range.

Run:  PYTHONPATH=src python benchmarks/bench_engine.py [--smoke] [-o OUT]

``--smoke`` shrinks sizes for CI; the committed reference JSON comes from
a full run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import jz_schedule
from repro.core import jz_parameters, solve_allotment_lp
from repro.core.list_scheduler import list_schedule, list_schedule_reference
from repro.core.rounding import rounding_stretch_report
from repro.engine import BatchRunner
from repro.io import save_instance
from repro.obs import trace as obs_trace
from repro.workloads import make_instance


def seed_pipeline(instance):
    """The pre-optimization pipeline: LP (9) + reference LIST."""
    params = jz_parameters(instance.m)
    lp_result = solve_allotment_lp(instance)
    report = rounding_stretch_report(instance, lp_result.x, params.rho)
    return list_schedule_reference(
        instance, report.allotment, mu=params.mu
    )


def engine_pipeline(instance):
    """The optimized pipeline behind jz_schedule and the batch engine."""
    params = jz_parameters(instance.m)
    lp_result = solve_allotment_lp(instance)
    report = rounding_stretch_report(instance, lp_result.x, params.rho)
    return list_schedule(instance, report.allotment, mu=params.mu)


def _best_of(fn, arg, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_single(smoke):
    n = 150 if smoke else 500
    repeats = 1 if smoke else 3
    inst = make_instance("erdos_renyi", n, 8, model="power", seed=7)
    jz_schedule(make_instance("layered", 10, 4, model="power", seed=0))
    seed_s, seed_sched = _best_of(seed_pipeline, inst, repeats)
    new_s, new_sched = _best_of(engine_pipeline, inst, repeats)
    same = [
        (e.task, e.start, e.processors, e.duration)
        for e in seed_sched.entries
    ] == [
        (e.task, e.start, e.processors, e.duration)
        for e in new_sched.entries
    ]
    assert same, "optimized pipeline diverged from the seed path"
    return {
        "instance": inst.name,
        "n_tasks": inst.n_tasks,
        "m": inst.m,
        "makespan": new_sched.makespan,
        "schedules_identical": same,
        "seed_path_s": seed_s,
        "engine_path_s": new_s,
        "speedup": seed_s / new_s if new_s > 0 else float("inf"),
    }


#: Fresh-process runs per worker count of the batch arm.
REPEATS = 3


def _numbers(records):
    return [(r.makespan, r.lower_bound, r.ratio_bound) for r in records]


def batch_cell(workers, paths):
    """One batch-arm run, in the calling process: what a fresh
    subprocess reports back to :func:`bench_batch` as JSON."""
    with obs_trace.tracing() as tracer:
        res = BatchRunner(workers=workers).run(paths)
    assert res.n_errors == 0, res.errors()
    assert res.kernel_tiers() == {"array": len(paths)}, res.kernel_tiers()
    return {
        "pool_chunks": tracer.counter_totals().get("pool_chunks", 0),
        "wall_time_s": res.wall_time,
        "throughput_inst_per_s": res.throughput,
        "numbers": _numbers(res.records),
    }


def _run_cell(workers, paths):
    out = subprocess.run(
        [sys.executable, __file__, "--batch-cell", str(workers), *paths],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def bench_batch(smoke, directory):
    count, n = (6, 60) if smoke else (16, 500)
    worker_counts = (1, 2) if smoke else (1, 2, 4)
    paths = []
    for k in range(count):
        inst = make_instance("erdos_renyi", n, 8, model="power", seed=100 + k)
        paths.append(str(Path(directory) / f"i{k}.json"))
        save_instance(inst, paths[-1])
    cores = os.cpu_count() or 1
    rows = []
    base_numbers = base_throughput = None
    for w in worker_counts:
        cells = [_run_cell(w, paths) for _ in range(REPEATS)]
        for cell in cells:
            assert (cell["pool_chunks"] > 0) == (w > 1), (
                f"workers={w}: {cell['pool_chunks']} pool chunks"
            )
            if base_numbers is None:
                base_numbers = cell["numbers"]
            assert cell["numbers"] == base_numbers, (
                "pooled records diverged from in-process records"
            )
        walls = [c["wall_time_s"] for c in cells]
        rates = [c["throughput_inst_per_s"] for c in cells]
        rate = statistics.median(rates)
        if base_throughput is None:
            base_throughput = rate
        speedup = rate / base_throughput
        rows.append(
            {
                "workers": w,
                "pool_chunks": cells[0]["pool_chunks"],
                "runs": REPEATS,
                "wall_time_s": statistics.median(walls),
                "wall_time_range_s": [min(walls), max(walls)],
                "throughput_inst_per_s": rate,
                "throughput_range": [min(rates), max(rates)],
                "speedup_vs_in_process": speedup,
                "speedup_range": [
                    min(rates) / base_throughput,
                    max(rates) / base_throughput,
                ],
                "efficiency_vs_available_cores": speedup / min(w, cores),
            }
        )
    return {
        "instances": count,
        "n_tasks_each": n,
        # Process pools cannot scale past the cores that exist: on a
        # machine with fewer cores than the largest worker count the
        # absolute speedup column is flat by construction and only the
        # per-core efficiency is meaningful.
        "scaling_limited_by_cores": cores < max(worker_counts),
        "available_cores": cores,
        "scaling": rows,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes for CI")
    ap.add_argument("-o", "--output", default="BENCH_engine.json")
    ap.add_argument("--batch-cell", type=int, metavar="WORKERS",
                    help=argparse.SUPPRESS)
    ap.add_argument("paths", nargs="*", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.batch_cell is not None:
        print(json.dumps(batch_cell(args.batch_cell, args.paths)))
        return 0

    result = {
        "benchmark": "bench_engine",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "single": bench_single(args.smoke),
    }
    with tempfile.TemporaryDirectory(prefix="bench-engine-") as tmp:
        result["batch"] = bench_batch(args.smoke, tmp)
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
    single = result["single"]
    print(
        f"single ({single['instance']}): seed {single['seed_path_s']:.3f}s"
        f" -> engine {single['engine_path_s']:.3f}s "
        f"({single['speedup']:.2f}x)"
    )
    for row in result["batch"]["scaling"]:
        lo, hi = row["speedup_range"]
        print(
            f"batch workers={row['workers']}: "
            f"{row['throughput_inst_per_s']:.2f} inst/s, median of "
            f"{row['runs']} (speedup {row['speedup_vs_in_process']:.2f}x, "
            f"range {lo:.2f}-{hi:.2f}x, "
            f"efficiency {row['efficiency_vs_available_cores']:.2f})"
        )
    print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
