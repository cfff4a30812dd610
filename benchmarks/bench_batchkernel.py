"""Benchmark BK1 — the cross-instance batched kernel tier.

Measures fleets of B small instances solved two ways per cell:

* **reference** — the per-instance pipeline, one
  :class:`repro.pipeline.SchedulingPipeline` solve per instance (the
  exact code path ``BatchRunner`` runs for every item the batched tier
  does not take: paths, singletons, ineligible strategy pairs);
* **batched** — one :func:`repro.batchkernel.solve_batch` call packing
  the whole fleet into block-diagonal CSR/LP structures and running
  LIST's staircase kernel on each block in turn.

Every cell asserts ``schedules_identical``: both arms digest every
schedule entry (task, start, processors, duration — full float repr)
and the digests must match exactly, or the cell fails.  Every cell also
records the batched LIST's work (``work``: ``frontier_steps``,
``timeline_refreshes`` and the cap ``mu``, which is ``m`` for a
strategy without one) from one traced ``solve_batch`` made after the
timed region.

Methodology: **each arm runs in its own fresh subprocess.**  Measured
in-process, the second arm inherits the first arm's heap layout and
allocator state, which on this workload swings timings by 2x and more —
whichever arm runs second loses.  A fresh interpreter per arm removes
the order effect; instances are rebuilt in the child (deterministic
seeds) so no state crosses the boundary, and ``gc`` is disabled during
the timed region (the ``timeit`` convention).

Run:  PYTHONPATH=src python benchmarks/bench_batchkernel.py [--smoke] [-o OUT]

``--smoke`` runs a small fleet for CI; the committed reference JSON
comes from a full run (headline cell: B=1000 × n=500).  The CI
bench-regression job feeds the smoke output, and the committed full
run, to ``check_batchkernel_regression.py``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

#: (label, B, n, m, family, model, algorithm).  The first full cell is
#: the headline the regression gate reads.
FULL_CELLS = [
    ("headline", 1000, 500, 8, "erdos_renyi", "power", "sequential"),
    ("tiny-n", 1000, 48, 8, "erdos_renyi", "power", "sequential"),
    ("lp-tier", 200, 120, 8, "erdos_renyi", "power", "jz"),
]
SMOKE_CELLS = [
    ("headline", 320, 200, 8, "erdos_renyi", "power", "sequential"),
    ("lp-tier", 48, 60, 8, "erdos_renyi", "power", "jz"),
]

PRIORITY = "earliest-start"


def _build_fleet(cell):
    from repro.workloads import make_instance

    _label, B, n, m, family, model, _algo = cell
    return [
        make_instance(family, n, m, model=model, seed=1000 + k)
        for k in range(B)
    ]


def _digest(schedules):
    h = hashlib.sha256()
    for sched in schedules:
        for e in sched.entries:
            h.update(
                f"{e.task},{e.start!r},{e.processors},"
                f"{e.duration!r};".encode()
            )
        h.update(b"|")
    return h.hexdigest()


def _list_work(fleet, algo):
    """The batched LIST's work counters from one traced solve_batch."""
    from repro.batchkernel import solve_batch
    from repro.obs import trace as obs_trace

    with obs_trace.tracing() as tracer:
        reports = solve_batch(fleet, algo, PRIORITY)
    totals = tracer.counter_totals()
    return {
        "frontier_steps": totals["frontier_steps"],
        "timeline_refreshes": totals["timeline_refreshes"],
        "mu": max(r.mu or inst.m for r, inst in zip(reports, fleet)),
    }


def run_arm(arm, cell):
    """Child body: build the fleet fresh, run one arm, report JSON."""
    algo = cell[6]
    fleet = _build_fleet(cell)
    gc.collect()
    gc.disable()
    try:
        if arm == "batched":
            from repro.batchkernel import solve_batch

            t0 = time.perf_counter()
            reports = solve_batch(fleet, algo, PRIORITY)
            elapsed = time.perf_counter() - t0
            schedules = [r.schedule for r in reports]
        else:
            from repro.pipeline import SchedulingPipeline

            pipe = SchedulingPipeline(algo, PRIORITY)
            t0 = time.perf_counter()
            reports = [pipe.solve(inst) for inst in fleet]
            elapsed = time.perf_counter() - t0
            schedules = [r.schedule for r in reports]
    finally:
        gc.enable()
    out = {
        "arm": arm,
        "elapsed_s": elapsed,
        "digest": _digest(schedules),
        "makespan_sum": sum(s.makespan for s in schedules),
    }
    if arm == "batched":
        out["work"] = _list_work(fleet, algo)
    return out


def _spawn_arm(arm, cell):
    """Run one arm in a fresh interpreter; returns its JSON report."""
    proc = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--worker", arm, "--cell", json.dumps(cell),
        ],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{arm} arm failed for cell {cell}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def bench_cell(cell):
    label, B, n, m, family, model, algo = cell
    batched = _spawn_arm("batched", cell)
    reference = _spawn_arm("reference", cell)
    identical = batched["digest"] == reference["digest"]
    assert identical, (
        f"{label}: batched schedules diverged from the per-instance "
        f"reference (B={B}, n={n}, {algo})"
    )
    ref_s, bat_s = reference["elapsed_s"], batched["elapsed_s"]
    return {
        "label": label,
        "B": B,
        "n": n,
        "m": m,
        "family": family,
        "model": model,
        "algorithm": algo,
        "priority": PRIORITY,
        "reference_s": ref_s,
        "batched_s": bat_s,
        "speedup": ref_s / bat_s if bat_s > 0 else None,
        "schedules_identical": identical,
        "makespan_sum": batched["makespan_sum"],
        "work": batched["work"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small fleets for CI")
    ap.add_argument("-o", "--output", default="BENCH_batchkernel.json")
    ap.add_argument("--worker", choices=["batched", "reference"],
                    help=argparse.SUPPRESS)
    ap.add_argument("--cell", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        print(json.dumps(run_arm(args.worker, json.loads(args.cell))))
        return 0

    cells = []
    for cell in (SMOKE_CELLS if args.smoke else FULL_CELLS):
        row = bench_cell(cell)
        cells.append(row)
        print(
            f"{row['label']:>9} B={row['B']:>5} n={row['n']:>4} "
            f"{row['algorithm']:>10}: reference {row['reference_s']:8.2f}s"
            f" -> batched {row['batched_s']:7.2f}s "
            f"({row['speedup']:5.2f}x, "
            f"identical={row['schedules_identical']})",
            flush=True,
        )

    headline = next(c for c in cells if c["label"] == "headline")
    result = {
        "benchmark": "bench_batchkernel",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "note": (
            "each arm measured in a fresh subprocess (in-process "
            "back-to-back measurement inherits the first arm's heap "
            "layout and is unstable by 2x); gc disabled in the timed "
            "region; fleets rebuilt per arm from the same seeds"
        ),
        "cells": cells,
        "headline_speedup": headline["speedup"],
        "all_identical": all(c["schedules_identical"] for c in cells),
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"written to {args.output}")
    print(
        f"headline: {headline['speedup']:.2f}x at "
        f"B={headline['B']} n={headline['n']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
