"""Benchmark S1 — large-instance scaling of the array-native solver core.

Sweeps the JZ pipeline over n ∈ {500, 2k, 10k, 50k} × three DAG shapes
(chain, layered, Erdős–Rényi) and, for every cell, runs phase 2 through
both implementations:

* **new** — :func:`repro.core.list_schedule` on the tier
  :func:`~repro.core.list_scheduler.dispatch_tier` picks: LIST on the
  free-processor staircase for wide DAGs (the array tier), the loop
  below;
* **baseline** — the pre-PR path (:func:`repro.core.list_schedule_loop`:
  per-task Python loop with the incremental earliest-start cache).

Phase 1 (LP (9) + rounding) is timed once and shared by both sides: the
LP solve itself is the same HiGHS call either way, and the pre-PR
assembly was *slower* than today's packed-array assembly, so the
reported end-to-end speedups are conservative.  Every cell asserts
``schedules_identical`` — the two phase-2 paths must agree float for
float — and a strategy sweep at n=500 re-asserts the identity for every
registered allotment strategy on every shape.  Every cell also records
the work of one traced ``list_schedule`` call, made outside the timed
region: ``timeline_refreshes`` (earliest-start evaluations),
``frontier_steps`` (decided steps) and the cap ``mu``, which
``check_scale_regression.py`` gates without a clock.

DAGs are generated by vectorized bench-local samplers (deterministic per
seed) because the library's G(n, p) generator draws all O(n²) pairs in
Python, which would dominate the benchmark at n = 50 000.

Run:  PYTHONPATH=src python benchmarks/bench_scale.py [--smoke] [-o OUT]

``--smoke`` restricts to n ∈ {500, 2000} for CI; the committed reference
JSON comes from a full run.  The CI bench-regression job feeds the smoke
output to ``check_scale_regression.py``.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core.instance import Instance
from repro.core.list_scheduler import list_schedule, list_schedule_loop
from repro.core.lp import solve_allotment_lp
from repro.core.parameters import jz_parameters
from repro.core.rounding import rounding_stretch_report
from repro.dag import Dag
from repro.obs import trace as obs_trace
from repro.pipeline import list_strategies
from repro.workloads import make_tasks_for_dag

M = 8
FULL_SIZES = (500, 2000, 10000, 50000)
SMOKE_SIZES = (500, 2000)
SHAPES = ("chain", "layered", "erdos_renyi")


# ---------------------------------------------------------------------------
# vectorized DAG samplers (deterministic per seed)
# ---------------------------------------------------------------------------
def chain_dag(n, seed):
    return Dag.chain(n)


def layered_dag(n, seed, width=24):
    """Layered DAG: node i sits in layer i // width; every non-first-
    layer node draws 1–3 predecessors from the previous layer."""
    rng = np.random.default_rng(seed)
    first = min(width, n)
    tail = np.arange(first, n)
    k = rng.integers(1, 4, size=len(tail))
    v = np.repeat(tail, k)
    # Every previous layer is full (only the last layer can be partial),
    # so predecessors are drawn uniformly from a full-width layer.
    layer_start = (v // width - 1) * width
    u = layer_start + rng.integers(0, width, size=len(v))
    return Dag(n, np.unique(np.column_stack([u, v]), axis=0))


def erdos_renyi_dag(n, seed, avg_out_degree=2.0):
    """G(n, p) over forward pairs with p = 2·avg_out_degree / (n-1),
    sampled by linear index over the upper triangle."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    p = min(1.0, avg_out_degree * n / max(1, total))
    k = int(rng.binomial(total, p))
    pos = np.unique(rng.integers(0, total, size=int(k * 1.02) + 8))[:k]
    i = (
        n - 2 - np.floor(
            np.sqrt(-8.0 * pos + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5
        )
    ).astype(np.intp)
    j = (pos + i + 1 - i * (2 * n - i - 1) // 2).astype(np.intp)
    return Dag(n, np.column_stack([i, j]))


GENERATORS = {
    "chain": chain_dag,
    "layered": layered_dag,
    "erdos_renyi": erdos_renyi_dag,
}


def build_instance(shape, n, seed=7):
    t0 = time.perf_counter()
    dag = GENERATORS[shape](n, seed)
    tasks = make_tasks_for_dag(dag, M, model="power", seed=seed + 1)
    inst = Instance(tasks, dag, M, name=f"{shape}-n{n}-m{M}-power")
    return inst, time.perf_counter() - t0


def _entries(schedule):
    return [
        (e.task, e.start, e.processors, e.duration)
        for e in schedule.entries
    ]


def _best_of(fn, repeats):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_cell(shape, n, repeats):
    inst, build_s = build_instance(shape, n)
    params = jz_parameters(M)

    phase1_s, lp = _best_of(lambda: solve_allotment_lp(inst), repeats)
    t0 = time.perf_counter()
    rounding = rounding_stretch_report(inst, lp.x, params.rho)
    round_s = time.perf_counter() - t0
    allot = rounding.allotment

    new_s, sched_new = _best_of(
        lambda: list_schedule(inst, allot, mu=params.mu), repeats
    )
    base_s, sched_base = _best_of(
        lambda: list_schedule_loop(inst, allot, mu=params.mu), 1
    )
    identical = _entries(sched_new) == _entries(sched_base)
    assert identical, f"{shape} n={n}: array path diverged from baseline"
    with obs_trace.tracing() as tracer:
        list_schedule(inst, allot, mu=params.mu)
    totals = tracer.counter_totals()

    new_total = phase1_s + round_s + new_s
    base_total = phase1_s + round_s + base_s
    return {
        "shape": shape,
        "n": n,
        "edges": inst.dag.n_edges,
        "m": M,
        "build_s": build_s,
        "phase1_s": phase1_s,
        "rounding_s": round_s,
        "phase2_new_s": new_s,
        "phase2_baseline_s": base_s,
        "total_new_s": new_total,
        "total_baseline_s": base_total,
        "speedup": base_total / new_total if new_total > 0 else None,
        "phase2_speedup": base_s / new_s if new_s > 0 else None,
        "schedules_identical": identical,
        "makespan": sched_new.makespan,
        "lower_bound": lp.objective,
        "work": {
            "timeline_refreshes": totals["timeline_refreshes"],
            "frontier_steps": totals["frontier_steps"],
            "mu": params.mu,
        },
    }


def bench_strategies(n=500):
    """Every registered allotment strategy × every shape at n=500:
    bit-identity of the two phase-2 paths on that strategy's allotment."""
    rows = []
    for shape in SHAPES:
        inst, _ = build_instance(shape, n)
        for info in list_strategies("allotment"):
            t0 = time.perf_counter()
            result = info.fn(inst)
            allot_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            sched_new = list_schedule(
                inst, result.allotment, mu=result.mu
            )
            new_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            sched_base = list_schedule_loop(
                inst, result.allotment, mu=result.mu
            )
            base_s = time.perf_counter() - t0
            identical = _entries(sched_new) == _entries(sched_base)
            assert identical, f"{shape}×{info.name}: phase-2 diverged"
            rows.append(
                {
                    "shape": shape,
                    "strategy": info.name,
                    "n": n,
                    "allotment_s": allot_s,
                    "phase2_new_s": new_s,
                    "phase2_baseline_s": base_s,
                    "schedules_identical": identical,
                    "makespan": sched_new.makespan,
                }
            )
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="n <= 2000 only, single repeats (CI)")
    ap.add_argument("-o", "--output", default="BENCH_scale.json")
    ap.add_argument("--skip-strategies", action="store_true",
                    help="skip the per-strategy identity sweep")
    args = ap.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    cells = []
    for n in sizes:
        for shape in SHAPES:
            repeats = 1 if (args.smoke or n > 2000) else 2
            cell = bench_cell(shape, n, repeats)
            cells.append(cell)
            print(
                f"{shape:>12} n={n:>6}: baseline "
                f"{cell['total_baseline_s']:8.2f}s -> new "
                f"{cell['total_new_s']:7.2f}s "
                f"({cell['speedup']:5.1f}x end-to-end, "
                f"{cell['phase2_speedup']:6.1f}x phase 2, "
                f"identical={cell['schedules_identical']})",
                flush=True,
            )

    strategy_rows = (
        [] if args.skip_strategies else bench_strategies()
    )
    for row in strategy_rows:
        print(
            f"strategy {row['shape']:>12} × {row['strategy']:<20}"
            f" identical={row['schedules_identical']}",
            flush=True,
        )

    at_10k = {
        c["shape"]: c["speedup"] for c in cells if c["n"] == 10000
    }
    result = {
        "benchmark": "bench_scale",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "m": M,
        "note": (
            "phase 1 (LP solve + rounding) is shared by both paths; "
            "the pre-PR assembly was slower than the packed-array "
            "assembly measured here, so end-to-end speedups are "
            "conservative"
        ),
        "cells": cells,
        "speedup_at_n10000": at_10k,
        "strategies": strategy_rows,
        "all_identical": all(c["schedules_identical"] for c in cells)
        and all(r["schedules_identical"] for r in strategy_rows),
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"written to {args.output}")
    if at_10k:
        worst = min(at_10k, key=at_10k.get)
        print(
            f"speedup at n=10000: "
            + ", ".join(f"{s}={v:.1f}x" for s, v in at_10k.items())
            + f" (min: {worst})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
