"""Benchmark S1 — large-instance scaling of the array-native solver core.

Sweeps the JZ pipeline over n ∈ {500, 2k, 10k, 50k} × three DAG shapes
(chain, layered, Erdős–Rényi) and times, for every cell, phase 1 (LP (9)
and rounding) and phase 2, :func:`repro.core.list_schedule` (LIST on the
free-processor staircase).  ``phase2_new_s`` and ``total_new_s`` keep
the names the committed smoke baseline is keyed on.

Every schedule is checked outside the timed region.  At n ≤ 2000 the
cell compares it entry for entry with
:func:`~repro.core.list_scheduler.list_schedule_reference`, the literal
Table 1 (``schedules_identical``); above, where the reference takes
minutes, it runs the validator (``validated``).  A strategy sweep at
n=500 compares every registered allotment strategy's schedule with the
reference on every shape.  Every cell also records the work of one
traced ``list_schedule`` call: ``timeline_refreshes`` (earliest-start
evaluations), ``frontier_steps`` (decided steps) and the cap ``mu``;
and, outside the timed region, LP (9)'s size (``lp_rows``, ``lp_nnz``)
and the simplex pivots of one more cold solve (``lp_pivots``).
``check_scale_regression.py`` gates the LIST work and the LP rows
without a clock, and a chain's phase 1 against linear growth.

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
from repro.core.list_scheduler import list_schedule, list_schedule_reference
from repro.core.lp import assemble_allotment_arrays, solve_allotment_lp
from repro.core.parameters import jz_parameters
from repro.core.rounding import rounding_stretch_report
from repro.dag import Dag
from repro.lpsolve.scipy_backend import solve_ub_arrays
from repro.obs import trace as obs_trace
from repro.pipeline import list_strategies
from repro.schedule import validate_schedule
from repro.workloads import make_tasks_for_dag

M = 8
FULL_SIZES = (500, 2000, 10000, 50000)
SMOKE_SIZES = (500, 2000)
SHAPES = ("chain", "layered", "erdos_renyi")

#: Largest n whose schedules are compared with the reference LIST.
REFERENCE_MAX_N = 2000


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
    lp_arrays = assemble_allotment_arrays(inst)
    lp_pivots = solve_ub_arrays(lp_arrays).iterations
    t0 = time.perf_counter()
    rounding = rounding_stretch_report(inst, lp.x, params.rho)
    round_s = time.perf_counter() - t0
    allot = rounding.allotment

    new_s, sched = _best_of(
        lambda: list_schedule(inst, allot, mu=params.mu), repeats
    )
    check = {}
    if n <= REFERENCE_MAX_N:
        ref = list_schedule_reference(inst, allot, mu=params.mu)
        check["schedules_identical"] = _entries(sched) == _entries(ref)
        assert check["schedules_identical"], (
            f"{shape} n={n}: LIST diverged from the reference"
        )
    else:
        violations = validate_schedule(inst, sched)
        assert not violations, f"{shape} n={n}: {violations[:3]}"
        check["validated"] = True
    with obs_trace.tracing() as tracer:
        list_schedule(inst, allot, mu=params.mu)
    totals = tracer.counter_totals()

    return {
        "shape": shape,
        "n": n,
        "edges": inst.dag.n_edges,
        "m": M,
        "build_s": build_s,
        "phase1_s": phase1_s,
        "rounding_s": round_s,
        "phase2_new_s": new_s,
        "total_new_s": phase1_s + round_s + new_s,
        **check,
        "makespan": sched.makespan,
        "lower_bound": lp.objective,
        "lp_rows": len(lp_arrays.b_ub),
        "lp_nnz": len(lp_arrays.vals),
        "lp_pivots": lp_pivots,
        "work": {
            "timeline_refreshes": totals["timeline_refreshes"],
            "frontier_steps": totals["frontier_steps"],
            "mu": params.mu,
        },
    }


def bench_strategies(n=500):
    """Every registered allotment strategy × every shape at n=500: the
    strategy's schedule against the reference LIST on its allotment."""
    rows = []
    for shape in SHAPES:
        inst, _ = build_instance(shape, n)
        for info in list_strategies("allotment"):
            t0 = time.perf_counter()
            result = info.fn(inst)
            allot_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            sched = list_schedule(inst, result.allotment, mu=result.mu)
            new_s = time.perf_counter() - t0
            ref = list_schedule_reference(
                inst, result.allotment, mu=result.mu
            )
            identical = _entries(sched) == _entries(ref)
            assert identical, f"{shape}×{info.name}: phase-2 diverged"
            rows.append(
                {
                    "shape": shape,
                    "strategy": info.name,
                    "n": n,
                    "allotment_s": allot_s,
                    "phase2_new_s": new_s,
                    "schedules_identical": identical,
                    "makespan": sched.makespan,
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
            work = cell["work"]
            print(
                f"{shape:>12} n={n:>6}: {cell['total_new_s']:7.2f}s "
                f"(phase 1 {cell['phase1_s']:7.2f}s, LP "
                f"{cell['lp_rows']} rows, {cell['lp_pivots']} pivots, LIST "
                f"{cell['phase2_new_s']:6.3f}s, "
                f"{work['timeline_refreshes'] / work['frontier_steps']:.2f}"
                f" evaluations per step, "
                + ("identical to the reference"
                   if "schedules_identical" in cell else "validated")
                + ")",
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

    result = {
        "benchmark": "bench_scale",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "m": M,
        "note": (
            f"schedules at n <= {REFERENCE_MAX_N} are compared with "
            "list_schedule_reference, larger ones validated"
        ),
        "cells": cells,
        "strategies": strategy_rows,
        "all_checked": all(
            c.get("schedules_identical") or c.get("validated")
            for c in cells
        ) and all(r["schedules_identical"] for r in strategy_rows),
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
