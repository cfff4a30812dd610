"""Benchmark R1 — warm delta re-solves vs cold solves.

The evolution API's performance claim: after a small mutation of a
large instance, :meth:`repro.pipeline.incremental.ReplanSession
.resolve_delta` re-solves LP (9) inside the resident HiGHS model —
previous simplex basis intact, only the changed bounds/coefficients
pushed — and must beat a from-scratch solve of the evolved child by a
wide margin.

Per cell (Erdős–Rényi DAGs, avg out-degree 8 so the LP dominates
phase 2, n ∈ {2000, 10000}, m = 8):

1. cold-solve the parent (primes the session's resident model);
2. retime one mid-instance task ×1.37 via ``Instance.evolve()``;
3. time ``resolve_delta`` (the **warm** side — includes the child's
   LP (9) assembly, LP edits, the warm LP solve, rounding and phase 2
   resumed from the parent's LIST run, recording how many LIST steps
   it replayed as ``list_steps_reused``);
4. time a from-scratch ``SchedulingPipeline.solve`` of the same child
   (the **cold** side);
5. assert the two sides agree on allotment, makespan and every schedule
   entry and that the warm schedule is validator-clean.

The committed ``BENCH_replan.json`` comes from a full run;
``--smoke`` restricts to n = 2000 for CI, where
``check_replan_regression.py`` gates on the within-run speedup
(hardware-independent), the correctness flags and the replayed LIST
steps.

Run:  PYTHONPATH=src python benchmarks/bench_replan.py [--smoke] [-o OUT]
"""

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.core.instance import Instance
from repro.dag import Dag
from repro.pipeline import ReplanSession, SchedulingPipeline
from repro.schedule import validate_schedule
from repro.workloads import make_tasks_for_dag

M = 8
FULL_SIZES = (2000, 10000)
SMOKE_SIZES = (2000,)
AVG_OUT_DEGREE = 8.0
RETIME_FACTOR = 1.37


def erdos_renyi_dag(n, seed, avg_out_degree=AVG_OUT_DEGREE):
    """G(n, p) over forward pairs, sampled by linear index over the
    upper triangle (same vectorized sampler as bench_scale)."""
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


def build_instance(n, seed=7):
    dag = erdos_renyi_dag(n, seed)
    tasks = make_tasks_for_dag(dag, M, model="power", seed=seed + 1)
    return Instance(tasks, dag, M, name=f"er-n{n}-m{M}-power")


def bench_cell(n, seed=7):
    inst = build_instance(n, seed)

    session = ReplanSession(inst)
    t0 = time.perf_counter()
    session.solve()
    prime_s = time.perf_counter() - t0

    # One mid-instance task slows down by 37%.
    target = n // 2
    times = [RETIME_FACTOR * t for t in inst.task(target).times]
    child, delta = inst.evolve().retime(target, times).commit()

    t0 = time.perf_counter()
    result = session.resolve_delta(child, delta)
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = SchedulingPipeline("jz", "earliest-start").solve(child)
    cold_s = time.perf_counter() - t0

    makespan_equal = result.report.makespan == cold.makespan
    allotment_equal = result.report.allotment == cold.allotment
    schedule_equal = result.report.schedule.entries == cold.schedule.entries
    try:
        validate_schedule(child, result.report.schedule)
        valid = True
    except Exception:
        valid = False
    assert makespan_equal, f"n={n}: warm makespan diverged from cold"
    assert allotment_equal, f"n={n}: warm allotment diverged from cold"
    assert schedule_equal, f"n={n}: warm schedule diverged from cold"
    assert valid, f"n={n}: warm schedule failed validation"

    return {
        "shape": "erdos_renyi",
        "n": n,
        "edges": inst.dag.n_edges,
        "m": M,
        "retime_factor": RETIME_FACTOR,
        "retimed_task": target,
        "mode": result.mode,
        "lp_edits": result.lp_edits,
        "list_steps_reused": result.report.metadata["list_steps_reused"],
        "prime_s": prime_s,
        "warm_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / warm_s if warm_s > 0 else None,
        "n_disturbed": (
            result.disturbance.n_disturbed
            if result.disturbance is not None
            else None
        ),
        "makespan": result.report.makespan,
        "lower_bound": result.report.lower_bound,
        "makespan_equal": makespan_equal,
        "allotment_equal": allotment_equal,
        "schedule_equal": schedule_equal,
        "validator_clean": valid,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="n = 2000 only (CI)")
    ap.add_argument("-o", "--output", default="BENCH_replan.json")
    args = ap.parse_args(argv)

    cells = []
    for n in SMOKE_SIZES if args.smoke else FULL_SIZES:
        cell = bench_cell(n)
        cells.append(cell)
        print(
            f"erdos_renyi n={n:>6}: cold {cell['cold_s']:7.2f}s -> "
            f"warm {cell['warm_s']:6.2f}s "
            f"({cell['speedup']:5.1f}x, mode={cell['mode']}, "
            f"lp_edits={cell['lp_edits']}, "
            f"list_steps_reused={cell['list_steps_reused']}/{n}, "
            f"schedule_equal={cell['schedule_equal']})",
            flush=True,
        )

    result = {
        "benchmark": "bench_replan",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "m": M,
        "avg_out_degree": AVG_OUT_DEGREE,
        "note": (
            "warm_s includes the child's LP (9) assembly, LP edits, "
            "the warm LP solve, rounding and phase 2 resumed from the "
            "parent's LIST run (list_steps_reused of n steps replayed) "
            "— the whole resolve_delta call, not just the LP"
        ),
        "cells": cells,
        "speedup_at_n10000": next(
            (c["speedup"] for c in cells if c["n"] == 10000), None
        ),
        "all_consistent": all(
            c["makespan_equal"]
            and c["allotment_equal"]
            and c["schedule_equal"]
            and c["validator_clean"]
            and c["mode"] == "warm"
            for c in cells
        ),
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
