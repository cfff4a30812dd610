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

Both sides are timed in CPU time (``time.process_time``) and counted
in LP pivots (the ``repro_solver_lp_pivots_total`` counter), a number
no clock can disturb.  Each cell runs ``REPEATS`` times, each run in a
fresh ``bench_replan.py --cell N`` subprocess; a row holds the median
and the range of the per-run warm/cold ratio and every run's pivots.

The committed ``BENCH_replan.json`` comes from a full run;
``--smoke`` restricts to n = 2000 for CI, where
``check_replan_regression.py`` gates on the median within-run speedup
(hardware-independent), the pivot counts, the correctness flags and
the replayed LIST steps.

Run:  PYTHONPATH=src python benchmarks/bench_replan.py [--smoke] [-o OUT]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.core.instance import Instance
from repro.dag import Dag
from repro.obs.metrics import REGISTRY
from repro.pipeline import ReplanSession, SchedulingPipeline
from repro.schedule import validate_schedule
from repro.workloads import make_tasks_for_dag

M = 8
FULL_SIZES = (2000, 10000)
SMOKE_SIZES = (2000,)
AVG_OUT_DEGREE = 8.0
RETIME_FACTOR = 1.37

#: Fresh-process runs per cell; the gate reads the median ratio.
REPEATS = 3

#: Fields every run of a cell must agree on (the run is deterministic).
_SAME_IN_EVERY_RUN = (
    "shape", "n", "edges", "m", "retime_factor", "retimed_task", "mode",
    "lp_edits", "list_steps_reused", "n_disturbed", "makespan",
    "lower_bound",
)


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


def _lp_pivots_since(before):
    """LP iterations counted since ``before`` (a counter snapshot)."""
    return int(
        sum(
            v
            for (name, _labels), v in REGISTRY.counters_since(before).items()
            if name == "repro_solver_lp_pivots_total"
        )
    )


def _measured(fn, *args):
    """``fn(*args)``, its CPU seconds and the LP pivots it made."""
    before = REGISTRY.counter_state()
    t0 = time.process_time()
    out = fn(*args)
    return out, time.process_time() - t0, _lp_pivots_since(before)


def bench_cell(n, seed=7):
    """One run of a cell, in the calling process: what a fresh
    subprocess reports back to :func:`bench_size` as JSON."""
    inst = build_instance(n, seed)

    session = ReplanSession(inst)
    _, prime_s, _ = _measured(session.solve)

    # One mid-instance task slows down by 37%.
    target = n // 2
    times = [RETIME_FACTOR * t for t in inst.times[target].tolist()]
    child, delta = inst.evolve().retime(target, times).commit()

    result, warm_s, warm_pivots = _measured(
        session.resolve_delta, child, delta
    )
    cold, cold_s, cold_pivots = _measured(
        SchedulingPipeline("jz", "earliest-start").solve, child
    )

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
        "warm_lp_pivots": warm_pivots,
        "cold_lp_pivots": cold_pivots,
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


def _run_cell(n):
    out = subprocess.run(
        [sys.executable, __file__, "--cell", str(n)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def bench_size(n):
    """``REPEATS`` fresh-process runs of the cell at ``n``, as one row:
    the medians, the per-run ratio range and every run's pivots."""
    runs = [_run_cell(n) for _ in range(REPEATS)]
    row = {key: runs[0][key] for key in _SAME_IN_EVERY_RUN}
    for run in runs[1:]:
        moved = [k for k in _SAME_IN_EVERY_RUN if run[k] != row[k]]
        assert not moved, f"n={n}: runs disagree on {moved}"
    ratios = [
        r["cold_s"] / r["warm_s"] if r["warm_s"] > 0 else float("inf")
        for r in runs
    ]
    row.update(
        runs=REPEATS,
        clock="cpu",
        prime_s=statistics.median(r["prime_s"] for r in runs),
        warm_s=statistics.median(r["warm_s"] for r in runs),
        cold_s=statistics.median(r["cold_s"] for r in runs),
        speedup=statistics.median(ratios),
        speedup_range=[min(ratios), max(ratios)],
        warm_lp_pivots=[r["warm_lp_pivots"] for r in runs],
        cold_lp_pivots=[r["cold_lp_pivots"] for r in runs],
    )
    for flag in ("makespan_equal", "allotment_equal", "schedule_equal",
                 "validator_clean"):
        row[flag] = all(r[flag] for r in runs)
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="n = 2000 only (CI)")
    ap.add_argument("-o", "--output", default="BENCH_replan.json")
    ap.add_argument("--cell", type=int, metavar="N", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.cell is not None:
        print(json.dumps(bench_cell(args.cell)))
        return

    cells = []
    for n in SMOKE_SIZES if args.smoke else FULL_SIZES:
        cell = bench_size(n)
        cells.append(cell)
        lo, hi = cell["speedup_range"]
        print(
            f"erdos_renyi n={n:>6}: cold {cell['cold_s']:7.2f}s -> "
            f"warm {cell['warm_s']:6.2f}s CPU "
            f"({cell['speedup']:5.1f}x median of {cell['runs']}, range "
            f"{lo:.1f}-{hi:.1f}x; LP pivots warm "
            f"{max(cell['warm_lp_pivots'])} vs cold "
            f"{min(cell['cold_lp_pivots'])}; mode={cell['mode']}, "
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
            "— the whole resolve_delta call, not just the LP; times "
            "are CPU seconds, medians of fresh-process runs, and "
            "speedup is the median per-run cold/warm ratio"
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
