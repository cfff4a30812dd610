"""Benchmark E4 — scaling of the pipeline with n and m.

LP (9) has O(n·m) rows (the paper argues polynomial solvability from
exactly this); in the separable δ form the solver writes, the O(n·m)
work segments are bounded columns instead, and the rows are one per
arc, source and sink.  The bench measures
wall-clock of LP build+solve and of the full pipeline as n and m grow,
and benchmarks the dominant piece.

Run:  pytest benchmarks/bench_scaling.py --benchmark-only -s
"""

import time

from repro import jz_schedule
from repro.core import solve_allotment_lp
from repro.core.lp import assemble_allotment_arrays
from repro.workloads import make_instance


def test_lp_size_scales_linearly_in_n_and_m(benchmark, capsys):
    # The unmemoized assembly: the memoized entry point would time a
    # cache hit after the first round.
    benchmark(
        assemble_allotment_arrays.__wrapped__,
        make_instance("layered", 40, 8, model="power", seed=1),
    )
    rows = []
    shapes = []
    for n, m in [(20, 4), (40, 4), (80, 4), (40, 8), (40, 16), (40, 32)]:
        inst = make_instance("layered", n, m, model="power", seed=1)
        arrays = assemble_allotment_arrays(inst)
        rows.append((inst.n_tasks, m, arrays.n_variables, len(arrays.b_ub)))
        dag = inst.dag
        shapes.append((
            sum(len(inst.task(j).segments()) for j in range(inst.n_tasks)),
            dag.n_edges + len(dag.sources()) + len(dag.sinks()) + 2,
        ))
    with capsys.disabled():
        print()
        print("=== E4: LP (9) model size ===")
        print(f"{'n':>4} {'m':>3} {'vars':>6} {'rows':>7}")
        for n, m, nv, nc in rows:
            print(f"{n:>4} {m:>3} {nv:>6} {nc:>7}")
    # Variables are C_j, one δ per work segment (at most m - 1 per
    # task), L and C; rows are one per arc, source and sink, plus two.
    for (n, m, nv, nc), (segments, want_rows) in zip(rows, shapes):
        assert nv == n + segments + 2
        assert segments <= n * (m - 1)
        assert nc == want_rows


def test_pipeline_wall_clock_reasonable(benchmark, capsys):
    benchmark.pedantic(
        jz_schedule,
        args=(make_instance("layered", 50, 16, model="power", seed=2),),
        rounds=2,
        iterations=1,
    )
    timings = []
    for n in (25, 50, 100, 200):
        inst = make_instance("layered", n, 16, model="power", seed=2)
        t0 = time.perf_counter()
        res = jz_schedule(inst)
        dt = time.perf_counter() - t0
        timings.append((inst.n_tasks, dt, res.observed_ratio))
        assert dt < 30.0, f"pipeline too slow at n={n}"
    with capsys.disabled():
        print()
        print("=== E4: end-to-end wall clock (m=16) ===")
        for n, dt, ratio in timings:
            print(f"n={n:>4}  {dt * 1000:>8.1f} ms  ratio={ratio:.3f}")


def test_bench_lp_solve_n50_m16(benchmark):
    inst = make_instance("layered", 50, 16, model="power", seed=3)
    res = benchmark(solve_allotment_lp, inst)
    assert res.objective > 0


def test_bench_list_schedule_n200(benchmark):
    from repro.core import list_schedule

    inst = make_instance("layered", 200, 16, model="power", seed=5)
    alloc = [min(3, inst.m)] * inst.n_tasks
    sched = benchmark(list_schedule, inst, alloc, 6)
    assert sched.n_tasks == inst.n_tasks
