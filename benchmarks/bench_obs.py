"""Benchmark OBS — flight-recorder overhead and trace determinism.

Holds ``repro.obs`` to its two contracts on the bench_scale
``erdos_renyi`` workload (n = 10 000, m = 8; ``--smoke`` drops to
n = 2 000 for CI):

1. **Zero-overhead-when-off.**  Every instrumentation point is either
   a module seam (``obs_trace.span(...)`` / ``obs_trace.add(...)`` —
   one global read when disarmed) or a hoisted-local check inside a
   hot loop (``if tracer is not None``).  We measure the disarmed
   unit cost of the *most expensive* seam shape directly, count how
   often any seam could possibly be consulted during one solve
   (wrapped module calls + every hot-loop iteration, bounded by the
   deterministic work counters), and report

       disabled_overhead_ratio =
           consultations x unit_cost / end_to_end_solve_seconds

   as a deliberate **over-estimate** (each hot-loop check is billed at
   the dearer module-seam price).  The seam cost and the solve time
   are paired: each of ``ROUNDS`` rounds times one seam loop and then
   one disarmed solve, both in CPU time, so a round divides two clocks
   read back to back rather than a seam cost and a solve time taken
   at different moments of a host whose speed drifts.
   ``check_obs_regression.py`` gates the median per-round ratio at
   <= 2%.  Being a within-round ratio it is hardware-independent,
   unlike a wall-clock floor.

2. **Traces are regression artifacts.**  Two traced solves of the
   same instance must produce bit-identical
   ``Tracer.deterministic_profile()`` payloads (wall times stripped,
   work counters kept); the benchmark records the shared SHA-256 and
   fails loudly if the runs diverge.  The traced/disarmed CPU-time
   factor is reported for context (not gated: it tracks span *count*,
   which is a property of the workload, not a regression).

Run:  PYTHONPATH=src python benchmarks/bench_obs.py [--smoke] [-o OUT]
"""

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time

from bench_scale import M, build_instance

from repro.obs import trace as obs_trace
from repro.pipeline import SchedulingPipeline

FULL_N = 10_000
SMOKE_N = 2_000
SHAPE = "erdos_renyi"
#: Paired seam-loop and disarmed-solve timings; the gate reads their
#: median ratio.
ROUNDS = 5

#: Hot-loop iteration counters: each counted event corresponds to at
#: most one hoisted ``if tracer is not None`` check in a loop body, so
#: their sum bounds the consultations the module-call wrappers miss.
HOT_LOOP_COUNTERS = (
    "lp_pivots",
    "bsearch_probes",
    "frontier_steps",
)


def measure_seam_cost_ns(iters: int = 300_000) -> float:
    """Disarmed per-consultation cost of the dearest seam shape, in CPU
    nanoseconds: a ``with obs_trace.span(...)`` block (global read +
    null-span enter/exit).  ``obs_trace.add`` and hoisted-local checks
    are strictly cheaper; billing everything at this price
    over-counts."""
    assert obs_trace.active() is None
    span = obs_trace.span
    t0 = time.process_time()
    for _ in range(iters):
        with span("bench.seam"):
            pass
    return (time.process_time() - t0) / iters * 1e9


def cpu_timed(fn):
    """``fn()``'s CPU seconds and result."""
    t0 = time.process_time()
    out = fn()
    return time.process_time() - t0, out


def best_of(fn, repeats: int):
    best, out = float("inf"), None
    for _ in range(repeats):
        took, out = cpu_timed(fn)
        best = min(best, took)
    return best, out


def count_consultations(pipe, inst, tracer):
    """One traced solve with the module seams wrapped in counters.

    Returns (span_calls, add_calls, hot_loop_iterations).  Hot loops
    hoist ``tracer = obs_trace.active()`` and bypass the module
    functions, so their per-iteration checks are bounded separately
    via the deterministic work counters they emit.
    """
    calls = {"span": 0, "add": 0}
    orig_span, orig_add = obs_trace.span, obs_trace.add

    def counting_span(name, **args):
        calls["span"] += 1
        return orig_span(name, **args)

    def counting_add(counter, n=1):
        calls["add"] += 1
        return orig_add(counter, n)

    obs_trace.span, obs_trace.add = counting_span, counting_add
    try:
        with obs_trace.tracing(tracer):
            pipe.solve(inst)
    finally:
        obs_trace.span, obs_trace.add = orig_span, orig_add
    totals = tracer.counter_totals()
    hot = sum(totals.get(key, 0) for key in HOT_LOOP_COUNTERS)
    return calls["span"], calls["add"], hot


def profile_digest(tracer) -> str:
    payload = json.dumps(tracer.deterministic_profile(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help=f"n={SMOKE_N} instead of n={FULL_N} (CI)")
    ap.add_argument("-o", "--output", default="BENCH_obs.json")
    ap.add_argument("--repeats", type=int, default=None,
                    help="traced solve repeats (default 3, smoke 2)")
    args = ap.parse_args(argv)

    n = SMOKE_N if args.smoke else FULL_N
    repeats = args.repeats or (2 if args.smoke else 3)
    inst, _ = build_instance(SHAPE, n)
    pipe = SchedulingPipeline("jz", "earliest-start")
    print(f"instance: {SHAPE} n={n} m={M}; repeats={repeats}")

    # -- contract 1: zero-overhead-when-off ---------------------------
    assert obs_trace.active() is None, "tracer armed before benchmark"
    span_calls, add_calls, hot_iters = count_consultations(
        pipe, inst, obs_trace.Tracer(capacity=1 << 20)
    )
    consultations = span_calls + add_calls + hot_iters
    rounds = []
    for _ in range(ROUNDS):
        seam_ns = measure_seam_cost_ns()
        solve_s, report = cpu_timed(lambda: pipe.solve(inst))
        rounds.append({
            "seam_cost_ns": round(seam_ns, 2),
            "solve_s": solve_s,
            "ratio": consultations * seam_ns * 1e-9 / solve_s,
        })
    ratio = statistics.median(r["ratio"] for r in rounds)
    seam_ns = statistics.median(r["seam_cost_ns"] for r in rounds)
    disarmed_s = statistics.median(r["solve_s"] for r in rounds)
    print(f"disarmed solve        : {disarmed_s * 1e3:8.1f} ms CPU, "
          f"median of {ROUNDS} (makespan {report.makespan:.2f})")
    print(f"seam unit cost        : {seam_ns:8.1f} ns CPU, median")
    print(f"seam consultations    : {consultations:8d} "
          f"(span {span_calls}, add {add_calls}, hot-loop {hot_iters})")
    print(f"disabled overhead     : {ratio:8.4%}  median per-round ratio, "
          f"range {min(r['ratio'] for r in rounds):.4%}–"
          f"{max(r['ratio'] for r in rounds):.4%}  (gate: <= 2%)")

    # -- contract 2: deterministic traces -----------------------------
    def traced_solve():
        tr = obs_trace.Tracer(capacity=1 << 20)
        with obs_trace.tracing(tr):
            pipe.solve(inst)
        return tr

    traced_s, tracer_a = best_of(traced_solve, repeats)
    tracer_b = traced_solve()
    digest_a, digest_b = profile_digest(tracer_a), profile_digest(tracer_b)
    n_spans = len(tracer_a.spans())
    factor = traced_s / disarmed_s
    print(f"traced solve          : {traced_s * 1e3:8.1f} ms CPU "
          f"({factor:.2f}x, {n_spans} spans)")
    print(f"deterministic profile : sha256:{digest_a[:16]} "
          f"{'== rerun' if digest_a == digest_b else '!= RERUN'}")

    out = {
        "benchmark": "obs",
        "smoke": args.smoke,
        "shape": SHAPE,
        "n": n,
        "m": M,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": rounds,
        "seam_cost_ns": round(seam_ns, 2),
        "span_calls": span_calls,
        "add_calls": add_calls,
        "hot_loop_iterations": hot_iters,
        "seam_consultations": consultations,
        "solve_s_disarmed": disarmed_s,
        "solve_s_traced": traced_s,
        "traced_factor": round(factor, 3),
        "disabled_overhead_ratio": ratio,
        "n_spans": n_spans,
        "counter_totals": tracer_a.counter_totals(),
        "deterministic_digest": digest_a,
        "digests_match": digest_a == digest_b,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0 if digest_a == digest_b else 1


if __name__ == "__main__":
    sys.exit(main())
