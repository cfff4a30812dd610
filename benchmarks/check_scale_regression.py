"""CI gate: fail when the n=2000 end-to-end time or LIST's work regresses.

Three complementary checks over a fresh ``bench_scale.py --smoke`` output:

1. **Committed baseline** — for every shape present in both files, the
   measured ``total_new_s`` at n=2000 must stay within ``--factor``
   (default 2×) of ``benchmarks/bench_scale_smoke_baseline.json``.  The
   generous factor absorbs hardware variance between CI runners and the
   machine that produced the baseline.
2. **Within-run ratio** (hardware-independent) — the erdos_renyi n=2000
   cell measures both the array path and the loop path in the *same*
   run; the array path must keep an end-to-end speedup of at least
   ``--min-speedup`` (default 1.5×) there.  A regression that merely
   tracks runner speed passes check 1 but not this one, and vice versa.
3. **Work per step** (needs no clock) — in the same cell, LIST may make
   at most ``μ`` earliest-start evaluations per decided step
   (``timeline_refreshes <= mu * frontier_steps`` from the cell's traced
   call): the staircase sweeps one ``F(a)`` per demand with ready tasks,
   and ``μ`` caps the demands.  A kernel that re-queries the ready
   frontier makes hundreds per step.

Every cell must additionally report ``schedules_identical``.

Usage:  python benchmarks/check_scale_regression.py MEASURED.json [BASELINE.json]
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (
    Path(__file__).parent / "bench_scale_smoke_baseline.json"
)


def cells_at(data, n):
    return {
        c["shape"]: c for c in data.get("cells", []) if c["n"] == n
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("measured", help="fresh bench_scale --smoke output")
    ap.add_argument(
        "baseline", nargs="?", default=str(DEFAULT_BASELINE),
        help="committed reference JSON",
    )
    ap.add_argument("--factor", type=float, default=2.0,
                    help="allowed slowdown vs the committed baseline")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help=(
                        "required within-run end-to-end speedup of the "
                        "array path on erdos_renyi at -n"
                    ))
    ap.add_argument("-n", type=int, default=2000,
                    help="instance size gated on")
    args = ap.parse_args(argv)

    measured = json.loads(Path(args.measured).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    failures = []
    for cell in measured.get("cells", []):
        if not cell.get("schedules_identical"):
            failures.append(
                f"{cell['shape']} n={cell['n']}: schedules diverged"
            )
    got = cells_at(measured, args.n)
    ref = cells_at(baseline, args.n)
    if not got:
        failures.append(f"no n={args.n} cells in {args.measured}")
    for shape, ref_cell in ref.items():
        cell = got.get(shape)
        if cell is None:
            failures.append(f"missing n={args.n} cell for {shape!r}")
            continue
        allowed = ref_cell["total_new_s"] * args.factor
        status = "ok" if cell["total_new_s"] <= allowed else "REGRESSED"
        print(
            f"{shape:>12} n={args.n}: {cell['total_new_s']:.3f}s "
            f"(committed {ref_cell['total_new_s']:.3f}s, "
            f"allowed {allowed:.3f}s) {status}"
        )
        if cell["total_new_s"] > allowed:
            failures.append(
                f"{shape} n={args.n}: {cell['total_new_s']:.3f}s > "
                f"{args.factor}x committed {ref_cell['total_new_s']:.3f}s"
            )
    # Hardware-independent gate: both paths are measured in the same
    # run, so their ratio does not depend on runner speed.
    er = got.get("erdos_renyi")
    if er is not None:
        speedup = er.get("speedup") or 0.0
        status = "ok" if speedup >= args.min_speedup else "REGRESSED"
        print(
            f"within-run erdos_renyi n={args.n} speedup: "
            f"{speedup:.2f}x (required {args.min_speedup:.2f}x) {status}"
        )
        if speedup < args.min_speedup:
            failures.append(
                f"erdos_renyi n={args.n}: within-run speedup "
                f"{speedup:.2f}x < required {args.min_speedup:.2f}x"
            )
        work = er.get("work")
        if work is None:
            failures.append(
                f"erdos_renyi n={args.n}: no work counters recorded"
            )
        else:
            steps, mu = work["frontier_steps"], work["mu"]
            per_step = work["timeline_refreshes"] / max(1, steps)
            status = "ok" if per_step <= mu else "REGRESSED"
            print(
                f"erdos_renyi n={args.n} earliest-start evaluations per "
                f"decided step: {per_step:.2f} (at most mu={mu}) {status}"
            )
            if per_step > mu:
                failures.append(
                    f"erdos_renyi n={args.n}: {per_step:.2f} "
                    f"earliest-start evaluations per step > mu={mu}"
                )
    if failures:
        print("bench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
