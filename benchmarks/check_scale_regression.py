"""CI gate: fail when the n=2000 end-to-end time or LIST's work regresses.

Two complementary checks over a fresh ``bench_scale.py --smoke`` output:

1. **Committed baseline** — for every shape present in both files, the
   measured ``total_new_s`` at n=2000 must stay within ``--factor``
   (default 2×) of ``benchmarks/bench_scale_smoke_baseline.json``.  The
   generous factor absorbs hardware variance between CI runners and the
   machine that produced the baseline.
2. **Work per step** (needs no clock) — in every n=2000 cell, LIST may
   make at most ``μ`` earliest-start evaluations per decided step
   (``timeline_refreshes <= mu * frontier_steps`` from the cell's traced
   call): the staircase sweeps one ``F(a)`` per demand with ready tasks,
   and ``μ`` caps the demands.  A kernel that re-queries the ready
   frontier makes hundreds per step.  Check 1 tracks runner speed; this
   one does not.

Every cell must additionally report its schedule checked: identical to
the reference LIST (``schedules_identical``), or, above the size the
reference is run at, ``validated``.

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
    ap.add_argument("-n", type=int, default=2000,
                    help="instance size gated on")
    args = ap.parse_args(argv)

    measured = json.loads(Path(args.measured).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    failures = []
    for cell in measured.get("cells", []):
        if not (cell.get("schedules_identical") or cell.get("validated")):
            failures.append(
                f"{cell['shape']} n={cell['n']}: schedule not checked "
                "or diverged"
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
    # Clock-free gate: earliest-start evaluations per decided step.
    for shape, cell in sorted(got.items()):
        work = cell.get("work")
        if work is None:
            failures.append(f"{shape} n={args.n}: no work counters recorded")
            continue
        steps, mu = work["frontier_steps"], work["mu"]
        per_step = work["timeline_refreshes"] / max(1, steps)
        status = "ok" if per_step <= mu else "REGRESSED"
        print(
            f"{shape:>12} n={args.n}: {per_step:.2f} earliest-start "
            f"evaluations per decided step (at most mu={mu}) {status}"
        )
        if per_step > mu:
            failures.append(
                f"{shape} n={args.n}: {per_step:.2f} earliest-start "
                f"evaluations per step > mu={mu}"
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
