"""CI gate: fail when warm delta re-solves stop paying for themselves.

Checks a ``bench_replan.py`` output (smoke or full):

1. **Correctness flags** — every cell must report ``makespan_equal``,
   ``allotment_equal``, ``schedule_equal`` and ``validator_clean`` (the
   warm path is an optimization only: any divergence from the cold
   solve is a bug, not a regression), and must actually have taken the
   warm path.
2. **LIST resumed** (hardware-independent) — a warm cell must have
   replayed at least one LIST step from the parent's run
   (``list_steps_reused > 0``): a single-task retime leaves every step
   before the retimed task becomes ready unchanged.
3. **Fewer LP pivots** (needs no clock) — in every run the warm
   round's LP pivots must be below the cold solve's
   (``max(warm_lp_pivots) < min(cold_lp_pivots)``): a warm start that
   pivots as much as a cold one has lost its basis.
4. **Within-run speedup** (hardware-independent) — each run measures
   the warm ``resolve_delta`` and a from-scratch solve of the same
   evolved child in the *same* process, in CPU time; the median
   cold/warm ratio over a cell's fresh-process runs must be at least
   ``--min-speedup`` (default 5×) at n >= 10000 and
   ``--smoke-min-speedup`` (default 3×, the LP is a smaller fraction
   of the total there) below.

Usage:  python benchmarks/check_replan_regression.py MEASURED.json
"""

import argparse
import json
import sys
from pathlib import Path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("measured", help="bench_replan output JSON")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="required warm-vs-cold speedup at n >= 10000")
    ap.add_argument("--smoke-min-speedup", type=float, default=3.0,
                    help="required speedup below n = 10000")
    args = ap.parse_args(argv)

    data = json.loads(Path(args.measured).read_text())
    cells = data.get("cells", [])
    failures = []
    if not cells:
        failures.append(f"no cells in {args.measured}")
    for cell in cells:
        n = cell["n"]
        tag = f"{cell['shape']} n={n}"
        for flag in ("makespan_equal", "allotment_equal",
                     "schedule_equal", "validator_clean"):
            if not cell.get(flag):
                failures.append(f"{tag}: {flag} is false")
        if cell.get("mode") != "warm":
            failures.append(
                f"{tag}: took the {cell.get('mode')!r} path, not warm"
            )
        elif not cell.get("list_steps_reused"):
            failures.append(f"{tag}: replayed no LIST step")
        warm_pivots = cell.get("warm_lp_pivots") or []
        cold_pivots = cell.get("cold_lp_pivots") or []
        if not (warm_pivots and cold_pivots):
            failures.append(f"{tag}: no LP pivot counts recorded")
        elif max(warm_pivots) >= min(cold_pivots):
            failures.append(
                f"{tag}: warm LP pivots {warm_pivots} not below cold "
                f"{cold_pivots}"
            )
        required = (
            args.min_speedup if n >= 10000 else args.smoke_min_speedup
        )
        speedup = cell.get("speedup") or 0.0
        status = "ok" if speedup >= required else "REGRESSED"
        print(
            f"{tag:>22}: warm {cell['warm_s']:.3f}s vs cold "
            f"{cell['cold_s']:.3f}s CPU, median ratio {speedup:.1f}x "
            f"over {cell.get('runs', 1)} runs (required {required:.1f}x) "
            f"{status}; LP pivots warm {warm_pivots} vs cold {cold_pivots}"
        )
        if speedup < required:
            failures.append(
                f"{tag}: median speedup {speedup:.2f}x < {required:.1f}x"
            )

    if failures:
        print("replan regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("replan regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
