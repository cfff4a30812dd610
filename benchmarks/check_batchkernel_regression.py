"""CI gate: fail when the batched kernel tier regresses in speed or work.

Reads a ``bench_batchkernel.py`` output (smoke or full) and enforces:

1. **Identity** — every cell must report ``schedules_identical``; the
   batched tier's whole contract is bit-identical schedules, so a
   divergence is an instant failure regardless of speed.
2. **Headline speedup** (hardware-independent) — both arms of a cell
   are measured on the same machine in the same run, so their ratio
   does not depend on runner speed.  The ``headline`` cell must keep
   at least ``--min-speedup``: default 3x on a smoke run (small fleets
   amortize less), 5x on a full run (the committed
   ``BENCH_batchkernel.json`` headline is B=1000 × n=500).
3. **Work per step** (needs no clock) — the headline cell's batched
   LIST may make at most ``μ`` earliest-start evaluations per decided
   step (``timeline_refreshes <= mu * frontier_steps`` from the cell's
   traced ``solve_batch``; ``mu`` is ``m`` for a strategy without a
   cap): the staircase sweeps one ``F(a)`` per demand with ready
   tasks, and ``μ`` caps the demands.

Usage:  python benchmarks/check_batchkernel_regression.py MEASURED.json
"""

import argparse
import json
import sys
from pathlib import Path

SMOKE_MIN_SPEEDUP = 3.0
FULL_MIN_SPEEDUP = 5.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "measured", help="bench_batchkernel.py output JSON"
    )
    ap.add_argument(
        "--min-speedup", type=float, default=None,
        help=(
            "required headline speedup (default: 3.0 for a --smoke "
            "output, 5.0 for a full run)"
        ),
    )
    args = ap.parse_args(argv)

    data = json.loads(Path(args.measured).read_text())
    floor = args.min_speedup
    if floor is None:
        floor = SMOKE_MIN_SPEEDUP if data.get("smoke") else (
            FULL_MIN_SPEEDUP
        )

    failures = []
    headline = None
    for cell in data.get("cells", []):
        if not cell.get("schedules_identical"):
            failures.append(
                f"{cell['label']} (B={cell['B']}, n={cell['n']}): "
                "batched schedules diverged from the reference"
            )
        if cell.get("label") == "headline":
            headline = cell
        print(
            f"{cell['label']:>9} B={cell['B']:>5} n={cell['n']:>4}: "
            f"{(cell.get('speedup') or 0.0):5.2f}x, "
            f"identical={cell.get('schedules_identical')}"
        )
    if headline is None:
        failures.append(f"no headline cell in {args.measured}")
    else:
        speedup = headline.get("speedup") or 0.0
        status = "ok" if speedup >= floor else "REGRESSED"
        print(
            f"headline speedup: {speedup:.2f}x "
            f"(required {floor:.2f}x) {status}"
        )
        if speedup < floor:
            failures.append(
                f"headline: {speedup:.2f}x < required {floor:.2f}x"
            )
        work = headline.get("work")
        if work is None:
            failures.append("headline: no work counters recorded")
        else:
            steps, mu = work["frontier_steps"], work["mu"]
            per_step = work["timeline_refreshes"] / max(1, steps)
            status = "ok" if per_step <= mu else "REGRESSED"
            print(
                f"headline earliest-start evaluations per decided step: "
                f"{per_step:.2f} (at most mu={mu}) {status}"
            )
            if per_step > mu:
                failures.append(
                    f"headline: {per_step:.2f} earliest-start "
                    f"evaluations per step > mu={mu}"
                )
    if failures:
        print("batchkernel regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("batchkernel regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
