"""CI gate: the flight recorder must stay free when off and exact
when on.

Checks a ``bench_obs.py`` output (the committed ``BENCH_obs.json`` or
a fresh smoke run):

1. **Disabled overhead <= 2%** — the median over the recorded rounds
   (at least ``MIN_ROUNDS``) of the conservative per-round ratio
   (seam consultations x disarmed unit cost / end-to-end solve time,
   both clocks read in CPU time within the round) must stay under
   ``--max-ratio``.  The ratio is within-round, so the gate is
   hardware-independent, and a round whose two clocks straddle a
   change of host speed moves one ratio, not the median.
2. **Traces are exact** — ``digests_match`` must be true: two traced
   same-seed solves produced bit-identical deterministic profiles.
3. **The seams are live** — nonzero spans and consultations; a solve
   that records nothing would pass (1) and (2) vacuously.

Usage:  python benchmarks/check_obs_regression.py MEASURED.json
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Fewest paired rounds whose median the gate accepts.
MIN_ROUNDS = 5


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("measured", help="bench_obs output JSON")
    ap.add_argument("--max-ratio", type=float, default=0.02,
                    help="ceiling on disabled_overhead_ratio")
    args = ap.parse_args(argv)

    data = json.loads(Path(args.measured).read_text())
    failures = []

    ratios = [r["ratio"] for r in data.get("rounds", ())]
    ratio = statistics.median(ratios) if ratios else float("nan")
    if len(ratios) < MIN_ROUNDS:
        failures.append(
            f"{len(ratios)} paired rounds recorded, need >= {MIN_ROUNDS}"
        )
    elif ratio > args.max_ratio:
        failures.append(
            f"disabled overhead {ratio:.4%} > {args.max_ratio:.2%}"
        )
    if not data.get("digests_match", False):
        failures.append(
            "deterministic profiles diverged between same-seed runs"
        )
    if not data.get("n_spans", 0):
        failures.append("zero spans recorded (disarmed instrumentation)")
    if not data.get("seam_consultations", 0):
        failures.append("zero seam consultations counted")

    print(
        f"{data.get('shape')} n={data.get('n')} m={data.get('m')}"
        f"{' (smoke)' if data.get('smoke') else ''}: "
        f"disabled overhead {ratio:.4%} median of {len(ratios)} rounds "
        f"(<= {args.max_ratio:.2%})  "
        f"seam {data.get('seam_cost_ns')} ns x "
        f"{data.get('seam_consultations')} consultations  "
        f"traced {data.get('traced_factor')}x  "
        f"{data.get('n_spans')} spans  "
        f"profile sha256:{str(data.get('deterministic_digest'))[:16]}"
    )

    if failures:
        print("obs regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("obs regression gate passed: free when off, exact when on")
    return 0


if __name__ == "__main__":
    sys.exit(main())
