"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload plan-deep --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
(pure Python, nothing to build).  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  The last line of standard output is the
result object; the line before it carries provenance and the
deterministic work counters.  Scratch state (work counters of earlier
runs, per-run records, daemon logs) lives in ``.perfbench/`` under the
checkout.  See ``perfbench/README.md`` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan-deep", "plan-wide", "serve-repeat", "fleet-small")


def _run_workload(name: str, seed: int, seconds: int, traced: bool,
                  state_dir: Path):
    from perfbench import fleet, plan, serve

    if name == "fleet-small":
        return fleet.run(seed, seconds, traced)
    if name == "serve-repeat":
        return serve.run(ROOT, state_dir, seed, seconds, traced)
    return plan.run(plan.SPECS[name], seed, seconds, traced)


def _terminate(signum, _frame) -> None:
    """A terminated run still unwinds, so the daemon serve-repeat started
    is shut down and waited for; a second signal cannot cut that short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    signal.signal(signal.SIGTERM, _terminate)

    spec = json.loads(spec_path.read_text())
    traced = bool(args.trace)
    section = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    state_dir = ROOT / ".perfbench"
    outcome = _run_workload(
        args.workload, args.seed, args.seconds, traced, state_dir
    )
    tally = outcome["tally"]
    source = common.source_digest(ROOT)
    mismatch = common.check_counters(
        state_dir, f"{args.workload}-seed{args.seed}", source,
        outcome["counters"],
    )
    if mismatch:
        tally.note(mismatch)
    if traced:
        # A module the workload never calls did no work: zero.
        values = dict.fromkeys(declared, 0.0)
        values.update(outcome["layers"])
    else:
        values = outcome["e2e"]
    metrics = common.metrics_block(declared, values)
    result = {
        "correct": tally.failed == 0 and mismatch is None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "provenance": common.provenance(
            ROOT, args.workload, args.seed, args.seconds, traced, source
        ),
        "counters": outcome["counters"],
        "problems": tally.problems,
        "samples": outcome["samples"],
    }
    results_dir = state_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
