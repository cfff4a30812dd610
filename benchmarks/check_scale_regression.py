"""CI gate: fail when the n=2000 end-to-end time, LIST's work, LP (9)'s
size or a chain's phase-1 growth regresses.

Four complementary checks over a ``bench_scale.py`` output (a fresh
``--smoke`` run, or the committed full run):

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
3. **LP rows** (needs no clock) — in every n=2000 cell, LP (9) may have
   at most ``edges + 2n + 2`` rows (``lp_rows``): one per arc, at most
   two per task (its source row and its sink row; only an isolated
   task has both), plus ``L <= C`` and ``W/m <= C``.  The separable
   form keeps the work segments as bounded columns; a layout with one
   row per segment fails here.
4. **Chain growth** (a ratio of two clocks of one run, so runner speed
   cancels) — a chain's LP (9) is optimal at its critical-path start
   basis, so HiGHS solves it without presolve and with no simplex
   pivot, and its phase 1 per task at every n above ``-n`` may be at
   most ``--chain-growth`` (default 4×) that of the n=2000 chain cell.
   Work that grows faster than the chain — a presolve that merges the
   chain's rows into one ever-longer row, a start-basis pass that is
   quadratic in its depth — fails here on a full run; the LP's rows,
   nonzeros and pivots all stay linear, so no counter shows it.

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
    ap.add_argument("--chain-growth", type=float, default=4.0,
                    help="allowed growth of a chain's phase 1 per task "
                    "above n")
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
    # Clock-free gate: LP (9) rows.
    for shape, cell in sorted(got.items()):
        if "lp_rows" not in cell:
            failures.append(f"{shape} n={args.n}: no LP size recorded")
            continue
        allowed = cell["edges"] + 2 * cell["n"] + 2
        status = "ok" if cell["lp_rows"] <= allowed else "REGRESSED"
        print(
            f"{shape:>12} n={args.n}: {cell['lp_rows']} LP (9) rows "
            f"(at most edges + 2n + 2 = {allowed}) {status}"
        )
        if cell["lp_rows"] > allowed:
            failures.append(
                f"{shape} n={args.n}: {cell['lp_rows']} LP rows > "
                f"edges + 2n + 2 = {allowed}"
            )
    # Growth gate: a chain's phase 1 per task against the n cell's.
    chain = {
        c["n"]: c["phase1_s"] / c["n"]
        for c in measured.get("cells", []) if c["shape"] == "chain"
    }
    base = chain.get(args.n)
    for n, per_task in sorted(chain.items()):
        if base is None or n <= args.n:
            continue
        growth = per_task / base
        status = "ok" if growth <= args.chain_growth else "REGRESSED"
        print(
            f"{'chain':>12} n={n}: phase 1 per task {growth:.2f}x that "
            f"at n={args.n} (at most {args.chain_growth}x) {status}"
        )
        if growth > args.chain_growth:
            failures.append(
                f"chain n={n}: phase 1 per task {growth:.2f}x that at "
                f"n={args.n} > {args.chain_growth}x"
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
