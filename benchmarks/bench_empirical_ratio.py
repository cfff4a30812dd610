"""Benchmark E1 — empirical approximation ratios of the two-phase
algorithm across DAG families and machine sizes.

The paper proves Cmax <= r(m)·OPT but reports no system numbers; this
bench measures Cmax/C* (C* = LP (9) optimum <= OPT, so the reported number
*over-estimates* the true ratio) on six workload families.  Expected
shape, asserted below: every observed ratio is far below the proven r(m) —
typically 1.0–1.8 — and the bound is never violated.

The grid is declared as a :class:`repro.experiments.CampaignSpec` — the
same shape committed as ``experiments/specs/paper_tables.toml`` — and
this module is a thin wrapper that sweeps its expansion; run the
campaign CLI instead for the resumable version with the HTML report.

Run:  pytest benchmarks/bench_empirical_ratio.py --benchmark-only -s
"""

from repro import jz_schedule
from repro.experiments import CampaignSpec

SPEC = CampaignSpec(
    name="empirical_ratio",
    families=(
        "layered",
        "erdos_renyi",
        "fork_join",
        "cholesky",
        "stencil",
        "independent",
    ),
    sizes=(30,),
    machines=(4, 8, 16),
    seeds=(0, 1, 2),
    strategies=(("jz", "earliest-start"),),
)


def run_grid():
    rows = []
    by_group = {}
    for cell in SPEC.expand():
        res = jz_schedule(cell.instance())
        by_group.setdefault((cell.family, cell.m), []).append(
            (res.observed_ratio, res.ratio_bound)
        )
    for family in SPEC.families:
        for m in SPEC.machines:
            ratios = by_group[(family, m)]
            mean = sum(r for r, _ in ratios) / len(ratios)
            worst = max(r for r, _ in ratios)
            bound = ratios[0][1]
            rows.append((family, m, mean, worst, bound))
    return rows


def test_empirical_ratios_below_proven_bound(benchmark, capsys):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    for family, m, mean, worst, bound in rows:
        assert worst <= bound + 1e-9, (family, m)
        assert worst < 2.2, f"unexpectedly bad ratio on {family}, m={m}"
    with capsys.disabled():
        print()
        print("=== E1: empirical Cmax/C* by family and machine size ===")
        print(f"{'family':>14} {'m':>3} {'mean':>7} {'worst':>7} {'r(m)':>7}")
        for family, m, mean, worst, bound in rows:
            print(
                f"{family:>14} {m:>3} {mean:>7.3f} {worst:>7.3f} "
                f"{bound:>7.3f}"
            )
        print("every observed ratio is far below the proven bound")


def test_bench_jz_midsize(benchmark):
    from repro.workloads import make_instance

    inst = make_instance("layered", 30, 8, model="power", seed=0)
    res = benchmark(jz_schedule, inst)
    assert res.observed_ratio <= res.ratio_bound
