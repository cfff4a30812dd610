"""Benchmark E2 — head-to-head: Jansen–Zhang vs LTW [18] vs naive anchors.

Expected shape (asserted):

* JZ's *proven* bound beats LTW's for every m (Tables 2 vs 3), and on
  measured makespans JZ is at least competitive with LTW on average;
* the single-processor baseline collapses on chain-like DAGs (no
  parallelism), the all-processors baseline collapses on wide DAGs
  (quadratic work blow-up); the approximation algorithms avoid both
  failure modes.

Run:  pytest benchmarks/bench_baselines.py --benchmark-only -s
"""

from repro import jz_schedule, solve
from repro.baselines import ltw_schedule
from repro.workloads import make_instance

SCENARIOS = [
    ("layered", 30, 8),
    ("cholesky", 40, 8),
    ("fork_join", 25, 8),
    ("chain", 10, 8),
    ("independent", 24, 8),
]


def run_all(family, size, m, seed=0):
    inst = make_instance(family, size, m, model="power", seed=seed)
    jz = jz_schedule(inst)
    out = {
        "jz": jz.makespan,
        "ltw": ltw_schedule(inst).makespan,
        "seq": solve(inst, "sequential").makespan,
        "full": solve(inst, "full").makespan,
        "greedy": solve(inst, "greedy").makespan,
        "lb": jz.lower_bound,
    }
    return out


def test_head_to_head_shapes(benchmark, capsys):
    def build():
        return [(family, run_all(family, size, m))
                for family, size, m in SCENARIOS]

    table = benchmark.pedantic(build, rounds=1, iterations=1)

    by_family = dict(table)
    # Chain: sequential baseline pays the full serial length; JZ
    # parallelizes individual tasks and wins clearly.
    assert by_family["chain"]["jz"] < 0.8 * by_family["chain"]["seq"]
    # Independent/wide: full allotment serializes everything and loses to
    # JZ by a wide margin.
    assert (
        by_family["independent"]["jz"]
        < 0.8 * by_family["independent"]["full"]
    )
    # The approximation algorithms are never the worst scheduler.
    for family, r in table:
        worst = max(r["seq"], r["full"])
        assert r["jz"] <= worst + 1e-9
        assert r["ltw"] <= worst + 1e-9

    with capsys.disabled():
        print()
        print("=== E2: makespans, JZ vs LTW vs naive anchors ===")
        print(
            f"{'family':>12} {'C*':>8} {'JZ':>8} {'LTW':>8} {'greedy':>8} "
            f"{'1-proc':>8} {'all-m':>8}"
        )
        for family, r in table:
            print(
                f"{family:>12} {r['lb']:>8.2f} {r['jz']:>8.2f} "
                f"{r['ltw']:>8.2f} {r['greedy']:>8.2f} {r['seq']:>8.2f} "
                f"{r['full']:>8.2f}"
            )


def test_jz_vs_ltw_average(benchmark, capsys):
    """JZ's *worst-case guarantee* is strictly better than LTW's for every
    m (Table 2 vs Table 3), but per-instance the two are comparable: LTW's
    larger μ sometimes helps on friendly instances.  Asserted shape: both
    means sit far below even JZ's (smaller) proven bound, and within ~15%
    of each other."""

    def measure():
        jz_total, ltw_total, n = 0.0, 0.0, 0
        for family, size, m in SCENARIOS:
            for seed in range(3):
                inst = make_instance(
                    family, size, m, model="power", seed=seed
                )
                jz = jz_schedule(inst)
                ltw = ltw_schedule(inst)
                lb = jz.lower_bound
                jz_total += jz.makespan / lb
                ltw_total += ltw.makespan / lb
                n += 1
        return jz_total / n, ltw_total / n

    jz_mean, ltw_mean = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"mean observed ratio: JZ {jz_mean:.4f} vs LTW {ltw_mean:.4f}"
        )
    from repro.core import jz_parameters

    assert jz_mean < jz_parameters(8).ratio  # far below the proven bound
    assert abs(jz_mean - ltw_mean) <= 0.15 * min(jz_mean, ltw_mean)


def test_bench_ltw(benchmark):
    inst = make_instance("layered", 30, 8, model="power", seed=0)
    out = benchmark(ltw_schedule, inst)
    assert out.makespan > 0
