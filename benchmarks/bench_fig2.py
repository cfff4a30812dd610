"""Benchmark F2 — the paper's Fig. 2: the "heavy path" P in a final
schedule covers every T1 ∪ T2 (lightly-loaded) time slot.

Reconstructs the figure's content on a real run of the two-phase algorithm:
prints the schedule's slot decomposition and the extracted heavy path, and
verifies the covering property that drives Lemma 4.3.

Run:  pytest benchmarks/bench_fig2.py --benchmark-only -s
"""

from repro import jz_schedule, render_gantt
from repro.core import extract_heavy_path
from repro.schedule import slot_classes
from repro.workloads import make_instance


def scenario():
    inst = make_instance("layered", 24, 8, model="power", seed=42)
    res = jz_schedule(inst)
    return inst, res


def test_fig2_heavy_path_covers_light_slots(benchmark, capsys):
    inst, res = scenario()
    mu = res.mu
    hp = benchmark(extract_heavy_path, inst, res.schedule, mu)
    assert hp.covers_all_light_slots
    sc = slot_classes(res.schedule, mu)
    with capsys.disabled():
        print()
        print("=== Fig. 2 reconstruction: heavy path in the final schedule ===")
        print(render_gantt(res.schedule))
        print(
            f"slot classes (mu={mu}): |T1|={sc.t1:.3f} |T2|={sc.t2:.3f} "
            f"|T3|={sc.t3:.3f}  (sum = makespan = {res.makespan:.3f})"
        )
        chain = " -> ".join(f"J{j}" for j in hp.tasks)
        print(f"heavy path: {chain}")
        print(
            f"light-slot coverage: {hp.covered_t1_t2:.3f} of "
            f"{hp.total_t1_t2:.3f}  (Lemma 4.3 covering: OK)"
        )


def test_fig2_path_tasks_use_at_most_mu(benchmark, capsys):
    inst, res = benchmark(scenario)
    mu = res.mu
    hp = extract_heavy_path(inst, res.schedule, mu)
    for j in hp.tasks:
        assert res.schedule[j].processors <= mu


