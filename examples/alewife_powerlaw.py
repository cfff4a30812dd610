"""Power-law malleable tasks à la Prasanna–Musicus (the MIT Alewife model).

The paper's model descends from Prasanna & Musicus's continuous model,
validated on the MIT Alewife machine, where task speedups follow
``s(l) = l^d`` for a hardware/algorithm-dependent exponent ``d``.  This
example:

1. prints the speedup and work functions of one power-law task (the data
   behind the paper's Fig. 1 — speedup concave in l, work convex in the
   processing time);
2. sweeps the exponent ``d`` shared by all tasks of a layered DAG and
   shows how the LP bound, the makespan and the observed ratio react.

Expected shape: higher ``d`` (better parallelizability) lowers both the
certified LP bound C* and the achieved makespan — the machine converts
processors into speed more cheaply — while the observed ratio stays well
below the proven bound r(m) throughout.  The chosen allotments are *not*
monotone in d: LP (9) balances the critical path against the work bound
W/m, and when W/m binds it deliberately keeps tasks narrow.

Run:  python examples/alewife_powerlaw.py
"""

from repro import Instance, MalleableTask, assert_feasible, jz_schedule
from repro.core import capped_allotment
from repro.dag import layered_dag
from repro.models import power_law_profile


def show_fig1_data(m: int = 8, d: float = 0.5) -> None:
    """Print the Fig. 1 diagnostic series for one task."""
    task = MalleableTask(power_law_profile(10.0, d, m), name="fig1")
    print(f"power-law task p(l) = 10 * l^-{d}   (m = {m})")
    print(f"{'l':>3} {'p(l)':>8} {'s(l)':>7} {'W(l)=l*p(l)':>12}")
    for l in range(1, m + 1):
        print(
            f"{l:>3} {task.time(l):>8.3f} {task.speedup(l):>7.3f} "
            f"{task.work(l):>12.3f}"
        )
    # Discrete convexity of work in processing time (Theorem 2.2): the
    # chords of w(p(l)) have non-increasing slope as time increases.
    segs = task.segments()
    slopes = [s.slope for s in segs]
    print(f"segment slopes (should be non-increasing in l): "
          f"{[round(s, 3) for s in slopes]}")
    print()


def sweep_exponent(m: int = 8) -> None:
    dag = layered_dag(30, 6, 0.4, seed=7)
    print(f"{'d':>5} {'mean allot':>10} {'C*':>8} {'makespan':>9} "
          f"{'ratio':>6}")
    for d in (0.2, 0.4, 0.6, 0.8, 0.95):
        inst = Instance(
            [
                MalleableTask(
                    power_law_profile(10.0, d, m), name=f"J{j}"
                )
                for j in range(dag.n_nodes)
            ],
            dag,
            m,
            name=f"alewife-d{d}",
        )
        res = jz_schedule(inst)
        assert_feasible(inst, res.schedule)
        alloc = capped_allotment(res.allotment, res.mu)
        mean_alloc = sum(alloc) / len(alloc)
        print(
            f"{d:>5.2f} {mean_alloc:>10.2f} "
            f"{res.lower_bound:>8.2f} {res.makespan:>9.2f} "
            f"{res.observed_ratio:>6.3f}"
        )
    print()
    print("Shape check: C* and the makespan both fall as d grows (cheaper")
    print("parallelism); the observed ratio stays well below r(m) = "
          "{:.3f}.".format(jz_schedule_bound()))


def jz_schedule_bound(m: int = 8) -> float:
    from repro import jz_parameters

    return jz_parameters(m).ratio


def main() -> None:
    show_fig1_data()
    sweep_exponent()


if __name__ == "__main__":
    main()
