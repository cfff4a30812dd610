"""Phase-parallel simulation: the ocean-circulation workload of [2].

Blayo et al. [2] — one of the paper's motivating applications — run an
ocean-circulation model with adaptive meshing: the computation alternates
synchronization steps with data-parallel phases whose grids differ in size,
so each phase task is malleable with an Amdahl-style profile (halo
exchanges are the serial fraction).

This example builds that fork–join shape, schedules it for a sweep of
machine sizes, and reports how the observed ratio and machine utilization
evolve.  Expected shape: utilization is high while the DAG has enough width
to fill the machine, and the observed ratio stays far below the proven
bound r(m) at every m.

Run:  python examples/ocean_circulation.py
"""

from repro import Instance, MalleableTask, assert_feasible, jz_schedule
from repro.dag import fork_join_dag
from repro.schedule import average_utilization
from repro.models import amdahl_profile


def build_instance(m: int, n_phases: int = 6, width: int = 5) -> Instance:
    """Fork-join ocean model: sync tasks are rigid-ish, body tasks malleable."""
    dag = fork_join_dag(n_phases, width)
    tasks = []
    for j in range(dag.n_nodes):
        if dag.in_degree(j) >= width or dag.out_degree(j) >= width:
            # Synchronization / remeshing step: mostly serial.
            tasks.append(
                MalleableTask(amdahl_profile(4.0, 0.7, m), name=f"sync{j}")
            )
        else:
            # Data-parallel grid sweep; halo exchange = serial fraction.
            size = 8.0 + 10.0 * ((j * 7919) % 13) / 13.0
            tasks.append(
                MalleableTask(
                    amdahl_profile(size, 0.08, m), name=f"sweep{j}"
                )
            )
    return Instance(tasks, dag, m, name=f"ocean-m{m}")


def main() -> None:
    print(f"{'m':>3} {'rho':>6} {'mu':>3} {'C*':>8} {'makespan':>9} "
          f"{'ratio':>6} {'bound':>6} {'util':>5}")
    for m in (2, 4, 8, 16, 32):
        inst = build_instance(m)
        res = jz_schedule(inst)
        assert_feasible(inst, res.schedule)
        print(
            f"{m:>3} {res.rho:>6.3f} {res.mu:>3} "
            f"{res.lower_bound:>8.2f} {res.makespan:>9.2f} "
            f"{res.observed_ratio:>6.3f} {res.ratio_bound:>6.3f} "
            f"{average_utilization(res.schedule):>5.2f}"
        )
    print()
    print("Shape check: the observed ratio sits well under the proven bound")
    print("for every machine size; utilization decays once m outgrows the")
    print("phase width times per-task parallelizability.")


if __name__ == "__main__":
    main()
