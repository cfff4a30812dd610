"""Quickstart: build a small malleable-task instance by hand and schedule it.

Demonstrates the core public API:

* defining malleable tasks from processing-time profiles,
* declaring precedence constraints as a DAG,
* running the paper's two-phase approximation algorithm,
* reading the solve report (LP lower bound, proven ratio, allotments)
  and validating the schedule.

Run:  python examples/quickstart.py
"""

from repro import (
    Dag,
    Instance,
    MalleableTask,
    assert_feasible,
    jz_schedule,
    render_gantt,
)
from repro.core import capped_allotment
from repro.models import amdahl_profile, power_law_profile


def main() -> None:
    m = 4  # processors

    # Six tasks. Profiles give the processing time on 1..m processors and
    # must satisfy the paper's Assumptions 1 (non-increasing time) and 2
    # (concave speedup) — the constructors below guarantee that, and
    # MalleableTask validates it.
    tasks = [
        MalleableTask(power_law_profile(12.0, 0.8, m), name="load"),
        MalleableTask(power_law_profile(20.0, 0.6, m), name="fft-A"),
        MalleableTask(power_law_profile(20.0, 0.6, m), name="fft-B"),
        MalleableTask(amdahl_profile(9.0, 0.25, m), name="filter"),
        MalleableTask(power_law_profile(16.0, 0.9, m), name="solve"),
        MalleableTask([6.0] * m, name="report"),  # rigid: no speedup
    ]

    # Precedence: load -> {fft-A, fft-B}; fft-A -> filter;
    # {filter, fft-B} -> solve; solve -> report.
    dag = Dag(
        6,
        [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4), (4, 5)],
    )
    instance = Instance(tasks, dag, m, name="quickstart")

    result = jz_schedule(instance)

    print(f"instance       : {instance!r}")
    print(f"parameters     : rho={result.rho}, mu={result.mu}")
    print(f"LP lower bound : {result.lower_bound:.3f}  (C* <= OPT)")
    print(f"makespan       : {result.makespan:.3f}")
    print(
        f"observed ratio : {result.observed_ratio:.3f}  "
        f"(proven bound r(m) = {result.ratio_bound:.3f})"
    )
    print(f"allotment α'   : {list(result.allotment)}")
    print(
        f"allotment α    : {capped_allotment(result.allotment, result.mu)}"
        " (after mu cap)"
    )

    # Always validate — raises on any capacity/precedence violation.
    assert_feasible(instance, result.schedule)
    print()
    labels = {j: t.name for j, t in enumerate(tasks)}
    print(render_gantt(result.schedule, labels=labels))


if __name__ == "__main__":
    main()
