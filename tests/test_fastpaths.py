"""Equivalence tests for the vectorized/incremental hot paths.

The optimized implementations must not change results:

* :func:`repro.core.list_scheduler.list_schedule` (incremental
  earliest-start cache) is bit-identical to
  :func:`repro.core.list_scheduler.list_schedule_reference` (literal
  Table 1 transcription);
* :func:`repro.core.lp.solve_allotment_lp` via bulk NumPy assembly
  reaches the optimum of the per-constraint build of LP (9)'s δ form in
  the test reference (:func:`lp9_reference.build_delta_lp`), and reads
  its own solution back exactly.
"""

import random

import numpy as np
import pytest
from lp9_reference import build_delta_lp
from lp_oracle import solve_with_scipy

from repro.core import solve_allotment_lp
from repro.core.list_scheduler import list_schedule, list_schedule_reference
from repro.core.arrays import instance_arrays
from repro.core.lp import assemble_allotment_arrays, lp9_read_back
from repro.lpsolve.scipy_backend import solve_ub_arrays
from repro.workloads import make_instance


def _entries(schedule):
    return [
        (e.task, e.start, e.processors, e.duration)
        for e in schedule.entries
    ]


@pytest.mark.parametrize("trial", range(12))
def test_list_schedule_matches_reference(trial):
    rng = random.Random(trial)
    family = rng.choice(
        ["layered", "erdos_renyi", "fork_join", "series_parallel",
         "independent", "diamond", "cholesky", "stencil"]
    )
    m = rng.choice([2, 4, 8])
    inst = make_instance(
        family, rng.choice([6, 15, 40]), m,
        model=rng.choice(["power", "amdahl", "log", "mixed"]), seed=trial,
    )
    alloc = [rng.randint(1, m) for _ in range(inst.n_tasks)]
    mu = rng.choice([None, 1, (m + 1) // 2, m])
    fast = list_schedule(inst, alloc, mu=mu)
    ref = list_schedule_reference(inst, alloc, mu=mu)
    assert _entries(fast) == _entries(ref)


def test_list_schedule_validates_arguments_like_reference():
    inst = make_instance("diamond", 6, 4, seed=0)
    for fn in (list_schedule, list_schedule_reference):
        with pytest.raises(ValueError):
            fn(inst, [1] * inst.n_tasks, mu=0)
        with pytest.raises(ValueError):
            fn(inst, [99] * inst.n_tasks)


@pytest.mark.parametrize("trial", range(6))
def test_bulk_lp_assembly_matches_model_path(trial):
    rng = random.Random(100 + trial)
    inst = make_instance(
        rng.choice(["layered", "erdos_renyi", "chain", "independent"]),
        rng.choice([5, 12, 30]),
        rng.choice([1, 2, 4, 8]),
        model=rng.choice(["power", "amdahl"]),
        seed=trial,
    )
    fast = solve_allotment_lp(inst)  # bulk assembly + HiGHS
    built = build_delta_lp(inst)
    ref = solve_with_scipy(built.lp)  # per-constraint conversion + HiGHS
    arrays = assemble_allotment_arrays(inst)
    raw = solve_ub_arrays(arrays)
    # The fresh model starts from the critical-path basis and linprog
    # from its slack basis, so the optimum agrees to the last bits only.
    assert raw.objective == pytest.approx(ref.objective, rel=1e-12)
    values = np.asarray(raw.values)
    assert np.all(arrays.lo <= values) and np.all(values <= arrays.hi)
    # The pipeline's path is the raw fresh-model solve, read back.
    assert fast.objective == raw.objective
    arr = instance_arrays(inst)
    x = lp9_read_back(raw.values, arr.min_time, arr.seg_ptr, arr.seg_tasks)
    assert fast.x == tuple(x.tolist())
    n = inst.n_tasks
    assert [v for vs in built.delta_vars for v in vs] == list(
        range(n, n + len(arr.seg_len))
    )
    assert fast.completion == raw.values[:n]
    assert built.c_vars == tuple(range(n))
    assert fast.critical_path == raw.values[built.l_var]


def test_assembled_arrays_shape_and_layout():
    inst = make_instance("layered", 20, 8, model="power", seed=3)
    built = build_delta_lp(inst)
    arrays = assemble_allotment_arrays(inst)
    n = inst.n_tasks
    ns = sum(len(inst.task(j).segments()) for j in range(n))
    dag = inst.dag
    # C_j, one δ per segment, L and C; one row per arc, source and
    # sink, then L <= C and W/m <= C.
    assert arrays.n_variables == built.lp.n_variables == n + ns + 2
    assert len(arrays.b_ub) == built.lp.n_constraints == (
        dag.n_edges + len(dag.sources()) + len(dag.sinks()) + 2
    )
    assert (arrays.n_tasks, arrays.n_arcs) == (n, dag.n_edges)
    assert built.c_vars == tuple(range(n))
    assert [v for vs in built.delta_vars for v in vs] == list(
        range(n, n + ns)
    )
    assert (built.l_var, built.c_max_var) == (n + ns, n + ns + 1)
    # Same objective vector and bounds as the per-constraint build.
    assert tuple(arrays.c) == built.lp.objective_coefficients
    assert [tuple(b) for b in zip(arrays.lo, arrays.hi)] == list(
        built.lp.bounds
    )
