"""Property-based equivalence of the CSR array kernels with their
per-node Python references.

The CSR core (``repro.dag.csr``, the array-native LIST scheduler, the
bulk LP assemblies) claims *bit-identical* results to the Python
transcriptions it replaced.  These tests generate random DAGs, profiles
and allotments with hypothesis and assert exact equality — no
tolerances — plus the pinning of the deadline binary search's probes to
freshly built models.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lp9_reference import build_allotment_lp, build_deadline_model
from lp_oracle import solve_with_scipy

from repro.core.allotment_bsearch import (
    _DeadlineSolver,
    assemble_deadline_arrays,
    bsearch_allotment,
    deadline_work_lp,
)
from repro.core.list_scheduler import (
    list_schedule,
    list_schedule_loop,
    list_schedule_reference,
)
from repro.core.list_variants import (
    _bottom_levels_reference,
    bottom_levels,
)
from repro.core.lp import assemble_allotment_arrays
from repro.dag import Dag
from repro.dag.csr import (
    bottom_levels_kernel,
    longest_path_kernel,
    reachable_mask,
    topo_order_levels,
)
from repro.lpsolve import LpError
from repro.schedule.timeline import ArrayTimeline, ResourceTimeline
from repro.workloads import make_instance

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def random_dags(draw, max_nodes=24):
    """A DAG over 0..n-1 with forward arcs only (acyclic by index)."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=3 * n)
        if pairs
        else st.just([])
    )
    return Dag(n, edges)


durations_for = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# graph kernels
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(random_dags(), st.integers(0, 2**32 - 1))
def test_bottom_levels_kernel_matches_reference(dag, seed):
    rng = random.Random(seed)
    dur = [rng.uniform(0.01, 50.0) for _ in range(dag.n_nodes)]
    got = bottom_levels_kernel(dag.to_csr(), dur).tolist()
    level = [0.0] * dag.n_nodes
    for v in reversed(dag.topological_order()):
        succ = max((level[s] for s in dag.successors(v)), default=0.0)
        level[v] = dur[v] + succ
    assert got == level


@settings(max_examples=120, deadline=None)
@given(random_dags(), st.integers(0, 2**32 - 1))
def test_longest_path_kernel_matches_reference(dag, seed):
    n = dag.n_nodes
    if n == 0:
        return
    rng = random.Random(seed)
    w = [rng.uniform(0.01, 50.0) for _ in range(n)]
    dist = [0.0] * n
    parent = [-1] * n
    for v in dag.topological_order():
        best, arg = 0.0, -1
        for u in dag.predecessors(v):
            if dist[u] > best:
                best, arg = dist[u], u
        dist[v] = best + float(w[v])
        parent[v] = arg
    end = max(range(n), key=lambda v: dist[v])
    path = [end]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    length, got_path = longest_path_kernel(dag.to_csr(), w, want_path=True)
    assert length == max(dist)
    assert got_path == path
    assert dag.longest_path(w) == path
    assert dag.longest_path_length(w) == max(dist)


@settings(max_examples=100, deadline=None)
@given(random_dags())
def test_topo_order_levels_is_a_valid_order(dag):
    order = topo_order_levels(dag.to_csr())
    assert sorted(order.tolist()) == list(range(dag.n_nodes))
    pos = {int(v): i for i, v in enumerate(order)}
    for (u, v) in dag.edges:
        assert pos[u] < pos[v]


@settings(max_examples=100, deadline=None)
@given(random_dags())
def test_heap_topological_order_is_lexicographically_smallest(dag):
    """The public ``Dag.topological_order`` keeps its original contract:
    Kahn's algorithm popping the smallest ready node."""
    from heapq import heapify, heappop, heappush

    indeg = [dag.in_degree(v) for v in range(dag.n_nodes)]
    ready = [v for v in range(dag.n_nodes) if indeg[v] == 0]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for w in dag.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(ready, w)
    assert dag.topological_order() == tuple(order)


@settings(max_examples=80, deadline=None)
@given(random_dags(max_nodes=16))
def test_reachable_mask_matches_ancestors_descendants(dag):
    for v in range(dag.n_nodes):
        anc = set(
            np.flatnonzero(reachable_mask(dag.to_csr(), v, "pred")).tolist()
        )
        desc = set(
            np.flatnonzero(reachable_mask(dag.to_csr(), v, "succ")).tolist()
        )
        assert anc == dag.ancestors(v)
        assert desc == dag.descendants(v)


def test_deep_chain_uses_scalar_fallback_identically():
    n = 600  # > _DEEP_LEVEL_MIN levels: exercises the chain-shaped path
    dag = Dag.chain(n)
    rng = random.Random(9)
    dur = [rng.uniform(0.1, 3.0) for _ in range(n)]
    level = [0.0] * n
    for v in reversed(dag.topological_order()):
        succ = max((level[s] for s in dag.successors(v)), default=0.0)
        level[v] = dur[v] + succ
    assert bottom_levels_kernel(dag.to_csr(), dur).tolist() == level
    assert dag.longest_path(dur) == list(range(n))


# ---------------------------------------------------------------------------
# bottom levels through the instance-facing API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(6))
def test_bottom_levels_api_matches_reference(trial):
    rng = random.Random(trial)
    inst = make_instance(
        rng.choice(["layered", "erdos_renyi", "fork_join", "chain"]),
        rng.choice([5, 12, 30]),
        rng.choice([2, 4, 8]),
        model=rng.choice(["power", "amdahl"]),
        seed=trial,
    )
    dur = [
        inst.task(j).time(rng.randint(1, inst.m))
        for j in range(inst.n_tasks)
    ]
    assert list(bottom_levels(inst, dur)) == _bottom_levels_reference(
        inst, dur
    )


# ---------------------------------------------------------------------------
# LP assembly equivalence (matrix level, exact)
# ---------------------------------------------------------------------------


def _dense_from_model(lp):
    rows = np.zeros((lp.n_constraints, lp.n_variables))
    b = np.zeros(lp.n_constraints)
    for r, (coeffs, sense, rhs, _name) in enumerate(lp.constraints):
        assert sense == "<="
        for v, coef in coeffs.items():
            rows[r, v] += coef
        b[r] = rhs
    return rows, b


def _dense_from_arrays(arrays):
    rows = np.zeros((len(arrays.b_ub), arrays.n_variables))
    np.add.at(rows, (arrays.rows, arrays.cols), arrays.vals)
    return rows, np.asarray(arrays.b_ub)


@pytest.mark.parametrize("trial", range(8))
def test_allotment_assembly_matches_model_matrix(trial):
    rng = random.Random(200 + trial)
    inst = make_instance(
        rng.choice(["layered", "erdos_renyi", "chain", "independent"]),
        rng.choice([4, 9, 20]),
        rng.choice([1, 2, 4, 8]),
        model=rng.choice(["power", "amdahl", "log"]),
        seed=trial,
    )
    arrays = assemble_allotment_arrays(inst)
    built = build_allotment_lp(inst)
    a_dense, a_b = _dense_from_arrays(arrays)
    m_dense, m_b = _dense_from_model(built.lp)
    assert np.array_equal(a_dense, m_dense)
    assert np.array_equal(a_b, m_b)
    assert tuple(arrays.c) == built.lp.objective_coefficients
    assert [tuple(bb) for bb in zip(arrays.lo, arrays.hi)] == list(
        built.lp.bounds
    )


@pytest.mark.parametrize("trial", range(8))
def test_deadline_assembly_matches_model_matrix(trial):
    rng = random.Random(300 + trial)
    inst = make_instance(
        rng.choice(["layered", "erdos_renyi", "chain", "diamond"]),
        rng.choice([4, 9, 20]),
        rng.choice([2, 4, 8]),
        model=rng.choice(["power", "amdahl"]),
        seed=trial,
    )
    deadline = inst.sequential_makespan() * rng.uniform(0.4, 1.0)
    arrays = assemble_deadline_arrays(inst)
    lp, _ = build_deadline_model(inst, deadline)
    hi = arrays.hi.copy()
    hi[arrays.c_cols] = deadline
    a_dense, a_b = _dense_from_arrays(arrays)
    m_dense, m_b = _dense_from_model(lp)
    assert np.array_equal(a_dense, m_dense)
    assert np.array_equal(a_b, m_b)
    assert tuple(arrays.c) == lp.objective_coefficients
    assert [tuple(bb) for bb in zip(arrays.lo, hi)] == list(lp.bounds)
    # Memoized: repeated assembly is the same object.
    assert assemble_deadline_arrays(inst) is arrays


# ---------------------------------------------------------------------------
# array timeline and the array-native LIST
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 9),
    st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.integers(1, 9),
                    durations_for,
                    st.floats(0.0, 20.0, allow_nan=False),
                ),
                min_size=1,
                max_size=6,
            ),
            st.booleans(),
        ),
        max_size=40,
    ),
)
# 40 disjoint reservations leave 80 breakpoints, past the 64 the
# array storage starts with; the last batch queries the grown profile.
@example(
    2,
    [([(1, 0.5, float(k))], True) for k in range(40)]
    + [([(2, 0.7, 0.0), (1, 0.3, 0.2), (2, 0.4, 10.1), (1, 99.0, 3.0)],
        False)],
)
def test_array_timeline_matches_resource_timeline(m, steps):
    """``earliest_start_many`` — the query LIST runs — answers single-
    and multi-entry batches exactly as ``ResourceTimeline`` does entry
    by entry; the first entry of a batch may then be reserved."""
    ref = ResourceTimeline(m)
    arr = ArrayTimeline(m)
    for batch, do_reserve in steps:
        amounts = [min(amount, m) for amount, _, _ in batch]
        durations = [dur for _, dur, _ in batch]
        ready = [t for _, _, t in batch]
        want = [
            ref.earliest_start(t, dur, amount)
            for t, dur, amount in zip(ready, durations, amounts)
        ]
        got = arr.earliest_start_many(
            np.array(ready), np.array(durations), np.array(amounts)
        )
        assert got.tolist() == want
        if do_reserve:
            start, dur, amount = want[0], durations[0], amounts[0]
            ref.reserve(start, start + dur, amount)
            arr.reserve(start, start + dur, amount)
            assert ref.profile() == arr.profile()


@settings(max_examples=60, deadline=None)
@given(random_dags(max_nodes=18), st.integers(0, 2**32 - 1))
def test_list_schedule_paths_identical_on_random_dags(dag, seed):
    if dag.n_nodes == 0:
        return
    rng = random.Random(seed)
    m = rng.choice([2, 4, 8])
    from repro.workloads import make_tasks_for_dag
    from repro.core.instance import Instance

    tasks = make_tasks_for_dag(
        dag, m, model=rng.choice(["power", "amdahl", "log"]), seed=seed
    )
    inst = Instance(tasks, dag, m)
    alloc = [rng.randint(1, m) for _ in range(inst.n_tasks)]
    mu = rng.choice([None, 1, (m + 1) // 2, m])

    def entries(s):
        return [
            (e.task, e.start, e.processors, e.duration) for e in s.entries
        ]

    fast = entries(list_schedule(inst, alloc, mu=mu))
    assert fast == entries(list_schedule_loop(inst, alloc, mu=mu))
    assert fast == entries(list_schedule_reference(inst, alloc, mu=mu))


# ---------------------------------------------------------------------------
# deadline probes over the shared assembly pinned to fresh models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(5))
def test_bsearch_warm_start_pinned_to_cold(trial):
    """Every probe of the binary search reuses one memoized deadline-LP
    assembly and its sparse matrix; each probe must equal a freshly
    built per-constraint model of its deadline solved cold — ``x``
    bit-exact, and ``None`` exactly where that model is infeasible."""
    rng = random.Random(400 + trial)
    inst = make_instance(
        rng.choice(["layered", "erdos_renyi", "diamond"]),
        rng.choice([6, 12, 20]),
        rng.choice([2, 4, 8]),
        model=rng.choice(["power", "amdahl"]),
        seed=trial,
    )
    report = bsearch_allotment(inst, 0.26)
    lo = inst.min_critical_path()
    hi = inst.sequential_makespan()
    deadlines = [0.5 * lo, report.deadline] + [
        lo + f * (hi - lo) for f in (0.0, 0.05, 0.3, 0.7, 1.0)
    ]
    solver = _DeadlineSolver(inst)
    infeasible = 0
    for d in deadlines:
        got = solver.solve(d)
        lp, x_vars = build_deadline_model(inst, d)
        try:
            ref = solve_with_scipy(lp)
        except LpError:
            assert got is None
            infeasible += 1
            continue
        assert got is not None
        assert got.x == tuple(ref[v] for v in x_vars)
        if d == report.deadline:
            assert report.x == got.x
    assert infeasible >= 1  # the deadline below min_critical_path()


@pytest.mark.parametrize("trial", range(4))
def test_deadline_lp_arrays_path_matches_model_solution(trial):
    rng = random.Random(600 + trial)
    inst = make_instance(
        rng.choice(["layered", "chain", "erdos_renyi"]),
        rng.choice([5, 10, 18]),
        rng.choice([2, 4, 8]),
        model="power",
        seed=trial,
    )
    d = inst.sequential_makespan() * rng.uniform(0.3, 1.0)
    got = deadline_work_lp(inst, d)
    lp, x_vars = build_deadline_model(inst, d)
    try:
        ref = solve_with_scipy(lp)
    except LpError:
        assert got is None
        return
    assert got is not None
    assert got.x == tuple(ref[v] for v in x_vars)
