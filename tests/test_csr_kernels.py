"""Property-based equivalence of the CSR array kernels with their
per-node Python references.

The CSR core (``repro.dag.csr``, the array-native LIST scheduler, the
bulk LP assemblies) claims *bit-identical* results to the Python
transcriptions it replaced.  These tests generate random DAGs, profiles
and allotments with hypothesis and assert exact equality — no
tolerances — plus the pinning of the deadline binary search's probes to
freshly built models (bit for bit for a cold probe, within 1e-12 in
total work for a warm one).
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp9_reference import build_delta_lp
from lp_oracle import solve_with_scipy

from repro.core import allotment_bsearch
from repro.core.allotment_bsearch import (
    _DeadlineSolver,
    bsearch_allotment,
    deadline_work_lp,
)
from repro.core.list_scheduler import (
    list_schedule,
    list_schedule_reference,
)
from repro.core.list_variants import (
    _bottom_levels_reference,
    bottom_levels,
)
from repro.core.arrays import instance_arrays, work_of_times
from repro.core.lp import assemble_allotment_arrays, lp9_read_back
from repro.dag import Dag
from repro.dag import csr as csr_module
from repro.dag.csr import (
    DagCsr,
    bottom_levels_kernel,
    longest_path_kernel,
    longest_path_tree,
    reachable_mask,
    topo_order_levels,
)
from repro.lpsolve import LpError, LpStatus
from repro.lpsolve.scipy_backend import solve_ub_blocks
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


# ---------------------------------------------------------------------------
# graph kernels
# ---------------------------------------------------------------------------
#: ``_NARROW_LEVEL`` settings: every level swept in NumPy, the two
#: steps mixed, every level swept in scalar code.
STEP_MIXES = (0, 6, 10**9)


@contextmanager
def narrow_level(k):
    """Sweep levels under ``_NARROW_LEVEL = k``."""
    saved = csr_module._NARROW_LEVEL
    csr_module._NARROW_LEVEL = k
    try:
        yield
    finally:
        csr_module._NARROW_LEVEL = saved


def fresh_csr(dag):
    """A CSR of ``dag`` with no cached levels."""
    c = dag.to_csr()
    return DagCsr(
        c.n, c.succ_indptr, c.succ_indices, c.pred_indptr, c.pred_indices
    )


@settings(max_examples=120, deadline=None)
@given(random_dags(), st.integers(0, 2**32 - 1))
def test_bottom_levels_kernel_matches_reference(dag, seed):
    rng = random.Random(seed)
    dur = [rng.uniform(0.01, 50.0) for _ in range(dag.n_nodes)]
    level = [0.0] * dag.n_nodes
    for v in reversed(dag.topological_order()):
        succ = max((level[s] for s in dag.successors(v)), default=0.0)
        level[v] = dur[v] + succ
    for k in STEP_MIXES:
        with narrow_level(k):
            got = bottom_levels_kernel(fresh_csr(dag), dur)
        assert got.tolist() == level


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
    for k in STEP_MIXES:
        with narrow_level(k):
            csr = fresh_csr(dag)
            tree_dist, tree_parent = longest_path_tree(csr, w)
            length, got_path = longest_path_kernel(csr, w, want_path=True)
        assert tree_dist.tolist() == dist
        assert tree_parent.tolist() == parent
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
    # By depth level, by id within a level, whichever step sweeps each
    # level; heights likewise along the reversed arcs.
    depth = [0] * dag.n_nodes
    for v in dag.topological_order():
        depth[v] = max((depth[u] + 1 for u in dag.predecessors(v)), default=0)
    height = [0] * dag.n_nodes
    for v in reversed(dag.topological_order()):
        height[v] = max((height[s] + 1 for s in dag.successors(v)), default=0)
    for k in STEP_MIXES:
        with narrow_level(k):
            csr = fresh_csr(dag)
            depths, heights = csr.depths(), csr.heights()
        assert depths.order.tolist() == sorted(
            range(dag.n_nodes), key=lambda v: (depth[v], v)
        )
        assert heights.order.tolist() == sorted(
            range(dag.n_nodes), key=lambda v: (height[v], v)
        )
        assert depths.n_levels == max(depth, default=-1) + 1


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
    n = 600  # one node per level: the whole sweep is one scalar run
    dag = Dag.chain(n)
    rng = random.Random(9)
    dur = [rng.uniform(0.1, 3.0) for _ in range(n)]
    level = [0.0] * n
    for v in reversed(dag.topological_order()):
        succ = max((level[s] for s in dag.successors(v)), default=0.0)
        level[v] = dur[v] + succ
    assert bottom_levels_kernel(dag.to_csr(), dur).tolist() == level
    assert dag.longest_path(dur) == list(range(n))


def test_level_sweeps_switch_steps_on_a_mixed_shape():
    """At the default threshold: a chain, a fan of 300 (a NumPy step),
    another chain and a 3-wide fork-join each way.  Levels, bottom
    levels and the longest-path tree match the per-node references,
    and a back arc is still reported as a cycle."""
    edges = [(i, i + 1) for i in range(19)]
    edges += [(19, 20 + i) for i in range(300)]
    edges += [(20 + i, 320) for i in range(300)]
    edges += [(i, i + 1) for i in range(320, 339)]
    edges += [(339, 340 + i) for i in range(3)]
    edges += [(340 + i, 343) for i in range(3)]
    dag = Dag(344, edges)
    rng = random.Random(3)
    w = [rng.uniform(0.1, 3.0) for _ in range(dag.n_nodes)]
    depth, height, dist, level = ([0] * dag.n_nodes for _ in range(4))
    parent = [-1] * dag.n_nodes
    for v in dag.topological_order():
        depth[v] = max((depth[u] + 1 for u in dag.predecessors(v)), default=0)
        best = max((dist[u] for u in dag.predecessors(v)), default=0.0)
        parent[v] = next(
            (u for u in dag.predecessors(v) if dist[u] == best), -1
        )
        dist[v] = best + w[v]
    for v in reversed(dag.topological_order()):
        height[v] = max((height[s] + 1 for s in dag.successors(v)), default=0)
        level[v] = w[v] + max(
            (level[s] for s in dag.successors(v)), default=0.0
        )
    csr = dag.to_csr()
    assert csr.depths().order.tolist() == sorted(
        range(dag.n_nodes), key=lambda v: (depth[v], v)
    )
    assert csr.heights().order.tolist() == sorted(
        range(dag.n_nodes), key=lambda v: (height[v], v)
    )
    assert bottom_levels_kernel(csr, w).tolist() == level
    tree_dist, tree_parent = longest_path_tree(csr, w)
    assert tree_dist.tolist() == dist
    assert tree_parent.tolist() == parent
    for k in STEP_MIXES:
        with narrow_level(k), pytest.raises(ValueError, match="cycle"):
            Dag(344, edges + [(343, 330)])


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


def _read_back_x(inst, values):
    """``x`` of a δ-form solution through the one LP (9) read-back."""
    arr = instance_arrays(inst)
    x = lp9_read_back(values, arr.min_time, arr.seg_ptr, arr.seg_tasks)
    return tuple(x.tolist())


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
    built = build_delta_lp(inst)
    a_dense, a_b = _dense_from_arrays(arrays)
    m_dense, m_b = _dense_from_model(built.lp)
    assert np.array_equal(a_dense, m_dense)
    assert np.array_equal(a_b, m_b)
    assert tuple(arrays.c) == built.lp.objective_coefficients
    assert [tuple(bb) for bb in zip(arrays.lo, arrays.hi)] == list(
        built.lp.bounds
    )


@pytest.mark.parametrize("trial", range(8))
def test_deadline_assembly_matches_model_matrix(trial, monkeypatch):
    """A probe loads HiGHS with the deadline view of the memoized
    LP (9) arrays: row for row the per-constraint δ form with ``L``
    bounded by the deadline and the segment slopes as the objective.
    The memoized arrays themselves are left as they were."""
    rng = random.Random(300 + trial)
    inst = make_instance(
        rng.choice(["layered", "erdos_renyi", "chain", "diamond"]),
        rng.choice([4, 9, 20]),
        rng.choice([2, 4, 8]),
        model=rng.choice(["power", "amdahl"]),
        seed=trial,
    )
    deadline = inst.sequential_makespan() * rng.uniform(0.4, 1.0)
    lp9 = assemble_allotment_arrays(inst)
    lp9_c, lp9_hi = lp9.c.copy(), lp9.hi.copy()
    handed = []

    def capture(arrays):
        handed.append(arrays)
        raise LpError("captured", LpStatus.INFEASIBLE)

    monkeypatch.setattr(allotment_bsearch, "HighsModel", capture)
    assert deadline_work_lp(inst, deadline) is None
    (arrays,) = handed
    lp = build_delta_lp(inst, deadline=deadline).lp
    a_dense, a_b = _dense_from_arrays(arrays)
    m_dense, m_b = _dense_from_model(lp)
    assert np.array_equal(a_dense, m_dense)
    assert np.array_equal(a_b, m_b)
    assert tuple(arrays.c) == lp.objective_coefficients
    assert [tuple(bb) for bb in zip(arrays.lo, arrays.hi)] == list(lp.bounds)
    # One assembly: the probe shares LP (9)'s matrix and writes nothing
    # into the memoized arrays.
    assert assemble_allotment_arrays(inst) is lp9
    assert arrays.rows is lp9.rows and arrays.vals is lp9.vals
    assert np.array_equal(lp9.c, lp9_c) and np.array_equal(lp9.hi, lp9_hi)


# ---------------------------------------------------------------------------
# the array-native LIST
# ---------------------------------------------------------------------------


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
    assert fast == entries(list_schedule_reference(inst, alloc, mu=mu))


# ---------------------------------------------------------------------------
# deadline probes over the shared assembly and one resident model
# ---------------------------------------------------------------------------


def _assert_probe_near(inst, got, ref):
    """A probe against the per-constraint model of its deadline solved
    by ``linprog``: the same total work within 1e-12 relative (HiGHS
    starts from LP (9)'s critical-path basis or the previous probe's
    optimum and ``linprog`` from its slack basis, so only the last bits
    may move, or the probe may land on an alternate optimum), and ``x``
    inside ``[p_j(m), p_j(1)]``."""
    image = instance_arrays(inst)
    ref_x = np.asarray(_read_back_x(inst, ref.values))
    ref_work = sum(work_of_times(image, ref_x).tolist())
    assert got.total_work == pytest.approx(ref_work, rel=1e-12)
    x = np.asarray(got.x)
    assert np.all(image.min_time <= x)
    assert np.all(x <= image.times[:, 0] * (1 + 1e-12))


def _assert_probe_matches(inst, solver, got, ref):
    """:func:`_assert_probe_near`, and, for a probe solved cold in a
    fresh model, bit for bit what another fresh-model path of the
    package makes of the probe's arrays."""
    _assert_probe_near(inst, got, ref)
    hi = solver._arrays.hi.copy()
    hi[-2] = got.deadline
    (again,) = solve_ub_blocks([solver._arrays._replace(hi=hi)])
    assert got.x == _read_back_x(inst, again.values)


@pytest.mark.parametrize("trial", range(5))
def test_bsearch_warm_start_pinned_to_cold(trial):
    """Every probe of a ladder re-solves one resident model of the
    memoized deadline-LP assembly, warm from the probe before.  Each
    probe must match a freshly built per-constraint model of its
    deadline solved by ``linprog`` (:func:`_assert_probe_near`), and be
    ``None`` exactly where that model is infeasible; the ladder's
    first, cold probe is bit for bit a fresh model's
    (:func:`_assert_probe_matches`), and a second solver running the
    same ladder repeats the first bit for bit."""
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
    deadlines = [report.deadline, 0.5 * lo] + [
        lo + f * (hi - lo) for f in (0.0, 0.05, 0.3, 0.7, 1.0)
    ]
    solver = _DeadlineSolver(inst)
    ladder = [solver.solve(d) for d in deadlines]
    infeasible = 0
    for i, (d, got) in enumerate(zip(deadlines, ladder)):
        ref_lp = build_delta_lp(inst, deadline=d)
        try:
            ref = solve_with_scipy(ref_lp.lp)
        except LpError:
            assert got is None
            infeasible += 1
            continue
        assert got is not None
        if i == 0:
            _assert_probe_matches(inst, solver, got, ref)
        else:
            _assert_probe_near(inst, got, ref)
        if d == report.deadline:
            report_work = work_of_times(
                instance_arrays(inst), np.asarray(report.x)
            )
            assert sum(report_work.tolist()) == pytest.approx(
                got.total_work, rel=1e-12
            )
    assert infeasible >= 1  # the deadline below min_critical_path()
    again = _DeadlineSolver(inst)
    assert [again.solve(d) for d in deadlines] == ladder


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
    ref_lp = build_delta_lp(inst, deadline=d)
    try:
        ref = solve_with_scipy(ref_lp.lp)
    except LpError:
        assert got is None
        return
    assert got is not None
    _assert_probe_matches(inst, _DeadlineSolver(inst), got, ref)
