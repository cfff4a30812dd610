"""Property-based tests (hypothesis) on the paper's core invariants.

These target the mathematical heart of the reproduction:

* Theorems 2.1/2.2 for *every* profile satisfying Assumptions 1/2,
* Lemma 4.1 and Lemma 4.2 for arbitrary fractional times and ρ,
* feasibility of LIST for arbitrary allotments,
* the end-to-end Theorem 4.1 guarantee,
* the repair utilities' postconditions.
"""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dag, Instance, MalleableTask
from repro.core import (
    list_schedule,
    rounding_stretch_report,
    solve_allotment_lp,
)
from repro.dag import erdos_renyi_dag
from repro.models import (
    amdahl_profile,
    enforce_assumptions,
    power_law_profile,
)
from repro.schedule import validate_schedule


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def valid_profiles(max_m=12):
    """Profiles guaranteed to satisfy Assumptions 1 and 2, drawn from the
    power-law and Amdahl families with random parameters."""
    power = st.tuples(
        st.floats(0.5, 100.0),
        st.floats(0.05, 1.0),
        st.integers(1, max_m),
    ).map(lambda t: power_law_profile(*t))
    amdahl = st.tuples(
        st.floats(0.5, 100.0),
        st.floats(0.0, 1.0),
        st.integers(1, max_m),
    ).map(lambda t: amdahl_profile(*t))
    return st.one_of(power, amdahl)


def concave_speedup_profiles(max_m=10):
    """Arbitrary valid profiles built directly from concave speedup
    increments: s(0)=0, s(1)=1, non-increasing positive increments
    delta_l <= previous, p(l) = p1/s(l)."""

    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_m))
        p1 = draw(st.floats(0.5, 50.0))
        deltas = [1.0]
        for _ in range(m - 1):
            # Increment factor is either 0 (an exact plateau) or well
            # separated from 0, so canonical segments stay numerically
            # well conditioned (the library additionally collapses
            # sub-1e-7 steps; see MalleableTask's plateau handling).
            factor = draw(
                st.one_of(st.just(0.0), st.floats(0.5, 1.0))
            )
            deltas.append(factor * deltas[-1])
        s = 0.0
        times = []
        for d in deltas:
            s += d
            times.append(p1 / s)
        return times

    return build()


# ---------------------------------------------------------------------------
# Theorems 2.1 / 2.2
# ---------------------------------------------------------------------------
@given(profile=concave_speedup_profiles())
@settings(max_examples=200)
def test_theorem21_work_nondecreasing(profile):
    t = MalleableTask(profile)
    works = [t.work(l) for l in range(1, t.max_processors + 1)]
    for a, b in zip(works, works[1:]):
        assert a <= b * (1 + 1e-9)


@given(profile=concave_speedup_profiles())
@settings(max_examples=200)
def test_theorem22_segment_slopes_monotone(profile):
    t = MalleableTask(profile)
    slopes = [s.slope for s in t.segments()]
    for a, b in zip(slopes, slopes[1:]):
        assert a >= b - 1e-9 * (1 + abs(a) + abs(b))


@given(profile=concave_speedup_profiles(), u=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_work_of_time_is_max_of_segments(profile, u):
    t = MalleableTask(profile)
    x = t.min_time + u * (t.max_time - t.min_time)
    w = t.work_of_time(x)
    for seg in t.segments():
        assert w >= seg.value(x) - 1e-9 * (1 + abs(w))


# ---------------------------------------------------------------------------
# Lemma 4.1 and Lemma 4.2
# ---------------------------------------------------------------------------
@given(profile=concave_speedup_profiles(), u=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_lemma41_fractional_processors_bracketed(profile, u):
    t = MalleableTask(profile)
    x = t.min_time + u * (t.max_time - t.min_time)
    l_lo, l_hi = t.bracket(x)
    lstar = t.fractional_processors(x)
    assert l_lo - 1e-6 <= lstar <= (l_hi if l_hi > l_lo else l_lo) + 1e-6


@given(
    profile=concave_speedup_profiles(),
    u=st.floats(0.0, 1.0),
    rho=st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_lemma42_stretches(profile, u, rho):
    t = MalleableTask(profile)
    m = t.max_processors
    inst = Instance([t], Dag(1), m)
    x = t.min_time + u * (t.max_time - t.min_time)
    rep = rounding_stretch_report(inst, [x], rho)
    assert rep.max_time_stretch <= 2 / (1 + rho) * (1 + 1e-7)
    assert rep.max_work_stretch <= 2 / (2 - rho) * (1 + 1e-7)


# ---------------------------------------------------------------------------
# LIST feasibility for arbitrary inputs
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 6),
    edge_seed=st.integers(0, 10**6),
    alloc_seed=st.integers(0, 10**6),
    data=st.data(),
)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_list_schedule_always_feasible(n, m, edge_seed, alloc_seed, data):
    import random

    dag = erdos_renyi_dag(n, 0.3, seed=edge_seed)
    rng = random.Random(alloc_seed)
    inst = Instance(
        [
            MalleableTask(
                power_law_profile(rng.uniform(1, 20), rng.uniform(0.1, 1.0), m)
            )
            for _ in range(n)
        ],
        dag,
        m,
    )
    alloc = [rng.randint(1, m) for _ in range(n)]
    mu = data.draw(st.integers(1, m))
    sched = list_schedule(inst, alloc, mu=mu)
    assert validate_schedule(inst, sched) == []


# ---------------------------------------------------------------------------
# end-to-end guarantee
# ---------------------------------------------------------------------------
@given(
    n=st.integers(2, 10),
    m=st.integers(2, 6),
    seed=st.integers(0, 10**6),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_jz_schedule_feasible_and_bounded(n, m, seed):
    import random

    from repro import jz_schedule

    rng = random.Random(seed)
    dag = erdos_renyi_dag(n, 0.35, seed=seed)
    inst = Instance(
        [
            MalleableTask(
                power_law_profile(rng.uniform(1, 20), rng.uniform(0.1, 1.0), m)
            )
            for _ in range(n)
        ],
        dag,
        m,
    )
    res = jz_schedule(inst)
    assert validate_schedule(inst, res.schedule) == []
    bound = res.ratio_bound * res.lower_bound
    assert res.makespan <= bound * (1 + 1e-9)
    # eq. (11): the LP bound is itself sandwiched correctly.
    assert res.lower_bound >= inst.trivial_lower_bound() - 1e-6


# ---------------------------------------------------------------------------
# LP optimum consistency
# ---------------------------------------------------------------------------
@given(n=st.integers(1, 8), m=st.integers(2, 5), seed=st.integers(0, 10**5))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_lp_objective_is_max_of_parts(n, m, seed):
    import random

    rng = random.Random(seed)
    dag = erdos_renyi_dag(n, 0.4, seed=seed)
    inst = Instance(
        [
            MalleableTask(
                power_law_profile(rng.uniform(1, 10), rng.uniform(0.2, 1.0), m)
            )
            for _ in range(n)
        ],
        dag,
        m,
    )
    res = solve_allotment_lp(inst)
    assert res.objective >= res.critical_path - 1e-6
    assert res.objective >= res.total_work / m - 1e-6
    # Optimality: C* == max(L*, W*/m) (no slack at the optimum).
    assert res.objective <= max(
        res.critical_path, res.total_work / m
    ) + 1e-5 * (1 + res.objective)


# ---------------------------------------------------------------------------
# repair utilities
# ---------------------------------------------------------------------------
@given(
    times=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=15)
)
@settings(max_examples=200)
def test_enforce_assumptions_always_produces_valid_profile(times):
    fixed = enforce_assumptions(times)
    MalleableTask(fixed)  # validates Assumptions 1 and 2
    # Repair never slows the task down below the running minimum.
    run_min = []
    best = float("inf")
    for x in times:
        best = min(best, x)
        run_min.append(best)
    for f, r in zip(fixed, run_min):
        assert f <= r * (1 + 1e-9)
