"""Integration tests: the full pipeline over DAG families × speedup models
× machine sizes, with every paper-level invariant asserted on each run.

This is the reproduction's safety net: any change that breaks feasibility,
the LP bound, Lemma 4.2's stretches, the heavy-path covering or the
Theorem 4.1 guarantee fails here on realistic workloads.
"""

import pytest
from lp9_reference import build_allotment_lp
from lp_oracle import solve_with_simplex

from repro import assert_feasible, jz_schedule, simulate
from repro.baselines import (
    full_allotment_schedule,
    ltw_schedule,
    optimal_makespan,
    sequential_allotment_schedule,
)
from repro.core import extract_heavy_path
from repro.schedule import average_utilization, slot_classes
from repro.workloads import make_instance

FAMILY_MODEL_GRID = [
    ("layered", "power"),
    ("layered", "amdahl"),
    ("erdos_renyi", "mixed"),
    ("fork_join", "amdahl"),
    ("series_parallel", "power"),
    ("cholesky", "power"),
    ("stencil", "log"),
    ("intree", "power"),
    ("chain", "comm"),
    ("independent", "mixed"),
]


@pytest.mark.parametrize("family,model", FAMILY_MODEL_GRID)
@pytest.mark.parametrize("m", [3, 8])
def test_full_pipeline_invariants(family, model, m):
    inst = make_instance(family, 24, m, model=model, seed=11)
    res = jz_schedule(inst)
    cert = res.certificate

    # 1. Feasibility — by validator and, independently, by the simulator.
    assert_feasible(inst, res.schedule)
    trace = simulate(inst, res.schedule)
    assert trace.peak_busy <= m

    # 2. eq. (11): trivial bounds <= C* <= makespan.
    assert cert.lower_bound >= inst.trivial_lower_bound() - 1e-6
    assert cert.lower_bound <= res.makespan + 1e-6

    # 3. Lemma 4.2 stretch accounting.
    assert cert.rounding.within_bounds

    # 4. Theorem 4.1 guarantee vs the LP bound.
    assert res.makespan <= cert.ratio_bound * cert.lower_bound * (1 + 1e-9)

    # 5. Heavy-path covering (Lemma 4.3's constructive step).
    hp = extract_heavy_path(inst, res.schedule, cert.parameters.mu)
    assert hp.covers_all_light_slots

    # 6. Slot classes partition the horizon (eq. (14)).
    sc = slot_classes(res.schedule, cert.parameters.mu)
    assert sc.total == pytest.approx(res.makespan, rel=1e-9)

    # 7. Work-volume inequality (eq. (15)).
    W = res.schedule.total_work
    mu = cert.parameters.mu
    assert W >= sc.t1 + mu * sc.t2 + (m - mu + 1) * sc.t3 - 1e-6 * (1 + W)


@pytest.mark.parametrize("m", [4, 16])
def test_algorithms_ranked_sanely(m):
    """JZ and LTW should land within their proven bounds and generally
    beat at least one naive anchor on structured workloads."""
    inst = make_instance("cholesky", 40, m, model="power", seed=5)
    jz = jz_schedule(inst)
    ltw = ltw_schedule(inst)
    seq = sequential_allotment_schedule(inst)
    full = full_allotment_schedule(inst)
    lb = jz.certificate.lower_bound

    for s, bound in [
        (jz.schedule, jz.certificate.ratio_bound),
        (ltw.schedule, ltw.ratio_bound),
    ]:
        assert_feasible(inst, s)
        assert s.makespan <= bound * lb * (1 + 1e-9)
    # The approximation algorithms beat the worse of the two naive anchors.
    assert jz.makespan <= max(seq.makespan, full.makespan) + 1e-9
    assert ltw.makespan <= max(seq.makespan, full.makespan) + 1e-9


def test_observed_ratio_never_exceeds_true_ratio_bound_small():
    """On exactly-solvable instances the measured Cmax/OPT obeys
    Theorem 4.1, and the LP bound sandwiches between."""
    for seed in range(5):
        inst = make_instance("erdos_renyi", 6, 3, model="power", seed=seed)
        res = jz_schedule(inst)
        opt = optimal_makespan(inst)
        lb = res.certificate.lower_bound
        assert lb <= opt * (1 + 1e-9)
        assert res.makespan <= res.certificate.ratio_bound * opt * (1 + 1e-9)
        assert opt <= res.makespan * (1 + 1e-9)


def test_utilization_sane_across_machines():
    for m in (2, 8, 32):
        inst = make_instance("layered", 30, m, model="power", seed=3)
        res = jz_schedule(inst)
        u = average_utilization(res.schedule)
        assert 0.0 < u <= 1.0


def test_cross_backend_end_to_end():
    """The certified bound of a full JZ run is the optimum the test
    oracle's dense simplex finds for the same LP (9), and the schedule
    is feasible and within the proven ratio of it."""
    inst = make_instance("fork_join", 20, 6, model="amdahl", seed=9)
    res = jz_schedule(inst)
    ref = solve_with_simplex(build_allotment_lp(inst).lp)
    assert res.certificate.lower_bound == pytest.approx(
        ref.objective, rel=1e-7
    )
    assert_feasible(inst, res.schedule)
    assert res.makespan <= res.certificate.ratio_bound * (
        res.certificate.lower_bound
    ) * (1 + 1e-9)


def test_large_instance_smoke():
    """A bigger end-to-end run to catch scaling pathologies."""
    inst = make_instance("layered", 120, 16, model="mixed", seed=1)
    res = jz_schedule(inst)
    assert_feasible(inst, res.schedule)
    assert res.observed_ratio <= res.certificate.ratio_bound
