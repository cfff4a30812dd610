"""End-to-end tests for the two-phase algorithm, including the paper's
lemma-level inequalities measured on real runs."""

import pytest

from repro import Instance, assert_feasible, jz_schedule
from repro.core import capped_allotment, jz_parameters
from repro.dag import (
    chain_dag,
    cholesky_dag,
    diamond_dag,
    fork_join_dag,
    independent_dag,
    layered_dag,
    stencil_dag,
)
from repro.models import power_law_profile


def make_inst(dag, m, d=0.6, p1=10.0, vary=True):
    return Instance.from_profile_fn(
        dag,
        m,
        lambda j: power_law_profile(p1 + (j % 5 if vary else 0), d, m),
    )


DAGS = [
    ("chain", chain_dag(6)),
    ("diamond", diamond_dag(5)),
    ("independent", independent_dag(9)),
    ("layered", layered_dag(20, 5, 0.5, seed=1)),
    ("fork_join", fork_join_dag(3, 4)),
    ("cholesky", cholesky_dag(4)),
    ("stencil", stencil_dag(4, 4)),
]


class TestFeasibilityAndGuarantee:
    @pytest.mark.parametrize("name,dag", DAGS)
    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_feasible_and_within_proven_ratio(self, name, dag, m):
        inst = make_inst(dag, m)
        res = jz_schedule(inst)
        assert_feasible(inst, res.schedule)
        # Theorem 4.1 guarantee, measured against the LP lower bound
        # (stronger than against OPT): Cmax <= r(m) * C*.
        assert res.makespan <= (
            res.certificate.ratio_bound * res.certificate.lower_bound
            + 1e-6
        ), f"{name}: ratio violated"

    def test_all_tasks_scheduled(self):
        inst = make_inst(layered_dag(15, 4, 0.5, seed=2), 4)
        res = jz_schedule(inst)
        assert res.schedule.n_tasks == inst.n_tasks


class TestCertificate:
    def setup_method(self):
        self.inst = make_inst(layered_dag(18, 5, 0.5, seed=3), 8)
        self.res = jz_schedule(self.inst)

    def test_parameters_match_machine(self):
        assert self.res.certificate.parameters == jz_parameters(8)

    def test_final_allotment_is_capped_phase1(self):
        cert = self.res.certificate
        assert list(cert.allotment_final) == capped_allotment(
            cert.allotment_phase1, cert.parameters.mu
        )

    def test_schedule_uses_final_allotment(self):
        cert = self.res.certificate
        assert self.res.schedule.allotment(self.inst.n_tasks) == list(
            cert.allotment_final
        )

    def test_slot_classes_sum_to_makespan(self):
        cert = self.res.certificate
        assert cert.t1 + cert.t2 + cert.t3 == pytest.approx(
            self.res.makespan, rel=1e-9
        )

    def test_rounding_report_within_lemma42(self):
        assert self.res.certificate.rounding.within_bounds

    def test_observed_ratio_definition(self):
        r = self.res
        assert r.observed_ratio == pytest.approx(
            r.makespan / r.certificate.lower_bound
        )


class TestLemmaInequalities:
    """The analysis inequalities (Lemmas 4.3 and 4.4, eqs. (14)-(16)),
    asserted on real algorithm runs."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [4, 8, 13])
    def test_lemma43(self, seed, m):
        """(1+ρ)|T1|/2 + min{μ/m, (1+ρ)/2}|T2| <= C*."""
        inst = make_inst(layered_dag(16, 4, 0.5, seed=seed), m)
        res = jz_schedule(inst)
        cert = res.certificate
        rho, mu = cert.parameters.rho, cert.parameters.mu
        lhs = (1 + rho) * cert.t1 / 2 + min(
            mu / m, (1 + rho) / 2
        ) * cert.t2
        assert lhs <= cert.lower_bound + 1e-6 * (1 + cert.lower_bound)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [4, 8, 13])
    def test_lemma44(self, seed, m):
        """(m-μ+1) Cmax <= 2m C*/(2-ρ) + (m-μ)|T1| + (m-2μ+1)|T2|."""
        inst = make_inst(layered_dag(16, 4, 0.5, seed=seed), m)
        res = jz_schedule(inst)
        cert = res.certificate
        rho, mu = cert.parameters.rho, cert.parameters.mu
        rhs = (
            2 * m * cert.lower_bound / (2 - rho)
            + (m - mu) * cert.t1
            + (m - 2 * mu + 1) * cert.t2
        )
        lhs = (m - mu + 1) * res.makespan
        assert lhs <= rhs + 1e-6 * (1 + abs(rhs))

    @pytest.mark.parametrize("seed", range(3))
    def test_eq15_work_volume(self, seed):
        """W >= |T1| + μ|T2| + (m-μ+1)|T3| (eq. (15))."""
        m = 8
        inst = make_inst(layered_dag(16, 4, 0.5, seed=seed), m)
        res = jz_schedule(inst)
        cert = res.certificate
        mu = cert.parameters.mu
        W = res.schedule.total_work
        rhs = cert.t1 + mu * cert.t2 + (m - mu + 1) * cert.t3
        assert W >= rhs - 1e-6 * (1 + W)

    @pytest.mark.parametrize("seed", range(3))
    def test_work_stretch_bound(self, seed):
        """W(final) <= 2 m C* / (2-ρ) (Lemma 4.2 + Theorem 2.1)."""
        m = 8
        inst = make_inst(layered_dag(16, 4, 0.5, seed=seed), m)
        res = jz_schedule(inst)
        cert = res.certificate
        rho = cert.parameters.rho
        bound = 2 * m * cert.lower_bound / (2 - rho)
        assert res.schedule.total_work <= bound + 1e-6 * (1 + bound)


class TestParameterOverrides:
    def test_custom_rho_mu(self):
        inst = make_inst(diamond_dag(4), 6)
        res = jz_schedule(inst, rho=0.5, mu=2)
        assert res.certificate.parameters.rho == 0.5
        assert res.certificate.parameters.mu == 2
        assert_feasible(inst, res.schedule)

    def test_mu_above_analysis_cap_allowed_but_unbounded(self):
        inst = make_inst(diamond_dag(4), 6)
        res = jz_schedule(inst, mu=6)  # beyond (m+1)/2: no proven ratio
        assert res.certificate.parameters.ratio == float("inf")
        assert_feasible(inst, res.schedule)

    def test_bad_overrides(self):
        inst = make_inst(diamond_dag(4), 6)
        with pytest.raises(ValueError):
            jz_schedule(inst, rho=1.5)
        with pytest.raises(ValueError):
            jz_schedule(inst, mu=0)


class TestSmallMachines:
    def test_m1(self):
        inst = make_inst(chain_dag(3), 1)
        res = jz_schedule(inst)
        assert_feasible(inst, res.schedule)
        assert res.makespan == pytest.approx(
            sum(t.time(1) for t in inst.tasks)
        )

    def test_m2_ratio_bound_two(self):
        inst = make_inst(diamond_dag(3), 2)
        res = jz_schedule(inst)
        assert res.certificate.ratio_bound == pytest.approx(2.0)
        assert res.makespan <= 2 * res.certificate.lower_bound + 1e-9
