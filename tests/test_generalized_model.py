"""Tests for the generalized ("convex-work") model of the paper's
Conclusion — including the reproduction's equivalence finding.

The paper closes with: *"we can generalize our model to the case where
the work function is convex in the processing times and Assumption 1
holds"*.  On the discrete processor grid this class turns out to coincide
with the main model: chord convexity of the work function for the triple
``(x_l, x_{l+1}, x_{l+2})`` cross-multiplies to exactly
``2/x_{l+1} >= 1/x_l + 1/x_{l+2}`` (interior speedup concavity), and work
monotonicity at ``l = 1`` is the ``l = 0`` concavity point.  These tests
pin that equivalence down and check the pipeline end-to-end under the
generalized validation mode.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, MalleableTask, assert_feasible, jz_schedule
from repro.core import AssumptionError
from repro.dag import layered_dag
from repro.models import paper_counterexample_profile, power_law_profile


def accepts(times, model):
    try:
        MalleableTask(times, model=model)
        return True
    except AssumptionError:
        return False


class TestModelSelection:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            MalleableTask([2.0, 1.0], model="quantum")

    def test_model_recorded(self):
        t = MalleableTask([2.0, 1.5], model="convex-work")
        assert t.model == "convex-work"
        assert MalleableTask([2.0, 1.5]).model == "concave-speedup"

    def test_model_part_of_identity(self):
        a = MalleableTask([2.0, 1.5], model="convex-work")
        b = MalleableTask([2.0, 1.5])
        assert a != b


class TestGeneralizedValidation:
    def test_power_law_accepted(self):
        MalleableTask(
            power_law_profile(10.0, 0.5, 8), model="convex-work"
        )

    def test_assumption1_still_required(self):
        with pytest.raises(AssumptionError, match="Assumption 1"):
            MalleableTask([1.0, 2.0], model="convex-work")

    def test_decreasing_work_rejected(self):
        # p = [1, 0.4]: W = 1 -> 0.8 decreases.
        with pytest.raises(AssumptionError, match="non-decreasing"):
            MalleableTask([1.0, 0.4], model="convex-work")

    def test_paper_counterexample_rejected_by_both_models(self):
        """p(l) = 1/(1-δ+δl²) satisfies Assumption 2' but its work is not
        convex in time, so *both* validation modes reject it."""
        p = paper_counterexample_profile(8)
        assert not accepts(p, "concave-speedup")
        assert not accepts(p, "convex-work")
        # ... even though Assumption 2' alone holds:
        assert MalleableTask(p, validate=False).satisfies_assumption2prime()

    def test_work_convexity_reported(self):
        t = MalleableTask(power_law_profile(5.0, 0.7, 6))
        assert t.satisfies_work_convexity()
        bad = MalleableTask(
            paper_counterexample_profile(6), validate=False
        )
        assert not bad.satisfies_work_convexity()


class TestEquivalenceFinding:
    """Discrete convex-work + monotone work + Assumption 1 == Assumptions
    1 + 2 (the reproduction note in MalleableTask's docstring)."""

    @given(seed=st.integers(0, 10**6), m=st.integers(2, 10))
    @settings(max_examples=300)
    def test_models_accept_exactly_the_same_profiles(self, seed, m):
        rng = random.Random(seed)
        # Random non-increasing profiles, sometimes valid, sometimes not.
        times = [1.0]
        for _ in range(m - 1):
            times.append(times[-1] * rng.uniform(0.3, 1.0))
        assert accepts(times, "concave-speedup") == accepts(
            times, "convex-work"
        )

    @given(seed=st.integers(0, 10**6), m=st.integers(3, 10))
    @settings(max_examples=300)
    def test_triple_identity(self, seed, m):
        """The algebraic heart: chord convexity at a triple equals the
        harmonic-mean condition of Assumption 2."""
        rng = random.Random(seed)
        x = sorted(
            (rng.uniform(0.1, 1.0) for _ in range(3)), reverse=True
        )
        x1, x2, x3 = x
        if x1 - x2 < 1e-6 or x2 - x3 < 1e-6:
            return
        l = rng.randint(1, 5)
        # chord slopes of (x, l(x)*x) at l, l+1, l+2
        s_left = ((l + 1) * x2 - l * x1) / (x2 - x1)
        s_right = ((l + 2) * x3 - (l + 1) * x2) / (x3 - x2)
        margin = 2 / x2 - (1 / x1 + 1 / x3)
        if abs(margin) < 1e-9 or abs(s_left - s_right) < 1e-9:
            return  # numerically on the boundary: both readings valid
        convex = s_right < s_left
        concave_speedup = margin > 0
        assert convex == concave_speedup


class TestPipelineUnderGeneralizedModel:
    def test_end_to_end(self):
        """The full algorithm runs identically for convex-work tasks and
        keeps its guarantee (the analysis only uses work monotonicity and
        convexity, per the paper's Conclusion)."""
        m = 6
        dag = layered_dag(14, 4, 0.5, seed=3)
        inst = Instance(
            [
                MalleableTask(
                    power_law_profile(8.0 + j % 3, 0.6, m),
                    model="convex-work",
                )
                for j in range(14)
            ],
            dag,
            m,
        )
        res = jz_schedule(inst)
        assert_feasible(inst, res.schedule)
        assert res.makespan <= (
            res.ratio_bound * res.lower_bound
        ) * (1 + 1e-9)
