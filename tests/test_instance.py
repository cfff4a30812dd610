"""Unit tests for the Instance type."""

import pickle

import pytest

from repro import Instance, MalleableTask
from repro.dag import chain_dag, diamond_dag
from repro.io import instance_from_dict, instance_to_dict
from repro.models import power_law_profile
from repro.workloads import make_instance


def tasks_for(m, n, d=0.5):
    return [MalleableTask(power_law_profile(10.0, d, m)) for _ in range(n)]


class TestConstruction:
    def test_basic(self):
        inst = Instance(tasks_for(4, 3), chain_dag(3), 4, name="x")
        assert inst.n_tasks == 3
        assert inst.m == 4
        assert inst.name == "x"
        assert inst.task(0).max_processors == 4

    def test_m_guard(self):
        with pytest.raises(ValueError):
            Instance(tasks_for(4, 2), chain_dag(2), 0)

    def test_dag_size_mismatch(self):
        with pytest.raises(ValueError):
            Instance(tasks_for(4, 2), chain_dag(3), 4)

    def test_profile_length_mismatch(self):
        with pytest.raises(ValueError):
            Instance(tasks_for(3, 2), chain_dag(2), 4)

    def test_from_profile_fn(self):
        inst = Instance.from_profile_fn(
            diamond_dag(2), 4, lambda j: power_law_profile(5.0 + j, 0.5, 4)
        )
        assert inst.n_tasks == 4
        assert inst.task(1).max_time == pytest.approx(6.0)
        assert inst.task(0).name == "J0"

    def test_repr(self):
        inst = Instance(tasks_for(2, 2), chain_dag(2), 2, name="r")
        assert "n=2" in repr(inst) and "'r'" in repr(inst)


class TestQuantities:
    def setup_method(self):
        self.m = 4
        self.inst = Instance(
            tasks_for(self.m, 3, d=1.0), chain_dag(3), self.m
        )

    def test_min_total_work(self):
        assert self.inst.min_total_work() == pytest.approx(30.0)

    def test_min_critical_path(self):
        # Linear speedup: p(4) = 2.5 each, chain of 3.
        assert self.inst.min_critical_path() == pytest.approx(7.5)

    def test_trivial_lower_bound(self):
        assert self.inst.trivial_lower_bound() == pytest.approx(
            max(7.5, 30.0 / 4)
        )

    def test_sequential_makespan(self):
        assert self.inst.sequential_makespan() == pytest.approx(30.0)

    def test_critical_path_for_allotment(self):
        assert self.inst.critical_path_for_allotment(
            [1, 2, 4]
        ) == pytest.approx(10.0 + 5.0 + 2.5)

    def test_total_work_for_allotment(self):
        # Linear speedup keeps work constant at 10 per task.
        assert self.inst.total_work_for_allotment(
            [1, 2, 4]
        ) == pytest.approx(30.0)

    def test_validate_allotment_errors(self):
        with pytest.raises(ValueError):
            self.inst.validate_allotment([1, 1])  # wrong length
        with pytest.raises(ValueError):
            self.inst.validate_allotment([0, 1, 1])  # below 1
        with pytest.raises(ValueError):
            self.inst.validate_allotment([1, 1, 5])  # above m

    def test_tasks_tuple_immutable_view(self):
        assert isinstance(self.inst.tasks, tuple)
        assert len(self.inst.tasks) == 3


class TestPickle:
    def test_parsed_instance_pickles_without_segment_memos(self):
        """The daemon parses a request with ``instance_from_dict`` (the
        fingerprint check keys it) and ships the instance to a pool
        worker as a pickle: no ``WorkSegment`` rides along, not even
        after every task's segments were built."""
        data = instance_to_dict(make_instance("layered", 200, 16, seed=1))
        assert "fingerprint" in data
        inst = instance_from_dict(data)
        blob = pickle.dumps(inst)
        assert b"WorkSegment" not in blob
        for task in inst.tasks:
            task.segments()
        assert pickle.dumps(inst) == blob
        clone = pickle.loads(blob)
        assert clone.tasks == inst.tasks
        assert clone.content_key() == inst.content_key()
        assert [t.breakpoints for t in clone.tasks] == [
            t.breakpoints for t in inst.tasks
        ]
        assert [t.segments() for t in clone.tasks] == [
            t.segments() for t in inst.tasks
        ]


class TestPackageMeta:
    def test_version(self):
        import repro
        from test_version import pyproject_version

        assert repro.__version__ == pyproject_version()

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
