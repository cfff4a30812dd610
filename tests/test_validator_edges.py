"""Edge-case tests for :mod:`repro.schedule.validator`.

Zero-duration tasks and full-machine allotments sit exactly on the
boundaries the feasibility sweep compares against (``duration > 0``,
``active <= m``), so each gets an explicit test.
"""

import pytest

from repro import (
    Dag,
    Instance,
    MalleableTask,
    Schedule,
    ScheduledTask,
    simulate,
    validate_schedule,
)


def _flat_instance(n, m, time=1.0, edges=()):
    """n tasks with constant profiles (time independent of allotment)."""
    return Instance(
        [MalleableTask([time] * m) for _ in range(n)], Dag(n, edges), m
    )


class TestZeroDuration:
    def test_zero_time_profile_rejected_at_task_level(self):
        with pytest.raises(ValueError):
            MalleableTask([0.0, 0.0])

    def test_zero_duration_entry_rejected_at_schedule_level(self):
        with pytest.raises(ValueError):
            Schedule(2, [ScheduledTask(0, 0.0, 1, 0.0)])

    def test_negative_duration_entry_rejected(self):
        with pytest.raises(ValueError):
            Schedule(2, [ScheduledTask(0, 0.0, 1, -1.0)])

    def test_subnormal_duration_validates(self):
        # Tiny-but-positive durations pass through the whole stack.
        inst = _flat_instance(2, 2, time=1e-300)
        sched = Schedule(
            2,
            [
                ScheduledTask(0, 0.0, 1, 1e-300),
                ScheduledTask(1, 0.0, 1, 1e-300),
            ],
        )
        assert validate_schedule(inst, sched) == []
        trace = simulate(inst, sched)
        assert trace.makespan == pytest.approx(1e-300)


class TestFullMachineAllotments:
    def test_sequential_full_machine_is_feasible(self):
        inst = _flat_instance(3, 4)
        sched = Schedule(
            4, [ScheduledTask(j, float(j), 4, 1.0) for j in range(3)]
        )
        assert validate_schedule(inst, sched) == []
        assert simulate(inst, sched).peak_busy == 4

    def test_overlapping_full_machine_tasks_flagged(self):
        inst = _flat_instance(2, 4)
        sched = Schedule(
            4,
            [
                ScheduledTask(0, 0.0, 4, 1.0),
                ScheduledTask(1, 0.5, 4, 1.0),
            ],
        )
        bad = validate_schedule(inst, sched)
        assert any("capacity exceeded" in b for b in bad)
        with pytest.raises(RuntimeError):
            simulate(inst, sched)

    def test_back_to_back_full_machine_exact_boundary(self):
        # End == start at full allotment: the half-open intervals must
        # not be counted as overlapping.
        inst = _flat_instance(2, 4, edges=[(0, 1)])
        sched = Schedule(
            4,
            [
                ScheduledTask(0, 0.0, 4, 1.0),
                ScheduledTask(1, 1.0, 4, 1.0),
            ],
        )
        assert validate_schedule(inst, sched) == []

    def test_full_machine_plus_one_sliver_flagged(self):
        inst = Instance(
            [MalleableTask([1.0] * 4), MalleableTask([1.0] * 4)],
            Dag(2),
            4,
        )
        sched = Schedule(
            4,
            [
                ScheduledTask(0, 0.0, 4, 1.0),
                ScheduledTask(1, 1.0 - 1e-3, 1, 1.0),
            ],
        )
        bad = validate_schedule(inst, sched)
        assert any("capacity exceeded" in b for b in bad)

    def test_allotment_above_machine_rejected_by_schedule(self):
        with pytest.raises(ValueError):
            Schedule(4, [ScheduledTask(0, 0.0, 5, 1.0)])

    def test_list_schedule_with_full_allotment_stays_feasible(self):
        from repro.core import list_schedule

        inst = _flat_instance(5, 4, edges=[(0, 2), (1, 2), (2, 3)])
        sched = list_schedule(inst, [4] * 5)
        assert validate_schedule(inst, sched) == []
        # Full-machine tasks can only run one at a time.
        assert simulate(inst, sched).peak_busy == 4


class TestMachineSizeMismatch:
    def test_entry_wider_than_the_instance_is_reported(self):
        # A schedule for an 8-processor machine checked against an m=4
        # instance: the 8-wide entry is a violation, not a crash, and
        # the machine-size line is reached.
        inst = _flat_instance(2, 4, edges=[(0, 1)])
        sched = Schedule(
            8,
            [
                ScheduledTask(0, 0.0, 8, 1.0),
                ScheduledTask(1, 1.0, 2, 1.0),
            ],
        )
        bad = validate_schedule(inst, sched)
        assert "task 0: allotment 8 outside [1, 4]" in bad
        assert "schedule machine size 8 != instance m 4" in bad
        # Task 1's entry is in range and its duration is still checked.
        assert not any(b.startswith("task 1:") for b in bad)
        assert any("capacity exceeded" in b for b in bad)
