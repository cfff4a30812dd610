"""Tests for the processor-availability timeline."""

import pytest

from repro.schedule import ResourceTimeline


class TestBasics:
    def test_initial_state(self):
        tl = ResourceTimeline(4)
        assert tl.m == 4
        assert tl.usage_at(0.0) == 0
        assert tl.usage_at(100.0) == 0

    def test_bad_m(self):
        with pytest.raises(ValueError):
            ResourceTimeline(0)

    def test_reserve_and_query(self):
        tl = ResourceTimeline(4)
        tl.reserve(1.0, 3.0, 2)
        assert tl.usage_at(0.5) == 0
        assert tl.usage_at(1.0) == 2
        assert tl.usage_at(2.9) == 2
        assert tl.usage_at(3.0) == 0

    def test_overlapping_reserves_accumulate(self):
        tl = ResourceTimeline(4)
        tl.reserve(0.0, 4.0, 1)
        tl.reserve(1.0, 2.0, 3)
        assert tl.usage_at(1.5) == 4
        assert tl.usage_at(2.5) == 1

    def test_capacity_violation_raises(self):
        tl = ResourceTimeline(2)
        tl.reserve(0.0, 2.0, 2)
        with pytest.raises(ValueError):
            tl.reserve(1.0, 3.0, 1)

    def test_capacity_violation_leaves_state_clean(self):
        tl = ResourceTimeline(2)
        tl.reserve(0.0, 2.0, 2)
        with pytest.raises(ValueError):
            tl.reserve(1.0, 3.0, 1)
        # The failed reservation must not have been partially applied.
        assert tl.usage_at(2.5) == 0

    def test_empty_interval_rejected(self):
        tl = ResourceTimeline(2)
        with pytest.raises(ValueError):
            tl.reserve(1.0, 1.0, 1)

    def test_bad_amount(self):
        tl = ResourceTimeline(2)
        with pytest.raises(ValueError):
            tl.reserve(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            tl.reserve(0.0, 1.0, 0)


class TestEarliestStart:
    def test_empty_timeline(self):
        tl = ResourceTimeline(4)
        assert tl.earliest_start(0.0, 5.0, 4) == 0.0
        assert tl.earliest_start(2.5, 5.0, 4) == 2.5

    def test_waits_for_capacity(self):
        tl = ResourceTimeline(4)
        tl.reserve(0.0, 10.0, 3)
        # 2 processors only free from t=10.
        assert tl.earliest_start(0.0, 1.0, 2) == pytest.approx(10.0)
        # 1 processor fits immediately.
        assert tl.earliest_start(0.0, 1.0, 1) == 0.0

    def test_fits_in_gap(self):
        tl = ResourceTimeline(4)
        tl.reserve(0.0, 2.0, 4)
        tl.reserve(5.0, 8.0, 4)
        # Gap [2, 5) fits a duration-3 job exactly.
        assert tl.earliest_start(0.0, 3.0, 4) == pytest.approx(2.0)
        # Duration 4 does not fit in the gap -> after the second block.
        assert tl.earliest_start(0.0, 4.0, 4) == pytest.approx(8.0)

    def test_respects_ready_time(self):
        tl = ResourceTimeline(2)
        assert tl.earliest_start(3.0, 1.0, 1) == 3.0

    def test_partial_overlap_needs_window(self):
        tl = ResourceTimeline(2)
        tl.reserve(2.0, 4.0, 2)
        # Starting at 0 with duration 3 would overlap the busy block.
        assert tl.earliest_start(0.0, 3.0, 1) == pytest.approx(4.0)
        # Duration 2 fits exactly before the block.
        assert tl.earliest_start(0.0, 2.0, 1) == 0.0

    def test_zero_duration(self):
        tl = ResourceTimeline(2)
        tl.reserve(0.0, 5.0, 2)
        assert tl.earliest_start(1.0, 0.0, 2) == 1.0

    def test_reserve_at_earliest_start_always_fits(self):
        tl = ResourceTimeline(3)
        tl.reserve(0.0, 3.0, 2)
        tl.reserve(4.0, 6.0, 3)
        for (ready, dur, amt) in [
            (0.0, 1.0, 1),
            (0.0, 2.0, 3),
            (1.0, 5.0, 2),
            (2.5, 1.5, 1),
        ]:
            t = tl.earliest_start(ready, dur, amt)
            for (s, u) in tl.profile():
                pass  # smoke: profile is accessible
            tl.reserve(t, t + dur, amt)  # must not raise
            # Undo is not supported; rebuild for the next iteration.
            tl = ResourceTimeline(3)
            tl.reserve(0.0, 3.0, 2)
            tl.reserve(4.0, 6.0, 3)

    def test_profile(self):
        tl = ResourceTimeline(4)
        tl.reserve(1.0, 2.0, 2)
        prof = tl.profile()
        assert (0.0, 0) in prof
        assert any(t == 1.0 and u == 2 for (t, u) in prof)

    def test_segments_are_the_live_profile(self):
        """``segments()`` returns the live lists behind ``profile()``:
        a later ``reserve`` shows through them without another call,
        and every segment's usage is ``usage_at`` its breakpoint."""
        tl = ResourceTimeline(4)
        times, usage = tl.segments()
        assert (times, usage) == ([0.0], [0])
        tl.reserve(1.0, 3.0, 2)
        tl.reserve(2.0, 5.0, 1)
        tl.reserve(0.5, 2.0, 1)
        assert tl.segments()[0] is times and tl.segments()[1] is usage
        assert times == [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]
        assert usage == [0, 1, 3, 3, 1, 0]
        assert list(zip(times, usage)) == tl.profile()
        for t, u in zip(times, usage):
            assert tl.usage_at(t) == u
        for k in range(len(times) - 1):
            mid = (times[k] + times[k + 1]) / 2
            assert tl.usage_at(mid) == usage[k]
