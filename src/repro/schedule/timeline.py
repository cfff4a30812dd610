"""Processor-availability timeline for non-preemptive rectangle packing.

A schedule in the paper's model is a set of axis-aligned rectangles: task
``j`` occupies ``l_j`` processors for ``p_j(l_j)`` contiguous time units.
The LIST scheduler needs one query: *given a ready time, a duration and a
processor demand, what is the earliest start such that the demand fits for
the entire duration?*  :class:`ResourceTimeline` answers it in
``O(#breakpoints)`` per query over a piecewise-constant usage profile.

The implementation is deliberately **exact** on floats: breakpoints are
compared with ``==``, never with a tolerance.  Start candidates returned by
:meth:`earliest_start` are always either the caller's ready time or an
existing breakpoint, so subsequent :meth:`reserve` calls see bit-identical
times and the profile can never silently absorb a sliver of a reservation
(an earlier tolerance-based version did exactly that and produced a
capacity overlap of 8e-15 time units — caught by the schedule validator).
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

__all__ = ["ResourceTimeline"]


class ResourceTimeline:
    """Piecewise-constant usage profile over ``m`` identical processors.

    Maintains breakpoints ``t_0 = 0 < t_1 < ...`` with a constant number of
    busy processors on each ``[t_k, t_{k+1})``; usage beyond the last
    breakpoint is zero.
    """

    __slots__ = ("_m", "_times", "_usage")

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self._m = int(m)
        self._times: List[float] = [0.0]
        self._usage: List[int] = [0]

    @property
    def m(self) -> int:
        """Total processor count."""
        return self._m

    def usage_at(self, t: float) -> int:
        """Busy processors at time ``t`` (right-continuous)."""
        if t < 0:
            return 0
        k = bisect.bisect_right(self._times, t) - 1
        return self._usage[k] if k >= 0 else 0

    def profile(self) -> List[Tuple[float, int]]:
        """Copy of the (time, usage) breakpoint list."""
        return list(zip(self._times, self._usage))

    def segments(self) -> Tuple[List[float], List[int]]:
        """The live breakpoint and usage lists, not copies: ``usage[k]``
        processors are busy on ``[times[k], times[k + 1])``, and every
        later :meth:`reserve` updates both lists in place.  For hot
        loops that read the profile between reservations; callers must
        not modify them."""
        return self._times, self._usage

    # ------------------------------------------------------------------
    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at exactly ``t`` (if missing); return its
        index."""
        k = bisect.bisect_right(self._times, t) - 1
        if k >= 0 and self._times[k] == t:
            return k
        self._times.insert(k + 1, t)
        self._usage.insert(k + 1, self._usage[k] if k >= 0 else 0)
        return k + 1

    def reserve(self, start: float, end: float, amount: int) -> None:
        """Mark ``amount`` processors busy on ``[start, end)``.

        Raises :class:`ValueError` if this would exceed capacity anywhere —
        callers are expected to have found the window via
        :meth:`earliest_start` first.  The check-then-apply order keeps the
        profile untouched when the reservation is rejected.
        """
        if not end > start:
            raise ValueError(f"empty interval [{start}, {end})")
        if start < 0:
            raise ValueError(f"negative start {start}")
        if not (1 <= amount <= self._m):
            raise ValueError(f"amount {amount} outside [1, {self._m}]")
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end)
        for k in range(i, j):
            if self._usage[k] + amount > self._m:
                raise ValueError(
                    f"capacity exceeded at t={self._times[k]}: "
                    f"{self._usage[k]} + {amount} > {self._m}"
                )
        for k in range(i, j):
            self._usage[k] += amount

    def earliest_start(
        self, ready: float, duration: float, amount: int
    ) -> float:
        """Earliest ``t >= ready`` with ``amount`` processors free on the
        whole window ``[t, t + duration)``.

        Candidate starts are the ready time itself and every breakpoint
        after it (usage only *drops* at breakpoints where tasks finish, so
        the earliest feasible start is always one of these).  A single
        left-to-right sweep finds the first fitting candidate in
        ``O(#breakpoints)`` total: while extending a window from candidate
        ``t``, hitting an over-full segment rules out *every* candidate up
        to that segment's right boundary (any such start keeps the blocked
        segment inside its window), so the sweep jumps straight there.
        """
        if not (1 <= amount <= self._m):
            raise ValueError(f"amount {amount} outside [1, {self._m}]")
        ready = max(0.0, ready)
        if duration <= 0:
            return ready
        times = self._times
        usage = self._usage
        n = len(times)
        cap = self._m - amount
        # Segment index covering the ready time (times[0] = 0 <= ready).
        i = max(0, bisect.bisect_right(times, ready) - 1)
        start = ready
        while i < n:
            if usage[i] > cap:
                i += 1
                if i >= n:
                    break
                start = times[i]
            elif i + 1 >= n or times[i + 1] >= start + duration:
                return start
            else:
                i += 1
        # Past the last breakpoint everything is free.
        return max(ready, times[-1])
