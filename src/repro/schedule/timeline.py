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

import numpy as np

__all__ = ["ArrayTimeline", "ResourceTimeline"]


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


class ArrayTimeline:
    """NumPy twin of :class:`ResourceTimeline` with batched queries.

    Same exact-float contract: breakpoints are compared with ``==``,
    every start returned is either the caller's ready time or an existing
    breakpoint, and the only arithmetic performed on times is the
    ``start + duration`` window-end sum — the identical IEEE operations
    of the scalar class, so both produce bit-identical answers (asserted
    by the property suite).  Its one query, :meth:`earliest_start_many`,
    answers a whole LIST step's windows at once.
    """

    __slots__ = ("_m", "_times", "_usage", "_size")

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self._m = int(m)
        # Breakpoint storage grows by doubling.
        self._times = np.zeros(64, dtype=float)
        self._usage = np.zeros(64, dtype=np.int64)
        self._size = 1  # breakpoint t=0 with zero usage

    @property
    def m(self) -> int:
        """Total processor count."""
        return self._m

    def profile(self) -> List[Tuple[float, int]]:
        """Copy of the (time, usage) breakpoint list."""
        return list(
            zip(
                self._times[: self._size].tolist(),
                self._usage[: self._size].tolist(),
            )
        )

    # ------------------------------------------------------------------
    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at exactly ``t`` (if missing); return its
        index."""
        size = self._size
        k = int(
            np.searchsorted(self._times[:size], t, side="right")
        ) - 1
        if k >= 0 and self._times[k] == t:
            return k
        if size == len(self._times):
            self._times = np.concatenate([self._times, self._times])
            self._usage = np.concatenate([self._usage, self._usage])
        # Shift the tail one slot right (overlap-safe in NumPy) and drop
        # the new breakpoint in, inheriting the containing segment's use.
        self._times[k + 2:size + 1] = self._times[k + 1:size]
        self._usage[k + 2:size + 1] = self._usage[k + 1:size]
        self._times[k + 1] = t
        self._usage[k + 1] = self._usage[k] if k >= 0 else 0
        self._size = size + 1
        return k + 1

    def reserve(self, start: float, end: float, amount: int) -> None:
        """Mark ``amount`` processors busy on ``[start, end)``.

        Raises :class:`ValueError` if this would exceed capacity anywhere;
        the check-then-apply order keeps the profile untouched when the
        reservation is rejected.
        """
        if not end > start:
            raise ValueError(f"empty interval [{start}, {end})")
        if start < 0:
            raise ValueError(f"negative start {start}")
        if not (1 <= amount <= self._m):
            raise ValueError(f"amount {amount} outside [1, {self._m}]")
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end)
        window = self._usage[i:j]
        over = window + amount > self._m
        if over.any():
            k = i + int(np.argmax(over))
            raise ValueError(
                f"capacity exceeded at t={self._times[k]}: "
                f"{self._usage[k]} + {amount} > {self._m}"
            )
        window += amount

    # ------------------------------------------------------------------
    def earliest_start_many(
        self,
        ready: np.ndarray,
        durations: np.ndarray,
        amounts: np.ndarray,
    ) -> np.ndarray:
        """Earliest feasible starts for a mixed batch of windows.

        One call serves a whole scheduler iteration: the entries are
        sorted by (demand, ready time), the over-full suffix structure is
        computed **once per distinct demand**, and each (demand, ready)
        subgroup is answered with the shared suffix — the same candidates
        and float comparisons as the scalar sweep, so results are
        bit-identical to calling :meth:`ResourceTimeline.earliest_start`
        per entry.

        Preconditions held by the LIST scheduler (and asserted by the
        property suite's comparisons): ``ready >= 0``, ``durations > 0``
        and ``1 <= amounts <= m``.
        """
        k_total = len(ready)
        out = np.empty(k_total)
        order = np.lexsort((ready, amounts))
        t_s = ready[order]
        d_s = durations[order]
        a_s = amounts[order]
        # Segment index covering each ready time; entries are sorted by
        # time within an amount block, so the block's first entry bounds
        # the suffix every computation below needs.
        i_s = np.searchsorted(
            self._times[: self._size], t_s, side="right"
        ) - 1
        res = np.empty(k_total)
        size = self._size
        k = 0
        while k < k_total:
            amount = a_s[k]
            ka = k + int(
                np.searchsorted(a_s[k:], amount, side="right")
            )
            i0 = int(i_s[k: ka].min())
            times = self._times[i0:size]
            blocked = self._usage[i0:size] > self._m - amount
            if not blocked.any():
                # Whole relevant suffix is free for this demand.
                res[k:ka] = t_s[k:ka]
                k = ka
                continue
            nbt = np.where(blocked, times, np.inf)
            np.minimum.accumulate(nbt[::-1], out=nbt[::-1])
            kk = k
            while kk < ka:
                t = float(t_s[kk])
                ke = kk + int(
                    np.searchsorted(t_s[kk:ka], t, side="right")
                )
                i = int(i_s[kk]) - i0
                d_grp = d_s[kk:ke]
                sub = res[kk:ke]
                stay = t + d_grp <= nbt[i]
                sub[stay] = t
                rest = ~stay
                if rest.any():
                    cand = times[i + 1:]
                    limit = nbt[i + 1:]
                    d_rest = d_grp[rest]
                    step = max(
                        1, int(4_000_000 // max(1, len(cand)))
                    )
                    firsts = np.empty(len(d_rest), dtype=np.intp)
                    for a in range(0, len(d_rest), step):
                        block = d_rest[a:a + step, None]
                        firsts[a:a + step] = np.argmax(
                            cand[None, :] + block <= limit[None, :],
                            axis=1,
                        )
                    sub[rest] = cand[firsts]
                kk = ke
            k = ka
        out[order] = res
        return out
