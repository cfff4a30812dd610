"""Batched phase-2 LIST: B independent frontiers advanced in lockstep.

One scheduler loop drives *every* block of a batch at once.  Each
iteration selects one task per still-unfinished block (an argmin,
with the exact scan of
:func:`repro.core.list_scheduler.list_schedule_reference` as the
fallback on a sub-tolerance near-tie), reserves all the
selected windows on a ``(B, K)`` batch timeline with masked vector
ops, and refreshes every cached earliest start the new reservations
may have moved — so the per-step Python overhead is paid once per
*batch*, not once per instance.

Bit-identity argument: per block, the sequence of selections and
reservations is step-for-step the reference transcription's, and each
refresh returns the exact earliest start.  The batch timeline answers
queries with the same covering-breakpoint / next-blocked-time float
comparisons as :meth:`repro.schedule.ResourceTimeline.earliest_start`
(one sweep per query there, one shared suffix per ``(row, amount)``
pair here), and its watermark compaction only discards breakpoints
strictly below every future query's ready time (selected starts are
non-decreasing per block, up to the selection tolerance), which cannot
change any answer.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.list_scheduler import _SELECT_TOL, _scan_select
from ..dag.csr import _gather_ranges
from ..schedule import Schedule, ScheduledTask
from .packing import BatchedCsr, StackedProfiles

__all__ = ["BatchTimeline", "batched_list_schedule"]

#: Watermark slack of the compaction cutoff.  Selected starts are
#: non-decreasing per block up to ``_SELECT_TOL`` (1e-12); dropping
#: breakpoints more than this far below the newest start is safe by a
#: six-orders-of-magnitude margin.
_COMPACT_MARGIN = 1e-6


class BatchTimeline:
    """B resource profiles as one ``(B, K)`` breakpoint array pair.

    Row ``b`` mirrors a :class:`~repro.schedule.ResourceTimeline`
    for a machine with ``m[b]`` processors: ``times[b, :sizes[b]]`` are
    the breakpoints (strictly increasing, starting at 0.0 initially),
    ``usage[b, k]`` the busy count on ``[times[b,k], times[b,k+1])``.
    Padding columns hold ``(+inf, 0)`` — never covering any finite
    query time, never blocked, so masked full-width operations need no
    per-row trimming.
    """

    __slots__ = ("n_rows", "m", "times", "usage", "sizes")

    def __init__(self, m: np.ndarray, capacity: int = 0):
        m = np.asarray(m, dtype=np.int64)
        if m.size and int(m.min()) < 1:
            raise ValueError("m must be >= 1 in every row")
        self.n_rows = len(m)
        self.m = m
        k = max(16, int(capacity))
        self.times = np.full((self.n_rows, k), np.inf)
        self.times[:, 0] = 0.0
        self.usage = np.zeros((self.n_rows, k), dtype=np.int64)
        self.sizes = np.ones(self.n_rows, dtype=np.intp)

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        k = self.times.shape[1]
        times = np.full((self.n_rows, 2 * k), np.inf)
        times[:, :k] = self.times
        usage = np.zeros((self.n_rows, 2 * k), dtype=np.int64)
        usage[:, :k] = self.usage
        self.times, self.usage = times, usage

    def _compact(self, rows: np.ndarray, watermark: np.ndarray) -> None:
        """Drop breakpoints of ``rows`` strictly below the covering
        breakpoint of ``watermark - margin``.  Future queries on these
        rows have ready times ``>= watermark - _SELECT_TOL``, so they
        only ever read the retained suffix."""
        k = self.times.shape[1]
        t = self.times[rows]
        cut = (
            t <= (watermark - _COMPACT_MARGIN)[:, None]
        ).sum(axis=1) - 1
        np.maximum(cut, 0, out=cut)
        keep = cut > 0
        if not keep.any():
            return
        rows, cut, t = rows[keep], cut[keep], t[keep]
        cols = np.arange(k)
        src = cols[None, :] + cut[:, None]
        valid = src < k
        np.minimum(src, k - 1, out=src)
        ar = np.arange(len(rows))[:, None]
        self.times[rows] = np.where(valid, t[ar, src], np.inf)
        self.usage[rows] = np.where(
            valid, self.usage[rows][ar, src], 0
        )
        self.sizes[rows] -= cut

    def _insert(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Ensure breakpoint ``t[r]`` exists in every row of ``rows``;
        return its column index.  The new breakpoint inherits the
        covering segment's usage, exactly ``_ensure_breakpoint``."""
        k = self.times.shape[1]
        tt = self.times[rows]
        kk = (tt <= t[:, None]).sum(axis=1) - 1
        exists = tt[np.arange(len(rows)), kk] == t
        ins = ~exists
        if ins.any():
            r2, k2, t2 = rows[ins], kk[ins], t[ins]
            cols = np.arange(k)
            src = np.where(
                cols[None, :] <= k2[:, None],
                cols[None, :],
                cols[None, :] - 1,
            )
            ar = np.arange(len(r2))[:, None]
            self.times[r2] = self.times[r2][ar, src]
            self.usage[r2] = self.usage[r2][ar, src]
            self.times[r2, k2 + 1] = t2
            self.sizes[r2] += 1
        return kk + ins

    def reserve_many(
        self,
        rows: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        amount: np.ndarray,
    ) -> np.ndarray:
        """Reserve ``amount[r]`` processors on ``[start[r], end[r])``
        in every row of ``rows`` (one window per row).

        Returns the peak usage inside each reserved window *after* the
        reservation — a cached earliest start in row ``r`` can only
        have moved if its demand exceeds ``m[r] - peak[r]`` (added
        usage lives only inside the window, and a cached start is
        exact w.r.t. everything reserved before).
        """
        need = self.sizes[rows] + 2 > self.times.shape[1]
        if need.any():
            self._compact(rows[need], start[need])
            while (self.sizes[rows] + 2 > self.times.shape[1]).any():
                self._grow()
        i = self._insert(rows, start)
        j = self._insert(rows, end)
        kk = int(self.sizes[rows].max())
        cols = np.arange(kk)[None, :]
        window = (cols >= i[:, None]) & (cols < j[:, None])
        u = self.usage[rows, :kk] + amount[:, None] * window
        peak = np.where(window, u, 0).max(axis=1)
        if (peak > self.m[rows]).any():  # pragma: no cover - queried
            raise ValueError("batch reservation exceeds capacity")
        self.usage[rows, :kk] = u
        return peak

    def earliest_start_rows(
        self,
        rows: np.ndarray,
        ready: np.ndarray,
        durations: np.ndarray,
        amounts: np.ndarray,
    ) -> np.ndarray:
        """Earliest feasible starts for one window per entry.

        The blocked/next-blocked-time suffix is shared per distinct
        ``(row, amount)`` pair (a small table — one suffix per pair,
        not per entry); each entry then needs only its covering index
        and the stay test — the same candidates, in the same order,
        with the same float comparisons as
        ``ResourceTimeline.earliest_start``.

        ``ready`` may be a stale cached start that has fallen below
        the row's first retained breakpoint (watermark compaction).
        The true start is always >= that breakpoint — every selected
        start is >= the compaction watermark — so clamping to it is
        exact, not an approximation.
        """
        out = np.empty(len(rows))
        span = int(self.m.max()) + 1 if self.n_rows else 1
        # Dedup (row, amount) pairs with a dense presence table — the
        # key space is tiny (n_rows * (m+1)) and this avoids the sort
        # inside np.unique on the much larger entry list.
        key = rows * span + amounts
        present = np.zeros(self.n_rows * span + 1, dtype=bool)
        present[key] = True
        pairs = np.flatnonzero(present)
        lut = np.zeros(len(present), dtype=np.intp)
        lut[pairs] = np.arange(len(pairs))
        inverse = lut[key]
        rows_p = pairs // span
        a_p = pairs % span
        # Live column range: beyond every row's size the padding is
        # (+inf, 0) — never covering, never blocked — so slicing it
        # off changes no answer.
        km = int(self.sizes[rows_p].max())
        t_p = self.times[rows_p, :km]              # (P, km)
        ready = np.maximum(ready, t_p[inverse, 0])
        blocked = self.usage[rows_p, :km] > (
            self.m[rows_p] - a_p
        )[:, None]
        # Pairs with a fully-free suffix: every entry stays at its
        # ready time (the reference's no-blocked early out).
        free = ~blocked.any(axis=1)
        if free.all():
            out[:] = ready
            return out
        nbt = np.where(blocked, t_p, np.inf)
        nbt = np.minimum.accumulate(nbt[:, ::-1], axis=1)[:, ::-1]
        entry_free = free[inverse]
        out[entry_free] = ready[entry_free]
        sub = np.flatnonzero(~entry_free)
        inv_s = inverse[sub]
        rdy = ready[sub]
        d = durations[sub]
        # Covering index by vectorized binary search over the shared
        # per-pair breakpoint rows (ascending): i = rightmost column
        # with time <= ready.  Same exact comparisons as the
        # reference, O(log k) gathers instead of an (entries x k)
        # comparison matrix.
        lo = np.zeros(len(sub), dtype=np.intp)
        hi = np.full(len(sub), km, dtype=np.intp)
        steps = 1
        while (1 << steps) < km + 1:
            steps += 1
        for _ in range(steps):
            act = lo < hi
            mid = (lo + hi) >> 1
            go = act & (
                t_p[inv_s, np.minimum(mid, km - 1)] <= rdy
            )
            lo = np.where(go, mid + 1, lo)
            hi = np.where(act & ~go, mid, hi)
        i = lo - 1
        res = np.empty(len(sub))
        stay = rdy + d <= nbt[inv_s, i]
        res[stay] = rdy[stay]
        # Movers advance column by column: each round tests the next
        # breakpoint for every still-unplaced entry.  The last live
        # column of a row always fits (usage 0, next-blocked inf), so
        # every entry lands within the live range.  Starts are almost
        # always found within a column or two, so this streams O(n)
        # per round instead of materializing an (entries x k) matrix.
        und = np.flatnonzero(~stay)
        c = i[und] + 1
        while und.size:
            iv = inv_s[und]
            tc = t_p[iv, c]
            feas = tc + d[und] <= nbt[iv, c]
            hit = und[feas]
            res[hit] = tc[feas]
            miss = ~feas
            und = und[miss]
            c = c[miss] + 1
        out[sub] = res
        return out


def batched_list_schedule(
    sp: StackedProfiles,
    bcsr: BatchedCsr,
    alloc: np.ndarray,
    timeline_capacity: int = 0,
) -> List[Schedule]:
    """Run LIST over every block of the batch in lockstep.

    ``alloc`` is the flat *capped* allotment (one entry per union
    task, each within its block's ``1..m``).  Returns one
    :class:`~repro.schedule.Schedule` per block, bit-identical to
    ``list_schedule`` on the block alone.
    """
    nb = sp.n_blocks
    node_ptr = sp.node_ptr
    n_total = int(node_ptr[-1])
    if nb == 0:
        return []
    alloc = np.asarray(alloc, dtype=np.intp)
    dur = (
        sp.times[np.arange(n_total), alloc - 1]
        if n_total else np.zeros(0)
    )
    union = bcsr.union
    row_of = bcsr.row_of
    m_task = sp.m_of_task

    cap = timeline_capacity or max(
        16, 2 * int(sp.m_blocks.max()) + 8
    )
    timeline = BatchTimeline(sp.m_blocks, capacity=cap)

    est = np.full(n_total, np.inf)
    completion = np.zeros(n_total)
    indeg = union.in_degrees().copy()
    ready = indeg == 0
    est[ready] = 0.0
    remaining = np.diff(node_ptr).astype(np.intp)

    starts_out = np.zeros(n_total)
    succ_indptr, succ_indices = union.succ_indptr, union.succ_indices
    pred_indptr, pred_indices = union.pred_indptr, union.pred_indices

    # Per-row scratch for the refresh condition of this step's
    # reservations (rows without a reservation never match).
    row_best = np.full(nb, np.inf)
    row_end = np.full(nb, -np.inf)
    row_cap = np.full(nb, np.iinfo(np.int64).max)
    # Persistent "became ready this step" flag — cleared right after
    # use, so no per-step np.isin over the kept set.
    newflag = np.zeros(n_total, dtype=bool)

    while True:
        active = np.flatnonzero(remaining > 0)
        if not active.size:
            break
        ready_nodes = np.flatnonzero(ready)
        s_act = np.searchsorted(ready_nodes, node_ptr[active])
        e_act = np.searchsorted(ready_nodes, node_ptr[active + 1])
        if (e_act == s_act).any():  # pragma: no cover - DAG invariant
            raise RuntimeError(
                "no ready task but unscheduled tasks remain"
            )
        vals = est[ready_nodes]
        vmin = np.minimum.reduceat(vals, s_act)
        counts = e_act - s_act
        eq = vals == np.repeat(vmin, counts)
        chosen = np.minimum.reduceat(
            np.where(eq, ready_nodes, n_total), s_act
        )
        # Near-tolerance tie detection, exactly the reference: a row
        # falls back to the exact scalar scan when more than one
        # candidate sits within tolerance of the minimum and not all
        # of them equal it — i.e. some near candidate is not equal.
        extra = (
            vals <= np.repeat(vmin + _SELECT_TOL, counts)
        ) & ~eq
        if extra.any():
            n_extra = np.add.reduceat(extra.astype(np.int64), s_act)
            for fi in np.flatnonzero(n_extra).tolist():
                chosen[fi] = _scan_select(
                    ready_nodes[s_act[fi]:e_act[fi]], est
                )
        j = chosen

        best_t = est[j]
        dj = dur[j]
        aj = alloc[j]
        end = best_t + dj
        peak = timeline.reserve_many(active, best_t, end, aj)
        # Eager watermark compaction: every later query and start in
        # these rows is >= best_t - _SELECT_TOL, so breakpoints below
        # the margin cutoff are dead weight — dropping them keeps the
        # live column range (and every query above) near O(m).
        timeline._compact(active, best_t)
        starts_out[j] = best_t
        completion[j] = end
        est[j] = np.inf
        ready[j] = False
        remaining[active] -= 1
        row_best[:] = np.inf
        row_end[:] = -np.inf
        row_cap[:] = np.iinfo(np.int64).max
        row_best[active] = best_t
        row_end[active] = end
        row_cap[active] = timeline.m[active] - peak

        # Newly-ready successors; their est is the precedence ready
        # time (max completion over predecessors, all scheduled now).
        sc = (succ_indptr[j + 1] - succ_indptr[j]).astype(np.intp)
        targets = succ_indices[
            _gather_ranges(succ_indptr[j].astype(np.intp), sc)
        ]
        newly = np.zeros(0, dtype=np.intp)
        if targets.size:
            indeg[targets] -= 1
            newly = targets[indeg[targets] == 0]
            if newly.size:
                pc = (
                    pred_indptr[newly + 1] - pred_indptr[newly]
                ).astype(np.intp)
                flat = pred_indices[_gather_ranges(
                    pred_indptr[newly].astype(np.intp), pc
                )]
                pp = np.zeros(len(newly) + 1, dtype=np.intp)
                np.cumsum(pc, out=pp[1:])
                est[newly] = np.maximum.reduceat(
                    completion[flat], pp[:-1]
                )
                ready[newly] = True

        # Refresh: still-ready tasks whose cached window overlaps the
        # new reservation in their row and demands more than the
        # window's post-reservation slack (anything else provably
        # keeps its cached start), plus every newly-ready task.
        kept = np.flatnonzero(ready)
        if kept.size:
            r = row_of[kept]
            t_r = est[kept]
            refresh = (
                (t_r < row_end[r])
                & (t_r + dur[kept] > row_best[r])
                & (alloc[kept] > row_cap[r])
            )
            if newly.size:
                newflag[newly] = True
                refresh |= newflag[kept]
                newflag[newly] = False
            if refresh.any():
                ids = kept[refresh]
                est[ids] = timeline.earliest_start_rows(
                    row_of[ids], est[ids], dur[ids], alloc[ids]
                )

    schedules: List[Schedule] = []
    starts_l = starts_out.tolist()
    alloc_l = alloc.tolist()
    dur_l = dur.tolist() if n_total else []
    for b in range(nb):
        s, e = int(node_ptr[b]), int(node_ptr[b + 1])
        entries = [
            ScheduledTask(
                task=v - s,
                start=starts_l[v],
                processors=alloc_l[v],
                duration=dur_l[v],
            )
            for v in range(s, e)
        ]
        schedules.append(Schedule(int(sp.m_blocks[b]), entries))
    return schedules
