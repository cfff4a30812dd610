"""Critical-point rounding of the fractional allotment (Section 3.1).

Given the fractional optimum ``x*`` of LP (9) and the rounding parameter
``ρ ∈ [0, 1]``, each task's fractional time is snapped to an achievable
discrete time: if ``x*_j`` lies in the segment ``[p_j(l+1), p_j(l)]``, the
*critical point* is

    p_j(l_c) = ρ · p_j(l) + (1 - ρ) · p_j(l+1)

and ``x*_j`` is rounded **up** to ``p_j(l)`` (fewer processors) when
``x*_j >= p_j(l_c)``, otherwise **down** to ``p_j(l+1)`` (more processors).

Lemma 4.2 bounds the damage:

* processing time grows by at most ``2 / (1 + ρ)``;
* work grows by at most ``2 / (2 - ρ)``.

Both factors are verified instance-by-instance by
:func:`rounding_stretch_report` (and property-tested in the suite).

One kernel, :func:`batched_round`, rounds every task of a profile image
at once — an instance's :func:`repro.core.arrays.instance_arrays` or a
packed fleet's stacked profiles — replaying ``MalleableTask.bracket`` and
the critical-point test over flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .arrays import (
    InstanceArrays,
    clamped_times,
    instance_arrays,
    work_of_times,
)
from .instance import Instance
from .task import _RTOL

__all__ = [
    "batched_round",
    "round_fractional_times",
    "RoundingReport",
    "rounding_stretch_report",
    "time_stretch_bound",
    "work_stretch_bound",
]


def time_stretch_bound(rho: float) -> float:
    """Lemma 4.2 worst-case processing-time stretch ``2 / (1 + ρ)``."""
    _check_rho(rho)
    return 2.0 / (1.0 + rho)


def work_stretch_bound(rho: float) -> float:
    """Lemma 4.2 worst-case work stretch ``2 / (2 - ρ)``."""
    _check_rho(rho)
    return 2.0 / (2.0 - rho)


def _check_rho(rho: float) -> None:
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")


def batched_round(sp, x: np.ndarray, rho) -> np.ndarray:
    """Critical-point rounding of every task of a profile image.

    ``sp`` is any profile image with the break arrays and ``min_time``
    (:class:`~repro.core.arrays.InstanceArrays`, or a packed fleet's
    :class:`~repro.batchkernel.StackedProfiles`); ``x`` holds one
    fractional time per task and ``rho`` is one value or one per task.
    Replays the exact per-task sequence: range check against the raw
    minimum time, clamp to the canonical range, *first*-close
    breakpoint scan with ``_close(x, t, hi)`` tolerance, else the
    strictly-containing breakpoint pair and the critical-point test
    ``x >= rho * p_up + (1 - rho) * p_down``.
    """
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    xc, hi = clamped_times(sp, x)
    # _close(a, b, scale=hi): both operands lie in (0, hi], so the
    # max(|a|, |b|, scale, 1.0) envelope is exactly max(hi, 1.0).
    tol = _RTOL * np.maximum(hi, 1.0)
    nbrk_total = len(sp.brk_value)
    brk_task = np.repeat(
        np.arange(n, dtype=np.intp), np.diff(sp.brk_ptr)
    )
    close = np.abs(
        xc[brk_task] - sp.brk_value
    ) <= tol[brk_task]
    first_close = np.minimum.reduceat(
        np.where(close, np.arange(nbrk_total), nbrk_total),
        sp.brk_ptr[:-1],
    )
    hit = first_close < nbrk_total

    allot = np.empty(n, dtype=np.intp)
    allot[hit] = sp.brk_level[first_close[hit]]

    miss = ~hit
    if miss.any():
        # Count breaks strictly above x: the containing pair is
        # (count-1, count) within the task's break list.  No-close
        # guarantees strict containment (1 <= count <= nbrk-1).
        above = np.add.reduceat(
            (sp.brk_value > xc[brk_task]).astype(np.int64),
            sp.brk_ptr[:-1],
        )
        idx_hi = sp.brk_ptr[:-1] + above - 1
        idx_lo = idx_hi + 1
        if not (
            (above[miss] >= 1).all()
            and (idx_lo[miss] < sp.brk_ptr[1:][miss]).all()
        ):  # pragma: no cover - mirrors bracket's assertion guard
            raise AssertionError("batched bracket failed")
        l_up = sp.brk_level[idx_hi]
        l_down = sp.brk_level[idx_lo]
        p_up = sp.brk_value[idx_hi]
        p_down = sp.brk_value[idx_lo]
        critical = rho * p_up + (1.0 - rho) * p_down
        allot[miss] = np.where(
            xc >= critical, l_up, l_down
        )[miss]
    return allot


def _image_and_times(
    instance: Instance, x: Sequence[float], rho: float
) -> Tuple[InstanceArrays, np.ndarray]:
    """Validate ``rho`` and ``x``'s length; the instance's profile image
    and ``x`` as a float array."""
    _check_rho(rho)
    if len(x) != instance.n_tasks:
        raise ValueError("one fractional time per task required")
    return instance_arrays(instance), np.asarray(x, dtype=float)


def round_fractional_times(
    instance: Instance, x: Sequence[float], rho: float
) -> List[int]:
    """Apply critical-point rounding; returns the allotment α′ (``l′_j``).

    ``x`` must lie inside each task's achievable range (as LP (9)
    guarantees).  Exact breakpoint hits keep their canonical (smallest)
    processor count — no rounding decision is involved.
    """
    arr, xa = _image_and_times(instance, x, rho)
    return batched_round(arr, xa, rho).tolist()


@dataclass(frozen=True)
class RoundingReport:
    """Per-instance accounting of the rounding step (Lemma 4.2).

    ``time_stretch[j] = p_j(l′_j) / x*_j`` and
    ``work_stretch[j] = w_j(p_j(l′_j)) / w_j(x*_j)``; the ``max_*`` fields
    are their maxima, provably at most the corresponding ``bound_*``.
    """

    allotment: Tuple[int, ...]
    time_stretch: Tuple[float, ...]
    work_stretch: Tuple[float, ...]
    max_time_stretch: float
    max_work_stretch: float
    bound_time_stretch: float
    bound_work_stretch: float

    @property
    def within_bounds(self) -> bool:
        """Whether Lemma 4.2 holds on this instance (it must)."""
        tol = 1e-7
        return (
            self.max_time_stretch <= self.bound_time_stretch * (1 + tol)
            and self.max_work_stretch <= self.bound_work_stretch * (1 + tol)
        )


def rounding_stretch_report(
    instance: Instance, x: Sequence[float], rho: float
) -> RoundingReport:
    """Round and measure the realized stretches against Lemma 4.2."""
    arr, xa = _image_and_times(instance, x, rho)
    allot = batched_round(arr, xa, rho)
    p = arr.times[np.arange(arr.n), allot - 1]  # p_j(l'_j)
    frac_work = work_of_times(arr, xa)  # w_j(x*_j)
    t_stretch = (p / xa).tolist()
    # W(l) = l * p(l); a zero fractional work reads as no stretch.
    w_stretch = np.divide(
        allot * p, frac_work, out=np.ones(arr.n), where=frac_work > 0
    ).tolist()
    return RoundingReport(
        allotment=tuple(allot.tolist()),
        time_stretch=tuple(t_stretch),
        work_stretch=tuple(w_stretch),
        max_time_stretch=max(t_stretch, default=1.0),
        max_work_stretch=max(w_stretch, default=1.0),
        bound_time_stretch=time_stretch_bound(rho),
        bound_work_stretch=work_stretch_bound(rho),
    )
