"""Packed per-instance profile arrays (the CSR core's companion).

An :class:`repro.core.Instance` holds its task profiles as the ``(n, m)``
times matrix (:attr:`~repro.core.Instance.times`).
:func:`instance_arrays` adds, once per instance, what the solver reads
beside it: the canonical breakpoints, the flattened work-segment chords
of eq. (8) and LP (9)'s δ bounds and anchor work, all built from the
matrix by :func:`profile_image`, the one canonical-breakpoint kernel
(:func:`repro.batchkernel.stack_profiles` runs it on a fleet's padded
matrix).  Phase 1 runs on this image alone: LP assembly, the ``x``
and ``w(x)`` read-backs (:func:`segment_sums`, :func:`work_of_times`)
and critical-point rounding
(:func:`repro.core.rounding.batched_round`) index instead of calling
``MalleableTask.segments``/``work_of_time``/``bracket``, which stay the
per-task API and the test suite's reference.

Every float is the per-task code's: the same comparisons, the same
IEEE operations in the same order (pinned bit for bit by
``tests/test_profile_kernels.py``).

Results are memoized per instance, weakly (:func:`memoized_on_instance`):
pipeline stages and repeated solves of the same instance share one
build, and the cache entry dies with the instance's last strong
reference.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, NamedTuple, Tuple, TypeVar

import numpy as np

from .instance import Instance
from .task import _PLATEAU_RTOL, _RTOL

__all__ = [
    "InstanceArrays",
    "ProfileImage",
    "clamped_times",
    "instance_arrays",
    "memoized_on_instance",
    "profile_image",
    "segment_sums",
    "work_of_times",
]

_T = TypeVar("_T")


def memoized_on_instance(
    fn: Callable[[Instance], _T]
) -> Callable[[Instance], _T]:
    """Memoize a pure ``fn(instance)`` on the instance, weakly.

    The cache entry dies with the instance's last strong reference, and
    un-weakref-able instance-like stand-ins (some test doubles) simply
    recompute.  Used by every per-instance array assembly
    (:func:`instance_arrays` and the LP (9) assembly).
    An evolved instance starts with an empty entry and builds its own.
    """
    cache: "weakref.WeakKeyDictionary[Instance, _T]" = (
        weakref.WeakKeyDictionary()
    )

    @functools.wraps(fn)
    def wrapper(instance: Instance) -> _T:
        try:
            cached = cache.get(instance)
        except TypeError:  # un-weakref-able stand-in
            return fn(instance)
        if cached is None:
            cached = fn(instance)
            cache[instance] = cached
        return cached

    return wrapper


class ProfileImage(NamedTuple):
    """Canonical breakpoints and work chords of a times matrix.

    Breakpoint and segment arrays are flat in (task, increasing ``l``)
    order; task ``j`` owns breaks ``brk_ptr[j]:brk_ptr[j+1]`` and
    segments ``seg_ptr[j]:seg_ptr[j+1]`` (one fewer).

    The last three fields serve LP (9)'s separable form: task ``j`` runs
    for ``x_j = p_j(m) + Σ_k δ_jk`` with ``0 <= δ_jk <= seg_len[k]``
    and does work ``anchor_work[j] + Σ_k seg_slope[k]·δ_jk`` (see
    :mod:`repro.core.lp`).  ``seg_tasks`` lists the tasks that own
    segments; their first segments ``seg_ptr[seg_tasks]`` are the
    offsets :func:`segment_sums` reduces at.
    """

    brk_ptr: np.ndarray     #: (n+1,) per-task canonical break offsets
    seg_ptr: np.ndarray     #: (n+1,) per-task segment offsets
    brk_level: np.ndarray   #: flat break levels l
    brk_value: np.ndarray   #: flat break times p(l)
    nseg: np.ndarray        #: (n,) segments per task (= breaks - 1)
    seg_task: np.ndarray    #: flat segment -> task row
    seg_slope: np.ndarray   #: flat chord slopes
    seg_intercept: np.ndarray  #: flat chord intercepts
    work_lo: np.ndarray     #: (n,) rigid-task work, 0.0 otherwise
    seg_len: np.ndarray     #: flat δ bounds (x-lengths of the chords)
    anchor_work: np.ndarray  #: (n,) the chord work at x = p(m)
    seg_tasks: np.ndarray   #: tasks with at least one segment


def profile_image(times: np.ndarray) -> ProfileImage:
    """The canonical breakpoints and chords of every row of ``times``.

    ``times`` is an ``(n, w)`` processing-time matrix.  Each row yields
    exactly ``MalleableTask.breakpoints`` and ``segments()``: a column
    enters a row's break list iff it drops strictly below the plateau
    band of the last kept break (``p(l) < last * (1 - _PLATEAU_RTOL)``,
    vectorized one level at a time), and the chords use the same
    arithmetic in the same order (``l * x`` products, ``slope = (w_lo
    - w_hi) / (x_lo - x_hi)``, the intercept from the high endpoint).
    A row padded by repeating its last time is a plateau the rule
    never breaks on, so a padded matrix yields the unpadded breaks.

    The δ form anchors each task at its last column ``p(m)``, which can
    sit up to ``_PLATEAU_RTOL`` below the last kept break: the segment
    nearest ``p(m)`` is extended down to it, and the anchor work is
    that chord's value there (a rigid task's is ``work_lo``).
    """
    n, width = times.shape
    is_break = np.zeros((n, width), dtype=bool)
    if n:
        is_break[:, 0] = True
        last = times[:, 0].copy()
        for l in range(2, width + 1):
            col = times[:, l - 1]
            mask = col < last * (1.0 - _PLATEAU_RTOL)
            is_break[:, l - 1] = mask
            np.copyto(last, col, where=mask)

    flat = np.flatnonzero(is_break.ravel())
    brk_level = flat % width + 1
    brk_value = times.ravel()[flat]
    nbrk = is_break.sum(axis=1).astype(np.intp)
    brk_ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(nbrk, out=brk_ptr[1:])

    # A segment joins every break to the next one of the same task.
    pair = np.ones(len(flat), dtype=bool)
    pair[brk_ptr[1:] - 1] = False
    pair = np.flatnonzero(pair)
    x_hi = brk_value[pair]
    x_lo = brk_value[pair + 1]
    w_hi = brk_level[pair] * x_hi
    w_lo = brk_level[pair + 1] * x_lo
    seg_slope = (w_lo - w_hi) / (x_lo - x_hi)
    seg_intercept = w_hi - seg_slope * x_hi
    nseg = nbrk - 1
    seg_ptr = brk_ptr - np.arange(n + 1)
    # A rigid task's work is its one break's l * p(l) with l = 1.
    work_lo = np.where(nseg == 0, 1 * times[:, 0], 0.0)

    min_time = times[:, width - 1]
    seg_tasks = np.flatnonzero(nseg > 0)
    last = seg_ptr[seg_tasks + 1] - 1
    x_end = x_lo.copy()
    x_end[last] = min_time[seg_tasks]
    anchor_work = work_lo.copy()
    anchor_work[seg_tasks] = (
        seg_slope[last] * min_time[seg_tasks] + seg_intercept[last]
    )
    return ProfileImage(
        brk_ptr=brk_ptr,
        seg_ptr=seg_ptr,
        brk_level=brk_level,
        brk_value=brk_value,
        nseg=nseg,
        seg_task=flat[pair] // width,
        seg_slope=seg_slope,
        seg_intercept=seg_intercept,
        work_lo=work_lo,
        seg_len=x_hi - x_end,
        anchor_work=anchor_work,
        seg_tasks=seg_tasks,
    )


class InstanceArrays(NamedTuple):
    """Frozen array image of an instance's task profiles.

    Attributes
    ----------
    n, m:
        Task and processor counts.
    times:
        The instance's own read-only ``(n, m)`` matrix,
        ``times[j, l-1] = p_j(l)``, so ``times[arange(n), alloc - 1]``
        is the duration vector of an allotment.
    min_time:
        ``p_j(m)`` per task, where LP (9) anchors ``x_j``.
    work_lo, brk_ptr, seg_ptr, brk_level, brk_value, nseg, seg_task,
    seg_slope, seg_intercept, seg_len, anchor_work, seg_tasks:
        The :class:`ProfileImage` of ``times``: the rigid-task work,
        the canonical breakpoints, the eq. (8) chords and LP (9)'s
        δ bounds, anchor work and per-task segment offsets.
    """

    n: int
    m: int
    times: np.ndarray
    min_time: np.ndarray
    work_lo: np.ndarray
    brk_ptr: np.ndarray
    seg_ptr: np.ndarray
    brk_level: np.ndarray
    brk_value: np.ndarray
    nseg: np.ndarray
    seg_task: np.ndarray
    seg_slope: np.ndarray
    seg_intercept: np.ndarray
    seg_len: np.ndarray
    anchor_work: np.ndarray
    seg_tasks: np.ndarray


@memoized_on_instance
def instance_arrays(instance: Instance) -> InstanceArrays:
    """The packed profile arrays of ``instance``, memoized per instance.

    The arrays are pure in the instance (profiles are immutable), so the
    first call builds and every later call — from any pipeline stage,
    strategy, or repeated solve — returns the same object.
    """
    n = instance.n_tasks
    m = instance.m
    times = instance.times
    return InstanceArrays(
        n=n,
        m=m,
        times=times,
        min_time=times[:, m - 1].copy(),
        **profile_image(times)._asdict(),
    )


def clamped_times(image, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Range-check ``x`` per task and clamp it to the canonical range.

    ``image`` is any profile image with ``min_time`` and the break
    arrays (:class:`InstanceArrays` or a packed fleet's
    ``StackedProfiles``).  Returns the clamped ``x`` and each task's
    first canonical break ``p(1)``.  The check and its
    :class:`ValueError` text are ``MalleableTask.bracket``'s and
    ``work_of_time``'s, raised for the first task out of range.
    """
    hi = image.brk_value[image.brk_ptr[:-1]]
    lo = image.brk_value[image.brk_ptr[1:] - 1]
    bad = (x < image.min_time * (1 - _PLATEAU_RTOL) - _RTOL * hi) | (
        x > hi * (1 + _RTOL)
    )
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"x={float(x[j])} outside the profile range "
            f"[{float(lo[j])}, {float(hi[j])}]"
        )
    return np.minimum(np.maximum(x, lo), hi), hi


def work_of_times(image, x: np.ndarray) -> np.ndarray:
    """``MalleableTask.work_of_time`` of every task, as one array.

    The same range check and clamp, then the max over the task's chord
    lines ``slope * x + intercept`` (a rigid task's constant
    ``work_lo``) — the per-task floats, bit for bit.
    """
    xc, _hi = clamped_times(image, x)
    work = image.work_lo.copy()
    vals = image.seg_slope * xc[image.seg_task] + image.seg_intercept
    has = image.seg_tasks
    if has.size:
        work[has] = np.maximum.reduceat(vals, image.seg_ptr[has])
    return work


def segment_sums(
    base: np.ndarray,
    seg_ptr: np.ndarray,
    seg_tasks: np.ndarray,
    flat: np.ndarray,
) -> np.ndarray:
    """``base[j] + Σ_k flat[k]`` over each task's segments ``k``.

    ``flat`` is one value per flat segment (a δ vector, or slopes times
    δ); ``seg_ptr``/``seg_tasks`` are a profile image's segment offsets
    and tasks with segments.  A task without segments keeps
    ``base[j]``.  LP (9)'s read-back of ``x_j = p_j(m) + Σ_k δ_jk``.
    """
    out = base.copy()
    if seg_tasks.size:
        out[seg_tasks] += np.add.reduceat(flat, seg_ptr[seg_tasks])
    return out
