"""Packed per-instance profile arrays (the CSR core's companion).

The task profiles of an :class:`repro.core.Instance` live in per-task
Python objects; every solver pass that needs "the duration of task j on
``l`` processors" or "the work segments of task j" pays attribute and
method dispatch per task.  :func:`instance_arrays` packs the whole
profile table into a handful of NumPy arrays once per instance — the
processing-time matrix, the variable bounds of LP (9) and the flattened
work-segment chords of eq. (8) — so the array-native kernels (LP
assembly, the LIST duration lookup, rounding sweeps) index instead of
calling.

Results are memoized per instance, weakly (:func:`memoized_on_instance`):
pipeline stages and repeated solves of the same instance share one
build, and the cache entry dies with the instance's last strong
reference.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from .instance import Instance

__all__ = ["InstanceArrays", "instance_arrays", "memoized_on_instance"]

_T = TypeVar("_T")


def memoized_on_instance(
    fn: Callable[[Instance], _T]
) -> Callable[[Instance], _T]:
    """Memoize a pure ``fn(instance)`` on the instance, weakly.

    The cache entry dies with the instance's last strong reference, and
    un-weakref-able instance-like stand-ins (some test doubles) simply
    recompute.  Used by every per-instance array assembly
    (:func:`instance_arrays`, the LP (9) and deadline-LP assemblies).
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


class InstanceArrays(NamedTuple):
    """Frozen array image of an instance's task profiles.

    Attributes
    ----------
    n, m:
        Task and processor counts.
    times:
        ``(n, m)`` matrix with ``times[j, l-1] = p_j(l)`` — the raw
        profiles, so ``times[arange(n), alloc - 1]`` is the duration
        vector of an allotment.
    min_time, max_time:
        ``p_j(m)`` and ``p_j(1)`` per task (the LP (9) bounds on x_j).
    work_lo:
        Lower bound on the linearized work variable ``w̄_j``: the
        constant work for rigid tasks (single canonical breakpoint),
        zero otherwise.
    nseg:
        Number of work segments (eq. (8) chords) per task.
    seg_task:
        Task index of every flattened segment (length ``nseg.sum()``).
    seg_slope, seg_intercept:
        Chord coefficients of the flattened segments, in per-task order.
    """

    n: int
    m: int
    times: np.ndarray
    min_time: np.ndarray
    max_time: np.ndarray
    work_lo: np.ndarray
    nseg: np.ndarray
    seg_task: np.ndarray
    seg_slope: np.ndarray
    seg_intercept: np.ndarray


@memoized_on_instance
def instance_arrays(instance: Instance) -> InstanceArrays:
    """The packed profile arrays of ``instance``, memoized per instance.

    The arrays are pure in the instance (profiles are immutable), so the
    first call builds and every later call — from any pipeline stage,
    strategy, or repeated solve — returns the same object.
    """
    tasks = instance.tasks
    n = instance.n_tasks
    m = instance.m
    times = np.array([t.times for t in tasks], dtype=float).reshape(n, m)
    seg_lists = [t.segments() for t in tasks]
    nseg = np.array([len(s) for s in seg_lists], dtype=np.intp)
    return InstanceArrays(
        n=n,
        m=m,
        times=times,
        min_time=times[:, m - 1].copy() if n else np.empty(0),
        max_time=times[:, 0].copy() if n else np.empty(0),
        work_lo=np.array(
            [
                t.breakpoints[0][0] * t.breakpoints[0][1] if not segs
                else 0.0
                for t, segs in zip(tasks, seg_lists)
            ],
            dtype=float,
        ),
        nseg=nseg,
        seg_task=np.repeat(np.arange(n, dtype=np.intp), nseg),
        seg_slope=np.array(
            [s.slope for segs in seg_lists for s in segs], dtype=float
        ),
        seg_intercept=np.array(
            [s.intercept for segs in seg_lists for s in segs], dtype=float
        ),
    )
