"""Test-only reference for critical-point rounding (Section 3.1) and
the Lemma 4.2 stretch report.

The library rounds every task of a profile image in one array pass
(:func:`repro.core.rounding.batched_round`).  These are the per-task
loops it replaced, written against the per-task API
(``MalleableTask.bracket``/``time``/``work``/``work_of_time``), so the
kernels can be pinned to them bit for bit
(``tests/test_profile_kernels.py``).
"""

from typing import List, Sequence, Tuple

from repro.core import Instance
from repro.core.rounding import _check_rho


def round_reference(
    instance: Instance, x: Sequence[float], rho: float
) -> List[int]:
    """Critical-point rounding, one ``bracket`` call per task."""
    _check_rho(rho)
    if len(x) != instance.n_tasks:
        raise ValueError("one fractional time per task required")
    allot: List[int] = []
    for j in range(instance.n_tasks):
        task = instance.task(j)
        l_up, l_down = task.bracket(x[j])
        if l_up == l_down:
            allot.append(l_up)
            continue
        p_up = task.time(l_up)  # larger time, fewer processors
        p_down = task.time(l_down)  # smaller time, more processors
        critical = rho * p_up + (1.0 - rho) * p_down
        allot.append(l_up if x[j] >= critical else l_down)
    return allot


def stretch_reference(
    instance: Instance, x: Sequence[float], rho: float
) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]:
    """``(allotment, time_stretch, work_stretch)`` of Lemma 4.2, per task."""
    allot = round_reference(instance, x, rho)
    t_stretch: List[float] = []
    w_stretch: List[float] = []
    for j, l in enumerate(allot):
        task = instance.task(j)
        t_stretch.append(task.time(l) / x[j])
        frac_work = task.work_of_time(x[j])
        w_stretch.append(task.work(l) / frac_work if frac_work > 0 else 1.0)
    return tuple(allot), tuple(t_stretch), tuple(w_stretch)
