"""Phase 1's array kernels against the per-task code, bit for bit.

Phase 1 runs on one profile image per instance
(:func:`repro.core.arrays.instance_arrays`): the canonical breakpoints
and chords (:func:`~repro.core.arrays.profile_image`), ``w(x)``
(:func:`~repro.core.arrays.work_of_times`), critical-point rounding
(:func:`repro.core.rounding.batched_round`) and the Lemma 4.2 stretch
report.  Each must reproduce the per-task API —
``MalleableTask.breakpoints``/``segments``/``work_of_time``/``bracket``
and the per-task rounding loop of ``tests/rounding_reference.py`` —
float for float, on the profiles and points where the per-task code
takes its rarer branches: plateaus under ``_PLATEAU_RTOL``, rigid
tasks, ``x`` on or within ``_RTOL`` of a breakpoint, ``x`` in the clamp
band below ``p(m)``, mixed ``m`` through ``stack_profiles``, and ``x``
out of range (the same ``ValueError`` text).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.batchkernel import stack_profiles
from repro.core import Instance, MalleableTask
from repro.core.arrays import (
    instance_arrays,
    profile_image,
    segment_sums,
    work_of_times,
)
from repro.core.rounding import (
    batched_round,
    round_fractional_times,
    rounding_stretch_report,
)
from repro.core.task import _PLATEAU_RTOL, _RTOL
from repro.dag import independent_dag
from repro.pipeline import ReplanSession, SchedulingPipeline
from repro.workloads import make_instance
from rounding_reference import round_reference, stretch_reference

_SET = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Ratio p(l+1) / p(l): exact plateaus, steps under the plateau band
#: (their drift can add up to a break), the band's edge, real steps.
_STEPS = st.one_of(
    st.just(1.0),
    st.floats(1.0 - 9.9e-8, 1.0 - 1e-10),
    st.just(1.0 - _PLATEAU_RTOL),
    st.floats(0.9, 1.0 - 2e-7),
    st.floats(0.5, 0.9),
)


@st.composite
def profiles(draw, m):
    times = [draw(st.floats(0.01, 1e4))]
    for _ in range(m - 1):
        times.append(times[-1] * draw(_STEPS))
    return times


@st.composite
def instances(draw, m=None, max_n=6):
    m = draw(st.integers(1, 10)) if m is None else m
    n = draw(st.integers(1, max_n))
    tasks = [
        # Rigid tasks come from all-plateau profiles and from m = 1.
        MalleableTask(draw(profiles(m)), validate=False)
        for _ in range(n)
    ]
    return Instance(tasks, independent_dag(n), m)


def _floor(task):
    """The smallest ``x`` the per-task range check accepts."""
    hi = task.breakpoints[0][1]
    return task.min_time * (1 - _PLATEAU_RTOL) - _RTOL * hi


def _ceiling(task):
    return task.breakpoints[0][1] * (1 + _RTOL)


@st.composite
def points(draw, task):
    """One in-range ``x`` for ``task``, biased to the rare branches."""
    bp = task.breakpoints
    hi, lo = bp[0][1], bp[-1][1]
    kind = draw(st.sampled_from(
        ["uniform", "break", "near", "level", "band", "top"]
    ))
    u = draw(st.floats(0.0, 1.0))
    if kind == "uniform":
        x = lo + u * (hi - lo)
    elif kind == "break":
        x = draw(st.sampled_from(bp))[1]
    elif kind == "near":
        # Within (or just past) _close's tolerance of a breakpoint.
        t = draw(st.sampled_from(bp))[1]
        scale = draw(st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]))
        x = t + (2 * u - 1) * scale * _RTOL * max(hi, 1.0)
    elif kind == "level":
        # A raw time, plateau levels included.
        x = draw(st.sampled_from(task.times))
    elif kind == "band":
        # The clamp band: accepted, below the last canonical break.
        x = _floor(task) + u * (lo - _floor(task))
    else:
        x = hi * (1 + u * _RTOL)
    return min(max(x, _floor(task)), _ceiling(task))


@st.composite
def instance_and_points(draw, m=None):
    inst = draw(instances(m=m))
    return inst, [draw(points(t)) for t in inst.tasks]


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_image_matches(image, tasks, offset=0):
    """The image's rows ``offset ...`` are the tasks' per-task arrays."""
    for j, task in enumerate(tasks, start=offset):
        b0, b1 = image.brk_ptr[j], image.brk_ptr[j + 1]
        assert list(zip(image.brk_level[b0:b1].tolist(),
                        image.brk_value[b0:b1].tolist())) == list(
            task.breakpoints
        )
        segs = task.segments()
        s0 = image.seg_ptr[j]
        assert s0 == b0 - j
        assert image.seg_ptr[j + 1] == s0 + len(segs)
        assert image.nseg[j] == len(segs)
        assert (image.seg_task[s0:s0 + len(segs)] == j).all()
        assert _bits(image.seg_slope[s0:s0 + len(segs)]) == _bits(
            s.slope for s in segs
        )
        assert _bits(image.seg_intercept[s0:s0 + len(segs)]) == _bits(
            s.intercept for s in segs
        )
        l1, p1 = task.breakpoints[0]
        assert image.work_lo[j] == (0.0 if segs else l1 * p1)
        assert image.min_time[j] == task.min_time
        # LP (9)'s δ form: chord lengths, the one nearest p(m) reaching
        # down to p(m), and the work there on that chord.
        ends = [s.x_lo for s in segs[:-1]] + [task.min_time] if segs else []
        assert _bits(image.seg_len[s0:s0 + len(segs)]) == _bits(
            s.x_hi - x_end for s, x_end in zip(segs, ends)
        )
        anchor = (
            segs[-1].slope * task.min_time + segs[-1].intercept
            if segs else l1 * p1
        )
        assert _bits([image.anchor_work[j]]) == _bits([anchor])
        k = int(np.searchsorted(image.seg_tasks, j))
        owns = k < len(image.seg_tasks) and image.seg_tasks[k] == j
        assert owns == bool(segs)


# ---------------------------------------------------------------------------
# the profile image
# ---------------------------------------------------------------------------
@given(inst=instances())
@_SET
def test_image_matches_breakpoints_and_segments(inst):
    arr = instance_arrays(inst)
    _assert_image_matches(arr, inst.tasks)
    assert len(arr.seg_slope) == sum(len(t.segments()) for t in inst.tasks)
    assert arr.brk_ptr[-1] == len(arr.brk_value)


def test_image_of_generated_profiles():
    for model in ("power", "amdahl", "log", "mixed", "comm"):
        inst = make_instance("layered", 40, 12, model=model, seed=5)
        _assert_image_matches(instance_arrays(inst), inst.tasks)


def test_plateau_drift_breaks_on_the_last_kept_break():
    """Steps under the plateau band add up: the row breaks where the
    drift from the last *kept* break passes the band."""
    step = 1.0 - 0.4 * _PLATEAU_RTOL
    times = [100.0]
    for _ in range(5):
        times.append(times[-1] * step)
    task = MalleableTask(times, validate=False)
    image = profile_image(np.array([times]))
    assert [l for l, _ in task.breakpoints] == [1, 4]
    assert image.brk_level.tolist() == [1, 4]


def test_rigid_tasks():
    inst = Instance(
        [MalleableTask([5.0] * 4), MalleableTask([3.0, 3.0, 3.0, 3.0])],
        independent_dag(2),
        4,
    )
    arr = instance_arrays(inst)
    assert arr.nseg.tolist() == [0, 0]
    assert arr.work_lo.tolist() == [5.0, 3.0]
    x = np.array([5.0, 3.0 * (1 - 0.5 * _PLATEAU_RTOL)])
    assert work_of_times(arr, x).tolist() == [
        t.work_of_time(v) for t, v in zip(inst.tasks, x.tolist())
    ]
    assert round_fractional_times(inst, x.tolist(), 0.3) == [1, 1]


@given(inst=instances(), data=st.data())
@_SET
def test_segment_sums_add_each_tasks_segments(inst, data):
    """LP (9)'s read-back ``x_j = p_j(m) + Σ_k δ_jk``: within the float
    error of a ``k``-term sum of the exact ``math.fsum``, and the full
    δ bounds of a task with segments telescope to ``p_j(1)`` (a rigid
    task runs at ``p_j(m)``)."""
    arr = instance_arrays(inst)
    delta = np.array([
        data.draw(st.floats(0.0, 1.0)) * h for h in arr.seg_len.tolist()
    ])
    for flat, want in ((delta, None), (arr.seg_len, arr.times[:, 0])):
        x = segment_sums(arr.min_time, arr.seg_ptr, arr.seg_tasks, flat)
        for j, task in enumerate(inst.tasks):
            d = flat[arr.seg_task == j].tolist()
            ref = task.min_time + math.fsum(d)
            assert abs(x[j] - ref) <= (len(d) + 1) * 2.3e-16 * ref
            if want is not None and d:
                assert abs(x[j] - want[j]) <= (len(d) + 1) * 2.3e-16 * ref


# ---------------------------------------------------------------------------
# w(x), bracket and rounding on in-range points
# ---------------------------------------------------------------------------
@given(data=instance_and_points())
@_SET
def test_work_of_times_matches_work_of_time(data):
    inst, x = data
    got = work_of_times(instance_arrays(inst), np.array(x))
    assert _bits(got) == _bits(
        t.work_of_time(v) for t, v in zip(inst.tasks, x)
    )


@given(data=instance_and_points())
@_SET
def test_rounding_at_rho_0_and_1_is_bracket(data):
    """ρ = 0 rounds every interior x up to the bracket's fewer
    processors, ρ = 1 down to its more; a breakpoint hit is (l, l)."""
    inst, x = data
    brackets = [t.bracket(v) for t, v in zip(inst.tasks, x)]
    arr = instance_arrays(inst)
    xa = np.array(x)
    assert batched_round(arr, xa, 0.0).tolist() == [b[0] for b in brackets]
    assert batched_round(arr, xa, 1.0).tolist() == [b[1] for b in brackets]


@given(data=instance_and_points(), rho=st.floats(0.0, 1.0))
@_SET
def test_rounding_and_stretch_match_per_task_loop(data, rho):
    inst, x = data
    want_allot, want_t, want_w = stretch_reference(inst, x, rho)
    assert round_fractional_times(inst, x, rho) == list(want_allot)
    rep = rounding_stretch_report(inst, x, rho)
    assert rep.allotment == want_allot
    assert all(type(v) is int for v in rep.allotment)
    assert _bits(rep.time_stretch) == _bits(want_t)
    assert _bits(rep.work_stretch) == _bits(want_w)
    assert rep.max_time_stretch == max(want_t)
    assert rep.max_work_stretch == max(want_w)


@given(data=instance_and_points(), rho=st.floats(0.0, 1.0))
@_SET
def test_critical_point_ties(data, rho):
    """``x`` exactly on a critical point rounds up in time (``>=``)."""
    inst, _ = data
    x = []
    for t in inst.tasks:
        bp = t.breakpoints
        if len(bp) == 1:
            x.append(bp[0][1])
            continue
        (_, p_up), (_, p_down) = bp[0], bp[1]
        x.append(rho * p_up + (1.0 - rho) * p_down)
    assert round_fractional_times(inst, x, rho) == round_reference(
        inst, x, rho
    )


# ---------------------------------------------------------------------------
# mixed m through the stacked image
# ---------------------------------------------------------------------------
@given(
    batch=st.lists(instance_and_points(), min_size=1, max_size=4),
    rhos=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
@_SET
def test_stacked_image_kernels_match_per_task(batch, rhos):
    insts = [inst for inst, _ in batch]
    sp = stack_profiles(insts)
    x = np.array([v for _, xs in batch for v in xs])
    rho = np.repeat(rhos[:len(insts)], [inst.n_tasks for inst in insts])
    allot = batched_round(sp, x, rho)
    work = work_of_times(sp, x)
    for b, (inst, xs) in enumerate(batch):
        s, e = int(sp.node_ptr[b]), int(sp.node_ptr[b + 1])
        _assert_image_matches(sp, inst.tasks, offset=s)
        assert allot[s:e].tolist() == round_reference(inst, xs, rhos[b])
        assert _bits(work[s:e]) == _bits(
            t.work_of_time(v) for t, v in zip(inst.tasks, xs)
        )


# ---------------------------------------------------------------------------
# out-of-range x: the same ValueError text
# ---------------------------------------------------------------------------
def _message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@given(
    data=instance_and_points(),
    where=st.integers(0, 5),
    below=st.booleans(),
    gap=st.floats(1e-6, 10.0),
)
@_SET
def test_out_of_range_raises_the_per_task_text(data, where, below, gap):
    inst, x = data
    j = where % inst.n_tasks
    task = inst.task(j)
    if below:
        bad = _floor(task) * (1 - gap) if gap < 1 else -gap
    else:
        bad = _ceiling(task) * (1 + gap)
    assume(math.isfinite(bad) and (bad < _floor(task) or bad > _ceiling(task)))
    x = list(x)
    x[j] = bad
    want = _message(task.work_of_time, bad)
    assert want == _message(task.bracket, bad)
    assert _message(round_reference, inst, x, 0.5) == want
    arr = instance_arrays(inst)
    assert _message(work_of_times, arr, np.array(x)) == want
    assert _message(batched_round, arr, np.array(x), 0.5) == want
    assert _message(round_fractional_times, inst, x, 0.5) == want
    assert _message(rounding_stretch_report, inst, x, 0.5) == want


def test_length_and_rho_checks_come_first():
    inst = make_instance("chain", 3, 4, seed=0)
    with pytest.raises(ValueError, match="one fractional time per task"):
        rounding_stretch_report(inst, [1.0], 0.5)
    with pytest.raises(ValueError, match="rho must be in"):
        round_fractional_times(inst, [1e9] * 3, 1.5)


# ---------------------------------------------------------------------------
# the solve path runs on the image alone
# ---------------------------------------------------------------------------
def _forbid_per_task_api(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-task profile call on the solve path")

    for name in ("segments", "work_of_time", "bracket"):
        monkeypatch.setattr(MalleableTask, name, forbidden)


def _entries(report):
    return report.schedule.entries


@pytest.mark.parametrize("algorithm", ["jz", "ltw", "bsearch"])
def test_lp_phase1_never_calls_the_per_task_api(monkeypatch, algorithm):
    want = SchedulingPipeline(algorithm).solve(
        make_instance("layered", 60, 6, seed=2)
    )
    inst = make_instance("layered", 60, 6, seed=2)
    _forbid_per_task_api(monkeypatch)
    got = SchedulingPipeline(algorithm).solve(inst)
    assert got.allotment == want.allotment
    assert _entries(got) == _entries(want)


def test_replan_session_never_calls_the_per_task_api(monkeypatch):
    inst = make_instance("layered", 60, 6, seed=3)
    retime = [{"op": "retime", "task": 7,
               "times": [1.37 * t for t in inst.task(7).times]}]
    reference = ReplanSession(make_instance("layered", 60, 6, seed=3))
    reference.solve()
    want = reference.apply(retime)
    _forbid_per_task_api(monkeypatch)
    session = ReplanSession(inst)
    session.solve()
    got = session.apply(retime)
    assert got.mode == want.mode == "warm"
    assert _entries(got.report) == _entries(want.report)
