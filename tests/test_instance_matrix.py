"""The times matrix as the task model.

An :class:`~repro.core.Instance` holds its ``(n, m)`` times matrix, and
every bulk path (JSON parse, workload generation, evolution commits)
checks it with one NumPy kernel
(:func:`repro.core.task.profile_violations`,
:func:`repro.core.task.first_profile_error`) instead of one validated
:class:`MalleableTask` per row.  These tests pin the kernel to the
per-task checks, the readers' error texts, the generated content, the
Erdős–Rényi draw, the pickle, and a solve path that builds no per-task
view.
"""

import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Instance, MalleableTask
from repro.core.task import first_profile_error, profile_violations
from repro.dag import FAMILIES, Dag, erdos_renyi_dag
from repro.dag import generators
from repro.engine import BatchRunner
from repro.io import instance_from_dict, instance_to_dict, schedule_from_dict
from repro.models import (
    amdahl_profile,
    logarithmic_profile,
    power_law_profile,
)
from repro.pipeline import ReplanSession, SchedulingPipeline
from repro.service import ServiceClient, serve_in_thread
from repro.workloads import MODELS, make_instance

_SET = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300]


# ---------------------------------------------------------------------------
# one rule in two implementations
# ---------------------------------------------------------------------------
@st.composite
def profile_rows(draw, m):
    """A profile of width ``m``: a model draw, near-tolerance
    perturbations, and now and then a value no task accepts."""
    kind = draw(st.sampled_from(["power", "amdahl", "log", "monotone"]))
    p1 = draw(st.floats(0.5, 1e3))
    if kind == "power":
        row = power_law_profile(p1, draw(st.floats(0.05, 1.0)), m)
    elif kind == "amdahl":
        row = amdahl_profile(p1, draw(st.floats(0.0, 1.0)), m)
    elif kind == "log":
        row = logarithmic_profile(p1, m)
    else:
        row = [p1]
        for r in draw(st.lists(st.floats(0.3, 1.0), min_size=m - 1,
                               max_size=m - 1)):
            row.append(row[-1] * r)
    row = list(row)
    for _ in range(draw(st.integers(0, 3))):
        l0 = draw(st.integers(0, m - 1))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        row[l0] *= 1.0 + sign * 10.0 ** draw(st.floats(-12.0, -8.0))
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(_SPECIAL))
    return row


@st.composite
def matrices(draw):
    m = draw(st.integers(1, 16))
    return draw(st.lists(profile_rows(m), min_size=1, max_size=6))


def _construction_error(row):
    try:
        MalleableTask(row)
    except ValueError as exc:  # AssumptionError included
        return type(exc), str(exc)
    return None


@given(rows=matrices())
@_SET
def test_kernel_agrees_with_the_per_task_checks(rows):
    times = np.array(rows, dtype=float)
    bad_value, bad1, bad2 = profile_violations(times)
    first = None
    for j, row in enumerate(rows):
        want = _construction_error(row)
        if first is None and want is not None:
            first = (j, want)
        values_ok = all(math.isfinite(t) and t > 0.0 for t in row)
        assert (not bad_value[j].any()) == values_ok
        if values_ok:
            task = MalleableTask(row, validate=False)
            got1 = (np.flatnonzero(bad1[j]) + 1).tolist()
            got2 = (np.flatnonzero(bad2[j]) + 1).tolist()
            assert got1 == task.assumption1_violations()
            assert got2 == task.assumption2_violations()
    got = first_profile_error(times)
    if first is None:
        assert got is None
    else:
        j, exc = got
        assert (j, (type(exc), str(exc))) == first


def test_kernel_takes_an_empty_matrix():
    assert first_profile_error(np.zeros((0, 4))) is None


# ---------------------------------------------------------------------------
# instance_from_dict: the lowest-indexed task's error, the parent's text
# ---------------------------------------------------------------------------
_A2 = [10.0, 9.0, 5.0, 4.9]
_A1 = [10.0, 6.0, 7.0, 5.0]
_NAN = [10.0, math.nan, 5.0, 4.0]

#: Rows written into a chain body, and the error the reader raised
#: before the matrix kernel existed (one MalleableTask per row).
_FAULTS = [
    ({1: _A2, 2: _A1, 3: _NAN},
     "task 1 ('J1'): Assumption 2 (concave speedup) fails at l=[2]: "
     "profile=(10.0, 9.0, 5.0, 4.9)"),
    ({2: _A1, 3: _NAN},
     "task 2 ('J2'): Assumption 1 (non-increasing time) fails at l=[2]: "
     "profile=(10.0, 6.0, 7.0, 5.0)"),
    ({3: _NAN},
     "task 3 ('J3'): p(2) = nan must be a positive finite number"),
    # within one task: Assumption 1 before Assumption 2 ...
    ({4: [10.0, 9.0, 9.5, 4.0]},
     "task 4 ('J4'): Assumption 1 (non-increasing time) fails at l=[2]: "
     "profile=(10.0, 9.0, 9.5, 4.0)"),
    # ... and a bad value before either
    ({4: [10.0, 12.0, -1.0, 4.0]},
     "task 4 ('J4'): p(3) = -1.0 must be a positive finite number"),
    ({0: [10.0, 6.0, math.inf, 0.0]},
     "task 0 ('J0'): p(3) = inf must be a positive finite number"),
]


@pytest.mark.parametrize("rows, text", _FAULTS)
def test_reader_raises_the_lowest_task_error(rows, text):
    data = instance_to_dict(make_instance("chain", 6, 4, seed=1))
    del data["fingerprint"]
    for j, row in rows.items():
        data["tasks"][j]["times"] = row
    with pytest.raises(ValueError) as info:
        instance_from_dict(data)
    assert type(info.value) is ValueError
    assert str(info.value) == text


def test_from_profile_fn_raises_the_bare_task_error():
    rows = [power_law_profile(10.0, 0.5, 4), _A1, _A2]
    want = _construction_error(_A1)
    with pytest.raises(ValueError) as info:
        Instance.from_profile_fn(Dag(3), 4, lambda j: rows[j])
    assert (type(info.value), str(info.value)) == want


# ---------------------------------------------------------------------------
# generated and serialized content cannot drift
# ---------------------------------------------------------------------------
#: ``make_instance(family, 24, 5, model=model, seed=seed).content_key()``
#: (first 16 hex digits), recorded before the generator drew through
#: the times matrix and the NumPy Mersenne Twister hand-off.
GENERATED_KEYS = {
    "chain/amdahl/1": "71a65a736d0a327e",
    "chain/amdahl/2": "e0055ca19277665c",
    "chain/comm/1": "3e65840b2e52054f",
    "chain/comm/2": "d81bcf8a2d682d6e",
    "chain/log/1": "a7d69454af01ea90",
    "chain/log/2": "f68aa20bedff7558",
    "chain/mixed/1": "d8366d9853c22cd2",
    "chain/mixed/2": "0f66918caefbb997",
    "chain/power/1": "75cdd91cb5469da7",
    "chain/power/2": "286379e9ce5022a6",
    "cholesky/amdahl/1": "e6697e9661078786",
    "cholesky/amdahl/2": "8a63e63a2b7ac106",
    "cholesky/comm/1": "dea12d882097315a",
    "cholesky/comm/2": "5ff85b38ae4ec17e",
    "cholesky/log/1": "68586af04ead4d24",
    "cholesky/log/2": "b24918e8acf1bce9",
    "cholesky/mixed/1": "a9ce8582c74f889d",
    "cholesky/mixed/2": "b535fb97c6cd76f4",
    "cholesky/power/1": "73de661d4bafc5e7",
    "cholesky/power/2": "af1174cece3782e8",
    "diamond/amdahl/1": "d6c40a1d35420d4b",
    "diamond/amdahl/2": "673adbce90d7a8ae",
    "diamond/comm/1": "1c082167a329bd44",
    "diamond/comm/2": "ad06f7dc256a1be8",
    "diamond/log/1": "7931baf7c8a90365",
    "diamond/log/2": "6d46a75babf12bc0",
    "diamond/mixed/1": "c1ef858367135a52",
    "diamond/mixed/2": "e67535801edcc050",
    "diamond/power/1": "86db3efe8fe519b6",
    "diamond/power/2": "f0059c598ff2faef",
    "erdos_renyi/amdahl/1": "8907c63c068f3835",
    "erdos_renyi/amdahl/2": "2807dce7d27fc292",
    "erdos_renyi/comm/1": "0dd73795e3241d36",
    "erdos_renyi/comm/2": "8884273de73296a0",
    "erdos_renyi/log/1": "5dc032b65bdcdfc2",
    "erdos_renyi/log/2": "e90f6f6c31d062b3",
    "erdos_renyi/mixed/1": "b7b0164741407207",
    "erdos_renyi/mixed/2": "c9d10bdb10eb225d",
    "erdos_renyi/power/1": "3d2b19a1c8401d9a",
    "erdos_renyi/power/2": "b47825e0e3a60614",
    "fft/amdahl/1": "2948267960b632dc",
    "fft/amdahl/2": "163eb3de12e9bd13",
    "fft/comm/1": "8215e66302c61b49",
    "fft/comm/2": "1b4ecfab9a816f0b",
    "fft/log/1": "ef91f87c7413f9ae",
    "fft/log/2": "1db1b230e669507b",
    "fft/mixed/1": "baf3c44a9588cce8",
    "fft/mixed/2": "16141044869249d1",
    "fft/power/1": "4ea112f2920a398b",
    "fft/power/2": "5aa2bbd507778ebe",
    "fork_join/amdahl/1": "62c03c59a08d7812",
    "fork_join/amdahl/2": "6ec512484d262744",
    "fork_join/comm/1": "03ed32952feb48f1",
    "fork_join/comm/2": "1ab3d31d12375d53",
    "fork_join/log/1": "bd42cc7e012f9afb",
    "fork_join/log/2": "b6c2708d8799fb0f",
    "fork_join/mixed/1": "0031fb1741361fc6",
    "fork_join/mixed/2": "1037aaff61f92e62",
    "fork_join/power/1": "d73174b7f5bd43d4",
    "fork_join/power/2": "e1de9ac8eed9b4b4",
    "independent/amdahl/1": "b80d59699b8eef5f",
    "independent/amdahl/2": "8d133e359a46c29d",
    "independent/comm/1": "b6f8c8e96aa09310",
    "independent/comm/2": "37da7e22584ade8f",
    "independent/log/1": "f6095aabab33ef63",
    "independent/log/2": "2dc86d474bd4a485",
    "independent/mixed/1": "880ea24274c56f65",
    "independent/mixed/2": "d9ff82b693046e83",
    "independent/power/1": "29e035ee6651fcea",
    "independent/power/2": "88e2577466292cb6",
    "intree/amdahl/1": "0b09a8e7d1feff20",
    "intree/amdahl/2": "d502c6f618cab97a",
    "intree/comm/1": "c8b3d5d24fdee806",
    "intree/comm/2": "abbbe33448386a00",
    "intree/log/1": "29c53e56d8cc6710",
    "intree/log/2": "cffe2ebdcec19385",
    "intree/mixed/1": "32823376e3836eac",
    "intree/mixed/2": "9dd2bbcf428289b6",
    "intree/power/1": "ea840b3b34758982",
    "intree/power/2": "41f6a403903b0c59",
    "layered/amdahl/1": "afdd9748dc23fb72",
    "layered/amdahl/2": "ff23e4f5915778e4",
    "layered/comm/1": "07c71d19135008f8",
    "layered/comm/2": "39a0aeae9926a89b",
    "layered/log/1": "2c30c39787288e7e",
    "layered/log/2": "ede66efb53fe2914",
    "layered/mixed/1": "97de1a458f3aa047",
    "layered/mixed/2": "19c78d09b4d19cf1",
    "layered/power/1": "5de35c8e78091cdd",
    "layered/power/2": "b940ce6235d112c7",
    "lu/amdahl/1": "7bc1acf78365fcc9",
    "lu/amdahl/2": "abcdaaf6eb937238",
    "lu/comm/1": "f87ab0e43aebe684",
    "lu/comm/2": "f9f8c2b90aea3ea8",
    "lu/log/1": "2a1a9200c64bb536",
    "lu/log/2": "9a92c96d58494263",
    "lu/mixed/1": "f9cda4ff0950eedd",
    "lu/mixed/2": "5c50244cf50c1530",
    "lu/power/1": "99764ee503d8dd2e",
    "lu/power/2": "7c711880a45fd43c",
    "outtree/amdahl/1": "178b044dd158ed0b",
    "outtree/amdahl/2": "93834665c79fa131",
    "outtree/comm/1": "a92682f610504bb3",
    "outtree/comm/2": "3bb076620ecbe1c9",
    "outtree/log/1": "fdd7bb58d01f8e49",
    "outtree/log/2": "3c372981ec41c4bd",
    "outtree/mixed/1": "24e863c0011ec25c",
    "outtree/mixed/2": "7cfc505641fdd464",
    "outtree/power/1": "e498649b7bb561cd",
    "outtree/power/2": "ededacc577692c2f",
    "series_parallel/amdahl/1": "bd337a13143e8217",
    "series_parallel/amdahl/2": "28a9d563ebe1d1bb",
    "series_parallel/comm/1": "222c4d1e5933a384",
    "series_parallel/comm/2": "6b21445c0c52a249",
    "series_parallel/log/1": "57851231d25430b0",
    "series_parallel/log/2": "d6a0c6239a125ba2",
    "series_parallel/mixed/1": "476aeb326382fab5",
    "series_parallel/mixed/2": "014c9078f0e5a677",
    "series_parallel/power/1": "5e3720dc84802825",
    "series_parallel/power/2": "3f0c55410bea6c65",
    "stencil/amdahl/1": "a2228bb3ca346088",
    "stencil/amdahl/2": "948df445059557b8",
    "stencil/comm/1": "2e01113fb8de73e5",
    "stencil/comm/2": "43aa9ea016f09f8b",
    "stencil/log/1": "69634393ee3f994a",
    "stencil/log/2": "ab71f5cb7dca8d89",
    "stencil/mixed/1": "c88be560c9956e68",
    "stencil/mixed/2": "c21facbe21784eac",
    "stencil/power/1": "757eeead7000f7ed",
    "stencil/power/2": "65f2e8e165088fc9",
}


def test_generated_content_keys_are_pinned():
    drift = []
    for family in FAMILIES:
        for model in MODELS:
            for seed in (1, 2):
                case = f"{family}/{model}/{seed}"
                key = make_instance(
                    family, 24, 5, model=model, seed=seed
                ).content_key()
                if key[:16] != GENERATED_KEYS[case]:
                    drift.append(case)
    assert len(GENERATED_KEYS) == len(FAMILIES) * len(MODELS) * 2
    assert drift == []


def erdos_renyi_reference(n, p, seed):
    """The per-pair ``random.Random`` loop the generator reproduces."""
    rng = random.Random(seed)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]


def _crossing_n():
    """The smallest n whose upper triangle spans two draw chunks."""
    n = 2
    while n * (n - 1) // 2 <= generators._DRAW_CHUNK:
        n += 1
    return n


@pytest.mark.parametrize("n", [0, 1, 2, 500, _crossing_n()])
@pytest.mark.parametrize("p", ["zero", "sparse", "one"])
@pytest.mark.parametrize("seed", [0, 11])
def test_erdos_renyi_arcs_match_the_per_pair_loop(n, p, seed):
    prob = {"zero": 0.0, "sparse": min(1.0, 4.0 / max(n, 1)),
            "one": 1.0}[p]
    got = erdos_renyi_dag(n, prob, seed)
    assert got.edges == Dag(n, erdos_renyi_reference(n, prob, seed)).edges


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_erdos_renyi_arcs_hold_across_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(generators, "_DRAW_CHUNK", chunk)
    for n, prob in ((40, 0.3), (13, 0.9)):
        got = erdos_renyi_dag(n, prob, 5)
        assert got.edges == Dag(n, erdos_renyi_reference(n, prob, 5)).edges


def test_parsed_instance_pickles_as_its_arrays():
    data = json.loads(json.dumps(
        instance_to_dict(make_instance("layered", 200, 16, seed=1))
    ))
    inst = instance_from_dict(data)
    blob = pickle.dumps(inst)
    assert len(blob) < 40_000
    assert b"MalleableTask" not in blob
    assert len(inst.tasks) == 200  # built views do not ride along
    assert pickle.dumps(inst) == blob
    clone = pickle.loads(blob)
    assert clone.content_key() == data["fingerprint"]
    assert clone.task_names == inst.task_names
    assert clone.name == inst.name
    assert np.array_equal(clone.times, inst.times)
    assert not clone.times.flags.writeable


def test_times_matrix_is_read_only():
    inst = make_instance("chain", 4, 3, seed=0)
    with pytest.raises(ValueError):
        inst.times[0, 0] = 1.0
    rows = [[4.0, 2.0], [3.0, 3.0]]
    built = Instance.from_profile_fn(Dag(2, [(0, 1)]), 2, rows.__getitem__)
    rows[0][0] = 99.0
    assert built.task(0).times == (4.0, 2.0)
    assert built.task_names == ("J0", "J1")


# ---------------------------------------------------------------------------
# a solve builds no per-task view
# ---------------------------------------------------------------------------
def _forbid_views(monkeypatch):
    def forbidden(self, j):
        raise AssertionError("per-task view built on the solve path")

    monkeypatch.setattr(Instance, "task", forbidden)


def _entries(schedule):
    return schedule.entries


@pytest.mark.parametrize("algorithm", ["jz", "ltw", "bsearch"])
@pytest.mark.parametrize("family, size", [("layered", 60),
                                          ("erdos_renyi", 300)])
def test_solves_build_no_view(monkeypatch, algorithm, family, size):
    want = SchedulingPipeline(algorithm).solve(
        make_instance(family, size, 6, seed=2)
    )
    body = instance_to_dict(make_instance(family, size, 6, seed=2))
    _forbid_views(monkeypatch)
    got = SchedulingPipeline(algorithm).solve(instance_from_dict(body))
    assert got.allotment == want.allotment
    assert _entries(got.schedule) == _entries(want.schedule)


def test_replan_session_retime_builds_no_view(monkeypatch):
    inst = make_instance("layered", 60, 6, seed=3)
    retime = [{"op": "retime", "task": 7,
               "times": [1.37 * t for t in inst.times[7].tolist()]}]
    reference = ReplanSession(make_instance("layered", 60, 6, seed=3))
    reference.solve()
    want = reference.apply(retime)
    _forbid_views(monkeypatch)
    session = ReplanSession(inst)
    session.solve()
    got = session.apply(retime)
    assert got.mode == want.mode == "warm"
    assert _entries(got.report.schedule) == _entries(want.report.schedule)


def test_anchored_replan_builds_no_view(monkeypatch):
    inst = make_instance("layered", 16, 4, seed=6)
    first = SchedulingPipeline("jz").solve(inst).schedule
    entry = min(first.entries, key=lambda e: e.start)
    k = (entry.task + 1) % inst.n_tasks
    ops = [
        {"op": "complete", "task": entry.task, "start": entry.start},
        {"op": "retime", "task": k,
         "times": [1.8 * t for t in inst.times[k].tolist()]},
    ]
    _forbid_views(monkeypatch)
    with serve_in_thread(workers=0) as handle:
        with ServiceClient(port=handle.port) as client:
            client.solve(inst)
            reply = client.replan(inst, ops, anchored=True)
    assert reply["mode"] == "anchored"
    got = schedule_from_dict(reply["schedule"])
    frozen = next(e for e in got.entries if e.task == entry.task)
    assert frozen.start == entry.start


def test_batched_runner_call_builds_no_view(monkeypatch):
    def batch():
        return [make_instance("erdos_renyi", 24, 4, seed=s) for s in range(5)]

    want = BatchRunner(workers=0).run(batch())
    fresh = batch()
    _forbid_views(monkeypatch)
    got = BatchRunner(workers=0).run(fresh)
    assert all(r.kernel_tier == "array" for r in got.records)
    assert [(r.makespan, r.lower_bound) for r in got.records] == [
        (r.makespan, r.lower_bound) for r in want.records
    ]
