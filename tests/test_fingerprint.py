"""Tests for the instance content fingerprint and its io round-trip."""

import json
import math
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import instance_content_key
from repro.core.instance import Instance
from repro.core.task import MalleableTask
from repro.dag import (
    Dag,
    chain_dag,
    erdos_renyi_dag,
    fork_join_dag,
    independent_dag,
    layered_dag,
)
from repro.io import (
    content_key_from_dict,
    dict_to_instance,
    instance_fingerprint,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from repro.workloads import MODELS, make_tasks_for_dag, make_instance


def _inst(seed=0, size=14, m=6):
    return make_instance("layered", size, m, model="power", seed=seed)


class TestFingerprintStability:
    def test_deterministic_and_memoized(self):
        inst = _inst()
        key = inst.content_key()
        assert isinstance(key, str) and len(key) == 64
        assert inst.content_key() == key
        assert instance_content_key(inst) == key
        assert instance_fingerprint(inst) == key

    def test_invariant_under_edge_input_order_and_duplicates(self):
        inst = _inst()
        edges = list(inst.dag.edges)
        rng = random.Random(7)
        for _ in range(3):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            dag = Dag(inst.n_tasks, shuffled + shuffled[: len(edges) // 2])
            same = Instance(inst.tasks, dag, inst.m)
            assert same.content_key() == inst.content_key()

    def test_invariant_under_pickle_round_trip(self):
        inst = _inst(seed=3)
        clone = pickle.loads(pickle.dumps(inst))
        assert clone.content_key() == inst.content_key()

    def test_names_do_not_participate(self):
        inst = _inst()
        relabeled = Instance(
            inst.tasks, inst.dag, inst.m, name="entirely different"
        )
        assert relabeled.content_key() == inst.content_key()

    def test_sensitive_to_content(self):
        inst = _inst()
        key = inst.content_key()
        # A changed processing-time matrix misses.
        other_times = _inst(seed=99)
        assert other_times.content_key() != key
        # A changed precedence relation misses (same tasks, same m).
        edges = list(inst.dag.edges)
        smaller = Instance(
            inst.tasks, Dag(inst.n_tasks, edges[:-1]), inst.m
        )
        assert smaller.content_key() != key

    def test_task_index_permutation_is_different_content(self):
        # tasks[j] IS node J_j: permuting indices (with consistently
        # relabeled edges) is a different labeled instance unless the
        # permutation happens to be an automorphism with equal profiles.
        inst = _inst(seed=5)
        n = inst.n_tasks
        perm = list(range(n))
        random.Random(1).shuffle(perm)
        tasks = [inst.tasks[perm[j]] for j in range(n)]
        inv = [0] * n
        for j, p in enumerate(perm):
            inv[p] = j
        edges = [(inv[u], inv[v]) for (u, v) in inst.dag.edges]
        permuted = Instance(tasks, Dag(n, edges), inst.m)
        # Profiles are i.i.d. random draws, so the permuted labeling is
        # distinct content with probability 1.
        assert permuted.content_key() != inst.content_key()


class TestIoRoundTrip:
    def test_dict_round_trips_fingerprint(self):
        inst = _inst()
        data = instance_to_dict(inst)
        assert data["fingerprint"] == inst.content_key()
        back = instance_from_dict(data)
        assert back.content_key() == inst.content_key()

    def test_dict_to_instance_deprecated(self):
        inst = _inst()
        data = instance_to_dict(inst)
        with pytest.warns(DeprecationWarning, match="instance_from_dict"):
            back = dict_to_instance(data)
        assert back.content_key() == inst.content_key()

    def test_file_round_trip(self, tmp_path):
        inst = _inst(seed=2)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert json.loads(path.read_text())["fingerprint"] == (
            inst.content_key()
        )
        assert load_instance(path).content_key() == inst.content_key()

    def test_fingerprint_mismatch_rejected(self):
        inst = _inst(seed=1, size=8, m=4)
        data = instance_to_dict(inst)
        # Scale one task uniformly: still a valid profile, different
        # content — only the fingerprint check can catch it.
        data["tasks"][0]["times"] = [
            2.0 * x for x in data["tasks"][0]["times"]
        ]
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            instance_from_dict(data)

    def test_other_fingerprint_version_skips_verification(self):
        # Files from a build with a different digest layout must stay
        # loadable; only the comparability of the check is lost.
        inst = _inst(seed=1, size=8, m=4)
        data = instance_to_dict(inst)
        data["fingerprint"] = "0" * 64  # would mismatch if compared
        data["fingerprint_version"] = 999
        assert instance_from_dict(data).content_key() == (
            inst.content_key()
        )

    def test_legacy_dict_without_fingerprint_loads(self):
        inst = _inst()
        data = instance_to_dict(inst)
        del data["fingerprint"]
        assert instance_from_dict(data).content_key() == (
            inst.content_key()
        )


class TestTimeValidation:
    def _data(self):
        return instance_to_dict(_inst(size=6, m=4))

    @pytest.mark.parametrize(
        "bad", [float("nan"), -1.0, 0.0, float("inf")]
    )
    def test_bad_times_rejected_with_task_and_slot(self, bad):
        data = self._data()
        del data["fingerprint"]
        data["tasks"][2]["times"][1] = bad
        with pytest.raises(ValueError, match=r"task 2 .*p\(2\)"):
            instance_from_dict(data)

    @pytest.mark.parametrize("bad", ["abc", None])
    def test_non_numeric_times_rejected_with_task_context(self, bad):
        data = self._data()
        del data["fingerprint"]
        data["tasks"][2]["times"][1] = bad
        with pytest.raises(ValueError, match="task 2 "):
            instance_from_dict(data)

    def test_nan_message_names_the_value(self):
        data = self._data()
        del data["fingerprint"]
        data["tasks"][0]["times"][0] = math.nan
        with pytest.raises(ValueError, match="(?i)task 0 .*nan"):
            instance_from_dict(data)

    def test_non_dict_task_entry_rejected(self):
        data = self._data()
        del data["fingerprint"]
        data["tasks"][1] = "not-a-task"
        with pytest.raises(ValueError, match="task 1"):
            instance_from_dict(data)


# ---------------------------------------------------------------------------
# keying straight from the JSON arrays
# ---------------------------------------------------------------------------
#: lcm(1..16): p(l) = _LCM * c / l is an integral linear-speedup profile.
_LCM = 720720


def _dag(shape, n, seed):
    if shape == "chain":
        return chain_dag(n)
    if shape == "layered":
        return layered_dag(n, max(1, n // 4), 0.4, seed=seed)
    if shape == "erdos_renyi":
        return erdos_renyi_dag(n, 0.15, seed=seed)
    if shape == "fork_join":
        return fork_join_dag(1 + n % 4, 1 + n % 8)
    return independent_dag(n)


def _integral_tasks(dag, m, rng):
    """Linear-speedup and rigid profiles with integral times, so the
    JSON carries ints."""
    return [
        MalleableTask(
            [_LCM * c // l for l in range(1, m + 1)]
            if rng.random() < 0.5 else [c] * m
        )
        for c in (rng.randint(1, 9) for _ in range(dag.n_nodes))
    ]


@st.composite
def _wire_instances(draw):
    """An instance and a JSON dict of it, varied the ways a client may
    vary it without changing the content."""
    shape = draw(st.sampled_from(
        ["chain", "layered", "erdos_renyi", "fork_join", "independent"]
    ))
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from([1, 2, 4, 16]))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    dag = _dag(shape, n, seed)
    profiles = draw(st.sampled_from(MODELS + ("integral",)))
    tasks = (
        _integral_tasks(dag, m, rng) if profiles == "integral"
        else make_tasks_for_dag(dag, m, model=profiles, seed=seed)
    )
    inst = Instance(tasks, dag, m, name=f"{shape}-{n}")
    data = json.loads(json.dumps(instance_to_dict(inst)))
    for t in data["tasks"]:
        t["times"] = [int(x) if x.is_integer() else x for x in t["times"]]
    edges = data["edges"]
    if draw(st.booleans()):
        rng.shuffle(edges)
    if edges and draw(st.booleans()):
        edges.extend(rng.choice(edges)[:] for _ in range(rng.randint(1, 5)))
    if draw(st.booleans()):
        data["name"] = "renamed"
        for j, t in enumerate(data["tasks"]):
            t["name"] = None if j % 2 else f"task-{rng.random()}"
    fingerprint = draw(st.sampled_from(["kept", "dropped", "other-version"]))
    if fingerprint == "dropped":
        del data["fingerprint"], data["fingerprint_version"]
    elif fingerprint == "other-version":
        data["fingerprint"] = "0" * 64
        data["fingerprint_version"] = 2
    return inst, json.loads(json.dumps(data))


class TestContentKeyFromDict:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_wire_instances())
    def test_equals_the_full_parse_key(self, case):
        inst, data = case
        key = content_key_from_dict(data)
        assert key == instance_from_dict(data).content_key()
        assert key == inst.content_key()

    def test_empty_instance(self):
        data = instance_to_dict(Instance([], Dag(0), 3))
        assert content_key_from_dict(data) == (
            instance_from_dict(data).content_key()
        )

    def test_wrong_current_version_fingerprint_rejected(self):
        data = instance_to_dict(_inst(seed=1, size=8, m=4))
        data["tasks"][0]["times"] = [
            2.0 * x for x in data["tasks"][0]["times"]
        ]
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            content_key_from_dict(data)

    def test_skips_the_value_checks(self):
        # A key is no proof of validity: a cyclic or NaN-timed payload
        # still hashes, to content no full parse ever accepted.
        data = instance_to_dict(_inst(seed=2, size=8, m=4))
        del data["fingerprint"]
        u, v = data["edges"][0]
        data["edges"].append([v, u])
        data["tasks"][0]["times"][0] = math.nan
        key = content_key_from_dict(data)
        assert key != _inst(seed=2, size=8, m=4).content_key()
        with pytest.raises(ValueError):
            instance_from_dict(data)


def _twin(mutate):
    data = json.loads(json.dumps(instance_to_dict(_inst(seed=3, m=4))))
    mutate(data)
    return data


def _flatten_edges(d):
    d["edges"] = [[x for e in d["edges"] for x in e]]


def _split_edge(d):
    u, v = d["edges"].pop()
    d["edges"] += [[u], [v]]


def _set_edge(value):
    def mutate(d):
        d["edges"][0] = value
    return mutate


def _set(field, value):
    def mutate(d):
        d[field] = value
    return mutate


def _set_time(value):
    def mutate(d):
        d["tasks"][2]["times"][1] = value
    return mutate


def _short_row(d):
    d["tasks"][2]["times"].pop()


#: Malformed shapes that older readers silently turned into some
#: *other* instance (or loaded at all); the embedded fingerprint is
#: kept, as a client replaying a stored instance would send it.
MALFORMED = {
    "flattened-edges": _flatten_edges,
    "split-edge": _split_edge,
    "float-endpoint": _set_edge([0, 3.9]),
    "bool-endpoint": _set_edge([False, True]),
    "triple-edge": _set_edge([0, 1, 2]),
    "string-endpoint": _set_edge(["0", "1"]),
    "float-m": _set("m", 2.9),
    "half-m": _set("m", 4.5),
    "bool-m": _set("m", True),
    "string-m": _set("m", "4"),
    "float-n": _set("n_tasks", 12.0),
    "n-mismatch": _set("n_tasks", 11),
    "short-row": _short_row,
    "string-time": _set_time("1.5"),
    "bool-time": _set_time(True),
    "null-time": _set_time(None),
    "list-time": _set_time([1.0]),
    "huge-int-time": _set_time(10**400),
    "edges-not-array": _set("edges", {"0": 1}),
    "tasks-not-array": _set("tasks", "none"),
}


class TestStrictWireShapes:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_both_readers_reject(self, name):
        data = _twin(MALFORMED[name])
        with pytest.raises(ValueError):
            instance_from_dict(data)
        with pytest.raises(ValueError):
            content_key_from_dict(data)

    def test_json_ints_stay_valid_times(self):
        data = instance_to_dict(Instance(
            [MalleableTask([4, 2]), MalleableTask([3, 3])], Dag(2, [(0, 1)]),
            2,
        ))
        data["tasks"][0]["times"] = [4, 2]
        assert instance_from_dict(data).tasks[0].times == (4.0, 2.0)
        assert content_key_from_dict(data) == data["fingerprint"]

    def test_messages_name_the_field(self):
        with pytest.raises(ValueError, match="edge 0"):
            instance_from_dict(_twin(_set_edge([0, 3.9])))
        with pytest.raises(ValueError, match="'m' must be an integer"):
            instance_from_dict(_twin(_set("m", 4.5)))
        with pytest.raises(ValueError, match=r"task 2 .*m=4"):
            instance_from_dict(_twin(_short_row))
        with pytest.raises(ValueError, match=r"task 2 .*p\(2\) = True"):
            instance_from_dict(_twin(_set_time(True)))
        for reader in (instance_from_dict, content_key_from_dict):
            with pytest.raises(
                ValueError,
                match=r"task 2 .*p\(2\) is an integer too large",
            ):
                reader(_twin(_set_time(10**400)))
