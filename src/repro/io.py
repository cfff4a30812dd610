"""JSON round-trip serialization for instances and schedules.

A stable, human-readable on-disk format so benchmark workloads and solver
outputs can be archived and diffed.  Schema (versioned):

Instance::

    {"format": "repro-instance", "version": 1, "name": ...,
     "m": 8, "n_tasks": 3,
     "tasks": [{"name": "J0", "times": [10.0, 6.0, ...]}, ...],
     "edges": [[0, 1], [0, 2]],
     "fingerprint": "<hex sha-256 of the canonical content>"}

The ``fingerprint`` field (see :func:`instance_fingerprint` and
:mod:`repro.core.fingerprint`) is written on save and, when present,
re-verified on load — a corrupted or hand-edited file fails loudly
instead of silently colliding in the service result cache.  Files
without it (written before the field existed) still load.

Instance shapes are strict: ``m`` and ``n_tasks`` are integers, there
are exactly ``n_tasks`` tasks, every ``times`` row has ``m`` numeric
entries (JSON ints or floats; no strings, booleans or nulls) and every
edge is a ``[u, v]`` pair of integers.  :func:`content_key_from_dict`
checks the same shapes and hashes the arrays without building an
:class:`~repro.core.Instance`.

Schedule::

    {"format": "repro-schedule", "version": 1, "m": 8, "makespan": ...,
     "entries": [{"task": 0, "start": 0.0, "processors": 2,
                  "duration": 6.0}, ...]}
"""

from __future__ import annotations

import json
import numbers
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .core.fingerprint import FINGERPRINT_VERSION, content_digest
from .core.instance import Instance
from .core.task import MalleableTask
from .dag import Dag
from .dag.graph import canonical_successors
from .schedule import Schedule, ScheduledTask

__all__ = [
    "instance_fingerprint",
    "instance_to_dict",
    "instance_from_dict",
    "content_key_from_dict",
    "dict_to_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_instance",
    "load_instance",
    "save_schedule",
    "load_schedule",
]

_PathLike = Union[str, Path]


def instance_fingerprint(instance: Instance) -> str:
    """Canonical content hash of the instance (hex SHA-256).

    Convenience alias for :meth:`repro.core.Instance.content_key`:
    stable across edge input order, duplicate arcs, labels and pickle
    round-trips; sensitive to any change of ``m``, a processing time or
    the precedence relation.  The service result cache keys on it.
    """
    return instance.content_key()


def instance_to_dict(instance: Instance) -> Dict[str, Any]:
    """Serialize an instance to a JSON-compatible dict.

    Includes the content ``fingerprint`` so an archived instance can be
    integrity-checked on load and cache-addressed without re-hashing
    trust decisions into the consumer.
    """
    return {
        "format": "repro-instance",
        "version": 1,
        "name": instance.name,
        "m": instance.m,
        "n_tasks": instance.n_tasks,
        "tasks": [
            {"name": t.name, "times": list(t.times)}
            for t in instance.tasks
        ],
        "edges": [list(e) for e in instance.dag.edges],
        "fingerprint": instance_fingerprint(instance),
        "fingerprint_version": FINGERPRINT_VERSION,
    }


def instance_from_dict(data: Dict[str, Any]) -> Instance:
    """Deserialize an instance; validates format/version and assumptions.

    Malformed shapes (see the module docstring) and invalid processing
    times (NaN, negative, zero, infinite, non-numeric) raise a
    :class:`ValueError`; time errors name the offending task on top of
    the model layer's own diagnostic — the numeric rules live in
    :class:`MalleableTask` alone, this layer only adds the file
    context.  When the dict carries a ``fingerprint``, the loaded
    content is re-hashed and a mismatch raises — the file was corrupted
    or edited after it was written.
    """
    m, n, rows, edges = _instance_shape(data)
    tasks = []
    for j, (t, times) in enumerate(zip(data["tasks"], rows)):
        try:
            tasks.append(MalleableTask(times, name=t.get("name")))
        except (ValueError, TypeError) as exc:
            # Includes AssumptionError; re-raised as ValueError with
            # the task pinpointed for file-level diagnostics.
            raise ValueError(
                f"task {j} ({t.get('name')!r}): {exc}"
            ) from None
    instance = Instance(tasks, Dag(n, edges), m, name=data.get("name"))
    _check_fingerprint(data, instance.content_key)
    return instance


def content_key_from_dict(data: Dict[str, Any]) -> str:
    """The content key of instance JSON, without building the instance.

    Equal to ``instance_from_dict(data).content_key()`` for every dict
    that call accepts: the same shape checks, the same canonical arc
    CSR (:func:`repro.dag.graph.canonical_successors`) and the same
    digest (:func:`repro.core.fingerprint.content_digest`) over the
    times matrix read straight from the arrays.  Raises
    :class:`ValueError` on a malformed shape or when a current-version
    ``fingerprint`` disagrees with the computed key.

    It skips what only a full parse needs — the per-task value checks
    (positive, finite, Assumptions 1 and 2), the acyclicity sweep and
    every object — so a key is no proof of validity.  The service
    client (:meth:`repro.service.ServiceClient.solve`) uses it to key a
    dict for a key-only request; the daemon does not call it, since a
    key only finds content its own full parse accepted, and every full
    body it receives goes through :func:`instance_from_dict`.
    """
    m, n, rows, edges = _instance_shape(data)
    times = np.fromiter(
        chain.from_iterable(rows), dtype=float, count=n * m
    ).reshape(n, m)
    key = content_digest(m, n, times, *canonical_successors(n, edges))
    _check_fingerprint(data, lambda: key)
    return key


def _is_int(x: Any) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _instance_shape(
    data: Any,
) -> Tuple[int, int, List[Sequence[Any]], Sequence[Any]]:
    """The wire-shape gate of both instance readers.

    Returns ``(m, n, rows, edges)`` — ``rows[j]`` is task ``j``'s raw
    ``times`` array — or raises :class:`ValueError` naming the first
    malformed field.  Values are left to the model layer.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"instance must be an object, got {type(data).__name__}"
        )
    _expect(data, "repro-instance")
    for field in ("m", "n_tasks", "tasks", "edges"):
        if field not in data:
            raise ValueError(f"missing required key {field!r}")
    m, n = data["m"], data["n_tasks"]
    if not _is_int(m):
        raise ValueError(f"'m' must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    tasks = data["tasks"]
    if not isinstance(tasks, (list, tuple)):
        raise ValueError("'tasks' must be an array")
    if not _is_int(n) or n != len(tasks):
        raise ValueError(
            f"'n_tasks' is {n!r} but {len(tasks)} tasks are given"
        )
    rows = []
    for j, t in enumerate(tasks):
        if not isinstance(t, dict):
            raise ValueError(
                f"task {j}: expected an object with 'times', "
                f"got {type(t).__name__}"
            )
        times = t.get("times")
        if isinstance(times, (list, tuple)) and len(times) == m:
            rows.append(times)
            continue
        if "times" not in t:
            what = "missing required key 'times'"
        elif isinstance(times, (list, tuple)):
            what = f"profile has {len(times)} entries, instance has m={m}"
        else:
            what = f"'times' must be an array, got {type(times).__name__}"
        raise ValueError(f"task {j} ({t.get('name')!r}): {what}")
    if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
        for j, times in enumerate(rows):
            for l0, x in enumerate(times):
                if not _is_number(x):
                    raise ValueError(
                        f"task {j} ({tasks[j].get('name')!r}): "
                        f"p({l0 + 1}) = {x!r} is not a number"
                    )
    edges = data["edges"]
    if not isinstance(edges, (list, tuple)):
        raise ValueError("'edges' must be an array")
    if not (
        set(map(type, edges)) <= {list, tuple}
        and set(map(len, edges)) <= {2}
        and set(map(type, chain.from_iterable(edges))) <= {int}
    ):
        for i, e in enumerate(edges):
            if not (
                isinstance(e, (list, tuple))
                and len(e) == 2
                and all(map(_is_int, e))
            ):
                raise ValueError(
                    f"edge {i}: expected a [u, v] pair of task indices, "
                    f"got {e!r}"
                )
    return m, n, rows, edges


def _check_fingerprint(data: Dict[str, Any], key: Callable[[], str]) -> None:
    """Raise when ``data`` claims a current-version fingerprint that is
    not ``key()``; ``key`` is called only when there is a claim to check,
    so a dict without one is not hashed.  A fingerprint from another
    FINGERPRINT_VERSION is not comparable: the dict stays loadable, only
    the check is skipped."""
    claimed = data.get("fingerprint")
    if claimed is None or (
        data.get("fingerprint_version", FINGERPRINT_VERSION)
        != FINGERPRINT_VERSION
    ):
        return
    actual = key()
    if claimed != actual:
        raise ValueError(
            f"instance fingerprint mismatch: file claims {claimed!r} "
            f"but the content hashes to {actual!r} "
            "(corrupted or hand-edited instance file?)"
        )


def dict_to_instance(data: Dict[str, Any]) -> Instance:
    """Deprecated alias for :func:`instance_from_dict`.

    .. deprecated:: 1.3
       The name broke the module's ``X_to_dict``/``X_from_dict``
       naming symmetry; it will be removed in 2.0.
    """
    from .obs import log as obs_log

    obs_log.warn(
        "repro.io.dict_to_instance is deprecated; "
        "use repro.io.instance_from_dict instead",
        category=DeprecationWarning,
        logger=obs_log.get_logger("io"),
    )
    return instance_from_dict(data)


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Serialize a schedule to a JSON-compatible dict."""
    return {
        "format": "repro-schedule",
        "version": 1,
        "m": schedule.m,
        "makespan": schedule.makespan,
        "entries": [
            {
                "task": e.task,
                "start": e.start,
                "processors": e.processors,
                "duration": e.duration,
            }
            for e in schedule.entries
        ],
    }


def schedule_from_dict(data: Dict[str, Any]) -> Schedule:
    """Deserialize a schedule."""
    _expect(data, "repro-schedule")
    entries = [
        ScheduledTask(
            task=int(e["task"]),
            start=float(e["start"]),
            processors=int(e["processors"]),
            duration=float(e["duration"]),
        )
        for e in data["entries"]
    ]
    return Schedule(int(data["m"]), entries)


def _expect(data: Dict[str, Any], fmt: str) -> None:
    if data.get("format") != fmt:
        raise ValueError(
            f"expected format {fmt!r}, got {data.get('format')!r}"
        )
    if data.get("version") != 1:
        raise ValueError(f"unsupported version {data.get('version')!r}")


def save_instance(instance: Instance, path: _PathLike) -> None:
    """Write an instance to ``path`` as JSON."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: _PathLike) -> Instance:
    """Read an instance from a JSON file."""
    return instance_from_dict(json.loads(Path(path).read_text()))


def save_schedule(schedule: Schedule, path: _PathLike) -> None:
    """Write a schedule to ``path`` as JSON."""
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: _PathLike) -> Schedule:
    """Read a schedule from a JSON file."""
    return schedule_from_dict(json.loads(Path(path).read_text()))
