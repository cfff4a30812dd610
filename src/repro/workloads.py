"""Benchmark workload builder: DAG families × speedup models → instances.

One-stop factory used by the examples, the empirical benchmarks and the
integration tests.  Given a DAG family name (:data:`repro.dag.FAMILIES`), a
speedup model name and a seed, :func:`make_instance` draws per-task model
parameters from documented distributions and returns a ready
:class:`repro.core.Instance` whose tasks all satisfy Assumptions 1 and 2.

Speedup models:

* ``"power"`` — ``p(l) = p1 · l^(-d)`` with ``d ~ U(0.3, 0.95)``
  (the paper's running example, after Prasanna–Musicus);
* ``"amdahl"`` — serial fraction ``f ~ U(0.02, 0.4)``;
* ``"log"`` — logarithmic speedup (heavily contended tasks);
* ``"mixed"`` — each task draws one of the above uniformly;
* ``"comm"`` — computation + communication model, *repaired* through
  :func:`repro.models.enforce_assumptions` (the raw model violates
  Assumption 1 for large l).

Base sequential times ``p1`` are drawn log-uniformly from
``[base_time/3, 3·base_time]`` to create work heterogeneity.

The draws fill one ``(n, m)`` times matrix, checked at once by the
matrix kernel (:func:`repro.core.task.first_profile_error`); no task
object is validated one at a time.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

import numpy as np

from .core.instance import Instance
from .core.task import MalleableTask, first_profile_error
from .dag import Dag, random_family
from .models import (
    amdahl_profile,
    communication_profile,
    enforce_assumptions,
    logarithmic_profile,
    power_law_profile,
)

__all__ = ["MODELS", "make_instance", "make_tasks_for_dag"]

MODELS = ("power", "amdahl", "log", "mixed", "comm")


def _draw_profile(
    rng: random.Random, model: str, m: int, base_time: float
):
    p1 = base_time * math.exp(rng.uniform(-math.log(3.0), math.log(3.0)))
    if model == "mixed":
        model = rng.choice(("power", "amdahl", "log"))
    if model == "power":
        return power_law_profile(p1, rng.uniform(0.3, 0.95), m)
    if model == "amdahl":
        return amdahl_profile(p1, rng.uniform(0.02, 0.4), m)
    if model == "log":
        return logarithmic_profile(p1, m)
    if model == "comm":
        work = p1
        comm = work * rng.uniform(0.001, 0.02)
        return enforce_assumptions(communication_profile(work, comm, m))
    raise ValueError(f"unknown model {model!r}; known: {MODELS}")


def _draw_times(
    n: int, m: int, model: str, seed: Optional[int], base_time: float
) -> np.ndarray:
    """The checked ``(n, m)`` times matrix of ``n`` seeded draws."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = random.Random(seed)
    times = np.array(
        [_draw_profile(rng, model, m, base_time) for _ in range(n)],
        dtype=float,
    ).reshape(n, m)
    bad = first_profile_error(times)
    if bad is not None:
        raise bad[1]
    return times


def make_tasks_for_dag(
    dag: Dag,
    m: int,
    model: str = "power",
    seed: Optional[int] = None,
    base_time: float = 10.0,
) -> List[MalleableTask]:
    """Draw one malleable task per DAG node; returns a task list."""
    times = _draw_times(dag.n_nodes, m, model, seed, base_time)
    return [
        MalleableTask._view(row, f"J{j}")
        for j, row in enumerate(times.tolist())
    ]


def make_instance(
    family: str,
    size: int,
    m: int,
    model: str = "power",
    seed: Optional[int] = None,
    base_time: float = 10.0,
) -> Instance:
    """Build a named-family instance at roughly ``size`` tasks on ``m``
    processors, with per-task profiles from ``model``.

    Deterministic given ``seed`` (the same seed drives both the DAG and
    the profile draws).
    """
    dag = random_family(family, size, seed=seed)
    times = _draw_times(
        dag.n_nodes, m, model, None if seed is None else seed + 1,
        base_time,
    )
    return Instance._trusted(
        times,
        tuple(f"J{j}" for j in range(dag.n_nodes)),
        dag,
        name=f"{family}-n{dag.n_nodes}-m{m}-{model}",
    )
