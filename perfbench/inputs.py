"""Seeded input generation.

Every input a run feeds the program comes from here and depends only on
the workload seed: the same seed gives the same DAGs, processing times,
retime targets and request order.  Inputs are kept in a raw form
(:class:`RawInstance`: edge array plus times table) and turned into a
fresh :class:`repro.core.Instance` right before each cold operation, so
no per-instance memo (CSR, packed arrays, LP assembly) survives from one
operation to the next.

The DAG samplers are the vectorized ones of ``benchmarks/bench_scale.py``,
kept here so the benchmark does not move when those scripts do.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


def sub_seeds(seed: int, stream: str, count: int) -> List[int]:
    """``count`` independent 32-bit seeds for one named input stream."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(stream.encode())])
    return [int(s) for s in ss.generate_state(count)]


def stream_seed(seed: int, stream: str, index: int) -> int:
    """The seed of item ``index`` of an unbounded named input stream."""
    ss = np.random.SeedSequence(
        [int(seed), zlib.crc32(stream.encode()), int(index)]
    )
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# DAG samplers (edge arrays, deterministic per seed)
# ---------------------------------------------------------------------------
def chain_edges(n: int, seed: int) -> np.ndarray:
    """A single path ``0 -> 1 -> ... -> n-1`` (the seed is unused)."""
    a = np.arange(n - 1, dtype=np.intp)
    return np.column_stack([a, a + 1])


def layered_edges(n: int, seed: int, width: int = 24) -> np.ndarray:
    """Node ``i`` sits in layer ``i // width``; every node outside the
    first layer draws 1-3 predecessors from the previous layer."""
    rng = np.random.default_rng(seed)
    first = min(width, n)
    tail = np.arange(first, n)
    k = rng.integers(1, 4, size=len(tail))
    v = np.repeat(tail, k)
    layer_start = (v // width - 1) * width
    u = layer_start + rng.integers(0, width, size=len(v))
    return np.unique(np.column_stack([u, v]), axis=0)


def erdos_renyi_edges(
    n: int, seed: int, avg_out_degree: float = 2.0
) -> np.ndarray:
    """G(n, p) over forward pairs with ``p = 2 * avg_out_degree / (n-1)``,
    sampled by linear index over the upper triangle."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    p = min(1.0, avg_out_degree * n / max(1, total))
    k = int(rng.binomial(total, p))
    pos = np.unique(rng.integers(0, total, size=int(k * 1.02) + 8))[:k]
    i = (
        n - 2 - np.floor(
            np.sqrt(-8.0 * pos + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5
        )
    ).astype(np.intp)
    j = (pos + i + 1 - i * (2 * n - i - 1) // 2).astype(np.intp)
    return np.column_stack([i, j])


SAMPLERS = {
    "chain": chain_edges,
    "layered": layered_edges,
    "erdos_renyi": erdos_renyi_edges,
}


# ---------------------------------------------------------------------------
# raw instances
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RawInstance:
    """An instance's content without any program object attached."""

    name: str
    m: int
    n: int
    edges: np.ndarray
    times: Tuple[Tuple[float, ...], ...]

    def build(self):
        """A fresh :class:`repro.core.Instance` (new tasks, new DAG)."""
        from repro.core.instance import Instance
        from repro.core.task import MalleableTask
        from repro.dag import Dag

        tasks = [
            MalleableTask(t, name=f"J{j}") for j, t in enumerate(self.times)
        ]
        return Instance(tasks, Dag(self.n, self.edges), self.m, name=self.name)


def raw_of(instance) -> RawInstance:
    """The raw form of a program-built instance."""
    edges = np.asarray(instance.dag.edges, dtype=np.intp).reshape(-1, 2)
    return RawInstance(
        name=instance.name or "instance",
        m=instance.m,
        n=instance.n_tasks,
        edges=edges,
        times=tuple(tuple(t.times) for t in instance.tasks),
    )


def sampled_instance(shape: str, n: int, m: int, seed: int) -> RawInstance:
    """A ``bench_scale``-style instance: sampled DAG, power-model tasks."""
    from repro.dag import Dag
    from repro.workloads import make_tasks_for_dag

    edges = SAMPLERS[shape](n, seed)
    tasks = make_tasks_for_dag(Dag(n, edges), m, model="power", seed=seed + 1)
    return RawInstance(
        name=f"{shape}-n{n}-m{m}-s{seed}",
        m=m,
        n=n,
        edges=edges,
        times=tuple(tuple(t.times) for t in tasks),
    )


def family_instance(family: str, n: int, m: int, seed: int) -> RawInstance:
    """An instance from the library's own family generator
    (:func:`repro.workloads.make_instance`, power model)."""
    from repro.workloads import make_instance

    return raw_of(make_instance(family, n, m, model="power", seed=seed))


def plan_instance(
    seed: int, shapes: Tuple[str, ...], n: int, m: int, index: int
) -> RawInstance:
    """Item ``index`` of a plan workload's cold-solve stream; shapes
    alternate (``shapes[0]``, ``shapes[1]``, ``shapes[0]``, ...)."""
    return sampled_instance(
        shapes[index % len(shapes)], n, m,
        stream_seed(seed, "plan-cold", index),
    )


def retime_targets(seed: int, n: int, count: int) -> List[int]:
    """Task ids the plan-deep retimes hit, in order."""
    rng = np.random.default_rng(sub_seeds(seed, "retime", 1)[0])
    return [int(t) for t in rng.integers(0, n, size=count)]


def request_plan(
    seed: int, count: int, warm: int, miss_share: float
) -> List[Tuple[str, int]]:
    """The serve-repeat request stream: ``("hit", warm index)`` or
    ``("miss", fresh index)``; fresh indices count up from 0.

    The stream is cut into blocks of ``round(1 / miss_share)`` requests
    with one miss at a seeded place in each, so every whole number of
    blocks has the same mix whatever the seed."""
    rng = np.random.default_rng(sub_seeds(seed, "requests", 1)[0])
    block = round(1 / miss_share)
    miss_at = rng.integers(0, block, size=-(-count // block))
    pick = rng.integers(0, warm, size=count)
    plan: List[Tuple[str, int]] = []
    for k in range(count):
        if k % block == miss_at[k // block]:
            plan.append(("miss", k // block))
        else:
            plan.append(("hit", int(pick[k])))
    return plan


def instance_dicts(family: str, n: int, m: int, seeds: List[int]) -> List[Dict]:
    """Request bodies' ``instance`` objects, as a client would send them."""
    from repro.io import instance_to_dict
    from repro.workloads import make_instance

    return [
        instance_to_dict(make_instance(family, n, m, model="power", seed=s))
        for s in seeds
    ]
