"""Synthetic precedence-graph families.

The paper motivates malleable-task scheduling with parallel numerical
workloads: multiprocessor compilation of numeric programs [22], applications
on the MIT Alewife machine [1], and ocean-circulation simulation with
adaptive meshing [2].  None of those traces are public, so — per the
reproduction plan in DESIGN.md — we synthesize the DAG *shapes* those
applications exhibit:

* dense linear algebra elimination DAGs (:func:`cholesky_dag`,
  :func:`lu_dag`),
* divide-and-conquer butterflies (:func:`fft_dag`),
* wavefront/stencil sweeps (:func:`stencil_dag`),
* fork–join phase programs (:func:`fork_join_dag`),
* series–parallel programs (:func:`series_parallel_dag`),
* in-/out-trees (:func:`intree_dag`, :func:`outtree_dag`) — the tree case
  studied by Lepère et al. [17],
* unstructured random DAGs (:func:`layered_dag`, :func:`erdos_renyi_dag`)
  as stress tests.

All generators are deterministic given an integer ``seed`` and return a
:class:`repro.dag.Dag`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import numpy as np

from .graph import Dag

__all__ = [
    "layered_dag",
    "erdos_renyi_dag",
    "fork_join_dag",
    "series_parallel_dag",
    "intree_dag",
    "outtree_dag",
    "chain_dag",
    "diamond_dag",
    "independent_dag",
    "cholesky_dag",
    "lu_dag",
    "fft_dag",
    "stencil_dag",
    "random_family",
    "FAMILIES",
]


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# unstructured random families
# ---------------------------------------------------------------------------
def layered_dag(
    n_nodes: int,
    n_layers: int,
    edge_prob: float = 0.5,
    seed: Optional[int] = None,
) -> Dag:
    """Random layered DAG: nodes are split into layers, arcs only go from a
    layer to the next one with probability ``edge_prob``.

    Layered graphs model synchronous phase-parallel programs and are the
    standard stress workload in DAG-scheduling papers.  Every non-first-layer
    node is guaranteed at least one predecessor so the layer structure is
    real.
    """
    if n_layers <= 0 or n_nodes < n_layers:
        raise ValueError("need 1 <= n_layers <= n_nodes")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be in [0, 1]")
    rng = _rng(seed)
    # Distribute nodes over layers: one guaranteed per layer, rest random.
    layer_of = list(range(n_layers)) + [
        rng.randrange(n_layers) for _ in range(n_nodes - n_layers)
    ]
    rng.shuffle(layer_of)
    layers: List[List[int]] = [[] for _ in range(n_layers)]
    for v, lay in enumerate(layer_of):
        layers[lay].append(v)
    # Drop empty layers (possible when shuffling) while keeping order.
    layers = [lay for lay in layers if lay]
    edges: List[Tuple[int, int]] = []
    for i in range(len(layers) - 1):
        for v in layers[i + 1]:
            preds = [u for u in layers[i] if rng.random() < edge_prob]
            if not preds:  # guarantee connectivity to previous layer
                preds = [rng.choice(layers[i])]
            edges.extend((u, v) for u in preds)
    return Dag(n_nodes, edges)


#: Doubles drawn per step of :func:`erdos_renyi_dag`'s pair sweep, so its
#: memory stays O(chunk + arcs) at any ``n``.
_DRAW_CHUNK = 1 << 16


def _numpy_stream(rng: random.Random) -> np.random.RandomState:
    """A NumPy generator that continues ``rng``'s MT19937 stream.

    ``random.Random`` and ``numpy.random.RandomState`` share the
    Mersenne Twister and build each ``random()`` double from two 32-bit
    words the same way, so handing over the state yields the very
    doubles ``rng.random()`` would have returned, in order.
    """
    _version, internal, _gauss = rng.getstate()
    stream = np.random.RandomState()
    stream.set_state(
        ("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1])
    )
    return stream


def erdos_renyi_dag(
    n_nodes: int, edge_prob: float = 0.2, seed: Optional[int] = None
) -> Dag:
    """G(n, p) DAG: each forward pair ``(i, j)``, ``i < j``, gets an arc with
    probability ``edge_prob`` (ordering by node index guarantees acyclicity).

    Pair ``(i, j)`` takes the arc iff its ``random()`` draw, in the
    row-major order of the upper triangle, is below ``edge_prob``; the
    draws are made in chunks of :data:`_DRAW_CHUNK` by a NumPy stream
    continuing the seeded ``random.Random`` (:func:`_numpy_stream`).
    """
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be in [0, 1]")
    stream = _numpy_stream(_rng(seed))
    n = max(int(n_nodes), 0)
    # Row i of the triangle holds the n-1-i pairs (i, i+1..n-1).
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.arange(n - 1, -1, -1), out=row_start[1:])
    total = int(row_start[-1])
    hits = []
    for begin in range(0, total, _DRAW_CHUNK):
        draws = stream.random_sample(min(_DRAW_CHUNK, total - begin))
        hits.append(begin + np.flatnonzero(draws < edge_prob))
    pos = np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64)
    i = np.searchsorted(row_start, pos, side="right") - 1
    j = pos - row_start[i] + i + 1
    return Dag(n_nodes, np.stack((i, j), axis=1))


# ---------------------------------------------------------------------------
# structured program shapes
# ---------------------------------------------------------------------------
def fork_join_dag(n_phases: int, width: int) -> Dag:
    """``n_phases`` parallel phases of ``width`` tasks between fork/join
    synchronization tasks: ``fork -> w parallel -> join -> fork -> ...``.

    This is the BSP/ocean-model shape of [2]: alternating sequential
    synchronization and data-parallel compute.
    """
    if n_phases <= 0 or width <= 0:
        raise ValueError("need n_phases >= 1 and width >= 1")
    edges: List[Tuple[int, int]] = []
    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        v = next_id
        next_id += 1
        return v

    prev_join = fresh()  # initial fork/source
    for _ in range(n_phases):
        body = [fresh() for _ in range(width)]
        join = fresh()
        for b in body:
            edges.append((prev_join, b))
            edges.append((b, join))
        prev_join = join
    return Dag(next_id, edges)


def series_parallel_dag(
    n_nodes: int, seed: Optional[int] = None, parallel_bias: float = 0.5
) -> Dag:
    """Random series–parallel DAG built by recursive composition.

    A series–parallel program decomposes recursively into sequential (S) and
    parallel (P) compositions — the classic structured-parallelism shape.
    ``parallel_bias`` is the probability of choosing a P composition at each
    internal split.
    """
    if n_nodes <= 0:
        raise ValueError("need n_nodes >= 1")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    counter = 0

    def fresh() -> int:
        nonlocal counter
        v = counter
        counter += 1
        return v

    def build(k: int) -> Tuple[int, int]:
        """Build a block of k nodes, return (entry, exit) node ids."""
        if k == 1:
            v = fresh()
            return v, v
        split = rng.randint(1, k - 1)
        a_in, a_out = build(split)
        b_in, b_out = build(k - split)
        if rng.random() < parallel_bias:
            # Parallel composition: run the two blocks between a fresh shared
            # entry task and a fresh shared exit task (both real tasks, so
            # the graph stays a DAG of tasks only).
            entry = fresh()
            exit_ = fresh()
            edges.append((entry, a_in))
            edges.append((entry, b_in))
            edges.append((a_out, exit_))
            edges.append((b_out, exit_))
            return entry, exit_
        # Series composition.
        edges.append((a_out, b_in))
        return a_in, b_out

    build(n_nodes)
    return Dag(counter, edges)


def intree_dag(depth: int, fanin: int = 2) -> Dag:
    """Complete in-tree (reduction tree): leaves feed towards a single root.

    Arcs point from children to parent, i.e. the root is the last task —
    the shape of parallel reductions.  ``depth`` counts levels (``depth=1``
    is a single node).
    """
    if depth <= 0 or fanin <= 1:
        raise ValueError("need depth >= 1 and fanin >= 2")
    # Level k (0 = root) has fanin^k nodes.
    levels = [fanin**k for k in range(depth)]
    n = sum(levels)
    edges = []
    # ids: root is node 0; children of node v at level k are at level k+1.
    offset = [0] * depth
    for k in range(1, depth):
        offset[k] = offset[k - 1] + levels[k - 1]
    for k in range(depth - 1):
        for i in range(levels[k]):
            parent = offset[k] + i
            for c in range(fanin):
                child = offset[k + 1] + i * fanin + c
                edges.append((child, parent))
    return Dag(n, edges)


def outtree_dag(depth: int, fanout: int = 2) -> Dag:
    """Complete out-tree: a single source forks recursively (divide phase)."""
    return intree_dag(depth, fanout).reversed_dag()


def chain_dag(n_nodes: int) -> Dag:
    """Fully sequential chain — the zero-parallelism adversary."""
    return Dag.chain(n_nodes)


def diamond_dag(width: int) -> Dag:
    """Source -> ``width`` parallel tasks -> sink."""
    if width <= 0:
        raise ValueError("need width >= 1")
    n = width + 2
    edges = [(0, i) for i in range(1, width + 1)]
    edges += [(i, n - 1) for i in range(1, width + 1)]
    return Dag(n, edges)


def independent_dag(n_nodes: int) -> Dag:
    """``n_nodes`` tasks with no precedence constraints."""
    return Dag.empty(n_nodes)


# ---------------------------------------------------------------------------
# numerical-kernel task graphs (the Alewife/compilation workloads)
# ---------------------------------------------------------------------------
def cholesky_dag(n_blocks: int) -> Dag:
    """Task graph of right-looking blocked Cholesky factorization.

    Tasks: POTRF(k), TRSM(k, i), SYRK(k, i), GEMM(k, i, j) for a matrix of
    ``n_blocks`` x ``n_blocks`` tiles — the canonical malleable-task workload
    from dense linear algebra (cf. the numeric-compilation motivation [22]).
    Dependencies follow the standard tiled-Cholesky data flow.
    """
    if n_blocks <= 0:
        raise ValueError("need n_blocks >= 1")
    ids = {}
    counter = 0

    def nid(kind: str, *idx: int) -> int:
        nonlocal counter
        key = (kind,) + idx
        if key not in ids:
            ids[key] = counter
            counter += 1
        return ids[key]

    edges: List[Tuple[int, int]] = []
    for k in range(n_blocks):
        potrf = nid("potrf", k)
        if k > 0:
            edges.append((nid("syrk", k - 1, k), potrf))
        for i in range(k + 1, n_blocks):
            trsm = nid("trsm", k, i)
            edges.append((potrf, trsm))
            if k > 0:
                edges.append((nid("gemm", k - 1, i, k), trsm))
        for i in range(k + 1, n_blocks):
            syrk = nid("syrk", k, i)
            edges.append((nid("trsm", k, i), syrk))
            if k > 0:
                edges.append((nid("syrk", k - 1, i), syrk))
            for j in range(i + 1, n_blocks):
                gemm = nid("gemm", k, j, i)
                edges.append((nid("trsm", k, i), gemm))
                edges.append((nid("trsm", k, j), gemm))
                if k > 0:
                    edges.append((nid("gemm", k - 1, j, i), gemm))
    return Dag(counter, edges)


def lu_dag(n_blocks: int) -> Dag:
    """Task graph of blocked LU factorization without pivoting.

    Tasks: GETRF(k), TSTRF/GESSM panel updates, GEMM trailing updates.
    """
    if n_blocks <= 0:
        raise ValueError("need n_blocks >= 1")
    ids = {}
    counter = 0

    def nid(kind: str, *idx: int) -> int:
        nonlocal counter
        key = (kind,) + idx
        if key not in ids:
            ids[key] = counter
            counter += 1
        return ids[key]

    edges: List[Tuple[int, int]] = []
    for k in range(n_blocks):
        getrf = nid("getrf", k)
        if k > 0:
            edges.append((nid("gemm", k - 1, k, k), getrf))
        for i in range(k + 1, n_blocks):
            lpan = nid("lpanel", k, i)  # column panel solve
            upan = nid("upanel", k, i)  # row panel solve
            edges.append((getrf, lpan))
            edges.append((getrf, upan))
            if k > 0:
                edges.append((nid("gemm", k - 1, i, k), lpan))
                edges.append((nid("gemm", k - 1, k, i), upan))
        for i in range(k + 1, n_blocks):
            for j in range(k + 1, n_blocks):
                gemm = nid("gemm", k, i, j)
                edges.append((nid("lpanel", k, i), gemm))
                edges.append((nid("upanel", k, j), gemm))
                if k > 0:
                    edges.append((nid("gemm", k - 1, i, j), gemm))
    return Dag(counter, edges)


def fft_dag(n_points: int) -> Dag:
    """Butterfly DAG of an iterative radix-2 FFT on ``n_points`` inputs.

    ``n_points`` must be a power of two.  Each stage has ``n_points/2``
    butterfly tasks; a butterfly at stage ``s`` depends on the two
    butterflies of stage ``s-1`` that produced its inputs.
    """
    if n_points < 2 or n_points & (n_points - 1):
        raise ValueError("n_points must be a power of two >= 2")
    import math

    stages = int(math.log2(n_points))
    per_stage = n_points // 2
    n = stages * per_stage

    def bid(stage: int, b: int) -> int:
        return stage * per_stage + b

    edges: List[Tuple[int, int]] = []
    for s in range(1, stages):
        span = 1 << s  # butterfly span at stage s
        for b in range(per_stage):
            # Butterfly b at stage s consumes points (lo, lo+span) where
            lo = (b // span) * (2 * span) + (b % span)
            for point in (lo, lo + span):
                prev_span = span >> 1
                pb = (point // (2 * prev_span)) * prev_span + (
                    point % prev_span
                )
                edges.append((bid(s - 1, pb), bid(s, b)))
    return Dag(n, edges)


def stencil_dag(rows: int, cols: int) -> Dag:
    """Wavefront sweep over a ``rows`` x ``cols`` grid.

    Cell ``(i, j)`` depends on ``(i-1, j)`` and ``(i, j-1)`` — the Gauss–
    Seidel / Smith–Waterman wavefront, a classic pipeline-parallel DAG.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("need rows, cols >= 1")
    def nid(i: int, j: int) -> int:
        return i * cols + j

    edges: List[Tuple[int, int]] = []
    for i in range(rows):
        for j in range(cols):
            if i > 0:
                edges.append((nid(i - 1, j), nid(i, j)))
            if j > 0:
                edges.append((nid(i, j - 1), nid(i, j)))
    return Dag(rows * cols, edges)


# ---------------------------------------------------------------------------
# family registry (used by the benchmark harness)
# ---------------------------------------------------------------------------
FAMILIES = (
    "layered",
    "erdos_renyi",
    "fork_join",
    "series_parallel",
    "intree",
    "outtree",
    "chain",
    "diamond",
    "independent",
    "cholesky",
    "lu",
    "fft",
    "stencil",
)


def random_family(
    family: str, size: int, seed: Optional[int] = None
) -> Dag:
    """Dispatch a named family at roughly ``size`` nodes (for sweeps).

    The exact node count depends on the family's structure; callers should
    read ``dag.n_nodes`` rather than assume ``size``.
    """
    if family == "layered":
        layers = max(2, size // 5)
        return layered_dag(size, layers, 0.5, seed)
    if family == "erdos_renyi":
        return erdos_renyi_dag(size, min(1.0, 4.0 / max(size, 1)), seed)
    if family == "fork_join":
        width = max(1, int(size**0.5))
        phases = max(1, size // (width + 1))
        return fork_join_dag(phases, width)
    if family == "series_parallel":
        return series_parallel_dag(size, seed)
    if family == "intree":
        depth = max(1, size.bit_length() - 1)
        return intree_dag(max(2, depth), 2)
    if family == "outtree":
        depth = max(1, size.bit_length() - 1)
        return outtree_dag(max(2, depth), 2)
    if family == "chain":
        return chain_dag(size)
    if family == "diamond":
        return diamond_dag(max(1, size - 2))
    if family == "independent":
        return independent_dag(size)
    if family == "cholesky":
        b = 2
        while _cholesky_size(b + 1) <= size:
            b += 1
        return cholesky_dag(b)
    if family == "lu":
        b = 2
        while _lu_size(b + 1) <= size:
            b += 1
        return lu_dag(b)
    if family == "fft":
        p = 2
        while (2 * p).bit_length() * p <= size:
            p *= 2
        return fft_dag(p)
    if family == "stencil":
        side = max(1, int(size**0.5))
        return stencil_dag(side, side)
    raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")


def _cholesky_size(b: int) -> int:
    # POTRF: b, TRSM: b(b-1)/2, SYRK: b(b-1)/2, GEMM: ~b(b-1)(b-2)/6
    return b + b * (b - 1) + b * (b - 1) * (b - 2) // 6


def _lu_size(b: int) -> int:
    return b + b * (b - 1) + sum((b - 1 - k) ** 2 for k in range(b))
