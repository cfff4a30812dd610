"""Parallel batch execution of any registered scheduling pipeline.

The sequential API solves one instance per call; serving benchmark sweeps
and bulk workloads wants a *batch* entry point that fans a list of
instances out across a process pool and collects per-instance results
without letting one bad instance poison the run.  This module provides:

* :class:`BatchRunner` — fan-out over a
  ``concurrent.futures.ProcessPoolExecutor`` (or fully in-process when
  ``workers <= 1``), preserving input order, for **any** registered
  strategy combination (:mod:`repro.pipeline`) at its registered
  parameters (overrides of ρ and μ belong to the per-instance
  :class:`~repro.pipeline.SchedulingPipeline`).  A batch may mix pre-built
  :class:`~repro.core.Instance` objects with instance-JSON *paths*;
  paths are loaded inside the worker (no parent-side read, load
  failures isolated like solve failures).  Instances are submitted to
  the pool in *chunks* sized from the batch and the worker count, so
  per-future scheduling and pickling overhead is amortized across
  several solves — and instance serialization itself ships the DAG as
  its two CSR arrays (see ``repro.dag.Dag.__reduce__``), pickled once
  per instance.  Long-running callers (the service broker of
  :mod:`repro.service`) can hand :meth:`BatchRunner.run` a persistent
  ``executor`` so the pool outlives individual batches;
* :class:`BatchRecord` — one instance's outcome: either the report
  numbers of a successful run (makespan, certified lower bound, proven
  ratio bound, observed ratio, strategy names and parameters) or an
  isolated failure with its traceback;
* versioned JSON-lines export (:func:`write_jsonl` / :func:`read_jsonl`)
  consumed by ``python -m repro batch``.

Determinism: every record is computed by the same
:class:`repro.pipeline.SchedulingPipeline` code path as a direct solve
of that instance, and records are keyed by input position — so
makespans, lower bounds and ratio bounds are bit-identical to the
sequential path for *any* worker count (asserted in the test suite).

Example::

    from repro.engine import BatchRunner, write_jsonl
    from repro.workloads import make_instance

    instances = [
        make_instance("erdos_renyi", 60, 8, seed=s) for s in range(16)
    ]
    result = BatchRunner(
        workers=4, algorithm="ltw", priority="critical-path"
    ).run(instances + ["extra_instance.json"])   # paths load in-worker
    result.n_ok, result.throughput       # solved count, instances/s
    result.records[0].observed_ratio     # == a direct pipeline solve
    result.errors()                      # isolated failures, if any
    write_jsonl(result.records, "records.jsonl")

The service broker (:mod:`repro.service.broker`) and the campaign
runner (:mod:`repro.experiments.runner`) both execute through this
class, so their results inherit the same bit-identical guarantee.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..core.instance import Instance
from ..obs import log as obs_log
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from ..obs.metrics import flatten_counters

__all__ = [
    "POOL_FAILURE_PREFIX",
    "SCHEMA_VERSION",
    "BatchItem",
    "BatchRecord",
    "BatchResult",
    "BatchRunner",
    "read_jsonl",
    "write_jsonl",
]

_PathLike = Union[str, Path]

#: What a batch accepts per slot: a pre-built instance, or a path to an
#: instance JSON file (loaded inside the worker).
BatchItem = Union[Instance, str, Path]

#: Marker prefix of error records produced by a *pool-layer* failure
#: (worker death, pickling) as opposed to a failure inside the solve.
#: The service broker keys its replace-broken-pool logic on it — keep
#: the two in sync through this constant, never a literal.
POOL_FAILURE_PREFIX = "worker/pool failure"

#: Cap on in-flight *instances* of a pool run (chunk futures are
#: throttled to ``max(1, MAX_PENDING // chunk size)``); bounds memory on
#: huge batches.
MAX_PENDING = 256

_KERNEL_TIER = _METRICS.counter(
    "repro_solver_kernel_tier_total",
    "Batch records solved per kernel tier (array: LIST on the staircase; "
    "loop: a priority-rule loop)",
    ("tier",),
)

#: The in-parent group: at least two pre-built instances of at most
#: this many tasks, under one of these allotment strategies with the
#: earliest-start rule, are solved in the calling process even when a
#: pool is available (:meth:`BatchRunner.run`).  These are the items a
#: block-diagonal pass used to take; whether they should pool instead
#: needs a benchmark clock that counts pool workers' CPU time.
_IN_PARENT_MAX_TASKS = 2048
_IN_PARENT_ALGORITHMS = frozenset({"jz", "ltw", "sequential", "full"})

#: JSONL record schema version.  History:
#: 1 — PR 1: JZ-only records, no version field (absence == version 1);
#: 2 — pipeline records: adds ``schema_version``, ``algorithm``,
#:     ``priority``.  The optional ``schedule`` column (present only
#:     when the runner was asked for it) is an additive version-2
#:     change: readers ignore unknown fields on a known version.
#:     ``kernel_tier`` (``"array"`` | ``"loop"``, present on
#:     successful records; lines written before the batched tier
#:     retired may read ``"batched"``) is likewise additive version-2.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BatchRecord:
    """Outcome of one instance in a batch.

    ``status`` is ``"ok"`` or ``"error"``.  On success the report
    numbers are filled in; on failure ``error`` holds the formatted
    traceback and the numeric fields are ``None``.  ``index`` is the
    instance's position in the submitted batch.
    """

    index: int
    status: str
    name: Optional[str] = None
    n_tasks: Optional[int] = None
    m: Optional[int] = None
    algorithm: Optional[str] = None
    priority: Optional[str] = None
    makespan: Optional[float] = None
    lower_bound: Optional[float] = None
    ratio_bound: Optional[float] = None
    observed_ratio: Optional[float] = None
    rho: Optional[float] = None
    mu: Optional[int] = None
    wall_time: Optional[float] = None
    error: Optional[str] = None
    #: Which kernel tier solved the instance: ``"array"`` (LIST on the
    #: free-processor staircase, the earliest-start rule) or ``"loop"``
    #: (the per-task loop of a priority rule).  ``"batched"`` is no
    #: longer written.  ``None`` on error records and on lines written
    #: before the column existed.
    kernel_tier: Optional[str] = None
    #: Full schedule (``repro.io`` schedule dict), present only when the
    #: runner ran with ``include_schedule=True`` — the service layer
    #: needs the entries, plain batch sweeps only the numbers.
    schedule: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when the instance was solved."""
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict (one JSONL line), schema-versioned.

        The ``schedule`` and ``kernel_tier`` columns are omitted when
        absent so records written by schedule-less (or pre-tier) runs
        are byte-compatible with earlier version-2 writers.
        """
        d = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        if d.get("schedule") is None:
            d.pop("schedule", None)
        if d.get("kernel_tier") is None:
            d.pop("kernel_tier", None)
        return d


@dataclass(frozen=True)
class BatchResult:
    """All records of a batch run, in input order, plus run metadata."""

    records: tuple
    workers: int
    wall_time: float
    #: Work-counter deltas this batch added to the process-wide metrics
    #: registry (``name{labels}`` -> gained count), pool-worker deltas
    #: included — for a quiet process the sum of worker deltas equals
    #: the parent's registry gain exactly (asserted by the test suite).
    #: Attribution assumes one batch at a time per process: concurrent
    #: in-process batches (the service broker's solve threads) may see
    #: each other's counts here, while registry *totals* stay exact.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def n_ok(self) -> int:
        """Number of successfully solved instances."""
        return sum(1 for r in self.records if r.ok)

    @property
    def n_errors(self) -> int:
        """Number of isolated failures."""
        return len(self.records) - self.n_ok

    @property
    def throughput(self) -> float:
        """Solved instances per second of batch wall time."""
        return self.n_ok / self.wall_time if self.wall_time > 0 else 0.0

    def errors(self) -> List[BatchRecord]:
        """The failed records."""
        return [r for r in self.records if not r.ok]

    def kernel_tiers(self) -> Dict[str, int]:
        """How many records each kernel tier solved (ok records only)."""
        tiers: Dict[str, int] = {}
        for r in self.records:
            if r.kernel_tier is not None:
                tiers[r.kernel_tier] = tiers.get(r.kernel_tier, 0) + 1
        return tiers

    def summary(self) -> Dict[str, Any]:
        """Aggregate numbers for reports and the CLI."""
        return {
            "instances": len(self.records),
            "ok": self.n_ok,
            "errors": self.n_errors,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "throughput": self.throughput,
            "kernel_tiers": self.kernel_tiers(),
            "metrics": self.metrics,
        }


def _ok_record(
    index: int,
    instance: Instance,
    label: Optional[str],
    rep,
    wall_time: float,
    include_schedule: bool,
    kernel_tier: str,
) -> Dict[str, Any]:
    """Success-record dict of one solved instance."""
    rec = {
        "index": index,
        "status": "ok",
        "name": instance.name if instance.name is not None else label,
        "n_tasks": instance.n_tasks,
        "m": instance.m,
        "algorithm": rep.algorithm,
        "priority": rep.priority,
        "makespan": rep.makespan,
        "lower_bound": rep.lower_bound,
        "ratio_bound": rep.ratio_bound,
        "observed_ratio": rep.observed_ratio,
        "rho": rep.rho,
        "mu": rep.mu,
        "wall_time": wall_time,
        "kernel_tier": kernel_tier,
    }
    if include_schedule:
        from ..io import schedule_to_dict

        rec["schedule"] = schedule_to_dict(rep.schedule)
    return rec


def _solve_chunk(payloads) -> Dict[str, Any]:
    """Worker body for a chunk of instances: one future, many solves.

    Module-level so it pickles under every multiprocessing start method.
    Failure isolation stays per-instance: :func:`_solve_one` never
    raises, so one bad instance cannot poison its chunk-mates.

    Besides the records, the chunk ships back the *delta* its solves
    added to the worker process's metrics registry (a picklable counter
    state) — the parent folds every chunk's delta into its own registry,
    so the process-wide counters are exactly preserved across the pool:
    sum of worker deltas == what an in-process run would have counted.
    """
    before = _METRICS.counter_state()
    records = [_solve_one(p) for p in payloads]
    return {
        "records": records,
        "metrics": _METRICS.counters_since(before),
    }


def _solve_one(payload) -> Dict[str, Any]:
    """Worker body: solve one instance, never raise.

    Module-level so it pickles under every multiprocessing start method.
    The item may be an :class:`Instance` or a path to an instance JSON
    file — paths are loaded here, in the worker, so a batch of files
    never serializes instances through the parent and an unreadable
    file is isolated exactly like a failing solve.  Returns a plain
    dict (cheap to pickle back) that :class:`BatchRunner` turns into a
    :class:`BatchRecord`.
    """
    (index, item, algorithm, priority, include_schedule) = payload
    t0 = time.perf_counter()
    label = str(item) if isinstance(item, (str, Path)) else None
    instance = None
    # Exception (not BaseException): KeyboardInterrupt/SystemExit must
    # propagate so in-process batch runs stay interruptible.
    try:
        if label is not None:
            from ..io import load_instance

            instance = load_instance(item)
        else:
            instance = item
        from ..pipeline import SchedulingPipeline

        rep = SchedulingPipeline(algorithm, priority).solve(instance)
        # Which tier ran: earliest-start goes through list_schedule's
        # staircase; every other phase-2 rule is the per-task priority
        # loop of list_schedule_with_priority.
        if rep.priority == "earliest-start":
            from ..core.list_scheduler import dispatch_tier

            tier = dispatch_tier(instance)
        else:
            tier = "loop"
        return _ok_record(
            index, instance, label, rep,
            time.perf_counter() - t0, include_schedule, tier,
        )
    except Exception:
        name = _safe_attr(instance, "name") if instance is not None else None
        return {
            "index": index,
            "status": "error",
            "name": name if name is not None else label,
            "n_tasks": _safe_attr(instance, "n_tasks"),
            "m": _safe_attr(instance, "m"),
            "algorithm": algorithm,
            "priority": priority,
            "wall_time": time.perf_counter() - t0,
            "error": traceback.format_exc(),
        }


def _pool_error_record(payload, exc: BaseException) -> Dict[str, Any]:
    """Error record for a failure that happened at the pool layer (worker
    death, pickling) rather than inside the solve itself."""
    index, item = payload[0], payload[1]
    if isinstance(item, (str, Path)):
        name, n_tasks, m = str(item), None, None
    else:
        name = _safe_attr(item, "name")
        n_tasks = _safe_attr(item, "n_tasks")
        m = _safe_attr(item, "m")
    return {
        "index": index,
        "status": "error",
        "name": name,
        "n_tasks": n_tasks,
        "m": m,
        "error": (
            f"{POOL_FAILURE_PREFIX}: {type(exc).__name__}: {exc}\n"
            "(the instance was not retried in the parent process)"
        ),
    }


def _safe_attr(obj, attr):
    """``getattr`` that also swallows raising properties — error-record
    construction must never raise, whatever the failed instance does."""
    try:
        value = getattr(obj, attr, None)
    except Exception:
        return None
    return value if isinstance(value, (str, int, float, type(None))) else None


@dataclass
class BatchRunner:
    """Reusable batch executor over any registered pipeline.

    Parameters
    ----------
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``0`` or ``1``
        solves in-process (no pool) — same records, no pickling.
    algorithm, priority:
        Registered strategy names (see
        :func:`repro.pipeline.list_strategies`); validated before any
        instance is solved.  Defaults reproduce the JZ pipeline.
        The registry is process-local: built-ins are always visible to
        pool workers, but strategies registered at runtime by user code
        reach workers only when the pool inherits the parent's modules
        (the fork start method, the Linux default).  On spawn platforms
        (macOS/Windows) run custom strategies with ``workers <= 1``, or
        register them in a module the workers import.
    include_schedule:
        When true, successful records carry the full schedule as a
        ``repro.io`` schedule dict (``record.schedule``) — what the
        service broker caches and returns to clients.  Off by default:
        sweep workloads only want the report numbers, and schedules
        inflate JSONL output.

    Routing is decided from the inputs alone; every route runs the
    same per-instance pipeline solve, so records are bit-identical on
    every route and only the wall time differs:

    * two or more pre-built instances of at most 2048 tasks, under the
      ``jz``, ``ltw``, ``sequential`` or ``full`` allotment with the
      ``earliest-start`` rule, are solved in the calling process, one
      after another (the in-parent group);
    * the rest go to a process pool when ``workers > 1`` and at least
      two remain, or whenever the caller passes an ``executor``, in
      chunks of :meth:`resolved_chunksize` instances;
    * otherwise they are solved in-process.
    """

    workers: Optional[int] = None
    algorithm: str = "jz"
    priority: str = "earliest-start"
    include_schedule: bool = False

    def resolved_workers(self) -> int:
        """The effective worker count."""
        if self.workers is None:
            return os.cpu_count() or 1
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        return self.workers

    @staticmethod
    def resolved_chunksize(n_payloads: int, workers: int) -> int:
        """Instances per pool future: ``ceil(n_payloads / (4 * workers))``
        capped to 32 — enough chunks for load balancing, few enough that
        pool scheduling and result pickling stop dominating small
        solves."""
        return max(1, min(32, -(-n_payloads // (4 * max(1, workers)))))

    def run(
        self,
        instances: Sequence[BatchItem],
        *,
        executor: Optional[Executor] = None,
    ) -> BatchResult:
        """Solve every item; returns records in input order.

        Items may be pre-built :class:`Instance` objects, paths to
        instance JSON files, or a mixture; paths are loaded inside the
        worker (nothing is re-read in the parent).  Unknown strategy
        names raise :class:`repro.pipeline.UnknownStrategyError` up
        front.  A failing item (unreadable file, bad profile, solver
        error, unpicklable object, even a crashed worker process) yields
        an ``"error"`` record and never crashes the run or loses other
        records.  Exceptions raised *inside* a solve are fully isolated;
        a worker process that dies outright may additionally error the
        instances that were in flight on the broken pool — they are
        recorded as pool failures, never retried in the parent (a
        crash-inducing instance must not get a second chance there).

        ``executor`` overrides pool management entirely: the batch runs
        on the given (process or thread) executor, which is **not** shut
        down afterwards — long-running callers like the service broker
        keep one warm pool across many single-instance batches instead
        of paying pool startup per request.
        """
        from ..pipeline import canonical_strategy_pair

        # Fail fast on typos — and pin the canonical names into the
        # payloads so records agree across aliases.
        algorithm, priority = canonical_strategy_pair(
            self.algorithm, self.priority
        )

        instances = list(instances)
        workers = self.resolved_workers()
        t0 = time.perf_counter()
        metrics_before = _METRICS.counter_state()
        group = self._in_parent_group(instances, algorithm, priority)
        payloads = [
            (i, inst, algorithm, priority, self.include_schedule)
            for i, inst in enumerate(instances)
        ]
        raw = [_solve_one(p) for p in payloads if p[0] in group]
        payloads = [p for p in payloads if p[0] not in group]
        if executor is not None:
            pooled = len(payloads) > 0
        else:
            pooled = workers > 1 and len(payloads) > 1
        if pooled:
            chunk_results = self._run_pool(
                payloads, max(1, workers), executor=executor
            )
            for chunk in chunk_results:
                raw.extend(chunk["records"])
                # Fold the worker's counter delta into this process's
                # registry: totals are preserved exactly across the
                # pool boundary.
                _METRICS.merge_counter_state(chunk["metrics"])
        else:
            raw += [_solve_one(p) for p in payloads]
        result = BatchResult(
            records=tuple(
                BatchRecord(**r)
                for r in sorted(raw, key=lambda r: r["index"])
            ),
            workers=workers,
            wall_time=time.perf_counter() - t0,
        )
        for tier, count in sorted(result.kernel_tiers().items()):
            _KERNEL_TIER.labels(tier).inc(count)
        return replace(
            result,
            metrics=flatten_counters(_METRICS.counters_since(metrics_before)),
        )

    @staticmethod
    def _in_parent_group(
        instances: List[BatchItem], algorithm: str, priority: str
    ) -> frozenset[int]:
        """Indices of the items solved in the calling process whatever
        the worker count: pre-built :class:`Instance` items of at most
        2048 tasks (paths load in workers, for failure isolation), at
        least two of them, under an allotment strategy of
        ``_IN_PARENT_ALGORITHMS`` with the earliest-start rule."""
        if (
            priority != "earliest-start"
            or algorithm not in _IN_PARENT_ALGORITHMS
        ):
            return frozenset()
        group = frozenset(
            i for i, inst in enumerate(instances)
            if isinstance(inst, Instance)
            and inst.n_tasks <= _IN_PARENT_MAX_TASKS
        )
        return group if len(group) >= 2 else frozenset()

    def _run_pool(
        self,
        payloads,
        workers: int,
        executor: Optional[Executor] = None,
    ) -> List[Dict[str, Any]]:
        size = self.resolved_chunksize(len(payloads), workers)
        chunks = [
            payloads[k:k + size] for k in range(0, len(payloads), size)
        ]
        pending_cap = max(1, MAX_PENDING // size)
        with obs_trace.span(
            "pool.dispatch",
            chunks=len(chunks),
            chunksize=size,
            workers=workers,
        ):
            obs_trace.add("pool_chunks", len(chunks))
            if executor is not None:
                # Caller-owned pool (service broker): use, never shut
                # down.
                return self._drain_pool(executor, chunks, pending_cap)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return self._drain_pool(pool, chunks, pending_cap)

    @staticmethod
    def _drain_pool(
        pool: Executor, chunks, pending_cap: int
    ) -> List[Dict[str, Any]]:
        raw: List[Dict[str, Any]] = []
        todo = list(reversed(chunks))
        pending = {}
        while todo or pending:
            while todo and len(pending) < pending_cap:
                chunk = todo.pop()
                try:
                    fut = pool.submit(_solve_chunk, chunk)
                except Exception as exc:
                    # e.g. a broken pool: record, don't crash the run.
                    raw.append({
                        "records": [
                            _pool_error_record(p, exc) for p in chunk
                        ],
                        "metrics": {},
                    })
                    continue
                pending[fut] = chunk
            if not pending:
                continue
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                chunk = pending.pop(fut)
                exc = fut.exception()
                if exc is None:
                    raw.append(fut.result())
                else:
                    # Pool-level failure: unpicklable payload, or a
                    # worker process that died (segfault, OOM kill,
                    # BrokenProcessPool).  Record the error for every
                    # instance of the chunk rather than re-running any
                    # of it in this process — a crash-inducing
                    # instance must never be given a chance to take
                    # the parent down with it.
                    raw.append({
                        "records": [
                            _pool_error_record(p, exc) for p in chunk
                        ],
                        "metrics": {},
                    })
        return raw


def write_jsonl(records: Iterable[BatchRecord], path: _PathLike) -> int:
    """Write records as schema-versioned JSON lines; returns the number
    written."""
    n = 0
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")
            n += 1
    return n


_RECORD_FIELDS = frozenset(f.name for f in fields(BatchRecord))
_REQUIRED_FIELDS = ("index", "status")


def read_jsonl(path: _PathLike) -> List[BatchRecord]:
    """Read records back from a JSON-lines file.

    Lines carry a ``schema_version`` field (records from PR 1 predate it
    and are read as version 1).  A line whose version this build does
    not know is **never** silently coerced into a partial record: it
    raises :class:`ValueError` naming the file, line and version.

    Unknown *fields* on a known version are ignored (a newer minor
    writer may add columns); missing fields fall back to the record
    defaults, except ``index``/``status`` which are mandatory.

    A syntactically broken **final** line is dropped with a
    :class:`UserWarning` instead of raising: it is the signature of a
    writer killed mid-append (the daemon crashed, the disk filled), and
    every complete record before it is still good.  A broken line
    anywhere *else* is real corruption and raises :class:`ValueError`.
    """
    out: List[BatchRecord] = []
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            if lineno == len(lines):
                obs_log.warn(
                    f"{path}:{lineno}: dropping truncated final record "
                    "(writer was likely killed mid-append)",
                    logger=obs_log.get_logger("engine"),
                    path=str(path),
                    lineno=lineno,
                )
                continue
            raise ValueError(
                f"{path}:{lineno}: malformed JSON record"
            ) from None
        if not isinstance(data, dict):
            raise ValueError(
                f"{path}:{lineno}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        version = data.pop("schema_version", 1)
        if version not in (1, SCHEMA_VERSION):
            raise ValueError(
                f"{path}:{lineno}: unknown batch-record schema_version "
                f"{version!r} (this build reads versions 1"
                f"..{SCHEMA_VERSION})"
            )
        missing = [k for k in _REQUIRED_FIELDS if k not in data]
        if missing:
            raise ValueError(
                f"{path}:{lineno}: record is missing required "
                f"field(s) {missing}"
            )
        out.append(
            BatchRecord(
                **{k: v for k, v in data.items() if k in _RECORD_FIELDS}
            )
        )
    return out
