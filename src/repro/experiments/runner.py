"""Campaign execution: expand the grid, solve it, persist every cell.

:class:`CampaignRunner` drives a :class:`~repro.experiments.spec.CampaignSpec`
through the batch engine and leaves behind a *campaign directory*::

    campaigns/<name>/
        spec.json        resolved spec echo (what actually ran)
        records.jsonl    one CellRecord per grid cell, in cell order
        cache/           result spill files (resume + report Gantts)

Resumability is content-addressed, not positional: each cell's result
is keyed by ``(instance.content_key(), algorithm, priority)`` — the
same key the solver service uses — and persisted through
:class:`repro.service.cache.ResultCache` in its spill format.  A
re-run rebuilds each cell's instance deterministically from its seed,
finds the fingerprint on disk and serves the recorded result without
solving; a killed run resumes from the last flushed wave.  Editing the
spec invalidates exactly the cells it changes (new instances or new
strategy pairs miss, untouched cells still hit), and a package-version
bump invalidates everything (the spill files are version-stamped), so
a stale solver can never masquerade as a fresh campaign.

Execution goes through :class:`repro.engine.BatchRunner` — process-pool
fan-out with per-cell failure isolation — in *waves* (grouped by
strategy pair), with a cache flush and an ``on_cell`` progress callback
after every wave.  Cached replays are bit-identical to the original
solve by construction: the payload on disk *is* the recorded result.

Example::

    from repro.experiments import CampaignRunner, CampaignSpec

    spec = CampaignSpec(
        name="demo", families=("layered",), sizes=(12,), machines=(4,),
        seeds=(0, 1), strategies=(("jz", "earliest-start"),),
    )
    result = CampaignRunner(spec, workers=0).run()
    assert result.n_errors == 0
    again = CampaignRunner(spec, workers=0).run()
    assert again.n_solved == 0          # everything served from cache
"""

from __future__ import annotations

import json
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..engine.batch import POOL_FAILURE_PREFIX, BatchRunner
from ..service.cache import CacheKey, ResultCache, solve_payload
from .spec import CampaignCell, CampaignSpec

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CellRecord",
    "RECORDS_VERSION",
    "read_records",
]

_PathLike = Union[str, Path]

#: Schema version of ``records.jsonl`` lines.
RECORDS_VERSION = 1

#: Default root for campaign directories (relative to the cwd).
DEFAULT_ROOT = "campaigns"


@dataclass(frozen=True)
class CellRecord:
    """One grid cell's outcome: the cell recipe plus the solve result.

    ``status`` is ``"ok"`` or ``"error"``; ``cached`` says whether this
    run served the result from the campaign cache instead of solving.
    ``wall_time`` is always the *original* solve time (a cached replay
    reports the time the recorded solve took, not the cache lookup).
    """

    cell: CampaignCell
    status: str
    cached: bool = False
    instance_key: Optional[str] = None
    name: Optional[str] = None
    n_tasks: Optional[int] = None
    makespan: Optional[float] = None
    lower_bound: Optional[float] = None
    ratio_bound: Optional[float] = None
    observed_ratio: Optional[float] = None
    rho: Optional[float] = None
    mu: Optional[int] = None
    wall_time: Optional[float] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the cell was solved (or replayed) successfully."""
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """One ``records.jsonl`` line (JSON-compatible)."""
        return {
            "records_version": RECORDS_VERSION,
            "cell": self.cell.to_dict(),
            "status": self.status,
            "cached": self.cached,
            "instance_key": self.instance_key,
            "name": self.name,
            "n_tasks": self.n_tasks,
            "makespan": self.makespan,
            "lower_bound": self.lower_bound,
            "ratio_bound": self.ratio_bound,
            "observed_ratio": self.observed_ratio,
            "rho": self.rho,
            "mu": self.mu,
            "wall_time": self.wall_time,
            "error": self.error,
        }

    def content_dict(self) -> Dict[str, Any]:
        """The run-independent part of the record: everything except
        provenance (``cached``) and timing (``wall_time``).  Two runs of
        the same spec — interrupted, resumed or fresh — must agree on
        this dict exactly (asserted in the test suite)."""
        d = self.to_dict()
        d.pop("cached")
        d.pop("wall_time")
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellRecord":
        """Inverse of :meth:`to_dict`."""
        version = data.get("records_version", RECORDS_VERSION)
        if version != RECORDS_VERSION:
            raise ValueError(
                f"unknown campaign records_version {version!r} "
                f"(this build reads {RECORDS_VERSION})"
            )
        cell = CampaignCell(**data["cell"])
        kwargs = {
            k: data.get(k)
            for k in (
                "status", "cached", "instance_key", "name", "n_tasks",
                "makespan", "lower_bound", "ratio_bound",
                "observed_ratio", "rho", "mu", "wall_time", "error",
            )
        }
        return cls(cell=cell, **kwargs)


@dataclass(frozen=True)
class CampaignResult:
    """Everything a finished (or resumed) campaign run produced."""

    spec: CampaignSpec
    output_dir: Path
    records: Tuple[CellRecord, ...]
    wall_time: float

    @property
    def n_ok(self) -> int:
        """Cells with a successful result (solved or replayed)."""
        return sum(1 for r in self.records if r.ok)

    @property
    def n_errors(self) -> int:
        """Cells that failed (isolated; never abort the campaign)."""
        return len(self.records) - self.n_ok

    @property
    def n_cached(self) -> int:
        """Cells served from the resume cache in *this* run."""
        return sum(1 for r in self.records if r.cached)

    @property
    def n_solved(self) -> int:
        """Cells actually solved in this run (``0`` on a pure re-run)."""
        return sum(1 for r in self.records if r.ok and not r.cached)

    def errors(self) -> List[CellRecord]:
        """The failed records."""
        return [r for r in self.records if not r.ok]

    def summary(self) -> Dict[str, Any]:
        """Aggregate counters (JSON-compatible; printed by the CLI)."""
        return {
            "campaign": self.spec.name,
            "cells": len(self.records),
            "ok": self.n_ok,
            "errors": self.n_errors,
            "solved": self.n_solved,
            "cached": self.n_cached,
            "wall_time": self.wall_time,
            "output_dir": str(self.output_dir),
        }


class CampaignRunner:
    """Run a campaign spec; see the module docstring.

    Parameters
    ----------
    spec:
        The validated :class:`~repro.experiments.spec.CampaignSpec`.
    workers:
        Process count forwarded to :class:`repro.engine.BatchRunner`
        per wave; ``None`` = machine CPU count, ``0``/``1`` =
        in-process.
    output_dir:
        Campaign directory; default ``campaigns/<spec.name>``.
    wave_size:
        Cells per batch wave (the resume granularity: a wave is
        flushed to disk as a unit).  Default: enough to feed the pool
        (``4 × workers``, at least 8).
    on_cell:
        Optional callback invoked as ``on_cell(record)`` for every
        finished cell, in cell order within each wave — progress
        reporting, or fault injection in the resume tests.  An
        exception raised here aborts the run *after* the finished wave
        was flushed (that is the point: everything completed stays
        resumable).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        workers: Optional[int] = None,
        output_dir: Optional[_PathLike] = None,
        wave_size: Optional[int] = None,
        on_cell: Optional[Callable[[CellRecord], None]] = None,
    ):
        if wave_size is not None and wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        self.spec = spec
        self.workers = workers
        self.output_dir = Path(
            output_dir if output_dir is not None
            else Path(DEFAULT_ROOT) / spec.name
        )
        self.wave_size = wave_size
        self.on_cell = on_cell

    # ------------------------------------------------------------------
    def run(self, *, fresh: bool = False) -> CampaignResult:
        """Execute the grid (resuming from the cell cache unless
        ``fresh``), write ``spec.json`` + ``records.jsonl`` and return
        the :class:`CampaignResult`.

        ``fresh=True`` deletes the campaign's cache and records first —
        every cell is re-solved.
        """
        t0 = time.perf_counter()
        if fresh:
            self._clear_campaign_output()
        self.output_dir.mkdir(parents=True, exist_ok=True)
        cells = self.spec.expand()
        cache = ResultCache(
            capacity=max(1, len(cells)),
            spill_dir=self.output_dir / "cache",
        )
        self._write_spec_echo()

        # Resolve every cell against the cache first: build each
        # instance once (deterministic from the seed), key it by
        # content fingerprint + strategy pair.  Strategy pairs are
        # adjacent in expansion order (see ``CampaignSpec.expand``),
        # so a one-slot memo suffices to generate and hash each
        # instance once, not once per strategy pair.
        keyed = []  # (cell, instance, key)
        results: Dict[int, CellRecord] = {}
        last_recipe, last_built = None, None
        for cell in cells:
            recipe = (cell.family, cell.model, cell.size, cell.m,
                      cell.seed, cell.base_time)
            try:
                if recipe != last_recipe:
                    instance = cell.instance()
                    last_recipe = recipe
                    last_built = (instance, instance.content_key())
                instance, instance_key = last_built
                key: CacheKey = (
                    instance_key, cell.algorithm, cell.priority
                )
            except Exception as exc:
                # A cell whose *instance generation* fails is isolated
                # exactly like a failing solve.
                results[cell.index] = CellRecord(
                    cell=cell, status="error",
                    error=f"instance generation failed: "
                          f"{type(exc).__name__}: {exc}",
                )
                continue
            payload = cache.get(key)
            if payload is not None:
                results[cell.index] = self._record_from_payload(
                    cell, key, payload, cached=True
                )
            else:
                keyed.append((cell, instance, key))

        interrupted: Optional[BaseException] = None
        try:
            self._emit(
                [results[c.index] for c in cells if c.index in results]
            )
            self._solve_missing(keyed, cache, results)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            interrupted = exc
        records = tuple(
            results[c.index] for c in cells if c.index in results
        )
        self._write_records(records)
        if interrupted is not None:
            raise interrupted
        return CampaignResult(
            spec=self.spec,
            output_dir=self.output_dir,
            records=records,
            wall_time=time.perf_counter() - t0,
        )

    def _clear_campaign_output(self) -> None:
        """Delete only what a campaign run writes (``--fresh``): the
        cache tier, records, spec echo and rendered reports — never
        the whole directory, which the caller may have pointed at a
        location holding unrelated files."""
        if not self.output_dir.exists():
            return
        cache_dir = self.output_dir / "cache"
        if cache_dir.is_dir():
            shutil.rmtree(cache_dir)
        for name in ("records.jsonl", "spec.json", "report.md",
                     "report.html"):
            (self.output_dir / name).unlink(missing_ok=True)
        for svg in self.output_dir.glob("gantt_*.svg"):
            svg.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def _solve_missing(self, keyed, cache: ResultCache, results) -> None:
        """Solve uncached cells in waves grouped by strategy pair;
        flush each wave to the spill tier before reporting it.

        One process pool serves the whole campaign (pool startup per
        wave would dominate small waves); a pool broken by a crashed
        worker is replaced between waves, so one crash-inducing cell
        costs its own wave at most, never the rest of the campaign.
        """
        if not keyed:
            return
        workers = BatchRunner(workers=self.workers).resolved_workers()
        wave = (
            self.wave_size if self.wave_size is not None
            else max(8, 4 * workers)
        )
        by_pair: Dict[Tuple[str, str], list] = {}
        for item in keyed:
            cell = item[0]
            by_pair.setdefault(
                (cell.algorithm, cell.priority), []
            ).append(item)
        pooled = workers > 1 and len(keyed) > 1
        pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=workers) if pooled
            else None
        )
        try:
            for (algorithm, priority), items in by_pair.items():
                runner = BatchRunner(
                    workers=self.workers,
                    algorithm=algorithm,
                    priority=priority,
                    include_schedule=True,
                )
                for start in range(0, len(items), wave):
                    chunk = items[start:start + wave]
                    batch = runner.run(
                        [inst for _, inst, _ in chunk], executor=pool
                    )
                    if pool is not None and any(
                        POOL_FAILURE_PREFIX in (r.error or "")
                        for r in batch.records
                    ):
                        # A worker died and broke the shared pool;
                        # swap in a fresh one so later waves still
                        # run.  The failed cells stay error records
                        # (uncached, so the next campaign run retries
                        # them).
                        pool.shutdown(wait=False)
                        pool = ProcessPoolExecutor(max_workers=workers)
                    self._finish_wave(chunk, batch, cache, results)
        finally:
            if pool is not None:
                pool.shutdown(wait=False)

    def _finish_wave(self, chunk, batch, cache, results) -> None:
        """Record one wave's outcomes, flush them, then report them."""
        wave_records = []
        solved_keys = []
        for (cell, _inst, key), rec in zip(chunk, batch.records):
            if rec.ok:
                payload = solve_payload(key[0], rec)
                cache.put(key, payload)
                solved_keys.append(key)
                record = self._record_from_payload(
                    cell, key, payload, cached=False
                )
            else:
                record = CellRecord(
                    cell=cell, status="error",
                    instance_key=key[0], name=rec.name,
                    n_tasks=rec.n_tasks,
                    wall_time=rec.wall_time, error=rec.error,
                )
            results[cell.index] = record
            wave_records.append(record)
        # Durable before anyone hears about it — and only this wave's
        # keys: a full flush would rewrite every resident entry again
        # each wave (quadratic spill I/O over a large campaign).
        for key in solved_keys:
            cache.flush(key)
        self._emit(wave_records)

    def _emit(self, records: Sequence[CellRecord]) -> None:
        if self.on_cell is None:
            return
        for record in records:
            self.on_cell(record)

    # ------------------------------------------------------------------
    @staticmethod
    def _record_from_payload(
        cell: CampaignCell, key: CacheKey, payload: Dict[str, Any],
        cached: bool,
    ) -> CellRecord:
        return CellRecord(
            cell=cell,
            status="ok",
            cached=cached,
            instance_key=key[0],
            name=payload.get("name"),
            n_tasks=payload.get("n_tasks"),
            makespan=payload.get("makespan"),
            lower_bound=payload.get("lower_bound"),
            ratio_bound=payload.get("ratio_bound"),
            observed_ratio=payload.get("observed_ratio"),
            rho=payload.get("rho"),
            mu=payload.get("mu"),
            wall_time=payload.get("solve_wall_time"),
        )

    # ------------------------------------------------------------------
    def _write_spec_echo(self) -> None:
        (self.output_dir / "spec.json").write_text(
            json.dumps(self.spec.to_dict(), indent=2) + "\n"
        )

    def _write_records(self, records: Sequence[CellRecord]) -> None:
        path = self.output_dir / "records.jsonl"
        tmp = path.with_suffix(".jsonl.tmp")
        with open(tmp, "w") as fh:
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        tmp.replace(path)


def read_records(output_dir: _PathLike) -> List[CellRecord]:
    """Read a campaign directory's ``records.jsonl`` back."""
    path = Path(output_dir) / "records.jsonl"
    records = []
    for lineno, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(CellRecord.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records
