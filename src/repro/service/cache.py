"""Content-addressed result cache for the scheduling service.

Results are keyed by ``(instance_key, algorithm, priority)`` where
``instance_key`` is the canonical content fingerprint of the instance
(:meth:`repro.core.Instance.content_key`) and the strategy names are
canonical registry spellings — so the same instance resubmitted under an
alias, from a different file, or with edges in a different order lands
on the same cache line, while any change to a processing time, an arc or
the machine count misses.

Two tiers:

* an **in-memory LRU** bounded by ``capacity`` entries (the hot tier
  every hit is served from);
* an optional **on-disk JSON spill**: entries evicted from memory are
  written to ``spill_dir`` (one JSON file per key, named by the SHA-256
  of the key) and transparently promoted back to memory on the next
  request for them.  The spill survives daemon restarts — a warm disk
  tier is a free warm start.  Spill records are stamped with the
  package version and ignored on mismatch: a solver upgrade must never
  serve schedules an older pipeline produced.

The cache never stores live objects: values are the JSON-compatible
result payloads the broker serves (schedule dict + certified numbers),
so a disk round-trip is bit-exact by construction.  All operations are
thread-safe (the broker's executor threads and the asyncio loop share
one instance) and counted: hits, misses, evictions, spill writes and
spill hits are exposed via :meth:`ResultCache.stats` and surface on the
daemon's ``/stats`` endpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .. import __version__
from ..obs import trace as obs_trace
from ..resilience import FaultClock, InjectedIOError, as_clock

__all__ = ["CacheKey", "ResultCache", "solve_payload"]

#: ``(instance content key, allotment strategy, phase-2 rule)`` — all
#: canonical strings.
CacheKey = Tuple[str, str, str]

_PathLike = Union[str, Path]

#: Bound on spill files (approximate: counted at startup and tracked per
#: write/delete).  Once reached, new evictions are no longer spilled
#: (existing files keep serving) instead of growing the directory
#: without limit under sustained unique traffic.
SPILL_MAX_FILES = 65536


def solve_payload(instance_key: str, record) -> Dict[str, Any]:
    """The canonical cached-solve payload for an *ok* engine record.

    This is the one definition of the value shape stored under a
    :data:`CacheKey` — the service broker caches it and serves it as
    the ``/solve`` response body (plus transport flags), and the
    campaign runner persists the same shape in its resume cache, which
    is what keeps the two spill tiers mutually readable.  ``record``
    is a successful :class:`repro.engine.BatchRecord` (duck-typed to
    avoid importing the engine here).
    """
    return {
        "status": "ok",
        "instance_key": instance_key,
        "algorithm": record.algorithm,
        "priority": record.priority,
        "name": record.name,
        "n_tasks": record.n_tasks,
        "m": record.m,
        "makespan": record.makespan,
        "lower_bound": record.lower_bound,
        "ratio_bound": record.ratio_bound,
        "observed_ratio": record.observed_ratio,
        "rho": record.rho,
        "mu": record.mu,
        "schedule": record.schedule,
        "solve_wall_time": record.wall_time,
        "kernel_tier": getattr(record, "kernel_tier", None),
    }


class ResultCache:
    """Bounded LRU of solve results with optional disk spill.

    Parameters
    ----------
    capacity:
        Maximum number of in-memory entries (>= 1).  The least recently
        used entry is evicted when a put overflows the bound.
    spill_dir:
        When given, evicted entries are written there as JSON and
        looked up on memory misses; the directory is created if needed.
        ``None`` disables the disk tier entirely.  At most
        :data:`SPILL_MAX_FILES` files are written there.
    faults:
        Optional :class:`repro.resilience.FaultClock` (or plan) arming
        the ``cache.spill_write`` / ``cache.spill_read`` seams — chaos
        testing only.  An injected spill fault degrades exactly like
        the real thing it models (full disk, torn file): the entry is
        simply not spilled, or the read is a miss and re-solved.
    """

    def __init__(
        self,
        capacity: int = 1024,
        spill_dir: Optional[_PathLike] = None,
        faults: Optional[FaultClock] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self.faults = as_clock(faults)
        self._spill_dir: Optional[Path] = None
        self._spill_count = 0
        if spill_dir is not None:
            self._spill_dir = Path(spill_dir)
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            self._spill_count = sum(
                1 for _ in self._spill_dir.glob("*.json")
            )
        self._data: "OrderedDict[CacheKey, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spill_writes = 0
        self._spill_hits = 0

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` on a miss.

        A memory hit refreshes the entry's LRU position; a spill hit
        promotes the entry back into memory (possibly evicting the
        current LRU tail to disk).  Both count as hits.  Disk I/O runs
        *outside* the lock, so a slow spill device never stalls
        concurrent memory hits.
        """
        with obs_trace.span("cache.lookup", spill=self.has_spill):
            value = self._get(key)
            obs_trace.add(
                "cache_hits" if value is not None else "cache_misses", 1
            )
        return value

    def _get(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
                self._hits += 1
                return value
            if self._spill_dir is None:
                self._misses += 1
                return None
        value = self._load_spilled(key)  # unlocked disk read
        with self._lock:
            raced = self._data.get(key)
            if raced is not None:
                # Another thread inserted while we were on disk; its
                # entry is at least as fresh as the spill file.
                self._data.move_to_end(key)
                self._hits += 1
                return raced
            if value is None:
                self._misses += 1
                return None
            self._spill_hits += 1
            self._hits += 1
            evicted = self._insert(key, value)
        self._write_spilled_many(evicted)
        return value

    def peek(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """Memory-tier-only lookup — never touches the disk, so it is
        safe on a latency-sensitive thread even with a spill tier.  A
        found entry counts as a hit (and is LRU-refreshed); absence is
        *not* counted as a miss: the broker's key-only ``/solve``
        answers it ``404 unknown_key`` (the client's resend then counts
        the miss), and its re-check after a spill-tier :meth:`get`
        follows a miss that call already counted."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
                self._hits += 1
            return value

    def put(self, key: CacheKey, value: Dict[str, Any]) -> None:
        """Insert (or refresh) ``key``; may evict the LRU tail.

        Eviction spill files are written after the lock is released.
        """
        with self._lock:
            evicted = self._insert(key, value)
        self._write_spilled_many(evicted)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: CacheKey) -> bool:
        """Membership in the *memory* tier; no counter side effects."""
        with self._lock:
            return key in self._data

    def flush(self, key: CacheKey) -> int:
        """Write ``key``'s memory-tier entry to the spill tier *without*
        evicting it; returns the number of entries submitted to the
        tier, 0 when ``key`` is not in memory (the write may still be
        skipped when the tier is full or the device fails — same
        degradation rules as eviction).  An existing spill file is
        rewritten (the in-memory value is at least as fresh).  A no-op
        without a spill tier.

        The campaign runner (:mod:`repro.experiments.runner`) calls this
        after each completed wave so every finished cell is durable on
        disk immediately — eviction-only spilling would lose the still-
        resident entries on an interrupt, which is exactly when the
        resume path needs them.
        """
        if self._spill_dir is None:
            return 0
        with self._lock:
            value = self._data.get(key)
            entries = [] if value is None else [(key, value)]
        self._write_spilled_many(entries)
        return len(entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _insert(
        self, key: CacheKey, value: Dict[str, Any]
    ) -> "list[tuple[CacheKey, Dict[str, Any]]]":
        """Insert under the caller-held lock; returns the evicted
        entries for the caller to spill *after* releasing it."""
        self._data[key] = value
        self._data.move_to_end(key)
        evicted = []
        while len(self._data) > self._capacity:
            evicted.append(self._data.popitem(last=False))
            self._evictions += 1
        return evicted

    def _spill_path(self, key: CacheKey) -> Path:
        digest = hashlib.sha256("\x00".join(key).encode()).hexdigest()
        assert self._spill_dir is not None
        return self._spill_dir / f"{digest}.json"

    def _write_spilled_many(self, entries) -> None:
        """Write evicted entries to the spill tier (no lock held).

        Each writer gets its own ``mkstemp`` temp file — two threads
        spilling the same key concurrently each publish a *complete*
        file via the atomic replace, never a torn one.
        """
        if self._spill_dir is None:
            return
        for key, value in entries:
            path = self._spill_path(key)
            is_new = not path.exists()
            with self._lock:
                if is_new and self._spill_count >= SPILL_MAX_FILES:
                    continue  # tier full: stop growing, keep serving
            try:
                fd, tmp_name = tempfile.mkstemp(
                    dir=str(self._spill_dir), suffix=".tmp"
                )
            except OSError:
                continue  # spill dir gone/read-only: degrade to no-op
            try:
                text = json.dumps(
                    {
                        "key": list(key),
                        "version": __version__,
                        "value": value,
                    }
                )
                if self.faults.armed:
                    fault = self.faults.maybe("cache.spill_write")
                    if fault is not None:
                        if fault.kind == "spill_corrupt":
                            # A torn write that still got published —
                            # the read side must treat it as a miss.
                            text = text[: len(text) // 2]
                        else:
                            raise InjectedIOError(
                                fault.kind, fault.site
                            )
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp_name, path)
                with self._lock:
                    self._spill_writes += 1
                    if is_new:
                        self._spill_count += 1
            except OSError:
                # A full disk degrades the spill tier to a no-op; the
                # service must keep answering.
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    def _load_spilled(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        if self._spill_dir is None:
            return None
        path = self._spill_path(key)
        try:
            if self.faults.armed:
                fault = self.faults.maybe("cache.spill_read")
                if fault is not None:
                    raise InjectedIOError(fault.kind, fault.site)
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # absent or corrupt: a plain miss
        if data.get("key") != list(key):  # hash collision / tampering
            return None
        if data.get("version") != __version__:
            # A spill written by another package version may predate a
            # solver change: serving it would break the bit-identical-
            # to-a-direct-solve contract.  Re-solve — and reclaim the
            # dead file so upgrades don't leave garbage behind.
            self._unlink_spilled(path)
            return None
        value = data.get("value")
        return value if isinstance(value, dict) else None

    def _unlink_spilled(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        with self._lock:
            self._spill_count = max(0, self._spill_count - 1)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """The memory-tier bound."""
        return self._capacity

    @property
    def has_spill(self) -> bool:
        """Whether a disk tier is configured (``get``/``put`` may then
        touch the filesystem — callers on a latency-sensitive thread
        should offload them, as the service broker does)."""
        return self._spill_dir is not None

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (JSON-compatible) for ``/stats``."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": len(self._data),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "hit_ratio": self._hits / total if total else 0.0,
                "evictions": self._evictions,
                "spill_dir": (
                    str(self._spill_dir)
                    if self._spill_dir is not None
                    else None
                ),
                "spill_writes": self._spill_writes,
                "spill_hits": self._spill_hits,
                "spill_files": self._spill_count,
                "spill_max_files": SPILL_MAX_FILES,
            }
