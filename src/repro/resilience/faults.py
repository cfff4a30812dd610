"""Deterministic, seed-driven fault model for chaos testing.

The resilience layer's first principle is that failure must be
*reproducible*: a chaos run that flakes is worse than no chaos run at
all.  So faults are never drawn from ambient randomness — every
injection decision is a pure function of ``(plan seed, site, invocation
index)``:

* a :class:`FaultSpec` names a fault ``kind`` (see :data:`FAULT_KINDS`),
  the injection ``site`` it arms (a seam that executes that kind, per
  :data:`SEAMS`, like ``"broker.solve"``), and *when* it fires: either
  a ``rate`` in ``[0, 1]`` (hash-based Bernoulli draw per invocation)
  or an explicit ``at`` list of invocation indices (0-based, exact);
* a :class:`FaultPlan` is a seed plus a list of specs — the complete,
  JSON-serializable description of a chaos schedule.  The same plan
  against the same request sequence injects the same faults at the
  same points, byte for byte, on any machine;
* a :class:`FaultClock` is a plan in motion: one monotonic counter per
  site, advanced on every seam consultation.  :meth:`FaultClock.maybe`
  is the whole decision engine.

Faults *raised* at a seam are :class:`InjectedFault` (or its
:class:`InjectedIOError` sibling where the production code catches
``OSError``), so injected failures are always distinguishable from real
bugs in test output and logs.

Example::

    plan = FaultPlan(seed=7, specs=[
        FaultSpec(kind="slow_solve", site="broker.solve", rate=0.05,
                  param={"delay_s": 0.02}),
        FaultSpec(kind="socket_reset", site="broker.respond", at=[2]),
    ])
    clock = FaultClock(plan)
    clock.maybe("broker.respond")   # invocation 0 -> None
    clock.maybe("broker.respond")   # invocation 1 -> None
    clock.maybe("broker.respond").kind   # invocation 2 -> 'socket_reset'
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "FAULT_KINDS",
    "SEAMS",
    "FaultClock",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "as_clock",
]

#: Every fault kind and the seam sites that execute it — the one table
#: behind :data:`FAULT_KINDS`, spec validation and
#: :meth:`FaultPlan.uniform` (whose spec order is this table's):
#:
#: ``worker_crash``   — broker.solve: kill a live pool worker process
#:                      (exercising pool replacement + retry) or, with
#:                      no pool, fail the solve with a typed error;
#: ``slow_solve``     — broker.solve: stall the solve by
#:                      ``param["delay_s"]`` seconds (deadline budgets
#:                      and hedging are what this exercises);
#: ``pool_hang``      — broker.solve: a longer stall (``param["hang_s"]``)
#:                      standing in for a wedged pool — the deadline
#:                      shed path must answer, not wait forever;
#: ``solve_error``    — broker.solve: raise :class:`InjectedFault`
#:                      inside the solve (a typed 500, never a silent
#:                      wrong answer);
#: ``spill_io_error`` — cache.spill_write / cache.spill_read: raise
#:                      :class:`InjectedIOError` inside the disk tier
#:                      (must degrade to no-op/miss);
#: ``spill_corrupt``  — cache.spill_write: truncate the spill file's
#:                      JSON mid-payload (the read side must treat it
#:                      as a miss, never serve garbage);
#: ``socket_reset``   — broker.respond: abort the TCP connection
#:                      instead of answering;
#: ``torn_payload``   — broker.respond: send the response head plus
#:                      half the body, then abort;
#: ``corrupt_payload``— broker.respond: flip bytes inside the JSON body
#:                      (framing intact — only the integrity digest
#:                      makes this detectable).
SEAMS: Dict[str, Tuple[str, ...]] = {
    "worker_crash": ("broker.solve",),
    "slow_solve": ("broker.solve",),
    "pool_hang": ("broker.solve",),
    "solve_error": ("broker.solve",),
    "spill_io_error": ("cache.spill_write", "cache.spill_read"),
    "spill_corrupt": ("cache.spill_write",),
    "socket_reset": ("broker.respond",),
    "torn_payload": ("broker.respond",),
    "corrupt_payload": ("broker.respond",),
}

#: The fault kinds, in :data:`SEAMS` order.
FAULT_KINDS = tuple(SEAMS)


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never a real bug).

    ``kind`` and ``site`` name the spec that fired; the message is
    prefixed ``injected:`` so it is unmistakable in logs, tracebacks
    and error payloads.
    """

    def __init__(self, kind: str, site: str):
        super().__init__(f"injected: {kind} at {site}")
        self.kind = kind
        self.site = site


class InjectedIOError(OSError):
    """An injected fault for seams whose production code catches
    ``OSError`` (the cache's spill tier) — inherits ``OSError`` so the
    existing degradation paths handle it, while the type name keeps it
    distinguishable from a genuinely failing disk."""

    def __init__(self, kind: str, site: str):
        super().__init__(f"injected: {kind} at {site}")
        self.kind = kind
        self.site = site


def _is_integer(value: Any) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (``True`` is an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A JSON number: ``int`` or ``float`` but not ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what to inject, where, and when.

    ``site`` must be a seam that executes ``kind`` (:data:`SEAMS`): a
    spec no seam would run is refused instead of tallied as fired.
    Exactly one of ``rate`` / ``at`` decides *when*:

    ``rate``
        Probability per seam invocation, decided by a seeded hash draw
        (:meth:`fires_at`) — deterministic for a given plan seed, site
        and invocation index, with no shared RNG state between sites.
    ``at``
        Explicit 0-based invocation indices (exact, for targeted
        tests: "fail the third spill write").

    ``max_fires`` optionally caps total firings; ``param`` carries
    kind-specific knobs (``delay_s``, ``hang_s``, ...).
    """

    kind: str
    site: str
    rate: Optional[float] = None
    at: Optional[Tuple[int, ...]] = None
    max_fires: Optional[int] = None
    param: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if (self.rate is None) == (self.at is None):
            raise ValueError(
                f"spec {self.kind}@{self.site}: give exactly one of "
                "'rate' or 'at'"
            )
        if self.rate is not None:
            if not _is_number(self.rate):
                raise ValueError(
                    f"rate must be a number, got {self.rate!r}"
                )
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(
                    f"rate must be in [0, 1], got {self.rate}"
                )
        if self.at is not None:
            if not isinstance(self.at, (list, tuple)) or not all(
                _is_integer(i) for i in self.at
            ):
                raise ValueError(
                    f"'at' must be an array of integers, got {self.at!r}"
                )
            object.__setattr__(self, "at", tuple(self.at))
            if any(i < 0 for i in self.at):
                raise ValueError("'at' indices must be >= 0")
        if self.max_fires is not None:
            if not _is_integer(self.max_fires):
                raise ValueError(
                    f"max_fires must be an integer, got {self.max_fires!r}"
                )
            if self.max_fires < 1:
                raise ValueError(
                    f"max_fires must be >= 1, got {self.max_fires}"
                )
        if not isinstance(self.param, dict):
            raise ValueError(
                f"'param' must be an object, got {self.param!r}"
            )
        object.__setattr__(self, "param", dict(self.param))
        if self.site not in SEAMS[self.kind]:
            raise ValueError(
                f"no seam executes {self.kind} at {self.site!r}; its "
                f"sites: {', '.join(SEAMS[self.kind])}"
            )

    def fires_at(self, seed: int, index: int) -> bool:
        """Whether this spec fires on seam invocation ``index`` under
        ``seed`` — a pure function, no state, no ambient RNG."""
        if self.at is not None:
            return index in self.at
        if self.rate == 0.0:
            return False
        if self.rate == 1.0:
            return True
        digest = hashlib.sha256(
            f"{seed}|{self.site}|{self.kind}|{index}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        assert self.rate is not None
        return draw < self.rate

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"kind": self.kind, "site": self.site}
        if self.rate is not None:
            d["rate"] = self.rate
        if self.at is not None:
            d["at"] = list(self.at)
        if self.max_fires is not None:
            d["max_fires"] = self.max_fires
        if self.param:
            d["param"] = dict(self.param)
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ValueError(
                f"a fault spec must be a JSON object, got {data!r}"
            )
        unknown = set(data) - {"kind", "site", "rate", "at", "max_fires",
                               "param"}
        if unknown:
            raise ValueError(
                f"unknown FaultSpec field(s): {sorted(unknown)}"
            )
        for name in ("kind", "site"):
            if not isinstance(data.get(name), str):
                raise ValueError(
                    f"a fault spec needs a string {name!r}, got "
                    f"{data.get(name)!r}"
                )
        return cls(
            kind=data["kind"],
            site=data["site"],
            rate=data.get("rate"),
            at=data.get("at"),
            max_fires=data.get("max_fires"),
            param=data.get("param", {}),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus a list of :class:`FaultSpec` — the complete chaos
    schedule, JSON round-trippable (``repro chaos --plan plan.json``
    and ``repro serve --fault-plan plan.json`` both load this shape).
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def sites(self) -> Tuple[str, ...]:
        """The distinct seam names this plan arms (sorted)."""
        return tuple(sorted({s.site for s in self.specs}))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-fault-plan",
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.specs],
        }

    def dump(self, path: Union[str, Path]) -> None:
        """Write the plan as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        fmt = data.get("format", "repro-fault-plan")
        if fmt != "repro-fault-plan":
            raise ValueError(f"not a fault plan (format={fmt!r})")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError("'faults' must be an array")
        seed = data.get("seed", 0)
        if not _is_integer(seed):
            raise ValueError(f"'seed' must be an integer, got {seed!r}")
        return cls(
            seed=seed,
            specs=tuple(FaultSpec.from_dict(f) for f in faults),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan back from JSON (inverse of :meth:`dump`)."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def uniform(
        cls,
        rate: float,
        *,
        seed: int = 0,
        sites: Optional[Sequence[str]] = None,
        delay_s: float = 0.01,
        hang_s: float = 0.25,
    ) -> "FaultPlan":
        """The standard chaos mix: every fault kind armed at ``rate``
        on each of its seams, in :data:`SEAMS` order.  This is what
        ``repro chaos --rate`` and the committed ``BENCH_chaos.json``
        run; ``sites`` optionally restricts the mix to a subset of
        seams.
        """
        param = {
            "slow_solve": {"delay_s": delay_s},
            "pool_hang": {"hang_s": hang_s},
        }
        specs = [
            FaultSpec(kind, site, rate=rate, param=dict(param.get(kind, {})))
            for kind, kind_sites in SEAMS.items()
            for site in kind_sites
        ]
        if sites is not None:
            allowed = set(sites)
            specs = [s for s in specs if s.site in allowed]
        return cls(seed=seed, specs=tuple(specs))


class FaultClock:
    """A :class:`FaultPlan` in motion: per-site invocation counters.

    Each call to :meth:`maybe` advances the named site's counter by
    exactly one and returns the first armed spec that fires there (or
    ``None``).  Counters are process-local and lock-protected — seams
    are consulted from the broker's solve threads, the cache's callers
    and the asyncio loop alike.

    Statistics (`fired`, per ``(site, kind)``) feed the daemon's
    ``/stats`` payload and the chaos report, so a chaos run can prove
    not just "nothing broke" but "the faults actually happened".
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._fires: Dict[Tuple[str, str], int] = {}
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in self.plan.specs:
            self._by_site.setdefault(spec.site, []).append(spec)

    @property
    def armed(self) -> bool:
        """False for the empty plan — seams short-circuit on this, so
        an un-chaosed daemon pays one attribute read per seam."""
        return bool(self._by_site)

    def maybe(self, site: str) -> Optional[FaultSpec]:
        """Advance ``site``'s counter; return the spec that fires on
        this invocation, or ``None``.  The first listed spec to fire
        wins (plan order is priority order)."""
        if not self._by_site:
            return None
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
            for spec in self._by_site.get(site, ()):
                key = (site, spec.kind)
                if (
                    spec.max_fires is not None
                    and self._fires.get(key, 0) >= spec.max_fires
                ):
                    continue
                if spec.fires_at(self.plan.seed, index):
                    self._fires[key] = self._fires.get(key, 0) + 1
                    return spec
        return None

    def fired(self) -> Dict[str, int]:
        """``{"site:kind": count}`` of everything injected so far."""
        with self._lock:
            return {
                f"{site}:{kind}": n
                for (site, kind), n in sorted(self._fires.items())
            }

    def fired_pairs(self) -> Dict[Tuple[str, str], int]:
        """``{(site, kind): count}`` of everything injected so far —
        the structured form behind :meth:`fired`, consumed by the
        metrics collector that exposes ``repro_faults_fired_total``."""
        with self._lock:
            return dict(sorted(self._fires.items()))

    def total_fired(self) -> int:
        """Total number of injected faults so far."""
        with self._lock:
            return sum(self._fires.values())

    def invocations(self) -> Dict[str, int]:
        """Per-site seam consultation counts (fired or not)."""
        with self._lock:
            return dict(self._counters)

    def reset(self) -> None:
        """Rewind every counter to zero (a fresh replay of the plan)."""
        with self._lock:
            self._counters.clear()
            self._fires.clear()


def as_clock(
    faults: Union[FaultClock, FaultPlan, Dict[str, Any], None],
) -> FaultClock:
    """Coerce the broker/cache ``faults`` argument to a live clock:
    an existing clock is shared (broker and its cache count on the same
    counters), a plan or plan dict gets a fresh clock, ``None`` an
    unarmed one."""
    if faults is None:
        return FaultClock()
    if isinstance(faults, FaultClock):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultClock(faults)
    if isinstance(faults, dict):
        return FaultClock(FaultPlan.from_dict(faults))
    raise TypeError(
        "faults must be a FaultClock, FaultPlan, plan dict or None, "
        f"got {type(faults).__name__}"
    )
