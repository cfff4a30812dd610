"""String-keyed registry of pipeline stages.

Two registries, one per stage kind: **allotment** strategies (phase 1)
and **phase2** schedulers (list-scheduling priority rules).  Strategies
register themselves with the decorators::

    @register_allotment("jz", summary="LP (9) + critical-point rounding")
    def jz_allotment(instance, *, rho=None, mu=None):
        ...

    @register_phase2("fifo", summary="smallest task id first")
    def fifo(instance, allotment, mu=None):
        ...

and the batch engine / CLI look them up by name (aliases resolve to the
canonical entry).  :func:`list_strategies` is the introspection point
the CLI help, the README table and the conformance test suite are built
from — registering a new strategy automatically enrolls it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "StrategyInfo",
    "UnknownStrategyError",
    "canonical_strategy_pair",
    "get_allotment",
    "get_phase2",
    "list_strategies",
    "register_allotment",
    "register_phase2",
    "strategy_names",
]

ALLOTMENT = "allotment"
PHASE2 = "phase2"
_KINDS = (ALLOTMENT, PHASE2)


class UnknownStrategyError(ValueError):
    """Lookup of a strategy name that is not registered."""


@dataclass(frozen=True)
class StrategyInfo:
    """One registered stage: callable plus discovery metadata."""

    name: str
    kind: str  #: ``"allotment"`` or ``"phase2"``
    fn: Callable
    summary: str = ""
    aliases: Tuple[str, ...] = ()
    #: phase-2 only: True when the rule preserves the allotment stage's
    #: proven approximation bound (the analyzed earliest-start LIST rule
    #: does; ablation priority rules do not, so the pipeline must not
    #: claim a ratio bound for schedules they produce).
    carries_guarantee: bool = False


#: kind -> {name (canonical or alias) -> StrategyInfo}
_REGISTRY: Dict[str, Dict[str, StrategyInfo]] = {k: {} for k in _KINDS}


def _register(
    kind: str,
    name: str,
    fn: Callable,
    summary: str,
    aliases: Sequence[str],
    carries_guarantee: bool = False,
) -> StrategyInfo:
    table = _REGISTRY[kind]
    info = StrategyInfo(
        name=name, kind=kind, fn=fn, summary=summary,
        aliases=tuple(aliases), carries_guarantee=carries_guarantee,
    )
    keys = (name, *info.aliases)
    # Validate every key before inserting any, so a collision cannot
    # leave a half-registered strategy behind.
    for key in keys:
        if key in table:
            raise ValueError(
                f"{kind} strategy {key!r} is already registered "
                f"(by {table[key].name!r})"
            )
    for key in keys:
        table[key] = info
    return info


def register_allotment(
    name: str, *, summary: str = "", aliases: Sequence[str] = ()
) -> Callable[[Callable], Callable]:
    """Decorator: register an :class:`~.base.AllotmentStrategy`."""

    def deco(fn: Callable) -> Callable:
        _register(ALLOTMENT, name, fn, summary, aliases)
        return fn

    return deco


def register_phase2(
    name: str,
    *,
    summary: str = "",
    aliases: Sequence[str] = (),
    carries_guarantee: bool = False,
) -> Callable[[Callable], Callable]:
    """Decorator: register a :class:`~.base.Phase2Scheduler`.

    Pass ``carries_guarantee=True`` only when the rule preserves the
    allotment stage's proven ratio bound (see :class:`StrategyInfo`).
    """

    def deco(fn: Callable) -> Callable:
        _register(PHASE2, name, fn, summary, aliases, carries_guarantee)
        return fn

    return deco


def _lookup(kind: str, name: str) -> StrategyInfo:
    table = _REGISTRY[kind]
    info = table.get(name)
    if info is None:
        known = ", ".join(sorted({i.name for i in table.values()}))
        raise UnknownStrategyError(
            f"unknown {kind} strategy {name!r}; registered: {known}"
        )
    return info


def get_allotment(name: str) -> StrategyInfo:
    """Resolve an allotment strategy (canonical name or alias)."""
    return _lookup(ALLOTMENT, name)


def get_phase2(name: str) -> StrategyInfo:
    """Resolve a phase-2 scheduler (canonical name or alias)."""
    return _lookup(PHASE2, name)


def canonical_strategy_pair(
    algorithm: str, priority: str
) -> Tuple[str, str]:
    """Resolve ``(algorithm, priority)`` to their canonical names.

    Aliases collapse to one spelling, so every consumer that *keys* on
    the pair — batch records, the service result cache, single-flight
    dedup — agrees: ``("greedy", "earliest-start")`` and
    ``("greedy-critical-path", "earliest-start")`` are the same work.
    Raises :class:`UnknownStrategyError` for unregistered names.
    """
    return get_allotment(algorithm).name, get_phase2(priority).name


def list_strategies(kind: Optional[str] = None) -> Tuple[StrategyInfo, ...]:
    """All registered strategies (canonical entries only), sorted by
    (kind, name).  Pass ``kind="allotment"`` or ``"phase2"`` to filter."""
    if kind is not None and kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    kinds = _KINDS if kind is None else (kind,)
    out = []
    for k in kinds:
        seen = set()
        for info in _REGISTRY[k].values():
            if info.name not in seen:
                seen.add(info.name)
                out.append(info)
    return tuple(sorted(out, key=lambda i: (i.kind, i.name)))


def strategy_names(kind: str) -> Tuple[str, ...]:
    """Canonical names of one kind (convenience for CLI help)."""
    return tuple(i.name for i in list_strategies(kind))
