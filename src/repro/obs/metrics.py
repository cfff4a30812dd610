"""A process-wide metrics registry: counters and histograms, plus
scrape-time collectors (every gauge comes from one).

Stdlib-only, modelled on the Prometheus client data model but much
smaller: a :class:`MetricsRegistry` owns named *families*; a family
with label names hands out per-label-value children via
:meth:`_Family.labels`; an unlabeled family is its own child.  All
mutation goes through one registry lock — increments happen at
per-solve granularity (never per-pivot), so contention is irrelevant.

Two registries matter in practice:

- the module-level :data:`REGISTRY` is the process-wide default used
  by solver-core instrumentation (pivot counters, frontier steps,
  client retries).  Pool workers inherit it on fork; the batch engine
  snapshots it around each chunk and ships the *delta* back through
  the pool (see :meth:`MetricsRegistry.counter_state` /
  :meth:`merge_counter_state`), so parent totals equal the sum of
  worker deltas exactly.
- each :class:`~repro.service.broker.SolverService` builds its own
  registry for request-level counters so concurrent services in one
  process (common in tests) do not share counts.  ``GET /metrics``
  renders both (:func:`render_registries`).

Exposition is the Prometheus text format, and
:func:`lint_exposition` is the conformance check CI runs against a
live scrape (name/label/type lint, histogram invariants).
"""

from __future__ import annotations

import math
import re
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "REGISTRY",
    "DEFAULT_TIME_BUCKETS",
    "MetricsRegistry",
    "flatten_counters",
    "lint_exposition",
    "render_registries",
]

# Fixed latency buckets (seconds) shared by every *_seconds histogram.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# (family name, ((label, value), ...)) -> count; picklable, order-free.
CounterState = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]

# A collector yields virtual families at scrape time:
# (name, type, help, [(labels dict, value), ...]).
CollectorSample = Tuple[str, str, str, List[Tuple[Dict[str, str], float]]]
Collector = Callable[[], Iterable[CollectorSample]]


def _fmt_value(v: float) -> str:
    if isinstance(v, bool):  # guard: bools are ints
        v = int(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    return str(v)


def _fmt_le(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


class _Child:
    __slots__ = ("_family", "_key")

    def __init__(self, family: "_Family", key: Tuple[str, ...]):
        self._family = family
        self._key = key


class _CounterChild(_Child):
    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        fam = self._family
        with fam._lock:
            fam._values[self._key] = fam._values.get(self._key, 0.0) + amount

    @property
    def value(self) -> float:
        fam = self._family
        with fam._lock:
            return fam._values.get(self._key, 0.0)


class _HistogramChild(_Child):
    def observe(self, value: float) -> None:
        fam = self._family
        with fam._lock:
            counts, stats = fam._hist_cell(self._key)
            for i, bound in enumerate(fam.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1  # +Inf bucket
            stats[0] += 1
            stats[1] += value

    @property
    def count(self) -> int:
        fam = self._family
        with fam._lock:
            return int(fam._hist_cell(self._key)[1][0])

    @property
    def sum(self) -> float:
        fam = self._family
        with fam._lock:
            return fam._hist_cell(self._key)[1][1]


_CHILD_TYPES = {
    "counter": _CounterChild,
    "histogram": _HistogramChild,
}


class _Family:
    """One named metric family; children are keyed by label values."""

    def __init__(
        self,
        name: str,
        mtype: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for ln in labelnames:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        if mtype == "counter" and not name.endswith("_total"):
            raise ValueError(
                f"counter {name!r} must end in '_total' (prometheus "
                "naming convention, enforced so the lint stays clean)"
            )
        self.name = name
        self.mtype = mtype
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        # counter: key -> float
        self._values: Dict[Tuple[str, ...], float] = {}
        # histogram: key -> (bucket counts incl. +Inf, [count, sum])
        self._hists: Dict[
            Tuple[str, ...], Tuple[List[int], List[float]]
        ] = {}
        if mtype == "histogram":
            bs = tuple(buckets if buckets is not None else DEFAULT_TIME_BUCKETS)
            if list(bs) != sorted(bs) or len(set(bs)) != len(bs):
                raise ValueError("histogram buckets must be sorted, unique")
            self.buckets = bs + ((math.inf,) if bs[-1] != math.inf else ())
        else:
            self.buckets = ()
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def _hist_cell(self, key: Tuple[str, ...]):
        cell = self._hists.get(key)
        if cell is None:
            cell = ([0] * len(self.buckets), [0, 0.0])
            self._hists[key] = cell
        return cell

    def labels(self, *values: object) -> _Child:
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"values, got {len(key)}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _CHILD_TYPES[self.mtype](self, key)
                self._children[key] = child
                if self.mtype == "counter":
                    self._values.setdefault(key, 0.0)
                else:
                    self._hist_cell(key)
            return child

    # Unlabeled families act as their own (single) child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self.labels().observe(value)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        return self.labels().value  # type: ignore[attr-defined]

    def items(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())

    def values_by_labels(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)


class MetricsRegistry:
    """A thread-safe set of metric families plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Collector] = []

    # -- family constructors (idempotent: same name returns same family)

    def _family(
        self,
        name: str,
        mtype: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.mtype != mtype or fam.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} re-registered with a different "
                        f"type or label set"
                    )
                if help and not fam.help:
                    fam.help = help
                return fam
            fam = _Family(
                name, mtype, help, tuple(labelnames),
                tuple(buckets) if buckets is not None else None,
            )
            self._families[name] = fam
            return fam

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, "counter", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        return self._family(name, "histogram", help, labelnames, buckets)

    def register_collector(self, fn: Collector) -> Collector:
        """Register a scrape-time callable producing virtual families
        (used to surface externally-owned state — cache stats, fault
        tallies — without double bookkeeping).  Returns ``fn``."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)
        return fn

    # -- worker-delta plumbing -------------------------------------

    def counter_state(self) -> CounterState:
        """Picklable snapshot of every counter child's value."""
        out: CounterState = {}
        with self._lock:
            fams = [f for f in self._families.values() if f.mtype == "counter"]
        for fam in fams:
            for key, value in fam.items():
                out[(fam.name, tuple(zip(fam.labelnames, key)))] = value
        return out

    def counters_since(self, before: CounterState) -> CounterState:
        """Delta of counter values accumulated since ``before``."""
        now = self.counter_state()
        delta: CounterState = {}
        for key, value in now.items():
            gained = value - before.get(key, 0.0)
            if gained:
                delta[key] = gained
        return delta

    def merge_counter_state(self, delta: CounterState) -> None:
        """Fold a worker's counter delta into this registry, creating
        families as needed (a fork-start pool worker may have touched
        a family the parent never did)."""
        for (name, labelpairs), gained in sorted(delta.items()):
            if gained <= 0:
                continue
            labelnames = tuple(k for k, _ in labelpairs)
            fam = self.counter(name, labelnames=labelnames)
            fam.labels(*(v for _, v in labelpairs)).inc(gained)

    def family_values(self, name: str) -> Dict[Tuple[str, ...], float]:
        """Label-values tuple -> value for one family (empty if absent,
        collectors included)."""
        with self._lock:
            fam = self._families.get(name)
            collectors = list(self._collectors)
        if fam is not None:
            return fam.values_by_labels()
        for coll in collectors:
            for cname, _mtype, _help, samples in coll():
                if cname == name:
                    return {
                        tuple(str(v) for v in labels.values()): value
                        for labels, value in samples
                    }
        return {}

    # -- exposition ------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition format (families sorted by name,
        collectors appended)."""
        lines: List[str] = []
        with self._lock:
            fams = sorted(self._families.values(), key=lambda f: f.name)
            collectors = list(self._collectors)
        for fam in fams:
            if fam.help:
                lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
            lines.append(f"# TYPE {fam.name} {fam.mtype}")
            if fam.mtype == "counter":
                for key, value in fam.items():
                    pairs = tuple(zip(fam.labelnames, key))
                    lines.append(
                        f"{fam.name}{_label_str(pairs)} {_fmt_value(value)}"
                    )
            else:
                with fam._lock:
                    cells = sorted(fam._hists.items())
                for key, (counts, stats) in cells:
                    pairs = tuple(zip(fam.labelnames, key))
                    cum = 0
                    for bound, n in zip(fam.buckets, counts):
                        cum += n
                        bpairs = pairs + (("le", _fmt_le(bound)),)
                        lines.append(
                            f"{fam.name}_bucket{_label_str(bpairs)} {cum}"
                        )
                    lines.append(
                        f"{fam.name}_sum{_label_str(pairs)} "
                        f"{_fmt_value(stats[1])}"
                    )
                    lines.append(
                        f"{fam.name}_count{_label_str(pairs)} "
                        f"{int(stats[0])}"
                    )
        for coll in collectors:
            for name, mtype, help, samples in coll():
                if not _NAME_RE.match(name):
                    raise ValueError(f"collector produced bad name {name!r}")
                if help:
                    lines.append(f"# HELP {name} {_escape_help(help)}")
                lines.append(f"# TYPE {name} {mtype}")
                for labels, value in samples:
                    pairs = tuple(labels.items())
                    lines.append(
                        f"{name}{_label_str(pairs)} {_fmt_value(value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


def flatten_counters(state: CounterState) -> Dict[str, float]:
    """Human/JSON form of a counter state: ``name{k="v"}`` -> value,
    values integral where possible (used for the ``metrics`` block in
    batch summaries)."""
    out: Dict[str, float] = {}
    for (name, labelpairs), value in sorted(state.items()):
        key = f"{name}{_label_str(labelpairs)}"
        out[key] = int(value) if value == int(value) else value
    return out


def render_registries(*registries: MetricsRegistry) -> str:
    """Concatenate several registries' exposition (family names must
    not collide across them — enforced, since duplicate TYPE lines are
    a conformance error)."""
    seen: set = set()
    parts: List[str] = []
    for reg in registries:
        text = reg.render()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                name = line.split()[2]
                if name in seen:
                    raise ValueError(
                        f"metric family {name!r} exposed by more than one "
                        "registry"
                    )
                seen.add(name)
        parts.append(text)
    return "".join(parts)


def lint_exposition(text: str) -> List[str]:
    """Validate Prometheus text-format conformance; returns a list of
    problems (empty means clean).  Checks: metric/label name syntax,
    every sample preceded by a TYPE for its family, no duplicate TYPE
    lines, counters end in ``_total``, histogram bucket counts are
    cumulative-monotone and the ``+Inf`` bucket equals ``_count``."""
    problems: List[str] = []
    types: Dict[str, str] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$"
    )
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name, mtype = parts[2], parts[3]
            if not _NAME_RE.match(name):
                problems.append(f"line {lineno}: bad metric name {name!r}")
            if mtype not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(f"line {lineno}: bad metric type {mtype!r}")
            if name in types:
                problems.append(f"line {lineno}: duplicate TYPE for {name!r}")
            types[name] = mtype
            if mtype == "counter" and not name.endswith("_total"):
                problems.append(
                    f"line {lineno}: counter {name!r} should end in _total"
                )
            continue
        if line.startswith("#"):
            problems.append(f"line {lineno}: unknown comment {line[:30]!r}")
            continue
        m = sample_re.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample {line[:60]!r}")
            continue
        name, _, labelbody, value = m.groups()
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and types.get(stripped) == "histogram":
                base = stripped
                break
        if base not in types:
            problems.append(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
            continue
        try:
            fval = float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            problems.append(f"line {lineno}: bad sample value {value!r}")
            continue
        labels: Dict[str, str] = {}
        if labelbody:
            consumed = label_re.findall(labelbody)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in consumed)
            if rebuilt != labelbody:
                problems.append(
                    f"line {lineno}: malformed label body {labelbody!r}"
                )
            labels = dict(consumed)
        if types.get(base) == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                problems.append(f"line {lineno}: bucket without le label")
            else:
                le = float(
                    labels["le"].replace("+Inf", "inf")
                )
                series = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                    if k != "le"
                )
                buckets.setdefault(base + "|" + series, []).append((le, fval))
        if types.get(base) == "histogram" and name.endswith("_count"):
            series = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            counts[base + "|" + series] = fval
    for key, series in buckets.items():
        values = [v for _, v in series]
        if values != sorted(values):
            problems.append(f"histogram {key}: bucket counts not cumulative")
        les = [le for le, _ in series]
        if les != sorted(les):
            problems.append(f"histogram {key}: le bounds out of order")
        if not les or not math.isinf(les[-1]):
            problems.append(f"histogram {key}: missing +Inf bucket")
        elif key in counts and counts[key] != values[-1]:
            problems.append(
                f"histogram {key}: +Inf bucket != _count "
                f"({values[-1]} vs {counts[key]})"
            )
    return problems


#: The process-wide default registry (solver-core instrumentation).
REGISTRY = MetricsRegistry()
