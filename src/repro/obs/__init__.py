"""Observability: deterministic tracing, metrics, structured logs.

Three small stdlib-only modules:

- :mod:`repro.obs.trace` — an ambient span tracer (ring buffer,
  Chrome/Perfetto trace-event export) whose disarmed fast path is a
  single module-global read, the same discipline as an unarmed
  :class:`~repro.resilience.faults.FaultClock` seam.
- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms with Prometheus text exposition
  and picklable counter deltas for process-pool aggregation.
- :mod:`repro.obs.log` — structured logging (JSON-lines option) that
  existing ``warnings.warn`` call sites route through, keeping their
  :mod:`warnings` semantics intact.

The tracer records *deterministic work counters* (simplex pivots,
bsearch probes, frontier steps, cache hits, …) alongside wall times,
so a trace doubles as an exact regression artifact the same way
:class:`~repro.resilience.faults.FaultClock` firings do.
"""

from .metrics import (
    REGISTRY,
    MetricsRegistry,
    flatten_counters,
    lint_exposition,
    render_registries,
)
from .trace import Tracer, active, add, install, span, tracing, uninstall

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "Tracer",
    "active",
    "add",
    "flatten_counters",
    "install",
    "lint_exposition",
    "render_registries",
    "span",
    "tracing",
    "uninstall",
]
