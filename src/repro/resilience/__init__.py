"""Resilience layer: deterministic fault injection and the machinery
that survives it.

Two halves, deliberately shipped together so neither can rot:

* the **fault side** — :class:`FaultPlan` / :class:`FaultSpec` /
  :class:`FaultClock` (:mod:`repro.resilience.faults`), a seed-driven,
  bit-reproducible description of worker crashes, slow solves, spill
  I/O errors, socket resets, torn/corrupt payloads and pool hangs,
  injected at the named seams of :data:`SEAMS` — the service broker's
  ``broker.solve`` and ``broker.respond`` and the result cache's
  ``cache.spill_write`` and ``cache.spill_read`` — and exercised
  end-to-end by :func:`run_chaos` (:mod:`repro.resilience.chaos`) and
  ``repro chaos``;
* the **hardening side** — :class:`RetryPolicy` (exponential backoff
  with full jitter) and :class:`Deadline` budgets
  (:mod:`repro.resilience.retry`) used by
  :class:`repro.service.ServiceClient`, and the
  :class:`CircuitBreaker` (:mod:`repro.resilience.breaker`) that lets
  the broker degrade its process pool to in-process solving after
  repeated crash/restart cycles and re-probe its way back.

The contract the chaos suite enforces: under any armed plan, a client
either receives a schedule **bit-identical** to a direct pipeline
solve, or a **typed** error — never silent corruption, never a hang
past its deadline.  See ``docs/resilience.md``.
"""

from .breaker import CircuitBreaker
from .chaos import ChaosReport, drive_chaos, run_chaos
from .faults import (
    FAULT_KINDS,
    SEAMS,
    FaultClock,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    as_clock,
)
from .retry import Deadline, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "SEAMS",
    "ChaosReport",
    "CircuitBreaker",
    "Deadline",
    "FaultClock",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "RetryPolicy",
    "as_clock",
    "drive_chaos",
    "run_chaos",
]
