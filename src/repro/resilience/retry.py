"""Client-side retry with exponential backoff, full jitter, and
per-request deadline budgets.

Two small primitives shared by :class:`repro.service.ServiceClient`,
the chaos harness and the benchmarks:

* :class:`Deadline` — a monotonic time budget.  Created once per
  logical request, it caps the *total* time spent across retries and
  is what the client serializes into the ``X-Deadline-Ms`` header so
  the broker can shed work it cannot finish in time (the budget
  travels with the request, shrinking at every hop);
* :class:`RetryPolicy` — attempt bookkeeping: exponential backoff with
  **full jitter** (sleep drawn uniformly from ``[0, min(cap,
  base * 2**attempt)]``, the AWS-style decorrelation that avoids
  retry-storm synchronization across many clients), optionally
  overridden by a server ``Retry-After`` hint, always clamped to the
  remaining deadline.

Jitter randomness is a per-policy ``random.Random`` so tests and chaos
runs can seed it for bit-reproducible retry timing; by default it is
seeded from the system entropy pool like any RNG.
"""

from __future__ import annotations

import random
import time
from typing import Optional

__all__ = ["Deadline", "RetryPolicy"]


class Deadline:
    """A monotonic time budget for one logical request.

    ``Deadline(500)`` expires 500 ms from construction.  ``None``
    milliseconds means *no* deadline: :meth:`remaining_ms` returns
    ``None`` and :meth:`expired` is always ``False``, so callers can
    thread one object through unconditionally.  NaN is rejected (it
    would read as both exhausted and never expiring); ``inf`` is an
    unbounded budget that still reports a remaining time.

    A client creates one per *logical* request: its cache-key probe,
    the planned full-body resend and every retry all spend the same
    budget.
    """

    __slots__ = ("_expires_at", "budget_ms")

    def __init__(self, budget_ms: Optional[float] = None):
        if budget_ms is not None and not budget_ms >= 0:
            raise ValueError(f"budget_ms must be >= 0, got {budget_ms}")
        self.budget_ms = budget_ms
        self._expires_at = (
            None
            if budget_ms is None
            else time.monotonic() + budget_ms / 1000.0
        )

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left (clamped at 0), or ``None`` if unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, (self._expires_at - time.monotonic()) * 1000.0)

    def remaining_s(self) -> Optional[float]:
        """Seconds left (clamped at 0), or ``None`` if unbounded."""
        ms = self.remaining_ms()
        return None if ms is None else ms / 1000.0

    def expired(self) -> bool:
        """True once the budget is exhausted (never, if unbounded)."""
        return (
            self._expires_at is not None
            and time.monotonic() >= self._expires_at
        )

    def __repr__(self) -> str:
        ms = self.remaining_ms()
        return (
            "Deadline(unbounded)"
            if ms is None
            else f"Deadline({ms:.0f}ms remaining)"
        )


class RetryPolicy:
    """Exponential backoff with full jitter under a deadline budget.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (``1`` disables retries).
    base_s:
        Backoff base: attempt ``k``'s sleep is drawn uniformly from
        ``[0, min(cap_s, base_s * 2**k)]``.
    cap_s:
        Upper bound on any single sleep.
    rng:
        Jitter source; pass a seeded ``random.Random`` for
        reproducible chaos runs.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        rng: Optional[random.Random] = None,
    ):
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if base_s < 0 or cap_s < 0:
            raise ValueError("base_s and cap_s must be >= 0")
        self.max_attempts = max_attempts
        self.base_s = base_s
        self.cap_s = cap_s
        self._rng = rng if rng is not None else random.Random()

    def backoff_s(
        self,
        attempt: int,
        retry_after_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> float:
        """The sleep before retry number ``attempt`` (0-based: the
        sleep between the first try and the second has ``attempt=0``).

        A server ``Retry-After`` hint acts as a *floor* (the server
        knows when capacity frees up; sleeping less just earns another
        503), jitter decorrelates beyond it, and the remaining
        deadline budget clamps the result — a client never sleeps past
        its own deadline.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        ceiling = min(self.cap_s, self.base_s * (2.0 ** attempt))
        sleep = self._rng.uniform(0.0, ceiling)
        if retry_after_s is not None and retry_after_s > 0:
            sleep = max(sleep, min(retry_after_s, self.cap_s))
        if deadline is not None:
            remaining = deadline.remaining_s()
            if remaining is not None:
                sleep = min(sleep, remaining)
        return max(0.0, sleep)

    def sleep(
        self,
        attempt: int,
        retry_after_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> float:
        """:meth:`backoff_s` + ``time.sleep``; returns the slept time."""
        duration = self.backoff_s(attempt, retry_after_s, deadline)
        if duration > 0:
            time.sleep(duration)
        return duration

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_s={self.base_s}, cap_s={self.cap_s})"
        )
