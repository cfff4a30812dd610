"""Synchronous client for the scheduling daemon.

A thin stdlib (``http.client``) wrapper over the broker's wire
protocol; used by the test suite, the CI smoke job, the chaos harness
and the ``benchmarks/bench_service.py`` load generator.  One client
holds one keep-alive connection — use one client per thread (they are
cheap), as ``http.client`` connections are not thread-safe.

    from repro.service import ServiceClient

    with ServiceClient(port=8705) as c:
        reply = c.solve(instance, algorithm="jz")
        reply["makespan"], reply["cached"], reply["schedule"]

:meth:`ServiceClient.solve` is **key-first**: it computes the
instance's content key itself (from the arrays, never from a dict's
embedded ``fingerprint`` claim) and sends only ``{"key": ...}``.  A
daemon holding the result in memory answers it; otherwise it answers
``404 unknown_key`` and the client resends the full instance within the
same logical request.  A dict that cannot be keyed is sent whole, and
the daemon's full parse says what is wrong with it.  This needs a
daemon of the same version or later (``health()`` reports it): an
older one answers a key-only body ``400``.

Resilience (``docs/resilience.md`` has the full story):

* **Retry** — transient failures (a dead connection, a torn response,
  a ``503 overloaded``, an injected fault, a corrupt payload caught by
  the integrity digest) are retried under a
  :class:`repro.resilience.RetryPolicy` (exponential backoff, full
  jitter, server ``Retry-After`` honored as a floor).  Retries are
  **idempotency-aware**: solve/evolve/replan/stats/healthz are
  idempotent by construction (solves are content-keyed — re-sending
  one is a cache hit, never a double solve) and retried freely;
  ``shutdown`` is not and is never retried.
* **Deadline** — ``deadline_ms`` caps the *total* time of one logical
  request across all its attempts (a key-first solve's probe and
  resend included), and each attempt tells the broker how much budget
  is left via the ``X-Deadline-Ms`` header so the server sheds work it
  cannot finish in time instead of answering late.
* **Integrity** — every daemon response carries ``X-Repro-Digest``
  (SHA-256 of the body); the client verifies it, so a corrupted or
  torn payload is a retryable error, never a silently wrong schedule.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.instance import Instance
from ..io import content_key_from_dict, instance_to_dict
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from ..resilience import Deadline, RetryPolicy
from .broker import DEFAULT_HOST, DEFAULT_PORT

__all__ = ["ServiceClient", "ServiceError", "ServiceResponse"]

_REQUESTS = _METRICS.counter(
    "repro_client_requests_total",
    "Logical client requests completed, by endpoint path",
    ("path",),
)
_RETRIES = _METRICS.counter(
    "repro_client_retries_total",
    "Extra attempts spent retrying transient failures",
)
_LATENCY = _METRICS.histogram(
    "repro_client_request_seconds",
    "Logical request latency (all attempts and backoff included)",
)

#: Typed error codes worth another attempt: the daemon is overloaded
#: (explicitly told us when to come back), mid-shutdown (a fresh daemon
#: may be seconds away), lost a pool worker mid-solve (the broker has
#: already replaced the pool), hit an injected chaos fault, or served
#: bytes that failed the integrity check.  Notably absent: the 4xx
#: family (the request itself is bad) and ``deadline_exceeded`` (the
#: budget that expired is ours — there is no time left to retry in).
RETRYABLE_CODES = frozenset(
    {"overloaded", "shutting_down", "pool_failure", "injected_fault",
     "corrupt_payload", "bad_response"}
)


class ServiceError(RuntimeError):
    """A non-2xx (or integrity-failing) reply from the daemon.

    ``http_status`` holds the HTTP code, ``payload`` the decoded error
    body (``{"status": "error", "code": ..., "error": ...}``), and
    :attr:`code` the machine-readable error code the broker typed the
    failure with (``None`` for pre-typed or foreign servers).
    """

    def __init__(self, http_status: int, payload: Dict[str, Any]):
        self.http_status = http_status
        self.payload = payload
        message = payload.get("error", "unknown service error")
        code = payload.get("code")
        tag = f" {code}" if isinstance(code, str) else ""
        super().__init__(f"[HTTP {http_status}{tag}] {message}")

    @property
    def code(self) -> Optional[str]:
        """The typed error code (``"overloaded"``,
        ``"deadline_exceeded"``, ...), or ``None``."""
        code = self.payload.get("code")
        return code if isinstance(code, str) else None


class ServiceResponse(dict):
    """A decoded daemon payload plus per-request transport metadata.

    Behaves exactly like the plain dict earlier versions returned
    (same keys, same JSON serialization) — the metadata rides on
    attributes, not keys:

    ``attempts``
        How many attempts the logical request used: 1 plus its
        transient retries (a key-first solve's planned resend of the
        instance is not a retry).
    ``latency_s``
        Wall time of the whole logical request, backoff included.
    """

    attempts: int = 0
    latency_s: float = 0.0


class ServiceClient:
    """Blocking client over one keep-alive connection.

    Parameters
    ----------
    host, port:
        The daemon's address.
    timeout:
        Socket-level timeout per attempt (seconds).
    retry:
        The :class:`repro.resilience.RetryPolicy` for transient
        failures; ``None`` uses the default (3 attempts, 50 ms base,
        2 s cap).  ``RetryPolicy(max_attempts=1)`` disables retries.
    deadline_ms:
        Default total time budget per logical request (all attempts +
        backoff), propagated to the broker via ``X-Deadline-Ms``.
        ``None`` (default) means unbounded; a negative or NaN budget
        raises ``ValueError`` here.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        Deadline(deadline_ms)  # rejects a bad budget now, not per request
        self.deadline_ms = deadline_ms
        #: Attempts the most recent request used (1 = no retries).
        self.last_attempts = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def solve(
        self,
        instance: Union[Instance, Dict[str, Any]],
        algorithm: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Solve ``instance`` (an :class:`Instance` or an instance
        dict) under the given strategy pair; returns the daemon's solve
        payload (schedule dict, makespan, certified lower bound,
        ``cached``/``deduped`` flags).  Idempotent — the daemon keys
        solves by content, so a retried send lands on the cache line
        the first send populated.

        Key-first: the request sends the content key only, and resends
        the whole instance only when the daemon answers
        ``404 unknown_key`` (not in its memory tier).  Probe and resend
        are one logical request: one deadline budget, one attempt count
        (``attempts`` counts retries, not the resend), one observation
        in ``repro_client_*``; each of the two exchanges is retried under
        the client's policy like any request.  An instance that cannot
        be keyed is sent whole at once."""
        fields: Dict[str, Any] = {}
        if algorithm is not None:
            fields["algorithm"] = algorithm
        if priority is not None:
            fields["priority"] = priority
        try:
            key = (
                instance.content_key()
                if isinstance(instance, Instance)
                else content_key_from_dict(instance)
            )
        except Exception:
            key = None  # the daemon's full parse reports what is wrong
        deadline, t0 = self._begin()
        max_attempts = self.retry.max_attempts
        if key is not None:
            try:
                reply = self._exchange(
                    "POST", "/solve", {"key": key, **fields}, deadline,
                    max_attempts,
                )
            except ServiceError as exc:
                if exc.code != "unknown_key":
                    raise
            else:
                return self._finish("/solve", reply, t0)
        body = {
            "instance": (
                instance_to_dict(instance)
                if isinstance(instance, Instance)
                else instance
            ),
            **fields,
        }
        reply = self._exchange("POST", "/solve", body, deadline, max_attempts)
        return self._finish("/solve", reply, t0)

    def evolve(
        self,
        instance: Union[Instance, Dict[str, Any]],
        operations: List[Dict[str, Any]],
        name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Apply an operation list to ``instance`` on the daemon
        (``POST /evolve``); returns the evolved instance dict, its
        fingerprint and the structured delta.  Nothing is solved (a
        pure function of the request — idempotent).  See
        :func:`repro.core.evolve.apply_operations` for the operation
        format."""
        body: Dict[str, Any] = {
            "instance": (
                instance_to_dict(instance)
                if isinstance(instance, Instance)
                else instance
            ),
            "operations": list(operations),
        }
        if name is not None:
            body["name"] = name
        return self._request("POST", "/evolve", body)

    def replan(
        self,
        instance: Union[Instance, Dict[str, Any]],
        operations: List[Dict[str, Any]],
        algorithm: Optional[str] = None,
        priority: Optional[str] = None,
        anchored: bool = False,
    ) -> Dict[str, Any]:
        """Evolve ``instance`` and re-solve it (``POST /replan``).

        Returns the child's solve payload extended with ``delta``
        (the evolution diff), ``disturbance`` (moved/resized/added/
        removed tasks vs the parent's schedule) and ``parent`` (the
        parent solve's key numbers).  With ``anchored=True`` the
        returned schedule is the disturbance-minimizing anchored one
        (completed tasks frozen at their recorded starts) instead of
        the free re-solve's.  Idempotent: both solves are content-keyed.
        """
        body: Dict[str, Any] = {
            "instance": (
                instance_to_dict(instance)
                if isinstance(instance, Instance)
                else instance
            ),
            "operations": list(operations),
        }
        if algorithm is not None:
            body["algorithm"] = algorithm
        if priority is not None:
            body["priority"] = priority
        if anchored:
            body["anchored"] = True
        return self._request("POST", "/replan", body)

    def stats(self) -> Dict[str, Any]:
        """The daemon's counter snapshot (``GET /stats``)."""
        return self._request("GET", "/stats")

    def health(self) -> Dict[str, Any]:
        """Liveness probe (``GET /healthz``)."""
        return self._request("GET", "/healthz")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop (``POST /shutdown``).  Never retried:
        a retried shutdown could stop a daemon that already acknowledged
        the first one to someone else."""
        return self._request("POST", "/shutdown", idempotent=False)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        idempotent: bool = True,
    ) -> Dict[str, Any]:
        deadline, t0 = self._begin()
        max_attempts = self.retry.max_attempts if idempotent else 1
        reply = self._exchange(method, path, body, deadline, max_attempts)
        return self._finish(path, reply, t0)

    def _begin(self) -> Tuple[Deadline, float]:
        """Start a logical request: its deadline budget and start time;
        ``last_attempts`` restarts at the first attempt."""
        self.last_attempts = 1
        return Deadline(self.deadline_ms), time.perf_counter()

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        deadline: Deadline,
        max_attempts: int,
    ) -> Dict[str, Any]:
        """One request/response of the current logical request, tried up
        to ``max_attempts`` times through transient failures; raises
        :class:`ServiceError` on a non-transient reply or once the tries
        run out.  ``deadline`` belongs to the logical request, and
        ``last_attempts`` counts its retries across all its exchanges."""
        payload = None if body is None else json.dumps(body).encode()
        tries = 0
        while True:
            tries += 1
            headers = {"Content-Type": "application/json"}
            remaining = deadline.remaining_ms()
            if remaining is not None:
                # Tell the broker how much budget this attempt has left
                # so it sheds (504) instead of answering late.
                headers["X-Deadline-Ms"] = f"{remaining:.1f}"
            failure: BaseException
            retry_after: Optional[float] = None
            try:
                conn = self._connection()
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except (
                ConnectionError, http.client.HTTPException, OSError
            ) as exc:
                # Dead/reset/torn connection: drop it; retry decides.
                self.close()
                failure = exc
            else:
                retry_after = self._parse_retry_after(
                    resp.getheader("Retry-After")
                )
                outcome = self._classify(resp.status, resp.headers, raw)
                if not isinstance(outcome, ServiceError):
                    return outcome
                if (
                    outcome.code is not None
                    and outcome.code not in RETRYABLE_CODES
                ) or (outcome.code is None and outcome.http_status < 500):
                    raise outcome  # typed non-transient: retry is futile
                failure = outcome
            if tries >= max_attempts or deadline.expired():
                if isinstance(failure, ServiceError):
                    raise failure
                # Exhausted retries on transport failures still fail
                # *typed* — callers get one exception type with a code
                # (http_status 0: no HTTP response was ever received).
                raise ServiceError(
                    0,
                    {
                        "status": "error",
                        "code": "connection_error",
                        "error": f"{type(failure).__name__}: {failure}",
                    },
                ) from failure
            self.retry.sleep(
                tries - 1, retry_after_s=retry_after, deadline=deadline
            )
            self.last_attempts += 1

    def _finish(
        self, path: str, outcome: Dict[str, Any], t0: float
    ) -> "ServiceResponse":
        """Wrap a successful payload with transport metadata and record
        the client-side metrics for this logical request."""
        attempts = self.last_attempts
        response = ServiceResponse(outcome)
        response.attempts = attempts
        response.latency_s = time.perf_counter() - t0
        _REQUESTS.labels(path).inc()
        _LATENCY.observe(response.latency_s)
        if attempts > 1:
            _RETRIES.inc(attempts - 1)
            obs_trace.add("retry_attempts", attempts - 1)
        return response

    def _classify(
        self, status: int, headers, raw: bytes
    ) -> Union[Dict[str, Any], ServiceError]:
        """One attempt's outcome: the decoded payload on success, a
        :class:`ServiceError` otherwise (the caller decides on retry).

        The integrity digest is checked *first* — a corrupted 200 must
        become a typed error before anything trusts its bytes.
        """
        digest = headers.get("X-Repro-Digest")
        if digest is not None and digest.startswith("sha256-"):
            if hashlib.sha256(raw).hexdigest() != digest[len("sha256-"):]:
                return ServiceError(
                    status,
                    {
                        "status": "error",
                        "code": "corrupt_payload",
                        "error": "response body failed the integrity "
                        "digest check",
                    },
                )
        try:
            decoded = json.loads(raw.decode())
        except ValueError:
            return ServiceError(
                status,
                {
                    "status": "error",
                    "code": "bad_response",
                    "error": raw.decode(errors="replace")[:200],
                },
            )
        if status >= 400:
            return ServiceError(status, decoded)
        return decoded

    @staticmethod
    def _parse_retry_after(value: Optional[str]) -> Optional[float]:
        """Seconds from a ``Retry-After`` header (delta form only —
        the broker never sends HTTP dates), or ``None``."""
        if value is None:
            return None
        try:
            seconds = float(value)
        except ValueError:
            return None
        return seconds if seconds >= 0 else None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the connection (re-opened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
