"""Asyncio solve broker: the long-running scheduling daemon.

:class:`SolverService` accepts JSON solve requests over a local TCP
socket, answers cache hits from the content-addressed
:class:`~repro.service.cache.ResultCache`, collapses concurrent
identical requests into one solve (**single-flight**), and dispatches
misses to the existing batch engine — a persistent
``ProcessPoolExecutor`` driven through
:meth:`repro.engine.BatchRunner.run`, so a served schedule is produced
by exactly the same pipeline code path as a direct
:class:`repro.pipeline.SchedulingPipeline` solve and is bit-identical
to it.

The wire protocol is minimal HTTP/1.1 implemented directly on asyncio
streams (stdlib only, no ``http.server``), so any HTTP client — the
bundled :class:`repro.service.client.ServiceClient`, ``curl``, a load
balancer health check — can talk to it:

* ``POST /solve`` with body
  ``{"instance": <repro-instance dict>, "algorithm": "jz",
  "priority": "earliest-start"}`` → the solve payload (schedule dict,
  makespan, certified lower bound, observed ratio, cache/dedup flags);
  or, key-only, ``{"key": <content key>, "algorithm"?, "priority"?}``
  → the same payload from the memory tier, else ``404 unknown_key``;
* ``POST /evolve`` with body ``{"instance": ..., "operations": [...]}``
  → the evolved instance dict plus the structured delta (pure
  transform, nothing solved — see :mod:`repro.core.evolve`);
* ``POST /replan`` with the same body (plus optional strategy fields
  and ``"anchored": true``) → the evolved instance solved through the
  ordinary cache path, with the delta and the disturbance diff against
  the parent's schedule attached;
* ``GET /stats`` → request counters + cache counters + resilience
  counters (breaker state, shed requests, injected faults);
* ``GET /metrics`` → the same counters in Prometheus text exposition
  format: the service's own registry (``repro_service_*``,
  ``repro_faults_*``) concatenated with the process-wide solver
  registry (``repro_solver_*``, ``repro_client_*``);
* ``GET /healthz`` → liveness probe;
* ``POST /shutdown`` → graceful stop (used by tests and the CLI).

Every request-level count is a family in a **per-service**
:class:`repro.obs.MetricsRegistry` (so two services in one test
process never share counts), and ``/stats`` reads its numbers back
from those same families — the JSON payload and a ``/metrics`` scrape
can never disagree.

Request keying: ``(instance content key, algorithm, priority)`` with
canonical strategy names, so aliases, task labels, edge input order and
transport representation never split the cache.  A full-body
``POST /solve`` always takes one path: the full parse
(:func:`repro.io.instance_from_dict`, which validates every value)
and the built instance's content key, hashed once, then the cache
(memory tier, spill tier), single-flight and the solve.  A full-body
hit therefore pays the parse; its reply is encoded per request and is
byte for byte the reply a key-only hit of the same entry gets.

A key-only ``POST /solve`` is the one parse-free hit, and it skips the
upload too: the client sends the content key it computed, and the
broker answers from the memory tier with reply bytes serialized once
per cache entry (with their digest, memoized while the cache still
holds that very payload object), counting one cache hit, or
``404 unknown_key`` — for a miss, an entry held only in the spill
tier, or a solve still in flight — which is neither a cache miss nor an
error (``repro_service_unknown_keys_total``).  The client then resends
the instance, which counts its one miss or spill hit as before.  A key
names only content a full parse accepted, so trusting a client's key
serves nothing the daemon has not validated; a wrong key is a 404.

Concurrency model: the asyncio loop reads requests, decodes their JSON
and writes responses.  Per-request work that grows with the instance —
a full body's parse, the cache's disk tier when one is configured,
and the first encoding of a key-only hit's reply — runs on a small
auxiliary thread pool.  Each miss leader hands the blocking batch call
to a solve thread pool, which in turn drives the process pool (or
solves in-process when ``workers == 0`` — handy for tests and
single-core boxes).  Waiters on an in-flight key await the leader's
future; results are passed as ``("ok", payload)`` /
``("error", (code, message))`` tuples so an abandoned future never
logs an unretrieved exception and every failure carries a
machine-readable ``code``.

Resilience (see ``docs/resilience.md`` for the full semantics):

* **Deadlines** — a request may carry an ``X-Deadline-Ms`` header (its
  remaining time budget).  Work the broker cannot finish in time is
  *shed* with a typed ``504 deadline_exceeded`` instead of answered
  late; a shed leader's solve still completes in the background and
  populates the cache, so a retry is typically a hit.
* **Admission control** — when the number of in-flight solve leaders
  reaches ``max_queue_depth``, new misses get ``503 overloaded`` with
  a ``Retry-After`` hint (an EWMA of recent solve times) instead of
  queueing without bound.  Cache hits and waiter dedup keep flowing.
* **Circuit breaker** — repeated worker-crash/pool-restart cycles trip
  a :class:`repro.resilience.CircuitBreaker`; while it is open the
  broker degrades to in-process solving (slower, still bit-identical)
  and periodically re-probes the pool to recover.
* **Fault seams** — a :class:`repro.resilience.FaultPlan` armed via
  the ``faults`` parameter (or ``repro serve --fault-plan``) injects
  deterministic failures at the ``broker.solve`` and
  ``broker.respond`` seams (the cache carries its own seams).  Every
  JSON response carries an ``X-Repro-Digest: sha256-...`` integrity
  header over the body so clients detect corrupt/torn payloads.

Example (in-process daemon on a background thread)::

    from repro.service import ServiceClient, serve_in_thread
    from repro.workloads import make_instance

    inst = make_instance("layered", 24, 8, seed=0)
    with serve_in_thread(workers=0) as handle:
        with ServiceClient(port=handle.port) as client:
            first = client.solve(inst)           # cache miss: solved
            again = client.solve(inst)           # content-keyed hit
            assert again["cached"] is True
            assert again["schedule"] == first["schedule"]
            client.stats()["cache"]["hit_ratio"]

On the command line the same daemon is ``python -m repro serve``; the
full endpoint/field reference lives in ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple, Union

from .. import __version__
from ..core.evolve import InstanceDelta, evolve as evolve_instance
from ..core.instance import Instance
from ..engine.batch import POOL_FAILURE_PREFIX, BatchRunner
from ..io import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from ..obs.metrics import (
    REGISTRY as _CORE_METRICS,
    MetricsRegistry,
    render_registries,
)
from ..pipeline import UnknownStrategyError, canonical_strategy_pair
from ..resilience import (
    CircuitBreaker,
    Deadline,
    FaultClock,
    FaultSpec,
    InjectedFault,
    as_clock,
)
from ..schedule.replan import diff_schedules, replan_schedule
from .cache import CacheKey, ResultCache, solve_payload

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "SolverService"]

DEFAULT_HOST = "127.0.0.1"
#: Default TCP port of ``repro serve`` (0 = pick an ephemeral port).
DEFAULT_PORT = 8705

#: Largest accepted request body; a local scheduling daemon has no
#: business parsing gigabyte uploads.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Caps on the header section (the body is capped separately): a
#: client streaming endless header lines must hit a 400, not an OOM.
MAX_HEADER_LINES = 128
MAX_HEADER_BYTES = 64 * 1024

#: Outcome of one keyed solve as passed through single-flight futures:
#: ``("ok", payload)`` or ``("error", (code, message))``.
_Outcome = Tuple[str, Union[Dict[str, Any], Tuple[str, str]]]

#: A key-only ``/solve`` body's ``key``: the hex SHA-256 that
#: :func:`repro.core.fingerprint.content_digest` produces.
_CONTENT_KEY = re.compile("[0-9a-f]{64}")

#: HTTP status per typed error code (anything else answers 500).
_CODE_STATUS = {
    "deadline_exceeded": 504,
    "overloaded": 503,
    "shutting_down": 503,
}


class _TextBody:
    """A non-JSON response body (the ``/metrics`` exposition)."""

    __slots__ = ("text", "content_type")

    def __init__(
        self,
        text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ):
        self.text = text
        self.content_type = content_type


class _EncodedBody:
    """A JSON response body serialized ahead of time, with the SHA-256
    that ``X-Repro-Digest`` carries (the memoized cache-hit replies)."""

    __slots__ = ("body", "digest")

    def __init__(self, body: bytes):
        self.body = body
        self.digest = hashlib.sha256(body).hexdigest()


#: Buckets of ``repro_service_stage_seconds``: request-path stages take
#: tens of microseconds to tens of milliseconds.
_STAGE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 1.0,
)


class _BadRequest(ValueError):
    """An HTTP framing problem the client should hear about (instead of
    a silently dropped connection)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _warmed_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are forked *now*, not lazily.

    ``ProcessPoolExecutor`` forks on first submit — which in the daemon
    would be a solve thread of an already multi-threaded, mid-traffic
    process (fork-with-held-locks hazard).  Warming at construction
    time forks while the process is as quiet as it gets: at startup
    before any client exists, or on the replacement path before the
    fresh pool is published to other threads.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    for fut in [pool.submit(os.getpid) for _ in range(workers)]:
        fut.result()
    return pool


class _Connection:
    """Per-connection state the shutdown path inspects: the writer to
    close, and whether a request is being processed right now."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class SolverService:
    """The scheduling daemon: cache + single-flight broker + solver pool.

    Parameters
    ----------
    workers:
        Process-pool size for cache misses.  ``0`` solves in-process on
        the broker's thread pool (no fork — fast startup, used by the
        test suite); ``None`` uses the machine's CPU count.
    cache_capacity, spill_dir:
        The :class:`ResultCache`'s memory-tier bound and optional disk
        tier (``service.cache`` is the built cache).
    algorithm, priority:
        Default strategy pair for requests that do not name one.
    max_queue_depth:
        Admission-control bound on concurrent solve *leaders* (cache
        hits and single-flight waiters are not counted).  A miss
        arriving at the bound is answered ``503 overloaded`` with a
        ``Retry-After`` hint instead of queued.  ``None`` disables the
        bound (the pre-resilience behavior).
    breaker:
        The :class:`repro.resilience.CircuitBreaker` guarding the
        process pool, or ``None`` for the default (3 restarts in 30 s
        trips it; 10 s cooldown).  While open, misses solve in-process.
    faults:
        A :class:`repro.resilience.FaultPlan` (or live
        :class:`~repro.resilience.FaultClock`, or plan dict) arming the
        broker's injection seams — chaos testing only; ``None`` (the
        default) arms nothing and costs one attribute read per seam.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = 0,
        cache_capacity: int = 1024,
        spill_dir: Optional[str] = None,
        algorithm: str = "jz",
        priority: str = "earliest-start",
        max_queue_depth: Optional[int] = 256,
        breaker: Optional[CircuitBreaker] = None,
        faults: Union[FaultClock, Dict[str, Any], None] = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        # Fail fast on a misconfigured default strategy pair.
        canonical_strategy_pair(algorithm, priority)
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        self.workers = workers
        self.algorithm = algorithm
        self.priority = priority
        self.max_queue_depth = max_queue_depth
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.faults = as_clock(faults)
        self.cache = ResultCache(cache_capacity, spill_dir, faults=self.faults)
        self._pool: Optional[Executor] = None
        self._pool_lock = threading.Lock()
        self._pool_generation = 0
        self._solve_threads: Optional[ThreadPoolExecutor] = None
        self._aux_threads: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[CacheKey, "asyncio.Future[_Outcome]"] = {}
        self._solve_tasks: Set["asyncio.Task[None]"] = set()
        self._connections: Dict["asyncio.Task[None]", _Connection] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()
        self.port: Optional[int] = None
        self.host: Optional[str] = None
        # Request-level metrics live in a per-service registry (family
        # children carry their own locks, so solve threads and the
        # loop mutate them directly); ``/stats`` reads the same
        # families back, and ``GET /metrics`` renders this registry
        # next to the process-wide solver one.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_service_requests_total",
            "HTTP requests dispatched (all endpoints)",
        )
        self._m_solved = self.metrics.counter(
            "repro_service_solved_total",
            "Cache-miss solves completed by this service",
        )
        self._m_deduped = self.metrics.counter(
            "repro_service_deduped_total",
            "Requests answered by an identical in-flight solve",
        )
        self._m_errors = self.metrics.counter(
            "repro_service_errors_total",
            "Requests answered with a typed error payload",
        )
        self._m_unknown_keys = self.metrics.counter(
            "repro_service_unknown_keys_total",
            "Key-only solves answered 404 unknown_key (the client "
            "resends the instance)",
        )
        self._m_shed = self.metrics.counter(
            "repro_service_shed_total",
            "Requests shed by resilience policies, by reason",
            ("reason",),
        )
        self._m_degraded = self.metrics.counter(
            "repro_service_degraded_solves_total",
            "Solves run in-process because the circuit breaker was open",
        )
        self._m_pool_restarts = self.metrics.counter(
            "repro_service_pool_restarts_total",
            "Broken process pools detected and replaced",
        )
        self._m_kernel_tier = self.metrics.counter(
            "repro_service_kernel_tier_total",
            "Solves served, by engine kernel tier",
            ("tier",),
        )
        self._m_solve_seconds = self.metrics.histogram(
            "repro_service_solve_seconds",
            "Wall time of cache-miss solves (as recorded by the leader)",
        )
        self._m_stage_seconds = self.metrics.histogram(
            "repro_service_stage_seconds",
            "Wall time of request-path stages: decode (json.loads), parse "
            "(full instance build + content key of a full-body /solve), "
            "encode (json.dumps + SHA-256 of a response)",
            ("stage",),
            buckets=_STAGE_BUCKETS,
        )
        # Serialized cache-hit replies: key -> (the cached payload
        # object they encode, its encoded body), LRU-bounded by the
        # cache capacity.
        self._hit_bodies: "OrderedDict[CacheKey, tuple]" = OrderedDict()
        self._hit_bodies_lock = threading.Lock()
        self._avg_solve_s: Optional[float] = None
        self.metrics.register_collector(self._collect_runtime)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
    ) -> asyncio.AbstractServer:
        """Bind and start serving; resolves ``self.host``/``self.port``
        (pass ``port=0`` for an ephemeral port)."""
        if self._server is not None:
            raise RuntimeError("service already started")
        if self.workers > 0:
            self._pool = _warmed_pool(self.workers)
        # Enough threads that `workers` misses can block on the process
        # pool concurrently while hits keep flowing on the loop.
        self._solve_threads = ThreadPoolExecutor(
            max_workers=max(2, self.workers),
            thread_name_prefix="repro-solve",
        )
        # Auxiliary pool for loop-unfriendly per-request work: instance
        # parsing (bodies may be tens of MB), the first encoding of a
        # key-only hit's reply, and the cache's disk tier when one is
        # configured.  Separate from the
        # solve threads, which may all be parked on long solves.
        self._aux_threads = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-aux"
        )
        self._stopped = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port
            )
        except BaseException:
            # A failed bind (port in use, bad address) must not leak
            # the freshly-forked solver processes or the thread pools.
            self._close_executors()
            raise
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self._server

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop` (or ``POST /shutdown``)."""
        if self._server is None or self._stopped is None:
            raise RuntimeError("call start() first")
        try:
            await self._stopped.wait()
        finally:
            await self._shutdown()

    async def run(
        self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
    ) -> None:
        """``start()`` + ``serve_forever()`` in one call."""
        await self.start(host, port)
        await self.serve_forever()

    def request_stop(self) -> None:
        """Ask the daemon to shut down (threadsafe from the loop)."""
        if self._stopped is not None:
            self._stopped.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close *idle* keep-alive connections (their readline sees EOF
        # and the handler returns).  Connections with a request in
        # flight keep their writer: the handler finishes the solve,
        # delivers the response, then exits because the stop event is
        # set.  Then wait for every handler task — and every detached
        # solve task (a leader whose requester was deadline-shed keeps
        # solving in the background) — to end on its own; cancelling
        # them mid-write would be noisy and lossy.  In-flight
        # single-flight futures are NOT force-failed here: every leader
        # task's finally block resolves its future, so waiters get the
        # real result, not a 500.
        for conn in list(self._connections.values()):
            if not conn.busy:
                conn.writer.close()
        drain = list(self._connections) + list(self._solve_tasks)
        if drain:
            await asyncio.gather(*drain, return_exceptions=True)
        self._connections.clear()
        self._solve_tasks.clear()
        for fut in list(self._inflight.values()):
            if not fut.done():  # defensive: a leaderless future
                fut.set_result(
                    ("error", ("shutting_down", "service shutting down"))
                )
        self._inflight.clear()
        self._close_executors()

    def _close_executors(self) -> None:
        if self._solve_threads is not None:
            self._solve_threads.shutdown(wait=True)
            self._solve_threads = None
        if self._aux_threads is not None:
            self._aux_threads.shutdown(wait=True)
            self._aux_threads = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # HTTP layer (asyncio streams; no http.server)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        conn = _Connection(writer)
        if task is not None:
            self._connections[task] = conn
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # Framing problems get an answer, not a dropped
                    # connection (which could desync into the payload).
                    await self._write_response(
                        writer, exc.status,
                        self._error(str(exc), "bad_request"), False,
                    )
                    break
                if request is None:
                    break
                conn.busy = True
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                status, payload = await self._dispatch(
                    method, path, headers, body
                )
                # Respond-side fault seam: armed plans may reset, tear
                # or corrupt solve/replan responses (chaos only).
                fault = None
                if self.faults.armed and path in ("/solve", "/replan"):
                    fault = self.faults.maybe("broker.respond")
                delivered = await self._write_response(
                    writer, status, payload, keep_alive, fault=fault
                )
                conn.busy = False
                if not delivered or not keep_alive:
                    break
                if self._stopped is not None and self._stopped.is_set():
                    # Shutting down: the response above was delivered;
                    # do not park on another read.
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ):
            # Torn connection or unparseable request line: just drop it.
            pass
        finally:
            if task is not None:
                self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None  # client closed the keep-alive connection
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest(400, f"malformed request line: {line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            h = await reader.readline()
            if h in (b"\r\n", b"\n"):
                break
            if not h:
                # EOF mid-headers: a torn request must be discarded,
                # never executed with a defaulted empty body.
                return None
            header_bytes += len(h)
            if (
                len(headers) >= MAX_HEADER_LINES
                or header_bytes > MAX_HEADER_BYTES
            ):
                raise _BadRequest(400, "header section too large")
            name, _, value = h.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        encoding = headers.get("transfer-encoding", "identity").lower()
        if encoding not in ("", "identity"):
            # Reading on would desync the connection into the payload.
            raise _BadRequest(
                501,
                f"Transfer-Encoding {encoding!r} not supported; "
                "send a Content-Length body",
            )
        try:
            n = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise _BadRequest(400, "malformed Content-Length") from None
        if n < 0 or n > MAX_BODY_BYTES:
            raise _BadRequest(
                400, f"content-length {n} out of bounds"
            )
        body = await reader.readexactly(n) if n else b""
        return method, path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], _TextBody, _EncodedBody],
        keep_alive: bool,
        fault: Optional[FaultSpec] = None,
    ) -> bool:
        """Serialize and send one response; returns whether it was
        delivered intact (injected transport faults return ``False`` so
        the caller closes the connection, exactly as a real mid-response
        network failure would look to both sides).

        Every response carries ``X-Repro-Digest`` — the SHA-256 of the
        body computed *before* any injected corruption — so a client
        that checks it can never mistake a torn or corrupt payload for
        an answer.  ``Retry-After`` surfaces when the payload carries a
        ``retry_after_s`` hint (admission-control 503s).
        """
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            501: "Not Implemented", 503: "Service Unavailable",
            504: "Gateway Timeout",
        }
        if fault is not None and fault.kind == "socket_reset":
            writer.transport.abort()
            return False
        content_type = "application/json"
        retry_after = None
        if isinstance(payload, _EncodedBody):
            body, digest = payload.body, payload.digest
        else:
            t0 = time.perf_counter()
            if isinstance(payload, _TextBody):
                body = payload.text.encode()
                content_type = payload.content_type
            else:
                body = json.dumps(payload).encode()
                retry_after = payload.get("retry_after_s")
            digest = hashlib.sha256(body).hexdigest()
            self._observe_stage("encode", t0)
        extra = ""
        if isinstance(retry_after, (int, float)):
            extra = f"Retry-After: {retry_after:.2f}\r\n"
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Repro-Digest: sha256-{digest}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        if fault is not None and fault.kind == "torn_payload":
            writer.write(head.encode("latin-1") + body[: len(body) // 2])
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.transport.abort()
            return False
        if fault is not None and fault.kind == "corrupt_payload":
            corrupted = bytearray(body)
            for i in range(0, len(corrupted), 7):
                corrupted[i] ^= 0x20
            body = bytes(corrupted)  # framing intact, digest now wrong
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return True

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Union[Dict[str, Any], _TextBody, _EncodedBody]]:
        self._m_requests.inc()
        if path == "/healthz":
            if method != "GET":
                return 405, self._error("use GET /healthz", "method_not_allowed")
            return 200, {"status": "ok", "version": __version__}
        if path == "/stats":
            if method != "GET":
                return 405, self._error("use GET /stats", "method_not_allowed")
            return 200, self.stats()
        if path == "/metrics":
            if method != "GET":
                return 405, self._error("use GET /metrics", "method_not_allowed")
            return 200, _TextBody(
                render_registries(self.metrics, _CORE_METRICS)
            )
        if path == "/shutdown":
            if method != "POST":
                return 405, self._error("use POST /shutdown", "method_not_allowed")
            # Answer first, stop after: the event is read by
            # serve_forever on the next loop tick.
            asyncio.get_running_loop().call_soon(self.request_stop)
            return 200, {"status": "shutting-down"}
        if path in ("/solve", "/evolve", "/replan"):
            if method != "POST":
                return 405, self._error(f"use POST {path}", "method_not_allowed")
            t0 = time.perf_counter()
            try:
                data = json.loads(body.decode())
            except (UnicodeDecodeError, ValueError):
                self._m_errors.inc()
                return 400, self._error(
                    "request body is not valid JSON", "bad_request"
                )
            self._observe_stage("decode", t0)
            if not isinstance(data, dict):
                self._m_errors.inc()
                return 400, self._error(
                    "request body must be a JSON object", "bad_request"
                )
            if path == "/evolve":
                return await self._handle_evolve(data)
            try:
                deadline = self._request_deadline(headers)
            except ValueError as exc:
                self._m_errors.inc()
                return 400, self._error(str(exc), "bad_request")
            if path == "/solve":
                return await self._handle_solve(data, deadline)
            return await self._handle_replan(data, deadline)
        return 404, self._error(
            f"unknown path {path!r}; known: /solve /evolve /replan "
            "/stats /metrics /healthz /shutdown",
            "not_found",
        )

    @staticmethod
    def _error(message: str, code: str = "error") -> Dict[str, Any]:
        """The typed error payload: ``code`` is machine-readable (the
        client retries on some codes, never on others), ``error`` is
        for humans."""
        return {"status": "error", "code": code, "error": message}

    @staticmethod
    def _request_deadline(headers: Dict[str, str]) -> Optional[Deadline]:
        """The request's remaining time budget from ``X-Deadline-Ms``,
        or ``None`` when the client sent no deadline."""
        raw = headers.get("x-deadline-ms")
        if raw is None or raw == "":
            return None
        try:
            return Deadline(float(raw))  # rejects negative and NaN
        except ValueError:
            raise ValueError(
                f"malformed X-Deadline-Ms header: {raw!r} "
                "(want milliseconds >= 0)"
            ) from None

    # ------------------------------------------------------------------
    # the solve path: cache → single-flight → batch engine
    # ------------------------------------------------------------------
    async def _handle_solve(
        self, data: Dict[str, Any], deadline: Optional[Deadline] = None
    ) -> Tuple[int, Union[Dict[str, Any], _EncodedBody]]:
        if "key" in data:
            if "instance" in data:
                self._m_errors.inc()
                return 400, self._error(
                    "a /solve body carries exactly one of 'instance' "
                    "and 'key'",
                    "bad_request",
                )
            return await self._solve_by_key(data)
        inst_data = data.get("instance")
        if inst_data is None:
            self._m_errors.inc()
            return 400, self._error(
                "missing 'instance' (or 'key') field", "bad_request"
            )
        loop = asyncio.get_running_loop()
        try:
            # Parsing can be expensive for large instances: keep it off
            # the loop so concurrent hits and health probes never stall
            # behind one fat payload.
            instance, instance_key = await loop.run_in_executor(
                self._aux_threads, self._parse_instance, inst_data
            )
        except Exception as exc:
            # The payload is untrusted wire input: *any* parse failure
            # is the client's 400, never a dead connection.
            self._m_errors.inc()
            return 400, self._error(
                f"invalid instance: {type(exc).__name__}: {exc}",
                "invalid_instance",
            )
        # Checked after the parse: an invalid instance takes precedence.
        try:
            strategies = self._request_strategies(data)
        except (UnknownStrategyError, ValueError) as exc:
            self._m_errors.inc()
            return 400, self._error(str(exc), "unknown_strategy")
        return await self._solve_keyed(
            instance, instance_key, *strategies, deadline
        )

    async def _solve_by_key(
        self, data: Dict[str, Any]
    ) -> Tuple[int, Union[Dict[str, Any], _EncodedBody]]:
        """Key-only ``POST /solve``: the memory tier's reply for the
        content key the client computed, byte for byte a full-body hit's,
        or ``404 unknown_key`` so the client resends the instance.  Never
        touches the spill tier or the in-flight table; both are the
        resend's business."""
        key = data["key"]
        if not isinstance(key, str) or not _CONTENT_KEY.fullmatch(key):
            self._m_errors.inc()
            return 400, self._error(
                "'key' must be a content key: 64 lowercase hex characters",
                "bad_request",
            )
        try:
            strategies = self._request_strategies(data)
        except (UnknownStrategyError, ValueError) as exc:
            self._m_errors.inc()
            return 400, self._error(str(exc), "unknown_strategy")
        cache_key: CacheKey = (key, *strategies)
        payload = self.cache.peek(cache_key)
        if payload is None:
            self._m_unknown_keys.inc()
            return 404, self._error(
                "no result for this content key in memory; send the "
                "instance",
                "unknown_key",
            )
        encoded = self._memoized_body(cache_key, payload)
        if encoded is None:
            # The first hit of an entry encodes it: O(instance) work,
            # kept off the loop.
            encoded = await asyncio.get_running_loop().run_in_executor(
                self._aux_threads, self._hit_body, cache_key, payload
            )
        return 200, encoded

    def _parse_instance(self, inst_data: Any) -> Tuple[Instance, str]:
        """Aux-thread body of a full-body ``POST /solve``: the built
        instance and its content key, the request's one hash (the
        parse's fingerprint check and ``content_key()`` share it).
        Raises when the parse does."""
        t0 = time.perf_counter()
        instance = instance_from_dict(inst_data)
        instance_key = instance.content_key()
        self._observe_stage("parse", t0)
        return instance, instance_key

    def _hit_body(
        self, key: CacheKey, payload: Dict[str, Any]
    ) -> _EncodedBody:
        """The cached reply for ``payload``, serialized once per cache
        entry.  A memo entry serves only while the cache still holds the
        very payload object it encodes, so a re-solved or reloaded entry
        is encoded afresh; the memo is bounded like the cache."""
        encoded = self._memoized_body(key, payload)
        if encoded is not None:
            return encoded
        t0 = time.perf_counter()
        encoded = _EncodedBody(
            json.dumps({**payload, "cached": True, "deduped": False}).encode()
        )
        self._observe_stage("encode", t0)
        with self._hit_bodies_lock:
            self._hit_bodies[key] = (payload, encoded)
            self._hit_bodies.move_to_end(key)
            while len(self._hit_bodies) > self.cache.capacity:
                self._hit_bodies.popitem(last=False)
        return encoded

    def _memoized_body(
        self, key: CacheKey, payload: Dict[str, Any]
    ) -> Optional[_EncodedBody]:
        """The memoized reply for ``payload`` (LRU-refreshed), or
        ``None`` when it has not been encoded yet.  Constant time."""
        with self._hit_bodies_lock:
            memo = self._hit_bodies.get(key)
            if memo is None or memo[0] is not payload:
                return None
            self._hit_bodies.move_to_end(key)
            return memo[1]

    def _observe_stage(self, stage: str, t0: float) -> None:
        """Record the request-path ``stage`` begun at ``t0``."""
        self._m_stage_seconds.labels(stage).observe(
            time.perf_counter() - t0
        )

    def _request_strategies(
        self, data: Dict[str, Any]
    ) -> Tuple[str, str]:
        """Canonical (algorithm, priority) of a request body; an absent
        or ``null`` field is the service default.  Raises on any other
        non-string or unregistered name."""
        algorithm_name = data.get("algorithm")
        if algorithm_name is None:
            algorithm_name = self.algorithm
        priority_name = data.get("priority")
        if priority_name is None:
            priority_name = self.priority
        if not isinstance(algorithm_name, str) or not isinstance(
            priority_name, str
        ):
            raise ValueError("'algorithm' and 'priority' must be strings")
        return canonical_strategy_pair(algorithm_name, priority_name)

    def _retry_after_hint(self) -> float:
        """Backoff hint for shed requests: about one recent solve time
        (capacity frees up when a leader finishes), clamped sane."""
        avg = self._avg_solve_s if self._avg_solve_s is not None else 0.1
        return min(5.0, max(0.05, avg))

    async def _solve_keyed(
        self,
        instance: Instance,
        instance_key: str,
        algorithm: str,
        priority: str,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Cache → single-flight → batch engine, for an already-parsed
        instance under its content key.  The shared tail of ``/solve``
        and ``/replan`` — a replanned child is keyed by its **own**
        fingerprint, so deduplication and caching work unchanged.

        ``deadline`` is the request's remaining budget: exhausted
        budgets shed with ``504 deadline_exceeded`` (at admission, while
        waiting on a single-flight leader, or while leading — in the
        leader case the solve keeps running detached and lands in the
        cache for the retry)."""
        loop = asyncio.get_running_loop()
        key: CacheKey = (instance_key, algorithm, priority)
        cached = await self._cache_get(key)
        if cached is not None:
            return 200, {**cached, "cached": True, "deduped": False}
        if deadline is not None and deadline.expired():
            self._m_shed.labels("deadline").inc()
            self._m_errors.inc()
            return 504, self._error(
                "deadline budget exhausted before solving began",
                "deadline_exceeded",
            )

        # NB: no await between this in-flight check and the leader's
        # registration below — that atomicity (on the single-threaded
        # loop) is what makes single-flight race-free.
        fut = self._inflight.get(key)
        if fut is not None:
            # Single-flight: identical request already solving — wait
            # for the leader.  shield() so one waiter's disconnect (or
            # deadline) cannot cancel the shared future under everyone
            # else.
            self._m_deduped.inc()
            try:
                status, value = await self._await_outcome(fut, deadline)
            except asyncio.TimeoutError:
                self._m_shed.labels("deadline").inc()
                self._m_errors.inc()
                return 504, self._error(
                    "deadline exceeded waiting for an identical "
                    "in-flight solve",
                    "deadline_exceeded",
                )
            if status != "ok":
                return self._error_response(value)
            assert isinstance(value, dict)
            return 200, {**value, "cached": False, "deduped": True}

        if self.cache.has_spill:
            # The off-loop cache lookup above opened a window in which
            # a leader for this key may have finished (popping the
            # in-flight entry and caching its result) — a stale miss
            # here must not trigger a duplicate solve.  Memory-only
            # re-check, synchronous and I/O-free.
            cached = self.cache.peek(key)
            if cached is not None:
                return 200, {**cached, "cached": True, "deduped": False}

        if (
            self.max_queue_depth is not None
            and len(self._inflight) >= self.max_queue_depth
        ):
            # Admission control: answering 503-with-a-hint now beats
            # queueing into a latency cliff.  Hits and waiters above
            # are unaffected — only *new* solve work is shed.
            self._m_shed.labels("overload").inc()
            self._m_errors.inc()
            payload = self._error(
                f"solve queue full ({self.max_queue_depth} in flight); "
                "retry after the hint",
                "overloaded",
            )
            payload["retry_after_s"] = self._retry_after_hint()
            return 503, payload

        fut = loop.create_future()
        self._inflight[key] = fut
        # The solve runs as a detached task so a deadline-shed requester
        # doesn't abort it: it resolves the future for any waiters,
        # caches the result, and survives the requester's connection.
        work = loop.create_task(
            self._lead_solve(key, instance, algorithm, priority, fut)
        )
        self._solve_tasks.add(work)
        work.add_done_callback(self._solve_tasks.discard)
        try:
            status, value = await self._await_outcome(fut, deadline)
        except asyncio.TimeoutError:
            self._m_shed.labels("deadline").inc()
            self._m_errors.inc()
            return 504, self._error(
                "deadline exceeded while solving; the solve continues "
                "and will be cached",
                "deadline_exceeded",
            )
        if status != "ok":
            return self._error_response(value)
        assert isinstance(value, dict)
        return 200, {**value, "cached": False, "deduped": False}

    @staticmethod
    async def _await_outcome(
        fut: "asyncio.Future[_Outcome]", deadline: Optional[Deadline]
    ) -> _Outcome:
        """Await a single-flight outcome under the request's remaining
        budget; raises ``asyncio.TimeoutError`` on expiry.  The future
        is shielded — a timed-out waiter never cancels the solve."""
        remaining = None if deadline is None else deadline.remaining_s()
        if remaining is None:
            return await asyncio.shield(fut)
        return await asyncio.wait_for(asyncio.shield(fut), remaining)

    def _error_response(self, value) -> Tuple[int, Dict[str, Any]]:
        """HTTP response for an ``("error", (code, message))`` outcome."""
        self._m_errors.inc()
        if isinstance(value, tuple):
            code, message = value
        else:  # pre-typed outcome shape (defensive)
            code, message = "error", str(value)
        return _CODE_STATUS.get(code, 500), self._error(str(message), code)

    async def _lead_solve(
        self,
        key: CacheKey,
        instance: Instance,
        algorithm: str,
        priority: str,
        fut: "asyncio.Future[_Outcome]",
    ) -> None:
        """The detached leader body: run the blocking solve on the
        thread pool, cache an ok result, resolve the single-flight
        future, and retire the in-flight entry — whatever happens."""
        loop = asyncio.get_running_loop()
        # Default stands if this task is torn down (loop shutting down)
        # before the executor returns — waiters must still be released.
        outcome: _Outcome = ("error", ("aborted", "solve aborted"))
        try:
            try:
                outcome = await loop.run_in_executor(
                    self._solve_threads,
                    self._solve_blocking,
                    instance,
                    algorithm,
                    priority,
                    key,
                )
            except Exception as exc:  # executor down, pickling, ...
                outcome = (
                    "error",
                    ("internal", f"{type(exc).__name__}: {exc}"),
                )
            if outcome[0] == "ok":
                assert isinstance(outcome[1], dict)
                await self._cache_put(key, outcome[1])
                self._m_solved.inc()
                wall = outcome[1].get("solve_wall_time")
                if isinstance(wall, (int, float)):
                    self._m_solve_seconds.observe(wall)
                    self._avg_solve_s = (
                        wall
                        if self._avg_solve_s is None
                        else 0.8 * self._avg_solve_s + 0.2 * wall
                    )
        finally:
            self._inflight.pop(key, None)
            if not fut.done():
                fut.set_result(outcome)

    # ------------------------------------------------------------------
    # evolution endpoints
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_evolution(
        data: Dict[str, Any]
    ) -> Tuple[Instance, Instance, InstanceDelta]:
        """Aux-thread body: parse the parent and apply the operation
        list (both hash-heavy for large instances)."""
        inst_data = data.get("instance")
        if not isinstance(inst_data, dict):
            raise ValueError("missing or non-object 'instance' field")
        operations = data.get("operations")
        if not isinstance(operations, list):
            raise ValueError("missing or non-array 'operations' field")
        parent = instance_from_dict(inst_data)
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("'name' must be a string")
        child, delta = evolve_instance(parent, operations, name=name)
        return parent, child, delta

    async def _handle_evolve(
        self, data: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /evolve``: pure transform — apply an operation list
        to an instance and return the evolved instance plus the
        structured delta.  Nothing is solved or cached."""
        loop = asyncio.get_running_loop()
        try:
            _parent, child, delta = await loop.run_in_executor(
                self._aux_threads, self._parse_evolution, data
            )
        except Exception as exc:
            self._m_errors.inc()
            return 400, self._error(
                f"invalid evolution: {type(exc).__name__}: {exc}",
                "invalid_evolution",
            )
        return 200, {
            "status": "ok",
            "instance": instance_to_dict(child),
            "fingerprint": delta.child_key,
            "parent_fingerprint": delta.parent_key,
            "delta": delta.summary(),
        }

    async def _handle_replan(
        self, data: Dict[str, Any], deadline: Optional[Deadline] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /replan``: evolve, re-solve, report the disturbance.

        The parent and the evolved child are both solved through the
        ordinary cache/single-flight path, each keyed by its own
        fingerprint — in the intended traffic pattern the parent is a
        cache hit from its original ``/solve``.  With ``"anchored":
        true`` the response carries the disturbance-minimizing anchored
        schedule (completed tasks frozen, survivors near their old
        slots) instead of the free re-solve's.  One ``X-Deadline-Ms``
        budget spans both solves and the diff.
        """
        loop = asyncio.get_running_loop()
        try:
            parent, child, delta = await loop.run_in_executor(
                self._aux_threads, self._parse_evolution, data
            )
        except Exception as exc:
            self._m_errors.inc()
            return 400, self._error(
                f"invalid evolution: {type(exc).__name__}: {exc}",
                "invalid_evolution",
            )
        anchored = data.get("anchored", False)
        if not isinstance(anchored, bool):
            self._m_errors.inc()
            return 400, self._error(
                "'anchored' must be a boolean", "bad_request"
            )
        try:
            algorithm, priority = self._request_strategies(data)
        except (UnknownStrategyError, ValueError) as exc:
            self._m_errors.inc()
            return 400, self._error(str(exc), "unknown_strategy")
        status, parent_payload = await self._solve_keyed(
            parent, delta.parent_key, algorithm, priority, deadline
        )
        if status != 200:
            return status, parent_payload
        status, child_payload = await self._solve_keyed(
            child, delta.child_key, algorithm, priority, deadline
        )
        if status != 200:
            return status, child_payload

        def finalize() -> Dict[str, Any]:
            old_schedule = schedule_from_dict(parent_payload["schedule"])
            new_schedule = schedule_from_dict(child_payload["schedule"])
            payload = dict(child_payload)
            mode = "resolve"
            if anchored:
                # The capped allotment is recoverable from the solved
                # schedule's per-task processor counts; re-capping is
                # idempotent, so mu is not needed again.
                alloc = [0] * child.n_tasks
                for e in new_schedule.entries:
                    alloc[e.task] = e.processors
                new_schedule = replan_schedule(
                    child,
                    alloc,
                    old_schedule,
                    node_map=delta.node_map,
                    completed=delta.completed,
                )
                payload["schedule"] = schedule_to_dict(new_schedule)
                payload["makespan"] = new_schedule.makespan
                # Stability costs the worst-case guarantee.
                payload["ratio_bound"] = None
                payload["observed_ratio"] = (
                    new_schedule.makespan / payload["lower_bound"]
                    if payload.get("lower_bound")
                    else None
                )
                mode = "anchored"
            diff = diff_schedules(
                old_schedule, new_schedule, node_map=delta.node_map
            )
            payload["mode"] = mode
            payload["delta"] = delta.summary()
            payload["disturbance"] = diff.summary()
            payload["parent"] = {
                "instance_key": delta.parent_key,
                "makespan": parent_payload["makespan"],
                "cached": parent_payload.get("cached", False),
            }
            return payload

        # Schedule reconstruction + diff (+ anchored list scheduling)
        # is O(n log n) Python work: keep it off the loop.
        payload = await loop.run_in_executor(self._aux_threads, finalize)
        return 200, payload

    async def _cache_get(self, key: CacheKey):
        """Cache lookup; routed through the aux thread pool when a
        disk tier is configured so spill I/O never blocks the loop.
        Awaiting here is safe for single-flight: the in-flight
        check-and-register happens after this returns, atomically."""
        if not self.cache.has_spill:
            return self.cache.get(key)
        return await asyncio.get_running_loop().run_in_executor(
            self._aux_threads, self.cache.get, key
        )

    async def _cache_put(self, key: CacheKey, value: Dict[str, Any]):
        if not self.cache.has_spill:
            self.cache.put(key, value)
            return
        await asyncio.get_running_loop().run_in_executor(
            self._aux_threads, self.cache.put, key, value
        )

    def _solve_blocking(
        self,
        instance: Instance,
        algorithm: str,
        priority: str,
        key: CacheKey,
    ) -> _Outcome:
        """Thread-pool body: one batch of one instance, same pipeline
        code path (and hence bit-identical schedules) as a direct
        :class:`~repro.pipeline.SchedulingPipeline` solve.

        A *pool-level* failure (a worker died: the ProcessPoolExecutor
        is permanently broken from then on) replaces the pool and
        retries this request once on the fresh one — a resident daemon
        must not answer 500 forever because one past solve crashed a
        worker.  Solve-level failures are never retried.

        Resilience hooks live here: the ``broker.solve`` fault seam
        (chaos only), and the circuit breaker — with the breaker open,
        the pool is bypassed and the solve runs in-process (degraded
        but correct); a half-open breaker admits one pooled probe.
        """
        try:
            fault = self.faults.maybe("broker.solve")
            if fault is not None:
                self._execute_solve_fault(fault)
        except InjectedFault as exc:
            return ("error", ("injected_fault", str(exc)))
        rec = None
        for _attempt in (0, 1):
            with self._pool_lock:
                # Snapshot both atomically: a torn read (old pool, new
                # generation) could pass the replacement guard and shut
                # down a healthy pool.
                pool = self._pool
                generation = self._pool_generation
            probing = False
            if pool is not None and not self.breaker.allow():
                # Breaker open: degrade to in-process solving rather
                # than feed work to a pool that keeps dying.
                pool = None
                self._m_degraded.inc()
            elif pool is not None and self.breaker.state != "closed":
                probing = True
            runner = BatchRunner(
                workers=self.workers if pool is not None else 0,
                algorithm=algorithm,
                priority=priority,
                include_schedule=True,
            )
            result = runner.run([instance], executor=pool)
            rec = result.records[0]
            if rec.ok:
                if pool is not None and probing:
                    self.breaker.record_success()
                if rec.kernel_tier is not None:
                    self._m_kernel_tier.labels(rec.kernel_tier).inc()
                break
            if pool is None or POOL_FAILURE_PREFIX not in (
                rec.error or ""
            ):
                break
            self._replace_broken_pool(generation)
        if not rec.ok:
            error = rec.error or "solve failed"
            if POOL_FAILURE_PREFIX in error:
                # Transient by construction — the pool has already been
                # replaced — so clients may safely retry this one.
                code = "pool_failure"
            else:
                code = "solve_failed"
            return ("error", (code, error))
        return ("ok", solve_payload(key[0], rec))

    def _execute_solve_fault(self, fault: FaultSpec) -> None:
        """Run one armed ``broker.solve`` fault (solve-thread context).

        ``slow_solve``/``pool_hang`` stall (what deadline budgets must
        absorb); ``solve_error`` raises; ``worker_crash`` kills a live
        pool worker so the *real* recovery path — broken pool detected,
        replaced, request retried on the fresh pool — runs, or raises
        when there is no pool to crash (workers=0).
        """
        if fault.kind == "slow_solve":
            time.sleep(float(fault.param.get("delay_s", 0.01)))
        elif fault.kind == "pool_hang":
            time.sleep(float(fault.param.get("hang_s", 0.25)))
        elif fault.kind == "solve_error":
            raise InjectedFault(fault.kind, fault.site)
        elif fault.kind == "worker_crash":
            with self._pool_lock:
                pool = self._pool
            if pool is None:
                raise InjectedFault(fault.kind, fault.site)
            try:
                # A real worker death: the pool is broken from here on;
                # the solve below trips the replace-and-retry path.
                pool.submit(os._exit, 13).result(timeout=60)
            except Exception:
                pass  # BrokenProcessPool — exactly the point

    def _replace_broken_pool(self, generation: int) -> None:
        """Swap in a fresh process pool (once per broken generation —
        concurrent solve threads detecting the same breakage race here
        and only the first one swaps).  Each swap is a failure event
        for the circuit breaker."""
        swapped = False
        with self._pool_lock:
            if self._pool_generation == generation and self._pool is not None:
                broken = self._pool
                self._pool = _warmed_pool(self.workers)
                self._pool_generation += 1
                self._m_pool_restarts.inc()
                swapped = True
        if swapped:
            self.breaker.record_failure()
            broken.shutdown(wait=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _collect_runtime(self):
        """Scrape-time collector: externally-owned state (uptime, the
        in-flight map, cache counters, fault tallies) surfaced as
        virtual metric families without double bookkeeping."""
        cache = self.cache.stats()
        yield (
            "repro_service_uptime_seconds", "gauge",
            "Seconds since the service object was created",
            [({}, time.monotonic() - self._started_at)],
        )
        yield (
            "repro_service_inflight", "gauge",
            "Solve leaders currently in flight",
            [({}, float(len(self._inflight)))],
        )
        yield (
            "repro_service_cache_lookups_total", "counter",
            "Result-cache lookups, by outcome",
            [({"outcome": "hit"}, float(cache["hits"])),
             ({"outcome": "miss"}, float(cache["misses"]))],
        )
        yield (
            "repro_service_cache_evictions_total", "counter",
            "Memory-tier LRU evictions",
            [({}, float(cache["evictions"]))],
        )
        yield (
            "repro_service_cache_spill_total", "counter",
            "Disk spill-tier activity, by kind",
            [({"kind": "write"}, float(cache["spill_writes"])),
             ({"kind": "hit"}, float(cache["spill_hits"]))],
        )
        yield (
            "repro_service_cache_size", "gauge",
            "Entries resident in the cache's memory tier",
            [({}, float(cache["size"]))],
        )
        yield (
            "repro_faults_fired_total", "counter",
            "Deterministically injected faults, by seam site and kind",
            [({"site": site, "kind": kind}, float(n))
             for (site, kind), n in self.faults.fired_pairs().items()],
        )

    def fault_tally(self) -> Dict[str, int]:
        """``{"site:kind": count}`` of injected faults, read back from
        the ``repro_faults_fired_total`` metric family — the same
        family a ``/metrics`` scrape serves, so the self-contained
        chaos harness and ``repro chaos --attach`` (which reads the
        tally off ``/stats``) report identical numbers."""
        values = self.metrics.family_values("repro_faults_fired_total")
        return {
            f"{site}:{kind}": int(n)
            for (site, kind), n in sorted(values.items())
        }

    def stats(self) -> Dict[str, Any]:
        """Daemon counters + cache counters (the ``/stats`` payload).

        Every count is read back from the service's metrics registry,
        so this JSON and a ``GET /metrics`` scrape cannot disagree.
        """
        tiers = {
            key[0]: int(n)
            for key, n in self.metrics.family_values(
                "repro_service_kernel_tier_total"
            ).items()
        }
        shed = self.metrics.family_values("repro_service_shed_total")
        return {
            "status": "ok",
            "version": __version__,
            "uptime": time.monotonic() - self._started_at,
            "workers": self.workers,
            "pool_restarts": int(self._m_pool_restarts.value),
            "default_algorithm": self.algorithm,
            "default_priority": self.priority,
            "requests": int(self._m_requests.value),
            "solved": int(self._m_solved.value),
            "deduped": int(self._m_deduped.value),
            "errors": int(self._m_errors.value),
            "kernel_tiers": tiers,
            "inflight": len(self._inflight),
            "cache": {
                **self.cache.stats(),
                "unknown_keys": int(self._m_unknown_keys.value),
            },
            "resilience": {
                "max_queue_depth": self.max_queue_depth,
                "shed_deadline": int(shed.get(("deadline",), 0)),
                "shed_overload": int(shed.get(("overload",), 0)),
                "degraded_solves": int(self._m_degraded.value),
                "avg_solve_s": self._avg_solve_s,
                "retry_after_hint_s": self._retry_after_hint(),
                "breaker": self.breaker.stats(),
                "faults_armed": self.faults.armed,
                "faults_fired": self.fault_tally(),
            },
        }
