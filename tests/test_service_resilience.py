"""Service-level resilience tests: deadline shedding, admission
control, circuit-breaker degradation, idempotency-aware client retry,
pool restarts under concurrent mixed load, and SIGTERM graceful drain.

Complements ``tests/test_chaos.py`` (the end-to-end property suite):
here each hardening mechanism is exercised surgically and its exact
semantics asserted — status codes, typed error codes, headers,
counters.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.batch import POOL_FAILURE_PREFIX
from repro.pipeline import SchedulingPipeline
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.service import ServiceClient, ServiceError, serve_in_thread
from repro.workloads import make_instance

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _inst(seed=0, size=12, m=4):
    return make_instance("layered", size, m, model="power", seed=seed)


def _no_retry():
    return RetryPolicy(max_attempts=1)


class TestDeadlines:
    def test_slow_solve_is_shed_with_504_and_cached_for_the_retry(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="slow_solve", site="broker.solve", at=[0],
                      param={"delay_s": 0.6}),
        ])
        inst = _inst(seed=1)
        with serve_in_thread(workers=0, faults=plan) as handle:
            with ServiceClient(
                port=handle.port, retry=_no_retry(), deadline_ms=120
            ) as c:
                with pytest.raises(ServiceError) as exc:
                    c.solve(inst)
                assert exc.value.http_status == 504
                assert exc.value.code == "deadline_exceeded"
            # The shed leader kept solving in the background and
            # cached its result: an unhurried retry is a cache hit.
            with ServiceClient(port=handle.port) as c:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if c.stats()["solved"] >= 1:
                        break
                    time.sleep(0.02)
                reply = c.solve(inst)
                assert reply["status"] == "ok"
                assert reply["cached"] is True
                shed = c.stats()["resilience"]["shed_deadline"]
                assert shed == 1
        ref = SchedulingPipeline().solve(inst)
        assert reply["makespan"] == ref.makespan

    def test_zero_budget_shed_before_solving(self):
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(
                port=handle.port, retry=_no_retry(), deadline_ms=0
            ) as c:
                with pytest.raises(ServiceError) as exc:
                    c.solve(_inst(seed=2))
                assert exc.value.http_status == 504
                assert "before solving began" in str(exc.value)
                # Zero budget still answers /stats and /healthz —
                # only solve work is shed.
                assert c.health()["status"] == "ok"

    def test_malformed_deadline_header_is_400(self):
        with serve_in_thread(workers=0) as handle:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            try:
                from repro.io import instance_to_dict

                body = json.dumps(
                    {"instance": instance_to_dict(_inst())}
                )
                conn.request(
                    "POST", "/solve", body=body,
                    headers={"X-Deadline-Ms": "soonish"},
                )
                resp = conn.getresponse()
                payload = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 400
            assert payload["code"] == "bad_request"
            assert "X-Deadline-Ms" in payload["error"]

    @pytest.mark.parametrize("raw", ["nan", "NaN"])
    def test_nan_deadline_header_is_400_and_solves_nothing(self, raw):
        from repro.io import instance_to_dict

        with serve_in_thread(workers=0) as handle:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/solve",
                    body=json.dumps({"instance": instance_to_dict(_inst())}),
                    headers={"X-Deadline-Ms": raw},
                )
                resp = conn.getresponse()
                payload = json.loads(resp.read())
            finally:
                conn.close()
            stats = handle.service.stats()
        assert resp.status == 400
        assert payload["code"] == "bad_request"
        assert "X-Deadline-Ms" in payload["error"]
        assert stats["solved"] == 0
        assert stats["resilience"]["shed_deadline"] == 0

    def test_nan_client_deadline_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ServiceClient(port=1, deadline_ms=float("nan"))

    def test_generous_deadline_changes_nothing(self):
        inst = _inst(seed=3)
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(
                port=handle.port, deadline_ms=60_000
            ) as c:
                reply = c.solve(inst)
        ref = SchedulingPipeline().solve(inst)
        assert reply["makespan"] == ref.makespan
        assert reply["schedule"] is not None


class TestAdmissionControl:
    def test_queue_full_answers_503_with_retry_after(self):
        # Every solve stalls 0.5 s; depth 1 means the second distinct
        # miss (arriving while the first still solves) must be shed.
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="slow_solve", site="broker.solve", rate=1.0,
                      param={"delay_s": 0.5}),
        ])
        with serve_in_thread(
            workers=0, faults=plan, max_queue_depth=1
        ) as handle:
            results = {}

            def leader():
                with ServiceClient(port=handle.port) as c:
                    results["leader"] = c.solve(_inst(seed=10))

            t = threading.Thread(target=leader)
            t.start()
            try:
                with ServiceClient(
                    port=handle.port, retry=_no_retry()
                ) as c:
                    deadline = time.monotonic() + 5
                    while time.monotonic() < deadline:
                        if c.stats()["inflight"] >= 1:
                            break
                        time.sleep(0.01)
                    with pytest.raises(ServiceError) as exc:
                        c.solve(_inst(seed=11))
                    stats = c.stats()
            finally:
                t.join()
            assert exc.value.http_status == 503
            assert exc.value.code == "overloaded"
            assert exc.value.payload["retry_after_s"] > 0
            assert stats["resilience"]["shed_overload"] >= 1
            # The leader itself was never shed.
            assert results["leader"]["status"] == "ok"

    def test_retrying_client_rides_out_the_503(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="slow_solve", site="broker.solve", at=[0],
                      param={"delay_s": 0.4}),
        ])
        with serve_in_thread(
            workers=0, faults=plan, max_queue_depth=1
        ) as handle:
            def leader():
                with ServiceClient(port=handle.port) as c:
                    c.solve(_inst(seed=12))

            t = threading.Thread(target=leader)
            t.start()
            try:
                with ServiceClient(
                    port=handle.port,
                    retry=RetryPolicy(max_attempts=6, base_s=0.05,
                                      cap_s=0.5),
                ) as c:
                    deadline = time.monotonic() + 5
                    while time.monotonic() < deadline:
                        if c.stats()["inflight"] >= 1:
                            break
                        time.sleep(0.01)
                    reply = c.solve(_inst(seed=13))
            finally:
                t.join()
        assert reply["status"] == "ok"

    def test_cache_hits_flow_under_full_queue(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="slow_solve", site="broker.solve", at=[1],
                      param={"delay_s": 0.5}),
        ])
        hot = _inst(seed=14)
        with serve_in_thread(
            workers=0, faults=plan, max_queue_depth=1
        ) as handle:
            with ServiceClient(port=handle.port) as c:
                c.solve(hot)  # seam invocation 0: fast, now cached

            def leader():
                with ServiceClient(port=handle.port) as c2:
                    c2.solve(_inst(seed=15))  # invocation 1: stalls

            t = threading.Thread(target=leader)
            t.start()
            try:
                with ServiceClient(
                    port=handle.port, retry=_no_retry()
                ) as c:
                    deadline = time.monotonic() + 5
                    while time.monotonic() < deadline:
                        if c.stats()["inflight"] >= 1:
                            break
                        time.sleep(0.01)
                    reply = c.solve(hot)  # hit: not admission-checked
            finally:
                t.join()
        assert reply["cached"] is True

    def test_depth_validation(self):
        from repro.service import SolverService

        with pytest.raises(ValueError, match="max_queue_depth"):
            SolverService(max_queue_depth=0)


class TestCircuitBreaker:
    def test_repeated_crashes_degrade_to_in_process_solving(self):
        # Two injected worker crashes trip a threshold-2 breaker; the
        # third request must be solved in-process (degraded) — still a
        # correct 200, no pool fork churn.
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="worker_crash", site="broker.solve",
                      at=[0, 2]),
        ])
        breaker = CircuitBreaker(
            failure_threshold=2, window_s=120.0, cooldown_s=120.0
        )
        insts = [_inst(seed=20 + i) for i in range(4)]
        refs = [SchedulingPipeline().solve(i).makespan for i in insts]
        with serve_in_thread(
            workers=1, faults=plan, breaker=breaker
        ) as handle:
            with ServiceClient(port=handle.port) as c:
                replies = [c.solve(i) for i in insts]
                stats = c.stats()
        for reply, ref in zip(replies, refs):
            assert reply["status"] == "ok"
            assert reply["makespan"] == ref
        res = stats["resilience"]
        assert stats["pool_restarts"] >= 2
        assert res["breaker"]["state"] == "open"
        assert res["degraded_solves"] >= 1

    def test_breaker_stats_surface_when_quiet(self):
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(port=handle.port) as c:
                res = c.stats()["resilience"]
        assert res["breaker"]["state"] == "closed"
        assert res["breaker"]["opens"] == 0
        assert res["degraded_solves"] == 0
        assert res["faults_armed"] is False


class TestIdempotencyAwareRetry:
    """Satellite: the client's transparent retry must be safe by
    construction — idempotent endpoints retried, ``shutdown`` not."""

    def test_solve_retries_through_a_reset_connection(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="socket_reset", site="broker.respond",
                      at=[0]),
        ])
        inst = _inst(seed=30)
        with serve_in_thread(workers=0, faults=plan) as handle:
            with ServiceClient(
                port=handle.port,
                retry=RetryPolicy(max_attempts=3, base_s=0.01,
                                  cap_s=0.05),
            ) as c:
                reply = c.solve(inst)
                assert c.last_attempts == 2
        assert reply["makespan"] == SchedulingPipeline().solve(inst).makespan

    def test_probe_and_resend_are_each_retried(self):
        # Responses 0 (the key-only probe) and 2 (the full-body resend)
        # are reset: each exchange retries once under max_attempts=2,
        # and the logical solve reports 1 + 2 retries.
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="socket_reset", site="broker.respond",
                      at=[0, 2]),
        ])
        inst = _inst(seed=31)
        with serve_in_thread(workers=0, faults=plan) as handle:
            with ServiceClient(
                port=handle.port,
                retry=RetryPolicy(max_attempts=2, base_s=0.01,
                                  cap_s=0.05),
            ) as c:
                reply = c.solve(inst)
                assert c.last_attempts == reply.attempts == 3
                stats = c.stats()
        # The reset resend still solved; its retry is the cache hit.
        assert reply["cached"] is True and stats["solved"] == 1
        assert reply["makespan"] == SchedulingPipeline().solve(inst).makespan

    def test_shutdown_is_not_retried_by_default(self):
        # Nothing listens here: every attempt dies with a connection
        # error.  The idempotent verb burns all its attempts, the
        # non-idempotent one exactly one.
        import socket as socket_mod

        sock = socket_mod.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing is listening on `port` now
        retry = RetryPolicy(max_attempts=3, base_s=0.001, cap_s=0.01)
        with ServiceClient(port=port, retry=retry, timeout=2) as c:
            with pytest.raises(ServiceError) as exc:
                c.solve(_inst())
            assert c.last_attempts == 3
            assert exc.value.code == "connection_error"
            with pytest.raises(ServiceError):
                c.shutdown()
            assert c.last_attempts == 1

    def test_shutdown_retry_is_opt_in(self):
        import socket as socket_mod

        sock = socket_mod.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        retry = RetryPolicy(max_attempts=2, base_s=0.001, cap_s=0.01)
        with ServiceClient(
            port=port, retry=retry, timeout=2, retry_unsafe=True
        ) as c:
            with pytest.raises(ServiceError):
                c.shutdown()
            assert c.last_attempts == 2

    def test_4xx_is_never_retried(self):
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(
                port=handle.port,
                retry=RetryPolicy(max_attempts=4, base_s=0.001,
                                  cap_s=0.01),
            ) as c:
                with pytest.raises(ServiceError) as exc:
                    c.solve(_inst(), algorithm="no-such-algorithm")
                assert exc.value.http_status == 400
                assert c.last_attempts == 1


class TestPoolRestartUnderConcurrentLoad:
    """Satellite: a mid-flight pool generation bump (worker crash +
    replacement) under concurrent mixed traffic must not drop, corrupt
    or double-answer any request."""

    def test_no_request_dropped_or_wrong_across_generation_bump(self):
        from repro.pipeline import registry

        def crashing_allotment(instance, *, rho=None, mu=None):
            os._exit(13)

        registry._register(
            registry.ALLOTMENT, "crash-probe-mixed", crashing_allotment,
            "test-only", (),
        )
        try:
            n_clients = 6
            insts = [_inst(seed=40 + i) for i in range(n_clients)]
            refs = [
                SchedulingPipeline().solve(i).makespan for i in insts
            ]
            with serve_in_thread(workers=1) as handle:
                results = [None] * n_clients
                crash_errors = []
                barrier = threading.Barrier(n_clients + 1)

                def normal(k):
                    with ServiceClient(
                        port=handle.port,
                        retry=RetryPolicy(max_attempts=4, base_s=0.05,
                                          cap_s=0.5),
                    ) as c:
                        barrier.wait()
                        # Two requests per client: a miss, then a hit
                        # — both must survive the concurrent crash.
                        first = c.solve(insts[k])
                        second = c.solve(insts[k])
                        results[k] = (first, second)

                def crasher():
                    with ServiceClient(
                        port=handle.port, retry=_no_retry()
                    ) as c:
                        barrier.wait()
                        try:
                            c.solve(
                                _inst(seed=99),
                                algorithm="crash-probe-mixed",
                            )
                        except ServiceError as exc:
                            crash_errors.append(exc)

                threads = [
                    threading.Thread(target=normal, args=(k,))
                    for k in range(n_clients)
                ] + [threading.Thread(target=crasher)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive(), "a request hung"
                with ServiceClient(port=handle.port) as c:
                    stats = c.stats()

            # Every normal request got exactly one correct answer.
            for k in range(n_clients):
                assert results[k] is not None, f"client {k} dropped"
                first, second = results[k]
                assert first["makespan"] == refs[k]
                assert second["makespan"] == refs[k]
                assert second["cached"] or second["deduped"]
            # The crasher got a typed pool-failure error, loudly.
            assert len(crash_errors) == 1
            assert crash_errors[0].http_status == 500
            assert crash_errors[0].code == "pool_failure"
            assert POOL_FAILURE_PREFIX in str(crash_errors[0])
            # The generation actually bumped mid-flight.
            assert stats["pool_restarts"] >= 1
            # No request was double-solved: each distinct instance was
            # solved at most once plus the crash retries.
            assert stats["solved"] == n_clients
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop(
                "crash-probe-mixed"
            )


class TestGracefulSignals:
    """Satellite: ``repro serve`` exits cleanly on SIGTERM/SIGINT,
    draining in-flight work."""

    def _spawn(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "-w", "0", *extra],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "serving on http://" in line, line
            hostport = line.split("http://", 1)[1].split()[0]
            host, port = hostport.rsplit(":", 1)
            return proc, host, int(port)
        except BaseException:
            proc.kill()
            proc.wait()
            raise

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
    def test_idle_daemon_exits_zero_on_signal(self, sig):
        proc, host, port = self._spawn()
        try:
            with ServiceClient(host=host, port=port) as c:
                assert c.health()["status"] == "ok"
            proc.send_signal(sig)
            rc = proc.wait(timeout=30)
            assert rc == 0
            stderr = proc.stderr.read()
            assert "draining" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigterm_drains_the_in_flight_request(self, tmp_path):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="slow_solve", site="broker.solve", rate=1.0,
                      param={"delay_s": 1.0}),
        ])
        plan_file = tmp_path / "plan.json"
        plan.dump(plan_file)
        proc, host, port = self._spawn("--fault-plan", str(plan_file))
        try:
            inst = _inst(seed=50)
            reply_box = {}

            def request():
                with ServiceClient(
                    host=host, port=port, retry=_no_retry()
                ) as c:
                    reply_box["reply"] = c.solve(inst)

            t = threading.Thread(target=request)
            t.start()
            time.sleep(0.3)  # request is now mid-solve (1 s stall)
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=30)
            assert not t.is_alive()
            rc = proc.wait(timeout=30)
            assert rc == 0
            # The accepted request was answered, not dropped.
            reply = reply_box["reply"]
            assert reply["status"] == "ok"
            ref = SchedulingPipeline().solve(inst)
            assert reply["makespan"] == ref.makespan
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
