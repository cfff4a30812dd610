"""End-to-end tests for the scheduling service (:mod:`repro.service`).

The daemon runs on a background thread with ``workers=0`` (in-process
solving — no fork, fast startup) and real TCP sockets on ephemeral
ports; the client is the real stdlib client.  Everything asserted here
is the service contract: bit-identical schedules, cache hit semantics,
single-flight dedup, clean error codes, graceful shutdown.
"""

import hashlib
import http.client
import json
import logging
import random
import re
import socket
import sys
import threading
import time

import pytest

from repro.io import schedule_to_dict
from repro.pipeline import SchedulingPipeline
from repro.resilience import RetryPolicy
from repro.schedule import validate_schedule
from repro.service import (
    ServiceClient,
    ServiceError,
    SolverService,
    serve_in_thread,
)
from repro.workloads import make_instance


def _inst(seed=0, size=12, m=4):
    return make_instance("layered", size, m, model="power", seed=seed)


@pytest.fixture()
def daemon():
    with serve_in_thread(workers=0) as handle:
        yield handle


@pytest.fixture()
def client(daemon):
    with ServiceClient(port=daemon.port) as c:
        yield c


class TestSolveEndpoint:
    def test_served_schedule_bit_identical_to_pipeline(self, client):
        inst = _inst()
        reply = client.solve(inst)
        assert reply["status"] == "ok"
        assert reply["cached"] is False and reply["deduped"] is False
        ref = SchedulingPipeline("jz", "earliest-start").solve(inst)
        assert reply["makespan"] == ref.makespan
        assert reply["lower_bound"] == ref.lower_bound
        assert reply["schedule"] == schedule_to_dict(ref.schedule)
        assert reply["instance_key"] == inst.content_key()

    def test_served_schedule_is_validator_clean(self, client):
        from repro.io import schedule_from_dict

        inst = _inst(seed=4)
        reply = client.solve(inst, algorithm="ltw", priority="fifo")
        sched = schedule_from_dict(reply["schedule"])
        assert validate_schedule(inst, sched) == []
        assert reply["makespan"] >= reply["lower_bound"]

    def test_second_identical_request_is_a_cache_hit(self, client):
        inst = _inst(seed=1)
        first = client.solve(inst)
        second = client.solve(inst)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["schedule"] == first["schedule"]

    def test_alias_and_label_changes_share_one_cache_line(self, client):
        from repro.core.instance import Instance

        inst = _inst(seed=2)
        client.solve(inst, algorithm="greedy-critical-path")
        relabeled = Instance(inst.tasks, inst.dag, inst.m, name="other")
        reply = client.solve(relabeled, algorithm="greedy")
        assert reply["cached"] is True

    def test_different_strategy_is_a_different_cache_line(self, client):
        inst = _inst(seed=3)
        client.solve(inst, algorithm="jz")
        reply = client.solve(inst, algorithm="sequential")
        assert reply["cached"] is False

    def test_instance_dict_payload_accepted(self, client):
        from repro.io import instance_to_dict

        inst = _inst(seed=5)
        reply = client.solve(instance_to_dict(inst))
        assert reply["makespan"] == pytest.approx(
            SchedulingPipeline().solve(inst).makespan
        )

    def test_stats_counters(self, client):
        inst = _inst(seed=6)
        client.solve(inst)
        client.solve(inst)
        s = client.stats()
        assert s["solved"] == 1
        assert s["cache"]["hits"] == 1 and s["cache"]["misses"] == 1
        assert s["workers"] == 0
        assert s["requests"] >= 3


class TestErrorHandling:
    def test_unknown_strategy_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.solve(_inst(), algorithm="no-such-algorithm")
        assert exc.value.http_status == 400
        assert "no-such-algorithm" in str(exc.value)

    def test_non_string_strategy_is_400(self, client):
        from repro.io import instance_to_dict

        body = {
            "instance": instance_to_dict(_inst()),
            "algorithm": ["jz"],
        }
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/solve", body)
        assert exc.value.http_status == 400
        assert "must be strings" in str(exc.value)
        # The connection survives the bad request.
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("anchored", ["false", "no", [0], 1, None])
    def test_non_boolean_anchored_is_400(self, daemon, client, anchored):
        from repro.io import instance_to_dict

        inst = _inst(seed=41)
        times = [1.5 * t for t in inst.task(0).times]
        body = {
            "instance": instance_to_dict(inst),
            "operations": [{"op": "retime", "task": 0, "times": times}],
            "anchored": anchored,
        }
        before = client.stats()
        status, raw, _ = _post_raw(daemon, body, path="/replan")
        after = client.stats()
        assert status == 400
        assert json.loads(raw)["code"] == "bad_request"
        assert after["solved"] == before["solved"]
        assert after["errors"] == before["errors"] + 1

    def test_invalid_instance_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.solve({"format": "repro-instance", "version": 1})
        assert exc.value.http_status == 400
        assert "invalid instance" in str(exc.value)

    def test_nan_times_rejected_cleanly(self, client):
        from repro.io import instance_to_dict

        data = instance_to_dict(_inst())
        del data["fingerprint"]
        data["tasks"][0]["times"][0] = None
        with pytest.raises(ServiceError) as exc:
            client.solve(data)
        assert exc.value.http_status == 400

    def test_missing_instance_field_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/solve", {"algorithm": "jz"})
        assert exc.value.http_status == 400

    def test_unknown_path_is_404_and_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/no-such-path")
        assert exc.value.http_status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/solve")
        assert exc.value.http_status == 405

    def test_non_json_body_is_400(self, daemon):
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            body = b"this is not json"
            sock.sendall(
                b"POST /solve HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n"
                + body
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"400" in status_line
        payload = json.loads(rest.split(b"\r\n\r\n", 1)[1])
        assert "JSON" in payload["error"]

    def test_unbounded_header_flood_rejected(self, daemon):
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            sock.sendall(b"POST /solve HTTP/1.1\r\n")
            try:
                for k in range(5000):
                    sock.sendall(b"x-h%d: y\r\n" % k)
            except OSError:
                pass  # daemon already answered and closed
            raw = b""
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            except OSError:
                pass
        assert b"400" in raw.partition(b"\r\n")[0]
        assert b"header section too large" in raw

    def test_chunked_transfer_encoding_rejected_cleanly(self, daemon):
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /solve HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        assert b"501" in raw.partition(b"\r\n")[0]
        assert b"Transfer-Encoding" in raw


def _exchange(sock, method, path, body=None):
    """One request on an open keep-alive socket; returns ``(status,
    decoded JSON payload)``.  A daemon that drops the connection
    instead of answering raises :class:`ConnectionError`."""
    data = b"" if body is None else json.dumps(body).encode()
    sock.sendall(
        f"{method} {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n\r\n"
        .encode() + data
    )
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("the daemon dropped the connection")
        raw += chunk
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("the daemon dropped the connection")
        rest += chunk
    return int(lines[0].split()[1]), json.loads(rest[:length])


class TestFailedRequestsAreAnswered:
    """A request that fails is answered on its connection, counted in
    ``errors``, and the connection stays open for the next request."""

    def _replan(self, daemon, inst, operations):
        from repro.io import instance_to_dict

        body = {
            "instance": instance_to_dict(inst),
            "operations": operations,
            "anchored": True,
        }
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=60
        ) as sock:
            before = _exchange(sock, "GET", "/stats")[1]["errors"]
            status, payload = _exchange(sock, "POST", "/replan", body)
            after = _exchange(sock, "GET", "/stats")[1]["errors"]
        return status, payload, after - before

    def test_frozen_before_its_predecessor_is_400(self, daemon):
        status, payload, errors = self._replan(
            daemon,
            make_instance("chain", 5, 4, seed=1),
            [{"op": "complete", "task": 2, "start": 0.0}],
        )
        assert (status, payload["code"]) == (400, "invalid_evolution")
        assert (
            "precedence (1, 2) violated: task 2 starts at 0.0 before task 1"
            in payload["error"]
        )
        assert errors == 1

    def test_frozen_over_capacity_is_400(self, daemon):
        status, payload, errors = self._replan(
            daemon,
            make_instance("erdos_renyi", 12, 4, seed=3),
            [{"op": "complete", "task": j, "start": 0.0} for j in range(6)],
        )
        assert (status, payload["code"]) == (400, "invalid_evolution")
        assert re.search(
            r"completed task \d+ frozen at 0\.0: capacity exceeded",
            payload["error"],
        )
        assert errors == 1

    def test_fault_after_the_anchored_step_is_500_internal(
        self, daemon, monkeypatch
    ):
        """Only refused frozen starts are the client's 400: a
        :class:`ValueError` from the diff that follows them is the
        daemon's fault."""
        from repro.service import broker

        def broken(*args, **kwargs):
            raise ValueError("diff fault")

        monkeypatch.setattr(broker, "diff_schedules", broken)
        status, payload, errors = self._replan(
            daemon,
            make_instance("chain", 5, 4, seed=1),
            [{"op": "complete", "task": 0, "start": 0.0}],
        )
        assert (status, payload["code"]) == (500, "internal")
        assert payload["error"] == "ValueError: diff fault"
        assert errors == 1

    def test_handler_fault_is_500_internal(self, daemon, monkeypatch):
        async def broken(self, data, deadline=None):
            raise RuntimeError("handler fault")

        monkeypatch.setattr(SolverService, "_handle_replan", broken)
        # Listen on the service's own logger: whether ``repro`` records
        # propagate to the root depends on ``repro.obs.log.configure``.
        records = []
        listener = logging.Handler(logging.ERROR)
        listener.emit = records.append
        logger = logging.getLogger("repro.service")
        logger.addHandler(listener)
        try:
            status, payload, errors = self._replan(daemon, _inst(), [])
        finally:
            logger.removeHandler(listener)
        assert (status, payload["code"]) == (500, "internal")
        assert payload["error"] == "RuntimeError: handler fault"
        assert errors == 1
        (record,) = records
        assert record.getMessage() == "POST /replan failed"
        assert record.exc_info[0] is RuntimeError


class TestSingleFlight:
    def test_concurrent_identical_requests_solve_once(self):
        from repro.pipeline import registry
        from repro.pipeline.base import AllotmentResult

        calls = []
        release = threading.Event()

        def slow_allotment(instance, *, rho=None, mu=None):
            calls.append(threading.get_ident())
            release.wait(10.0)
            return AllotmentResult(
                allotment=tuple([1] * instance.n_tasks)
            )

        registry._register(
            registry.ALLOTMENT, "slow-singleflight-probe",
            slow_allotment, "test-only", (),
        )
        try:
            inst = _inst(seed=7)
            with serve_in_thread(workers=0) as handle:
                replies = []

                def fire():
                    with ServiceClient(port=handle.port) as c:
                        replies.append(
                            c.solve(
                                inst,
                                algorithm="slow-singleflight-probe",
                            )
                        )

                threads = [
                    threading.Thread(target=fire) for _ in range(4)
                ]
                for t in threads:
                    t.start()
                # Let every request reach the broker and park on the
                # in-flight future before the solve is allowed through.
                deadline = time.monotonic() + 10.0
                while (
                    handle.service.stats()["deduped"] < 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                release.set()
                for t in threads:
                    t.join(30.0)
                stats = handle.service.stats()
            assert len(calls) == 1, "solver must run exactly once"
            assert len(replies) == 4
            deduped = [r["deduped"] for r in replies]
            assert deduped.count(True) == 3
            schedules = {json.dumps(r["schedule"]) for r in replies}
            assert len(schedules) == 1
            assert stats["deduped"] == 3 and stats["solved"] == 1
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop(
                "slow-singleflight-probe"
            )


class TestPoolRecovery:
    def test_crashed_worker_does_not_brick_the_daemon(self):
        # Registered strategies reach fork-start pool workers (the
        # Linux default), so a crash probe can be injected per-test.
        import os as _os

        from repro.pipeline import registry

        def crashing_allotment(instance, *, rho=None, mu=None):
            _os._exit(13)  # kill the worker process outright

        registry._register(
            registry.ALLOTMENT, "crash-probe", crashing_allotment,
            "test-only", (),
        )
        try:
            inst = _inst(seed=9)
            with serve_in_thread(workers=1) as handle:
                # No retries: pool failures are a retryable code, and
                # transparently re-submitting a *deterministic* poison
                # pill would just crash fresh workers until the breaker
                # degrades it to in-process — where _os._exit would
                # take the daemon with it.
                retry = RetryPolicy(max_attempts=1)
                with ServiceClient(port=handle.port, retry=retry) as c:
                    with pytest.raises(ServiceError) as exc:
                        c.solve(inst, algorithm="crash-probe")
                    assert exc.value.http_status == 500
                    assert exc.value.code == "pool_failure"
                    # The resident pool was replaced: the next miss
                    # must solve normally, not 500 forever.
                    reply = c.solve(inst)
                    assert reply["status"] == "ok"
                    assert c.stats()["pool_restarts"] >= 1
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop("crash-probe")


class TestCacheIntegration:
    def test_disk_spill_round_trip_through_service(self, tmp_path):
        insts = [_inst(seed=s) for s in range(3)]
        with serve_in_thread(
            workers=0, cache_capacity=1, spill_dir=str(tmp_path / "sp")
        ) as handle:
            with ServiceClient(port=handle.port) as c:
                first = [c.solve(i) for i in insts]  # evicts 0, 1 to disk
                again = c.solve(insts[0])
                stats = c.stats()["cache"]
        assert all(not r["cached"] for r in first)
        assert again["cached"] is True
        assert again["schedule"] == first[0]["schedule"]
        assert stats["spill_hits"] >= 1 and stats["spill_writes"] >= 2


def _post_raw(handle, body, path="/solve"):
    """POST ``path`` with a raw body; returns (status, body bytes, the
    X-Repro-Digest header)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request(
            "POST", path, body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("X-Repro-Digest")
    finally:
        conn.close()


def _direct(inst):
    ref = SchedulingPipeline("jz", "earliest-start").solve(inst)
    return {
        "instance_key": inst.content_key(),
        "makespan": ref.makespan,
        "lower_bound": ref.lower_bound,
        "schedule": schedule_to_dict(ref.schedule),
    }


def _served(reply):
    return {k: reply[k] for k in (
        "instance_key", "makespan", "lower_bound", "schedule"
    )}


class TestKeyedHitPath:
    """A key-only ``POST /solve`` answers memory-tier hits without
    building an instance, from memoized reply bytes; a full body is
    always parsed and hashed once, and its hit answers the same bytes."""

    def test_hit_never_builds_the_instance(self, client, monkeypatch):
        from repro.service import broker

        inst = _inst(seed=11)
        first = client.solve(inst)

        def refuse(data):
            raise AssertionError("a cache hit built the instance")

        monkeypatch.setattr(broker, "instance_from_dict", refuse)
        again = client.solve(inst)
        assert again["cached"] is True
        assert again["schedule"] == first["schedule"]

    def test_malformed_twins_of_a_cached_instance_are_400(self, client):
        from repro.io import instance_to_dict

        inst = _inst(seed=12)
        data = instance_to_dict(inst)
        client.solve(data)
        hits = client.stats()["cache"]["hits"]

        def twin(mutate, keep_fingerprint=True):
            d = json.loads(json.dumps(data))
            mutate(d)
            if not keep_fingerprint:
                del d["fingerprint"]
            return d

        def wrong_fingerprint(d):
            d["fingerprint"] = "0" * 64

        def flatten_edges(d):
            d["edges"] = [[x for e in d["edges"] for x in e]]

        def fractional_m(d):
            d["m"] = 4.5

        def short_row(d):
            d["tasks"][3]["times"].pop()

        def true_time(d):
            d["tasks"][3]["times"][0] = True

        def back_arc(d):
            u, v = d["edges"][0]
            d["edges"].append([v, u])

        twins = [
            twin(wrong_fingerprint),
            twin(flatten_edges),
            twin(fractional_m),
            twin(short_row),
            twin(true_time),
            twin(back_arc, keep_fingerprint=False),
        ]
        for bad in twins:
            with pytest.raises(ServiceError) as exc:
                client.solve(bad)
            assert exc.value.http_status == 400
            assert exc.value.code == "invalid_instance"
        stats = client.stats()
        assert stats["cache"]["hits"] == hits
        assert stats["errors"] == len(twins)
        assert client.solve(data)["cached"] is True

    def test_repeated_hits_are_byte_identical_and_digested(self, daemon):
        from repro.io import instance_to_dict

        body = {"instance": instance_to_dict(_inst(seed=13))}
        status, miss, _ = _post_raw(daemon, body)
        assert status == 200
        hits = [_post_raw(daemon, body) for _ in range(3)]
        # The bytes a per-request encoding of the cached payload gives.
        expected = json.dumps({**json.loads(miss), "cached": True}).encode()
        for status, raw, digest in hits:
            assert status == 200
            assert raw == expected
            assert digest == "sha256-" + hashlib.sha256(raw).hexdigest()

    def test_respond_faults_damage_a_copy_of_the_memoized_bytes(self):
        from repro.io import instance_to_dict
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="corrupt_payload", site="broker.respond", at=[1]),
            FaultSpec(kind="torn_payload", site="broker.respond", at=[2]),
        ])
        inst = _inst(seed=20)
        body = {"key": inst.content_key()}
        with serve_in_thread(workers=0, faults=plan) as handle:
            _, miss, _ = _post_raw(handle, {"instance": instance_to_dict(inst)})
            _, corrupt, digest = _post_raw(handle, body)
            with pytest.raises((http.client.HTTPException, OSError)):
                _post_raw(handle, body)  # torn mid-body
            status, clean, clean_digest = _post_raw(handle, body)
        expected = json.dumps({**json.loads(miss), "cached": True}).encode()
        assert corrupt != expected
        assert digest == "sha256-" + hashlib.sha256(expected).hexdigest()
        assert status == 200 and clean == expected
        assert clean_digest == digest

    def test_full_body_miss_hashes_the_instance_once(
        self, daemon, monkeypatch
    ):
        from repro import io
        from repro.core import fingerprint
        from repro.io import instance_to_dict

        body = {"instance": instance_to_dict(_inst(seed=30))}
        digest = fingerprint.content_digest
        calls = []

        def counting(*args):
            calls.append(args[:2])
            return digest(*args)

        # Both keying paths reach the one digest through these names.
        monkeypatch.setattr(fingerprint, "content_digest", counting)
        monkeypatch.setattr(io, "content_digest", counting)
        status, raw, _ = _post_raw(daemon, body)
        assert status == 200 and json.loads(raw)["cached"] is False
        assert len(calls) == 1

    def test_full_body_hit_answers_the_key_only_bytes(self, daemon, client):
        from repro.io import instance_to_dict

        inst = _inst(seed=31)
        client.solve(inst)
        key_hit = _post_raw(daemon, {"key": inst.content_key()})
        before = client.stats()["cache"]
        full_hit = _post_raw(daemon, {"instance": instance_to_dict(inst)})
        after = client.stats()["cache"]
        assert full_hit[0] == 200
        assert full_hit == key_hit  # status, body bytes, X-Repro-Digest
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]

    def test_invalid_instance_outranks_an_unknown_strategy(self, daemon):
        from repro.io import instance_to_dict

        malformed = instance_to_dict(_inst(seed=32))
        malformed["tasks"][0]["times"].pop()
        status, raw, _ = _post_raw(daemon, {
            "instance": malformed, "algorithm": "no-such-algorithm",
        })
        assert status == 400
        assert json.loads(raw)["code"] == "invalid_instance"

    def test_unknown_strategy_counts_no_hit_or_miss(self, daemon, client):
        from repro.io import instance_to_dict

        inst = _inst(seed=33)
        client.solve(inst)  # cached under the default pair
        before = client.stats()
        status, raw, _ = _post_raw(daemon, {
            "instance": instance_to_dict(inst), "priority": "no-such-rule",
        })
        after = client.stats()
        assert status == 400
        assert json.loads(raw)["code"] == "unknown_strategy"
        for field in ("hits", "misses"):
            assert after["cache"][field] == before["cache"][field]
        assert after["errors"] == before["errors"] + 1

    def test_alternating_instances_on_a_one_entry_cache(self):
        a, b = _inst(seed=14), _inst(seed=15)
        want = {id(a): _direct(a), id(b): _direct(b)}
        with serve_in_thread(workers=0, cache_capacity=1) as handle:
            with ServiceClient(port=handle.port) as c:
                for inst in (a, a, b, b, a, b, a, a, b):
                    assert _served(c.solve(inst)) == want[id(inst)]

    def test_a_re_solved_entry_is_encoded_afresh(self):
        from repro.io import instance_to_dict

        a, b = _inst(seed=16), _inst(seed=17)
        with serve_in_thread(workers=0, cache_capacity=1) as handle:
            with ServiceClient(port=handle.port) as c:
                first = instance_to_dict(a)
                first["name"] = "first"
                c.solve(first)
                assert c.solve(first)["name"] == "first"  # memoized
                c.solve(b)  # evicts a
                second = dict(first, name="second")
                assert c.solve(second)["cached"] is False
                # A hit now encodes the re-solved payload, never the
                # bytes memoized for the evicted one.
                assert c.solve(first)["name"] == "second"

    def test_hit_body_memo_under_thread_contention(self):
        service = SolverService(cache_capacity=4)
        keys = [(f"k{i}", "jz", "earliest-start") for i in range(10)]
        # Two payload objects per key: a re-solve replaces the cached
        # object, and its memo entry must follow.
        payloads = {
            key: [{"status": "ok", "key": key[0], "round": r}
                  for r in range(2)]
            for key in keys
        }
        wrong = []

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(400):
                key = rng.choice(keys)
                payload = rng.choice(payloads[key])
                got = service._hit_body(key, payload)
                if json.loads(got.body) != {
                    **payload, "cached": True, "deduped": False
                } or got.digest != hashlib.sha256(got.body).hexdigest():
                    wrong.append((key, payload))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(s,)) for s in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(service._hit_bodies) <= service.cache.capacity

    def test_spill_tier_hit_counts_one_hit(self, tmp_path):
        a, b = _inst(seed=18), _inst(seed=19)
        with serve_in_thread(
            workers=0, cache_capacity=1, spill_dir=str(tmp_path / "sp")
        ) as handle:
            with ServiceClient(port=handle.port) as c:
                c.solve(a)
                c.solve(b)  # spills a
                before = c.stats()["cache"]
                reply = c.solve(a)
                after = c.stats()["cache"]
        assert reply["cached"] is True
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert after["spill_hits"] - before["spill_hits"] == 1


class TestKeyFirst:
    """``ServiceClient.solve`` sends the content key only, and the
    instance only after a ``404 unknown_key``."""

    def test_cached_solve_is_one_exchange_with_the_full_body_bytes(
        self, daemon
    ):
        from repro.io import instance_to_dict

        inst = _inst(seed=21)
        body = {"instance": instance_to_dict(inst)}
        assert _post_raw(daemon, body)[0] == 200  # full-body miss
        status, full_hit, full_digest = _post_raw(daemon, body)
        assert status == 200
        with ServiceClient(port=daemon.port) as c:
            before = c.stats()
            reply = c.solve(inst)
            after = c.stats()
        # The solve's one exchange, plus the second /stats read itself.
        assert after["requests"] - before["requests"] == 2
        assert after["cache"]["hits"] - before["cache"]["hits"] == 1
        assert reply["cached"] is True
        assert reply == json.loads(full_hit)
        assert _served(reply) == _direct(inst)
        status, raw, digest = _post_raw(daemon, {"key": inst.content_key()})
        assert (status, raw, digest) == (200, full_hit, full_digest)

    def test_unseen_key_is_404_and_counts_only_unknown_keys(
        self, daemon, client
    ):
        inst = _inst(seed=22)
        before = client.stats()
        status, raw, _ = _post_raw(daemon, {"key": inst.content_key()})
        mid = client.stats()
        assert status == 404
        assert json.loads(raw)["code"] == "unknown_key"
        assert mid["errors"] == before["errors"]
        for field in ("hits", "misses"):
            assert mid["cache"][field] == before["cache"][field]
        assert mid["cache"]["unknown_keys"] == (
            before["cache"]["unknown_keys"] + 1
        )
        reply = client.solve(inst)
        after = client.stats()
        assert reply["cached"] is False
        assert after["cache"]["misses"] == mid["cache"]["misses"] + 1
        assert after["cache"]["hits"] == mid["cache"]["hits"]
        assert after["errors"] == before["errors"]

    @pytest.mark.parametrize("body", [
        {"key": "a" * 63},
        {"key": "a" * 65},
        {"key": "A" * 64},
        {"key": "g" * 64},
        {"key": "0" * 63 + "\n"},
        {"key": 7},
        {"key": None},
        {"key": ["0" * 64]},
        {"key": "0" * 64, "instance": {}},
    ])
    def test_malformed_key_body_is_400(self, daemon, body):
        status, raw, _ = _post_raw(daemon, body)
        assert status == 400
        assert json.loads(raw)["code"] == "bad_request"

    def test_key_with_unknown_strategy_is_400(self, daemon):
        status, raw, _ = _post_raw(
            daemon, {"key": "0" * 64, "priority": "no-such-rule"}
        )
        assert status == 400
        assert json.loads(raw)["code"] == "unknown_strategy"

    @pytest.mark.parametrize("value", [0, False, "", [], {}])
    def test_falsy_strategy_name_is_400_not_the_default(self, daemon, value):
        # Only an absent or null field means the service default.
        for field in ("algorithm", "priority"):
            status, raw, _ = _post_raw(
                daemon, {"key": "0" * 64, field: value}
            )
            assert status == 400
            assert json.loads(raw)["code"] == "unknown_strategy"
            status, raw, _ = _post_raw(
                daemon, {"key": "0" * 64, field: None}
            )
            assert json.loads(raw)["code"] == "unknown_key"

    def test_spill_only_entry_is_404_then_the_resend_hits(self, tmp_path):
        a, b = _inst(seed=23), _inst(seed=24)
        with serve_in_thread(
            workers=0, cache_capacity=1, spill_dir=str(tmp_path / "sp")
        ) as handle:
            with ServiceClient(port=handle.port) as c:
                c.solve(a)
                c.solve(b)  # spills a
                status, _, _ = _post_raw(handle, {"key": a.content_key()})
                assert status == 404
                before = c.stats()["cache"]
                resent = c.solve(a)
                mid = c.stats()
                again = c.solve(a)
                after = c.stats()
        assert resent["cached"] is True
        assert mid["cache"]["spill_hits"] - before["spill_hits"] == 1
        assert mid["cache"]["misses"] == before["misses"]
        assert again["cached"] is True
        assert after["requests"] - mid["requests"] == 2
        assert _served(again) == _direct(a)

    def test_resend_carries_the_remaining_budget(self, monkeypatch):
        seen = []
        parse = SolverService._request_deadline

        def recording(headers):
            seen.append(float(headers["x-deadline-ms"]))
            if len(seen) == 1:
                time.sleep(0.2)  # the probe spends some budget
            return parse(headers)

        monkeypatch.setattr(
            SolverService, "_request_deadline", staticmethod(recording)
        )
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(port=handle.port, deadline_ms=60_000) as c:
                reply = c.solve(_inst(seed=25))
        assert reply["cached"] is False
        probe, resend = seen
        assert probe <= 60_000
        assert resend <= probe - 150

    def test_key_first_miss_is_one_attempt(self, client):
        reply = client.solve(_inst(seed=26))
        assert reply["cached"] is False
        assert reply.attempts == 1 and client.last_attempts == 1

    def test_first_hit_of_an_entry_encodes_off_the_loop(
        self, client, monkeypatch
    ):
        threads = []
        encode = SolverService._hit_body

        def recording(self, key, payload):
            threads.append(threading.current_thread().name)
            return encode(self, key, payload)

        monkeypatch.setattr(SolverService, "_hit_body", recording)
        inst = _inst(seed=27)
        client.solve(inst)
        assert client.solve(inst)["cached"] is True
        assert threads and all(
            name.startswith("repro-aux") for name in threads
        )

    def test_fingerprint_claim_is_never_the_key(self, client):
        from repro.io import instance_to_dict

        cached, other = _inst(seed=28), _inst(seed=29)
        client.solve(cached)
        # Another instance's arrays under the cached one's fingerprint:
        # a client that trusted the claim would be served the wrong
        # schedule.
        forged = dict(
            instance_to_dict(other), fingerprint=cached.content_key()
        )
        before = client.stats()
        with pytest.raises(ServiceError) as exc:
            client.solve(forged)
        after = client.stats()
        assert exc.value.http_status == 400
        assert exc.value.code == "invalid_instance"
        # Unkeyable, so sent whole at once: no probe was answered 404.
        assert after["cache"]["unknown_keys"] == (
            before["cache"]["unknown_keys"]
        )
        assert after["cache"]["hits"] == before["cache"]["hits"]


class TestLifecycle:
    def test_shutdown_delivers_in_flight_response(self):
        # A solve racing POST /shutdown must still get its reply: the
        # drain only force-closes idle connections.
        from repro.pipeline import registry
        from repro.pipeline.base import AllotmentResult

        release = threading.Event()

        def slow_allotment(instance, *, rho=None, mu=None):
            release.wait(10.0)
            return AllotmentResult(
                allotment=tuple([1] * instance.n_tasks)
            )

        registry._register(
            registry.ALLOTMENT, "slow-drain-probe", slow_allotment,
            "test-only", (),
        )
        try:
            inst = _inst(seed=11)
            handle = serve_in_thread(workers=0)
            box = {}

            def solver():
                with ServiceClient(port=handle.port) as c:
                    box["reply"] = c.solve(
                        inst, algorithm="slow-drain-probe"
                    )

            t = threading.Thread(target=solver)
            t.start()
            deadline = time.monotonic() + 10.0
            while (
                handle.service.stats()["inflight"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            with ServiceClient(port=handle.port) as c:
                c.shutdown()
            release.set()
            t.join(30.0)
            handle._thread.join(30.0)
            assert box["reply"]["status"] == "ok"
            assert not handle._thread.is_alive()
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop(
                "slow-drain-probe"
            )

    def test_shutdown_endpoint_stops_the_daemon(self):
        handle = serve_in_thread(workers=0)
        with ServiceClient(port=handle.port) as c:
            assert c.health()["status"] == "ok"
            assert c.shutdown()["status"] == "shutting-down"
        handle._thread.join(10.0)
        assert not handle._thread.is_alive()

    def test_bind_failure_raises_instead_of_hanging(self):
        with serve_in_thread(workers=0) as running:
            with pytest.raises(RuntimeError, match="failed to start"):
                serve_in_thread(workers=0, port=running.port)

    def test_start_twice_raises(self):
        import asyncio

        async def _go():
            service = SolverService(workers=0)
            await service.start(port=0)
            with pytest.raises(RuntimeError, match="already started"):
                await service.start(port=0)
            service.request_stop()
            await service.serve_forever()

        asyncio.run(_go())

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError):
            SolverService(workers=-1)
        with pytest.raises(Exception):
            SolverService(workers=0, algorithm="nope")

    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
