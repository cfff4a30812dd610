"""Tests for the observability stack (:mod:`repro.obs`): the metrics
registry and its Prometheus exposition, the span tracer and its
deterministic counters, structured logging, and the wiring through the
batch engine and the service daemon (``/stats`` ↔ ``GET /metrics``).
"""

import io
import json
import logging
import re
import urllib.request
from pathlib import Path

import pytest

from repro.engine import BatchRunner
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    MetricsRegistry,
    flatten_counters,
    lint_exposition,
    render_registries,
)
from repro.pipeline import SchedulingPipeline
from repro.service import ServiceClient, SolverService, serve_in_thread
from repro.workloads import make_instance

_ROOT = Path(__file__).resolve().parents[1]


def _inst(seed=0, size=12, m=4):
    return make_instance("layered", size, m, model="power", seed=seed)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "a counter", ("k",))
        c.labels("a").inc()
        c.labels("a").inc(2)
        c.labels("b").inc()
        assert c.labels("a").value == 3
        # Gauges are scrape-time collector samples, never stored.
        reg.register_collector(
            lambda: [("g", "gauge", "a gauge", [({}, 4.0)])]
        )
        assert reg.family_values("g") == {(): 4.0}
        h = reg.histogram("h_seconds", "a histogram")
        h.observe(0.003)
        h.observe(100.0)  # lands in +Inf
        assert h.labels().count == 2

    def test_counter_name_must_end_total(self):
        with pytest.raises(ValueError, match="_total"):
            MetricsRegistry().counter("bad_name", "x")

    def test_counters_never_go_down(self):
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reregistration_is_idempotent_same_shape_only(self):
        reg = MetricsRegistry()
        a = reg.counter("same_total", "h", ("x",))
        b = reg.counter("same_total", "h", ("x",))
        assert a is b
        with pytest.raises(ValueError, match="re-registered"):
            reg.counter("same_total", "h", ("other",))
        with pytest.raises(ValueError, match="re-registered"):
            reg.histogram("same_total", "h", ("x",))

    def test_render_passes_own_lint(self):
        reg = MetricsRegistry()
        reg.counter("r_total", "c", ("k",)).labels('we"ird\\').inc()
        reg.register_collector(
            lambda: [("r_gauge", "gauge", "g", [({}, 1.5)])]
        )
        h = reg.histogram("r_seconds", "h")
        h.observe(0.01)
        h.observe(7.0)
        text = reg.render()
        assert "# TYPE r_gauge gauge" in text
        assert lint_exposition(text) == []

    def test_lint_catches_conformance_errors(self):
        assert lint_exposition("orphan_sample 1\n")
        assert lint_exposition(
            "# TYPE x counter\nx 1\n"
        )  # counter without _total
        bad_hist = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'  # not cumulative
            "h_sum 1\n"
            "h_count 3\n"
        )
        assert any(
            "cumulative" in p for p in lint_exposition(bad_hist)
        )

    def test_counter_state_delta_merge_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("d_total", "", ("k",))
        c.labels("a").inc(2)
        before = reg.counter_state()
        c.labels("a").inc(3)
        c.labels("b").inc(1)
        delta = reg.counters_since(before)
        assert flatten_counters(delta) == {
            'd_total{k="a"}': 3,
            'd_total{k="b"}': 1,
        }
        other = MetricsRegistry()
        other.merge_counter_state(delta)
        assert other.counter("d_total", "", ("k",)).labels("a").value == 3

    def test_render_registries_rejects_colliding_families(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("dup_total").inc()
        b.counter("dup_total").inc()
        with pytest.raises(ValueError, match="more than one"):
            render_registries(a, b)

    def test_collectors_surface_in_render_and_family_values(self):
        reg = MetricsRegistry()
        reg.register_collector(
            lambda: [
                ("virt_total", "counter", "virtual",
                 [({"k": "v"}, 2.0)]),
            ]
        )
        assert 'virt_total{k="v"} 2' in reg.render()
        assert reg.family_values("virt_total") == {("v",): 2.0}
        assert lint_exposition(reg.render()) == []


# ----------------------------------------------------------------------
# span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disarmed_module_span_is_shared_null(self):
        assert obs_trace.active() is None
        s1 = obs_trace.span("anything", x=1)
        s2 = obs_trace.span("else")
        assert s1 is s2  # one shared object, no per-call allocation
        with s1:
            obs_trace.add("nothing", 5)  # no-op, no error

    def test_nested_spans_and_counters(self):
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            with obs_trace.span("outer", n=1):
                with obs_trace.span("inner"):
                    obs_trace.add("work", 3)
                obs_trace.add("outer_work", 1)
            obs_trace.add("loose_work", 2)
        names = [s.name for s in tracer.spans()]
        assert names == ["inner", "outer"]  # completion order
        assert tracer.counter_totals() == {
            "work": 3, "outer_work": 1, "loose_work": 2,
        }
        assert obs_trace.active() is None  # restored on exit

    def test_chrome_export_shape(self):
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            with obs_trace.span("solve", n=10):
                obs_trace.add("pivots", 7)
        doc = tracer.to_chrome()
        json.dumps(doc)  # serializable
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X" and event["name"] == "solve"
        assert event["args"]["n"] == 10 and event["args"]["pivots"] == 7

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = obs_trace.Tracer(capacity=2)
        with obs_trace.tracing(tracer):
            for i in range(5):
                with obs_trace.span(f"s{i}"):
                    pass
        assert [s.name for s in tracer.spans()] == ["s3", "s4"]
        assert tracer.to_chrome()["otherData"]["dropped_spans"] == 3

    def test_deterministic_profile_bit_identical_across_runs(self):
        profiles = []
        for _ in range(2):
            tracer = obs_trace.Tracer()
            with obs_trace.tracing(tracer):
                SchedulingPipeline("jz").solve(_inst(seed=5, size=40))
            profiles.append(
                json.dumps(tracer.deterministic_profile(), sort_keys=True)
            )
        assert profiles[0] == profiles[1]
        assert "lp_pivots" in profiles[0]
        assert "frontier_steps" in profiles[0]


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestObsLog:
    def test_get_logger_namespacing(self):
        assert obs_log.get_logger("engine").name == "repro.engine"
        assert obs_log.get_logger("repro.io").name == "repro.io"
        assert obs_log.get_logger().name == "repro"

    def test_warn_emits_warning_and_json_record(self):
        stream = io.StringIO()
        obs_log.configure(json_lines=True, stream=stream)
        try:
            with pytest.warns(UserWarning, match="something odd"):
                obs_log.warn(
                    "something odd",
                    logger=obs_log.get_logger("engine"),
                    path="/tmp/x",
                    lineno=7,  # collides with a LogRecord attribute
                )
        finally:
            obs_log.get_logger().handlers = [logging.NullHandler()]
        record = json.loads(stream.getvalue())
        assert record["level"] == "WARNING"
        assert record["logger"] == "repro.engine"
        assert record["msg"] == "something odd"
        assert record["category"] == "UserWarning"
        assert record["path"] == "/tmp/x"
        assert record["field_lineno"] == 7

    def test_configure_is_idempotent(self):
        s1, s2 = io.StringIO(), io.StringIO()
        obs_log.configure(json_lines=True, stream=s1)
        obs_log.configure(json_lines=True, stream=s2)
        try:
            obs_log.get_logger("x").warning("only once")
        finally:
            obs_log.get_logger().handlers = [logging.NullHandler()]
        assert s1.getvalue() == ""
        assert s2.getvalue().count("only once") == 1


# ----------------------------------------------------------------------
# batch engine wiring: worker deltas
# ----------------------------------------------------------------------
class TestBatchMetrics:
    def test_summary_carries_metrics_block(self):
        result = BatchRunner(workers=0).run([_inst(seed=1)])
        summary = result.summary()
        assert summary["metrics"] == result.metrics
        assert result.metrics["repro_solver_solves_total"
                              '{algorithm="jz"}'] == 1

    def test_pool_worker_deltas_sum_to_parent_totals(self, tmp_path):
        """The registry property the pool plumbing must preserve: the
        parent's counters gain exactly the sum of the workers' deltas,
        so a pooled batch reports the same metrics as an in-process
        one (timing histograms aside)."""
        from repro.io import save_instance

        # Paths: the batched tier never takes them, so workers=2 pools.
        paths = []
        for s in range(6):
            paths.append(str(tmp_path / f"i{s}.json"))
            save_instance(_inst(seed=s, size=20), paths[-1])
        solo = BatchRunner(workers=0).run(paths)
        with obs_trace.tracing() as tracer:
            pooled = BatchRunner(workers=2).run(paths)
        assert tracer.counter_totals()["pool_chunks"] == 6
        assert "batched" not in pooled.kernel_tiers()
        strip = lambda m: {
            k: v for k, v in m.items() if "seconds" not in k
        }
        assert strip(solo.metrics) == strip(pooled.metrics)
        assert solo.metrics['repro_solver_solves_total{algorithm="jz"}'] == 6


# ----------------------------------------------------------------------
# service: /stats schema, /metrics exposition, fault tally
# ----------------------------------------------------------------------
class TestServiceObservability:
    def test_stats_schema_snapshot(self):
        """The full key set of ``GET /stats`` — the wire contract
        monitoring scripts grep; a key rename is a breaking change."""
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(port=handle.port) as client:
                client.solve(_inst())
                stats = client.stats()
        assert set(stats) == {
            "status", "version", "uptime", "workers", "pool_restarts",
            "default_algorithm", "default_priority",
            "requests", "solved", "deduped", "errors", "kernel_tiers",
            "inflight", "cache", "resilience",
        }
        assert set(stats["resilience"]) == {
            "max_queue_depth", "shed_deadline", "shed_overload",
            "degraded_solves", "avg_solve_s", "retry_after_hint_s",
            "breaker", "faults_armed", "faults_fired",
        }
        assert stats["solved"] == 1
        assert stats["kernel_tiers"] == {"loop": 1}
        assert stats["resilience"]["avg_solve_s"] > 0
        assert isinstance(stats["cache"]["hit_ratio"], float)

    def test_stats_doc_table_names_every_key(self):
        """The field table under ``### GET /stats`` in docs/service.md
        lists exactly the keys ``/stats`` serves, so a removed field
        cannot leave a stale row (nor an added one go undocumented)."""
        doc = (_ROOT / "docs" / "service.md").read_text()
        section = doc.split("### GET /stats\n", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert len(rows) == len(set(rows))
        assert set(rows) == set(SolverService(workers=0).stats())

    def test_metrics_endpoint_serves_lintable_prometheus_text(self):
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(port=handle.port) as client:
                client.solve(_inst())
                client.solve(_inst())  # hit
                stats = client.stats()
            with urllib.request.urlopen(
                f"http://{handle.host}:{handle.port}/metrics"
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode()
        assert lint_exposition(text) == []
        assert "repro_service_requests_total" in text
        assert "repro_service_solved_total 1" in text
        assert 'repro_service_cache_lookups_total{outcome="hit"} 1' in text
        # /stats and /metrics are fed by the same families.
        assert stats["solved"] == 1

    def test_request_stages_are_a_histogram(self):
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(port=handle.port) as client:
                # miss: the key-only probe (decode, encode of the 404),
                # then the resend (decode, parse, encode)
                client.solve(_inst())
                client.solve(_inst())  # key-only hit: decode, encode (once)
                client.solve(_inst())  # key-only hit: decode (memoized body)
            text = urllib.request.urlopen(
                f"http://{handle.host}:{handle.port}/metrics"
            ).read().decode()
        assert lint_exposition(text) == []
        assert "# TYPE repro_service_stage_seconds histogram" in text
        for stage, count in (("decode", 4), ("parse", 1)):
            assert (
                f'repro_service_stage_seconds_count{{stage="{stage}"}} '
                f"{count}" in text
            )
        # A full body is parsed and hashed once; there is no key stage.
        assert 'stage="key"' not in text
        # The 404, the miss reply and the first hit's memoized body; the
        # stats page is not among the bodies encoded before the scrape.
        assert 'repro_service_stage_seconds_count{stage="encode"} 3' in text

    def test_two_services_do_not_share_counts(self):
        with serve_in_thread(workers=0) as h1, \
                serve_in_thread(workers=0) as h2:
            with ServiceClient(port=h1.port) as c1:
                c1.solve(_inst())
                stats1 = c1.stats()
            with ServiceClient(port=h2.port) as c2:
                stats2 = c2.stats()
        assert stats1["solved"] == 1
        assert stats2["solved"] == 0

    def test_fault_tally_is_a_metric_family(self):
        from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
        from repro.service import ServiceError

        plan = FaultPlan(seed=1, specs=[
            FaultSpec(kind="solve_error", site="broker.solve", at=[0]),
        ])
        with serve_in_thread(workers=0, faults=plan) as handle:
            client = ServiceClient(
                port=handle.port, retry=RetryPolicy(max_attempts=1)
            )
            try:
                with pytest.raises(ServiceError, match="injected"):
                    client.solve(_inst())
            finally:
                client.close()
            tally = handle.service.fault_tally()
            stats_tally = handle.service.stats()["resilience"]["faults_fired"]
            scrape = urllib.request.urlopen(
                f"http://{handle.host}:{handle.port}/metrics"
            ).read().decode()
        assert tally == {"broker.solve:solve_error": 1}
        assert stats_tally == tally  # one source of truth
        assert (
            'repro_faults_fired_total{site="broker.solve",'
            'kind="solve_error"} 1' in scrape
        )

    def test_client_response_metadata(self):
        with serve_in_thread(workers=0) as handle:
            with ServiceClient(port=handle.port) as client:
                reply = client.solve(_inst())
        assert reply["status"] == "ok"  # still a dict payload
        assert reply.attempts == 1
        assert reply.latency_s > 0
        assert json.loads(json.dumps(reply)) == dict(reply)
