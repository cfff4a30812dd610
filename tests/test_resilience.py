"""Unit tests for the resilience primitives (:mod:`repro.resilience`):
deterministic fault plans and clocks, retry backoff, deadline budgets,
the circuit breaker, the ambient engine seam — and the
``read_jsonl`` truncated-final-line regression (a fault-injection
finding promoted to a fixed contract).
"""

import json
import warnings

import pytest

from repro.engine import BatchRunner, read_jsonl, write_jsonl
from repro.resilience import (
    FAULT_KINDS,
    CircuitBreaker,
    Deadline,
    FaultClock,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    RetryPolicy,
    ambient,
    as_clock,
    injected,
)
from repro.workloads import make_instance


class TestFaultSpec:
    def test_rate_draws_are_deterministic_pure_functions(self):
        spec = FaultSpec(kind="slow_solve", site="broker.solve", rate=0.3)
        draws = [spec.fires_at(seed=7, index=i) for i in range(200)]
        assert draws == [spec.fires_at(seed=7, index=i) for i in range(200)]
        # A different seed gives a different (but equally fixed) pattern.
        assert draws != [spec.fires_at(seed=8, index=i) for i in range(200)]
        # The empirical rate is in the right ballpark.
        assert 0.15 < sum(draws) / 200 < 0.45

    def test_rate_edge_cases(self):
        never = FaultSpec(kind="solve_error", site="s", rate=0.0)
        always = FaultSpec(kind="solve_error", site="s", rate=1.0)
        assert not any(never.fires_at(0, i) for i in range(50))
        assert all(always.fires_at(0, i) for i in range(50))

    def test_at_fires_exactly_there(self):
        spec = FaultSpec(kind="socket_reset", site="s", at=[0, 3])
        assert [spec.fires_at(99, i) for i in range(5)] == [
            True, False, False, True, False,
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", site="s", rate=0.1)
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind="slow_solve", site="s")
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind="slow_solve", site="s", rate=0.1, at=[1])
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="slow_solve", site="s", rate=1.5)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(kind="slow_solve", site="s", rate=0.1, max_fires=0)


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.uniform(0.07, seed=42, delay_s=0.5)
        path = tmp_path / "plan.json"
        plan.dump(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.to_dict() == plan.to_dict()

    def test_uniform_covers_every_kind(self):
        plan = FaultPlan.uniform(0.1)
        assert {s.kind for s in plan.specs} == set(FAULT_KINDS)

    def test_uniform_site_filter(self):
        plan = FaultPlan.uniform(0.1, sites=["broker.respond"])
        assert plan.sites == ("broker.respond",)
        assert {s.kind for s in plan.specs} == {
            "socket_reset", "torn_payload", "corrupt_payload",
        }

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError, match="format"):
            FaultPlan.from_dict({"format": "something-else"})
        with pytest.raises(ValueError, match="unknown FaultSpec field"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "slow_solve", "site": "s",
                             "rate": 0.1, "color": "red"}]}
            )


class TestFaultClock:
    def test_two_clocks_same_plan_fire_identically(self):
        plan = FaultPlan.uniform(0.25, seed=11)
        a, b = FaultClock(plan), FaultClock(plan)
        for _ in range(100):
            fa = a.maybe("broker.solve")
            fb = b.maybe("broker.solve")
            assert (fa.kind if fa else None) == (fb.kind if fb else None)
        assert a.fired() == b.fired()
        assert a.invocations() == b.invocations()

    def test_counters_are_per_site(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="solve_error", site="a", at=[1]),
            FaultSpec(kind="solve_error", site="b", at=[0]),
        ])
        clock = FaultClock(plan)
        assert clock.maybe("a") is None          # a@0
        assert clock.maybe("b").kind == "solve_error"  # b@0
        assert clock.maybe("a").kind == "solve_error"  # a@1
        assert clock.fired() == {
            "a:solve_error": 1, "b:solve_error": 1,
        }
        assert clock.total_fired() == 2

    def test_max_fires_caps_firings(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="solve_error", site="s", rate=1.0, max_fires=2),
        ])
        clock = FaultClock(plan)
        fired = [clock.maybe("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_reset_replays_the_plan(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="solve_error", site="s", at=[0]),
        ])
        clock = FaultClock(plan)
        assert clock.maybe("s") is not None
        assert clock.maybe("s") is None
        clock.reset()
        assert clock.maybe("s") is not None

    def test_unarmed_clock_is_cheap_and_silent(self):
        clock = FaultClock()
        assert not clock.armed
        assert clock.maybe("anything") is None
        assert clock.fired() == {}

    def test_as_clock_coercions(self):
        plan = FaultPlan.uniform(0.1)
        clock = FaultClock(plan)
        assert as_clock(clock) is clock
        assert as_clock(plan).plan == plan
        assert as_clock(plan.to_dict()).plan == plan
        assert not as_clock(None).armed
        with pytest.raises(TypeError):
            as_clock(42)

    def test_injected_exception_types(self):
        assert isinstance(InjectedFault("solve_error", "s"), RuntimeError)
        assert isinstance(InjectedIOError("spill_io_error", "s"), OSError)
        assert "injected:" in str(InjectedFault("solve_error", "s"))


class TestDeadline:
    def test_unbounded(self):
        d = Deadline(None)
        assert d.remaining_ms() is None
        assert d.remaining_s() is None
        assert not d.expired()

    def test_budget_counts_down_and_expires(self):
        d = Deadline(10_000)
        remaining = d.remaining_ms()
        assert 0 < remaining <= 10_000
        assert not d.expired()
        zero = Deadline(0)
        assert zero.expired()
        assert zero.remaining_ms() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1)

    def test_nan_budget_rejected_and_inf_unbounded(self):
        # NaN would read as exhausted (remaining 0) yet never expire.
        with pytest.raises(ValueError):
            Deadline(float("nan"))
        forever = Deadline(float("inf"))
        assert not forever.expired()
        assert forever.remaining_ms() == float("inf")


class TestRetryPolicy:
    def test_full_jitter_within_exponential_ceiling(self):
        import random

        policy = RetryPolicy(base_s=0.1, cap_s=10.0,
                             rng=random.Random(0))
        for attempt in range(6):
            ceiling = min(10.0, 0.1 * 2 ** attempt)
            for _ in range(50):
                assert 0.0 <= policy.backoff_s(attempt) <= ceiling

    def test_retry_after_is_a_floor(self):
        import random

        policy = RetryPolicy(base_s=0.001, cap_s=10.0,
                             rng=random.Random(0))
        for _ in range(20):
            assert policy.backoff_s(0, retry_after_s=1.5) >= 1.5

    def test_retry_after_capped(self):
        import random

        policy = RetryPolicy(base_s=0.001, cap_s=0.5,
                             rng=random.Random(0))
        assert policy.backoff_s(0, retry_after_s=60.0) <= 0.5

    def test_deadline_clamps_sleep(self):
        import random

        policy = RetryPolicy(base_s=5.0, cap_s=60.0,
                             rng=random.Random(0))
        d = Deadline(50)  # 50 ms left
        assert policy.backoff_s(3, deadline=d) <= 0.05 + 1e-6

    def test_seeded_rng_reproducible(self):
        import random

        a = RetryPolicy(rng=random.Random(7))
        b = RetryPolicy(rng=random.Random(7))
        assert [a.backoff_s(i) for i in range(8)] == [
            b.backoff_s(i) for i in range(8)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        policy = RetryPolicy()
        with pytest.raises(ValueError):
            policy.backoff_s(-1)


class TestCircuitBreaker:
    def _breaker(self, **kw):
        self.now = 0.0
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("window_s", 30.0)
        kw.setdefault("cooldown_s", 10.0)
        return CircuitBreaker(clock=lambda: self.now, **kw)

    def test_trips_after_threshold_within_window(self):
        br = self._breaker()
        assert br.state == "closed"
        br.record_failure()
        br.record_failure()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()

    def test_spread_out_failures_do_not_trip(self):
        br = self._breaker()
        for _ in range(5):
            br.record_failure()
            self.now += 31.0  # each failure ages out of the window
        assert br.state == "closed"

    def test_half_open_single_probe_then_close(self):
        br = self._breaker()
        for _ in range(3):
            br.record_failure()
        self.now += 10.0  # cooldown elapses
        assert br.state == "half_open"
        assert br.allow()        # the probe slot
        assert not br.allow()    # concurrent callers wait
        br.record_success()
        assert br.state == "closed"
        assert br.allow()

    def test_failed_probe_reopens(self):
        br = self._breaker()
        for _ in range(3):
            br.record_failure()
        self.now += 10.0
        assert br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        self.now += 10.0
        assert br.allow()  # probes again after another cooldown
        assert br.stats()["opens"] == 2
        assert br.stats()["probes"] == 2

    def test_success_when_closed_is_a_noop(self):
        br = self._breaker()
        br.record_failure()
        br.record_success()
        assert br.state == "closed"
        assert br.stats()["recent_failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(window_s=0)


class TestEngineSeam:
    def test_injected_solve_error_is_an_isolated_error_record(self):
        instances = [
            make_instance("layered", 10, 4, seed=s) for s in range(3)
        ]
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="solve_error", site="engine.solve", at=[1]),
        ])
        with injected(plan) as clock:
            result = BatchRunner(workers=0).run(instances)
            assert clock.fired() == {"engine.solve:solve_error": 1}
        assert ambient() is None  # disarmed on exit
        assert result.n_ok == 2 and result.n_errors == 1
        bad = result.records[1]
        assert not bad.ok
        assert "injected: solve_error" in bad.error
        # The neighbours are untouched and correct.
        assert result.records[0].ok and result.records[2].ok

    def test_unarmed_runs_are_unaffected(self):
        inst = make_instance("layered", 10, 4, seed=0)
        result = BatchRunner(workers=0).run([inst])
        assert result.n_ok == 1


class TestReadJsonlTruncation:
    """Satellite regression: a writer killed mid-append leaves a
    partial final line — every complete record before it must still be
    readable (previously: ``json.loads`` crash, whole file lost)."""

    def _records(self, n=3):
        instances = [
            make_instance("layered", 8, 2, seed=s) for s in range(n)
        ]
        return BatchRunner(workers=0).run(instances).records

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(self._records(3), path)
        text = path.read_text()
        lines = text.splitlines()
        # Simulate a mid-append kill: last record cut in half.
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        with pytest.warns(UserWarning, match="truncated final record"):
            records = read_jsonl(path)
        assert len(records) == 2
        assert [r.index for r in records] == [0, 1]

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(self._records(3), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn *middle* line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed JSON record"):
            read_jsonl(path)

    def test_intact_file_round_trips_without_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        originals = self._records(2)
        write_jsonl(originals, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = read_jsonl(path)
        assert len(records) == 2
        assert records[0].makespan == originals[0].makespan

    def test_truncated_sole_line_yields_empty_list(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"index": 0, "status"')
        with pytest.warns(UserWarning, match="truncated final record"):
            assert read_jsonl(path) == []

    def test_truncation_of_json_value_not_syntax_error(self, tmp_path):
        # A truncation can still parse as valid JSON of the wrong shape
        # (e.g. a bare string) — that is a schema error, not silent
        # acceptance.
        path = tmp_path / "records.jsonl"
        write_jsonl(self._records(1), path)
        line = path.read_text().splitlines()[0]
        path.write_text(line + "\n" + json.dumps("not-an-object"))
        with pytest.raises(ValueError, match="expected a JSON object"):
            read_jsonl(path)
