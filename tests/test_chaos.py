"""Chaos property suite: the fail-correct-or-fail-loud contract.

Every test here drives real traffic through a real daemon (background
thread, real TCP) whose seams are armed with a deterministic
:class:`~repro.resilience.FaultPlan`, and asserts the resilience
layer's one non-negotiable invariant:

    every 200 is **bit-identical** to a direct pipeline solve and
    validator-clean, and every failure is a **typed** error —
    zero wrong schedules, zero untyped failures, under every fault
    schedule.

Runs are deterministic end to end (seeded fault draws, seeded
workload, seeded retry jitter), so these are exact regression tests,
not flaky statistical ones.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.resilience import (
    FAULT_KINDS,
    SEAMS,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    drive_chaos,
    run_chaos,
)
from repro.service import serve_in_thread

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_cli(args):
    """``python -m repro *args`` in a subprocess with a timeout: a
    daemon that accepted a plan it should refuse would serve forever."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )

#: Small-but-real session dimensions shared by most tests: enough
#: requests that cache hits, evictions, spill promotion and dedup all
#: happen, small enough that the whole module stays fast.
_SMALL = dict(n_requests=18, n_instances=4, size=10, m=4)


class TestNoFaultBaseline:
    def test_rate_zero_is_perfect(self):
        report = run_chaos(FaultPlan.uniform(0.0, seed=1), **_SMALL)
        assert report.goodput == 1.0
        assert report.availability == 1.0
        assert report.wrong == 0
        assert report.untyped_failures == 0
        assert report.faults_fired == {}
        assert report.total_attempts == report.n_requests
        assert report.cache_hits > 0  # the workload revisits instances

    def test_report_dict_is_json_clean(self):
        report = run_chaos(FaultPlan.uniform(0.0), **_SMALL)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["fail_correct_or_loud"] is True
        assert data["plan"]["format"] == "repro-fault-plan"


class TestUniformChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.05, 0.2])
    def test_fail_correct_or_loud_under_uniform_faults(self, seed, rate):
        report = run_chaos(FaultPlan.uniform(rate, seed=seed), **_SMALL)
        assert report.fail_correct_or_loud, report.wrong_details
        # The session must actually have been chaotic at these rates —
        # a silently disarmed seam would pass the contract vacuously.
        assert sum(report.faults_fired.values()) > 0
        # Retries keep goodput high even at a brutal 20% rate.
        assert report.goodput >= 0.8

    def test_same_plan_same_outcome(self):
        plan = FaultPlan.uniform(0.15, seed=9)
        a = run_chaos(plan, **_SMALL)
        b = run_chaos(plan, **_SMALL)
        assert a.faults_fired == b.faults_fired
        assert a.ok_identical == b.ok_identical
        assert a.typed_errors == b.typed_errors
        assert a.total_attempts == b.total_attempts


class TestEveryFaultKind:
    """Each fault kind, injected surgically (``at=[...]`` on its natural
    seam), must fire *and* leave the contract intact."""

    #: Each kind's natural seam: the first site the table lists for it.
    _SITE = {kind: sites[0] for kind, sites in SEAMS.items()}

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_kind_fires_and_contract_holds(self, kind):
        site = self._SITE[kind]
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind=kind, site=site, at=[0, 2],
                      param={"delay_s": 0.01, "hang_s": 0.05}),
        ])
        report = run_chaos(plan, **_SMALL)
        key = f"{site}:{kind}"
        assert report.faults_fired.get(key, 0) >= 1, report.faults_fired
        assert report.fail_correct_or_loud, report.wrong_details
        # Targeted single faults are always absorbed by retries.
        assert report.goodput == 1.0

    def test_spill_read_fault_degrades_to_resolve(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="spill_io_error", site="cache.spill_read",
                      rate=1.0),
        ])
        report = run_chaos(plan, **_SMALL)
        assert report.faults_fired.get(
            "cache.spill_read:spill_io_error", 0
        ) >= 1
        assert report.fail_correct_or_loud, report.wrong_details
        assert report.goodput == 1.0

    def test_corrupt_payload_never_reaches_the_caller_silently(self):
        # Corrupt *every* solve/replan response: the client's digest
        # check must catch each one; with retries also corrupted, the
        # outcome must be a typed error — never a wrong schedule.
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="corrupt_payload", site="broker.respond",
                      rate=1.0),
        ])
        report = run_chaos(plan, **_SMALL)
        assert report.ok_identical == 0
        assert report.wrong == 0
        assert report.untyped_failures == 0
        assert set(report.typed_errors) == {"corrupt_payload"}

    def test_solve_error_every_time_is_typed(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="solve_error", site="broker.solve", rate=1.0),
        ])
        report = run_chaos(plan, **_SMALL)
        assert report.ok_identical == 0
        assert report.wrong == 0
        assert report.untyped_failures == 0
        assert set(report.typed_errors) == {"injected_fault"}


class TestChaosCLI:
    def test_generated_plan_session_exits_zero(self, capsys):
        rc = main([
            "chaos", "--rate", "0.1", "--seed", "5",
            "--requests", "10", "--instances", "3", "--size", "10",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fail-correct-or-loud HOLDS" in out

    def test_json_report_written(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main([
            "chaos", "--rate", "0.0", "--requests", "6",
            "--instances", "2", "--size", "10",
            "--json", str(out_file),
        ])
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data["goodput"] == 1.0
        assert data["fail_correct_or_loud"] is True

    def test_plan_file_replay_and_attach_mode(self, tmp_path, capsys):
        plan = FaultPlan.uniform(0.1, seed=3)
        plan_file = tmp_path / "plan.json"
        plan.dump(plan_file)
        with serve_in_thread(
            workers=0, faults=plan, cache_capacity=2,
            spill_dir=str(tmp_path / "spill"),
        ) as handle:
            rc = main([
                "chaos", "--plan", str(plan_file),
                "--attach", f"{handle.host}:{handle.port}",
                "--requests", "10", "--instances", "3", "--size", "10",
            ])
            fired = handle.service.faults.fired()
        assert rc == 0
        assert sum(fired.values()) > 0
        assert "fail-correct-or-loud HOLDS" in capsys.readouterr().out

    def test_bad_rate_rejected(self, capsys):
        assert main(["chaos", "--rate", "1.5"]) == 2
        assert "--rate" in capsys.readouterr().err

    def test_bad_attach_rejected(self, capsys):
        assert main(["chaos", "--attach", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["serve", "--port", "0", "-w", "0", "--fault-plan"],
        ["chaos", "--requests", "1", "--instances", "1", "--plan"],
    ])
    def test_plan_arming_a_seam_that_never_runs_its_kind_rejected(
        self, command, tmp_path
    ):
        # socket_reset is executed at broker.respond only: armed at
        # broker.solve it would be tallied as fired and do nothing.
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "format": "repro-fault-plan", "seed": 0,
            "faults": [{"kind": "socket_reset", "site": "broker.solve",
                        "rate": 0.5}],
        }))
        proc = _run_cli([*command, str(plan_file)])
        assert proc.returncode == 2
        assert "cannot load fault plan" in proc.stderr
        assert "no seam executes socket_reset" in proc.stderr
        assert "HOLDS" not in proc.stdout

    @pytest.mark.parametrize("command", [
        ["serve", "--port", "0", "-w", "0", "--fault-plan"],
        ["chaos", "--requests", "1", "--instances", "1", "--plan"],
    ])
    def test_malformed_plan_is_a_load_error(self, command, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "format": "repro-fault-plan", "seed": 0,
            "faults": [{"site": "broker.solve", "rate": 0.5}],
        }))
        proc = _run_cli([*command, str(plan_file)])
        assert proc.returncode == 2
        assert "cannot load fault plan" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestAttachedDaemonStats:
    def test_faults_surface_in_stats_endpoint(self):
        plan = FaultPlan.uniform(0.2, seed=4)
        with serve_in_thread(workers=0, faults=plan) as handle:
            report = drive_chaos(
                handle.host, handle.port, plan,
                n_requests=12, n_instances=3, size=10, m=4,
                retry=RetryPolicy(max_attempts=5, base_s=0.01,
                                  cap_s=0.1),
            )
            from repro.service import ServiceClient

            with ServiceClient(port=handle.port) as c:
                stats = c.stats()
        assert report.fail_correct_or_loud, report.wrong_details
        res = stats["resilience"]
        assert res["faults_armed"] is True
        assert sum(res["faults_fired"].values()) >= 1
        assert res["breaker"]["state"] in ("closed", "open", "half_open")
