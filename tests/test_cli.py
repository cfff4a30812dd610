"""Tests for the command-line interface."""

import asyncio
import json

import pytest

from repro.cli import build_parser, main
from repro.service import SolverService


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.family == "layered"
        assert args.processors == 8

    def test_serve_help_lists_every_endpoint(self, capsys):
        """``serve --help`` names exactly the paths the daemon's 404
        reply lists as known."""
        status, reply = asyncio.run(
            SolverService()._dispatch("GET", "/no-such-path", {}, b"")
        )
        assert status == 404
        known = set(reply["error"].split("known:")[1].split())
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        help_text = capsys.readouterr().out
        listed = help_text.split("endpoints:")[1].split("client:")[0]
        assert {w for w in listed.split() if w.startswith("/")} == known


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo", "--size", "10", "-m", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "observed ratio" in out

    def test_params(self, capsys):
        assert main(["params", "16"]) == 0
        out = capsys.readouterr().out
        assert "mu=6" in out and "rho=0.26" in out

    @pytest.mark.parametrize("which", ["2", "3"])
    def test_tables(self, which, capsys):
        assert main(["tables", which, "--m-max", "6"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 5

    def test_table4_small(self, capsys):
        assert main(["tables", "4", "--m-max", "4"]) == 0

    def test_generate_and_solve(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert (
            main(
                [
                    "generate",
                    "--family",
                    "diamond",
                    "--size",
                    "8",
                    "-m",
                    "4",
                    "-o",
                    str(inst_path),
                ]
            )
            == 0
        )
        data = json.loads(inst_path.read_text())
        assert data["format"] == "repro-instance"

        sched_path = tmp_path / "sched.json"
        assert (
            main(["solve", str(inst_path), "-o", str(sched_path), "--gantt"])
            == 0
        )
        out = capsys.readouterr().out
        assert "makespan=" in out
        assert sched_path.exists()

        # Validate the produced schedule.
        assert main(["validate", str(inst_path), str(sched_path)]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out

    def test_generate_stdout(self, capsys):
        assert main(["generate", "--family", "chain", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert '"repro-instance"' in out

    @pytest.mark.parametrize(
        "algorithm", ["jz", "ltw", "sequential", "full", "greedy"]
    )
    def test_solve_all_algorithms(self, algorithm, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(
            ["generate", "--family", "layered", "--size", "10", "-m", "4",
             "--seed", "2", "-o", str(inst_path)]
        )
        capsys.readouterr()
        assert (
            main(["solve", str(inst_path), "--algorithm", algorithm]) == 0
        )
        assert "makespan=" in capsys.readouterr().out

    def test_solve_with_priority(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(
            ["generate", "--family", "layered", "--size", "10", "-m", "4",
             "--seed", "5", "-o", str(inst_path)]
        )
        capsys.readouterr()
        rc = main(
            ["solve", str(inst_path), "--algorithm", "jz",
             "--priority", "critical-path"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "priority=critical-path" in out
        assert "makespan=" in out

    def test_demo_with_algorithm(self, capsys):
        rc = main(
            ["demo", "--size", "8", "-m", "4", "--seed", "2",
             "--algorithm", "greedy-critical-path", "--priority", "fifo"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "greedy-critical-path × fifo" in out
        assert "makespan" in out

    def test_strategies_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("jz", "ltw", "bsearch", "earliest-start", "fifo"):
            assert name in out
        assert "alias: greedy" in out

    def test_strategies_kind_filter(self, capsys):
        assert main(["strategies", "--kind", "phase2"]) == 0
        out = capsys.readouterr().out
        assert "earliest-start" in out
        assert "--algorithm" not in out

    def test_validate_rejects_tampered_schedule(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        sched_path = tmp_path / "sched.json"
        main(
            ["generate", "--family", "diamond", "--size", "6", "-m", "4",
             "--seed", "3", "-o", str(inst_path)]
        )
        main(["solve", str(inst_path), "-o", str(sched_path)])
        data = json.loads(sched_path.read_text())
        # Introduce a genuine precedence violation: start everything at 0.
        for e in data["entries"]:
            e["start"] = 0.0
        sched_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(inst_path), str(sched_path)]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def _solved_pair(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        sched_path = tmp_path / "sched.json"
        main(
            ["generate", "--family", "diamond", "--size", "6", "-m", "4",
             "-o", str(inst_path)]
        )
        main(["solve", str(inst_path), "-o", str(sched_path)])
        return inst_path, sched_path

    def test_validate_missing_file_is_a_load_error(self, tmp_path, capsys):
        """Exit 1 means INFEASIBLE; an input that cannot be read is 2."""
        inst_path, sched_path = self._solved_pair(tmp_path)
        capsys.readouterr()
        missing = tmp_path / "missing.json"
        assert main(["validate", str(missing), str(sched_path)]) == 2
        assert main(["validate", str(inst_path), str(missing)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("validate: cannot load instance ")
        assert err[1].startswith("validate: cannot load schedule ")
        assert all(str(missing) in line for line in err)

    def test_validate_entry_without_start_is_a_load_error(
        self, tmp_path, capsys
    ):
        inst_path, sched_path = self._solved_pair(tmp_path)
        data = json.loads(sched_path.read_text())
        del data["entries"][0]["start"]
        sched_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(inst_path), str(sched_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"validate: cannot load schedule {str(sched_path)!r}: "
            "missing field 'start'"
        )


class TestSolveErrorPaths:
    """`solve` must exit non-zero with a diagnostic, never a traceback."""

    def _instance_file(self, tmp_path, capsys):
        p = tmp_path / "inst.json"
        main(
            ["generate", "--family", "diamond", "--size", "6", "-m", "4",
             "--seed", "0", "-o", str(p)]
        )
        capsys.readouterr()
        return p

    def test_unknown_algorithm(self, tmp_path, capsys):
        p = self._instance_file(tmp_path, capsys)
        rc = main(["solve", str(p), "--algorithm", "quantum-annealing"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown allotment strategy 'quantum-annealing'" in err
        assert "jz" in err  # lists registered strategies

    def test_unknown_priority(self, tmp_path, capsys):
        p = self._instance_file(tmp_path, capsys)
        rc = main(["solve", str(p), "--priority", "random"])
        assert rc == 2
        assert "unknown phase2 strategy 'random'" in capsys.readouterr().err

    def test_infeasible_machine_count(self, tmp_path, capsys):
        import json as _json

        p = self._instance_file(tmp_path, capsys)
        data = _json.loads(p.read_text())
        data["m"] = 0
        p.write_text(_json.dumps(data))
        rc = main(["solve", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot load instance" in err
        assert "m must be >= 1" in err

    def test_machine_count_profile_mismatch(self, tmp_path, capsys):
        import json as _json

        p = self._instance_file(tmp_path, capsys)
        data = _json.loads(p.read_text())
        data["m"] = 2  # profiles still cover 4 processors
        p.write_text(_json.dumps(data))
        rc = main(["solve", str(p)])
        assert rc == 2
        assert "cannot load instance" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["solve", "/no/such/file.json"])
        assert rc == 2
        assert "cannot load instance" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc = main(["solve", str(p)])
        assert rc == 2
        assert "cannot load instance" in capsys.readouterr().err

    def test_algorithm_that_rejects_instance(self, tmp_path, capsys):
        # ltw requires m >= 2; a valid m=1 instance must yield a
        # diagnostic and exit 1, not a traceback.
        p = tmp_path / "m1.json"
        main(
            ["generate", "--family", "chain", "--size", "3", "-m", "1",
             "-o", str(p)]
        )
        capsys.readouterr()
        rc = main(["solve", str(p), "--algorithm", "ltw"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ltw failed on" in err
        assert "m must be >= 2" in err

    def test_demo_algorithm_failure_is_diagnosed(self, capsys):
        rc = main(
            ["demo", "--family", "chain", "--size", "3", "-m", "1",
             "--algorithm", "ltw"]
        )
        assert rc == 1
        assert "ltw failed on" in capsys.readouterr().err


class TestUsageErrors:
    """A bad option value is an argparse usage error: one line on
    stderr and exit 2 (exit 1 is ``validate``'s "infeasible")."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--family", "nope"],
            ["generate", "--family", "nope"],
            ["trace", "--family", "nope"],
            ["batch", "--generate", "nope"],
        ],
    )
    def test_unknown_family(self, argv, capsys):
        err = self._usage_error(argv, capsys)
        assert "invalid choice: 'nope'" in err
        assert "layered" in err  # names the known families

    @pytest.mark.parametrize("command", ["demo", "generate", "trace", "batch"])
    def test_unknown_model(self, command, capsys):
        err = self._usage_error([command, "--model", "nope"], capsys)
        assert "invalid choice: 'nope'" in err
        assert "power" in err  # names the known models

    def test_negative_workers(self, capsys):
        err = self._usage_error(["batch", "-w", "-3"], capsys)
        assert "workers must be an integer >= 0" in err

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["demo", "-m", "0"], 1),
            (["generate", "--processors", "-2"], 1),
            (["trace", "-m", "0"], 1),
            (["trace", "--capacity", "-1"], 1),
            (["batch", "--generate", "layered", "-m", "0"], 1),
            (["batch", "--generate", "layered", "--count", "-2"], 1),
            (["batch", "--generate", "layered", "--count", "0"], 1),
            (["chaos", "--requests", "-1"], 1),
            (["chaos", "--instances", "0"], 1),
            (["chaos", "--size", "1"], 2),
            (["chaos", "-m", "0"], 1),
            (["campaign", "run", "spec.toml", "--wave-size", "0"], 1),
            (["params", "0"], 1),
            (["params", "-4"], 1),
            (["tables", "2", "--m-max", "1"], 2),
        ],
    )
    def test_out_of_range_number(self, argv, low, capsys):
        err = self._usage_error(argv, capsys)
        assert f"must be an integer >= {low}, got '{argv[-1]}'" in err

    @pytest.mark.parametrize("flag", ["--chunksize", "--batch-kernel"])
    def test_removed_batch_flag(self, flag, capsys):
        err = self._usage_error(["batch", flag, "2", "a.json"], capsys)
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--family", "layered", "--size", "1"],
            ["generate", "--family", "layered", "--size", "0"],
            ["trace", "--family", "layered", "--size", "1"],
            ["batch", "--generate", "layered", "--size", "1", "-w", "0"],
        ],
    )
    def test_size_the_generator_refuses(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(
            f"{argv[0]}: cannot generate a layered instance of --size "
        )
        assert captured.out == ""

    @pytest.mark.parametrize("port", ["70000", "-5", "65536", "http"])
    def test_out_of_range_serve_port(self, port, capsys):
        err = self._usage_error(["serve", "--port", port], capsys)
        assert "port must be an integer in 0-65535" in err

    @pytest.mark.parametrize("ms", ["nan", "NaN", "-5", "-0.5", "-inf"])
    def test_bad_chaos_deadline(self, ms, capsys):
        # Not "no deadline" (0 is): a budget the client would refuse.
        err = self._usage_error(
            ["chaos", "--requests", "1", "--instances", "1",
             f"--deadline-ms={ms}"],
            capsys,
        )
        assert f"must be a number of milliseconds >= 0, got '{ms}'" in err

    @pytest.mark.parametrize(
        "target", ["127.0.0.1:99999", "127.0.0.1:0", "127.0.0.1:-5"]
    )
    def test_out_of_range_attach_port(self, target, capsys):
        assert main(["chaos", "--attach", target]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"chaos: --attach wants HOST:PORT, got {target!r}\n"
        )
        assert "HOLDS" not in captured.out


class TestTrace:
    ARGV = ["trace", "--family", "layered", "--size", "40", "-m", "4",
            "--seed", "1"]

    def _trace(self, tmp_path, capsys, *extra, name="trace.json"):
        path = tmp_path / name
        assert main(self.ARGV + ["-o", str(path), *extra]) == 0
        out = capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        return out, [e for e in events if e["ph"] == "X"]

    @staticmethod
    def _printed(out, prefix):
        (line,) = [ln for ln in out.splitlines() if prefix in ln]
        return line.split(prefix)[1].strip()

    def test_jz_spans(self, tmp_path, capsys):
        _out, spans = self._trace(tmp_path, capsys)
        names = sorted(e["name"] for e in spans)
        assert names == sorted(
            ["solve", "phase1.allot", "lp.assemble", "lp.solve",
             "phase2.list"]
        )

    def test_profile_digest_is_deterministic(self, tmp_path, capsys):
        first, _ = self._trace(tmp_path, capsys, name="a.json")
        second, _ = self._trace(tmp_path, capsys, name="b.json")
        prefix = "deterministic profile sha256:"
        digest = self._printed(first, prefix)
        assert digest and digest == self._printed(second, prefix)

    def test_bsearch_probe_spans(self, tmp_path, capsys):
        out, spans = self._trace(tmp_path, capsys, "--algorithm", "bsearch")
        probes = [e for e in spans if e["name"] == "lp.probe"]
        solves = [e for e in spans if e["name"] == "lp.solve"]
        assert len(probes) == int(self._printed(out, "bsearch_probes =")) > 0
        eps = 0.01  # ts/dur are rounded to 1e-3 µs
        for probe in probes:
            end = probe["ts"] + probe["dur"]
            inside = [
                s for s in solves
                if s["tid"] == probe["tid"]
                and s["ts"] >= probe["ts"] - eps
                and s["ts"] + s["dur"] <= end + eps
            ]
            assert len(inside) == 1
