"""Tests for the batch scheduling engine (:mod:`repro.engine`)."""

import json

import pytest
from two_phase_reference import jz_reference

from repro.engine import (
    SCHEMA_VERSION,
    BatchRunner,
    read_jsonl,
    write_jsonl,
)
from repro.engine.batch import POOL_FAILURE_PREFIX
from repro.io import save_instance
from repro.obs import trace as obs_trace
from repro.pipeline import UnknownStrategyError, solve
from repro.workloads import make_instance


def _instances(count=4, size=10, m=4, seed0=0):
    return [
        make_instance("layered", size, m, model="power", seed=seed0 + k)
        for k in range(count)
    ]


def _saved(instances, directory):
    """Instance JSON paths: the batched tier never takes a path."""
    paths = []
    for k, inst in enumerate(instances):
        path = directory / f"i{k}.json"
        save_instance(inst, path)
        paths.append(str(path))
    return paths


def _traced(run, batch):
    """``run(batch)`` and the ``pool_chunks`` its pool dispatch traced
    (0 when nothing reached the pool)."""
    with obs_trace.tracing() as tracer:
        result = run(batch)
    return result, tracer.counter_totals().get("pool_chunks", 0)


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self, tmp_path):
        instances = _instances(4)
        seq = [jz_reference(i) for i in instances]
        paths = _saved(instances, tmp_path)
        # Pre-built instances are batched in the parent at any worker
        # count; their paths pool at workers=2, one instance per chunk.
        for workers, batch, chunks in (
            (0, instances, 0), (1, instances, 0), (2, instances, 0),
            (2, paths, 4),
        ):
            res, traced = _traced(BatchRunner(workers=workers).run, batch)
            assert traced == chunks
            assert res.kernel_tiers().get("batched", 0) == (
                0 if chunks else 4
            )
            assert res.n_errors == 0
            assert [r.index for r in res.records] == [0, 1, 2, 3]
            for rec, ref in zip(res.records, seq):
                assert rec.makespan == ref.makespan
                assert rec.lower_bound == ref.lower_bound
                assert rec.ratio_bound == ref.ratio_bound
                assert rec.observed_ratio == ref.observed_ratio

    def test_forced_pool_matches_in_process(self):
        # fifo has no batched replica, so workers=2 pools all three.
        instances = _instances(3)
        pooled, chunks = _traced(
            BatchRunner(workers=2, priority="fifo").run, instances
        )
        inproc = BatchRunner(workers=0, priority="fifo").run(instances)
        assert chunks == 3
        assert "batched" not in pooled.kernel_tiers()
        assert [r.makespan for r in pooled.records] == [
            r.makespan for r in inproc.records
        ]
        assert [r.lower_bound for r in pooled.records] == [
            r.lower_bound for r in inproc.records
        ]


class TestFailureIsolation:
    def test_bad_instance_is_isolated(self):
        instances = _instances(2)
        batch = [instances[0], object(), instances[1]]
        # Under earliest-start the two instances are batched and the bad
        # item solves alone in-process; fifo has no batched replica, so
        # at workers=2 all three pool, one per chunk.
        for workers, priority, chunks in (
            (0, "earliest-start", 0),
            (2, "earliest-start", 0),
            (2, "fifo", 3),
        ):
            res, traced = _traced(
                BatchRunner(workers=workers, priority=priority).run, batch
            )
            assert traced == chunks
            assert ("batched" in res.kernel_tiers()) == (chunks == 0)
            assert [r.status for r in res.records] == ["ok", "error", "ok"]
            assert res.n_errors == 1
            err = res.records[1]
            assert err.makespan is None
            assert err.error and "Traceback" in err.error
            assert res.records[0].ok and res.records[2].ok

    def test_errors_listed(self):
        res = BatchRunner(workers=0).run([None])
        assert len(res.errors()) == 1
        assert res.summary()["errors"] == 1


class TestEmptyBatch:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_empty(self, workers):
        res = BatchRunner(workers=workers).run([])
        assert res.records == ()
        assert res.n_ok == 0 and res.n_errors == 0
        assert res.throughput == 0.0 or res.throughput >= 0.0
        s = res.summary()
        assert s["instances"] == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=-1).run([])


class TestStrategySelection:
    def test_solve_many_any_algorithm(self):
        instances = _instances(3)
        for algorithm in ("ltw", "sequential", "greedy-critical-path"):
            res = BatchRunner(workers=0, algorithm=algorithm).run(instances)
            assert res.n_errors == 0
            for rec, inst in zip(res.records, instances):
                assert rec.algorithm == algorithm
                assert rec.priority == "earliest-start"
                ref = solve(inst, algorithm)
                assert rec.makespan == ref.makespan
                assert rec.lower_bound == ref.lower_bound

    def test_priority_forwarded(self):
        instances = _instances(2)
        res = BatchRunner(
            workers=0, algorithm="jz", priority="critical-path"
        ).run(instances)
        assert res.n_errors == 0
        for rec, inst in zip(res.records, instances):
            assert rec.priority == "critical-path"
            assert rec.makespan == solve(
                inst, "jz", "critical-path"
            ).makespan

    def test_alias_canonicalized_in_records(self):
        res = BatchRunner(workers=0, algorithm="greedy").run(_instances(1))
        assert res.records[0].algorithm == "greedy-critical-path"

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(UnknownStrategyError):
            BatchRunner(workers=0, algorithm="nope").run(_instances(1))
        with pytest.raises(UnknownStrategyError):
            BatchRunner(workers=0, priority="nope").run(_instances(1))


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        res = BatchRunner(workers=0).run(_instances(2) + [None])
        path = tmp_path / "records.jsonl"
        n = write_jsonl(res.records, path)
        assert n == 3
        back = read_jsonl(path)
        assert [r.index for r in back] == [0, 1, 2]
        assert back[0].makespan == res.records[0].makespan
        assert back[0].algorithm == "jz"
        assert back[2].status == "error"
        # Every line is standalone JSON.
        lines = path.read_text().splitlines()
        assert all(json.loads(line)["status"] for line in lines)

    def test_every_line_carries_schema_version(self, tmp_path):
        res = BatchRunner(workers=0).run(_instances(1))
        path = tmp_path / "records.jsonl"
        write_jsonl(res.records, path)
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema_version"] == SCHEMA_VERSION

    def test_legacy_unversioned_line_still_reads(self, tmp_path):
        # A PR-1 era record: no schema_version, no algorithm/priority.
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps(
                {"index": 0, "status": "ok", "makespan": 4.2, "m": 4}
            )
            + "\n"
        )
        (rec,) = read_jsonl(path)
        assert rec.makespan == 4.2
        assert rec.algorithm is None and rec.priority is None

    def test_unknown_version_raises_by_default(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"schema_version": 99, "index": 0, "status": "ok"}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="schema_version 99"):
            read_jsonl(path)

    def test_unknown_fields_tolerated_on_known_version(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 2,
                    "index": 0,
                    "status": "ok",
                    "makespan": 1.0,
                    "some_future_column": "ignored",
                }
            )
            + "\n"
        )
        (rec,) = read_jsonl(path)
        assert rec.makespan == 1.0

    def test_missing_required_fields_rejected(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(json.dumps({"makespan": 1.0}) + "\n")
        with pytest.raises(ValueError, match="required"):
            read_jsonl(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "arr.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="JSON object"):
            read_jsonl(path)


class TestCliBatch:
    def test_generate_sweep(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "res.jsonl"
        rc = main(
            [
                "batch", "--generate", "layered", "--count", "3",
                "--size", "8", "-m", "4", "-w", "0", "-o", str(out),
            ]
        )
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 3 and all(r.ok for r in records)
        assert "3/3 ok" in capsys.readouterr().err

    def test_instance_files(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for k in range(2):
            p = tmp_path / f"inst{k}.json"
            main(
                ["generate", "--family", "diamond", "--size", "6",
                 "-m", "4", "--seed", str(k), "-o", str(p)]
            )
            paths.append(str(p))
        capsys.readouterr()
        rc = main(["batch", "-w", "0", *paths])
        assert rc == 0
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 2  # one JSONL line each

    def test_no_input_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["batch"]) == 2

    def test_unloadable_file_isolated_with_exit_code_1(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "repro-instance", "version": 1}')
        good = tmp_path / "good.json"
        main(
            ["generate", "--family", "chain", "--size", "4", "-m", "2",
             "-o", str(good)]
        )
        capsys.readouterr()
        out = tmp_path / "res.jsonl"
        rc = main(["batch", "-w", "0", str(bad), str(good), "-o", str(out)])
        assert rc == 1
        records = read_jsonl(out)
        assert [r.status for r in records] == ["error", "ok"]
        # The unloadable file is named by its path in the error record
        # (paths are loaded inside the worker now) and surfaced on
        # stderr via the error summary.
        assert records[0].name == str(bad)
        assert "bad.json" in capsys.readouterr().err

    def test_algorithm_and_priority_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "res.jsonl"
        rc = main(
            [
                "batch", "--generate", "layered", "--count", "2",
                "--size", "8", "-m", "4", "-w", "0",
                "--algorithm", "ltw", "--priority", "fifo",
                "-o", str(out),
            ]
        )
        assert rc == 0
        records = read_jsonl(out)
        assert all(r.ok for r in records)
        assert all(r.algorithm == "ltw" for r in records)
        assert all(r.priority == "fifo" for r in records)
        assert "ltw×fifo" in capsys.readouterr().err

    def test_unknown_algorithm_exits_2(self, capsys):
        from repro.cli import main

        rc = main(
            ["batch", "--generate", "layered", "--count", "1",
             "-w", "0", "--algorithm", "wat"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown allotment strategy 'wat'" in err
        assert "jz" in err  # the message lists what is registered


class TestChunkedSubmission:
    """Pool runs at workers=2 over a pair the batched tier does not
    replicate (fifo), so every item reaches the pool; the chunk size
    follows from the batch size."""

    #: Batch sizes whose auto chunk size at workers=2 is the key.
    ITEMS = {1: 2, 2: 9, 5: 33}

    @pytest.mark.parametrize("chunksize", sorted(ITEMS))
    def test_chunked_records_identical_to_sequential(self, chunksize):
        count = self.ITEMS[chunksize]
        assert BatchRunner.resolved_chunksize(count, 2) == chunksize
        instances = _instances(count)
        seq = BatchRunner(workers=0, priority="fifo").run(instances)
        pooled, chunks = _traced(
            BatchRunner(workers=2, priority="fifo").run, instances
        )
        assert chunks == -(-count // chunksize)
        assert "batched" not in pooled.kernel_tiers()
        assert pooled.n_errors == 0
        assert [r.index for r in pooled.records] == list(range(count))
        assert [r.makespan for r in pooled.records] == [
            r.makespan for r in seq.records
        ]
        assert [r.lower_bound for r in pooled.records] == [
            r.lower_bound for r in seq.records
        ]

    def test_bad_instance_isolated_within_chunk(self):
        instances = _instances(9)
        instances[2] = object()  # unsolvable; shares chunk [2, 3]
        assert BatchRunner.resolved_chunksize(9, 2) == 2
        res, chunks = _traced(
            BatchRunner(workers=2, priority="fifo").run, instances
        )
        assert chunks == 5
        assert "batched" not in res.kernel_tiers()
        assert res.n_errors == 1
        bad = res.records[2]
        assert "Traceback" in bad.error
        assert POOL_FAILURE_PREFIX not in bad.error
        assert all(
            res.records[k].ok for k in range(9) if k != 2
        ), res.errors()

    def test_auto_chunksize_scales_with_batch(self):
        assert BatchRunner.resolved_chunksize(4, 2) == 1
        assert BatchRunner.resolved_chunksize(64, 2) == 8
        assert BatchRunner.resolved_chunksize(10_000, 2) == 32
        assert BatchRunner.resolved_chunksize(3, 0) == 1


class TestBatchItems:
    """Pre-built instances, file paths and mixtures of both."""

    def test_mixed_instances_and_paths(self, tmp_path):
        instances = _instances(3)
        path = tmp_path / "inst0.json"
        save_instance(instances[0], path)
        res = BatchRunner(workers=0).run(
            [instances[1], str(path), tmp_path / "missing.json"]
        )
        assert [r.status for r in res.records] == ["ok", "ok", "error"]
        ref = BatchRunner(workers=0).run([instances[1], instances[0]])
        assert res.records[0].makespan == ref.records[0].makespan
        assert res.records[1].makespan == ref.records[1].makespan
        assert res.records[2].name == str(tmp_path / "missing.json")

    def test_paths_loaded_in_pool_workers(self, tmp_path):
        instances = _instances(3)
        paths = _saved(instances, tmp_path)
        pooled, chunks = _traced(BatchRunner(workers=2).run, paths)
        seq = BatchRunner(workers=0).run(instances)
        assert chunks == 3
        assert "batched" not in pooled.kernel_tiers()
        assert pooled.n_errors == 0
        assert [r.makespan for r in pooled.records] == [
            r.makespan for r in seq.records
        ]

    def test_include_schedule_matches_pipeline(self):
        from repro.io import schedule_to_dict

        inst = _instances(1)[0]
        rec = BatchRunner(workers=0, include_schedule=True).run(
            [inst]
        ).records[0]
        ref = solve(inst)
        assert rec.schedule == schedule_to_dict(ref.schedule)
        # Without the flag the column stays absent from JSONL lines.
        bare = BatchRunner(workers=0).run([inst]).records[0]
        assert bare.schedule is None
        assert "schedule" not in bare.to_dict()
        assert "schedule" in rec.to_dict()

    def test_schedule_column_round_trips_jsonl(self, tmp_path):
        inst = _instances(1)[0]
        res = BatchRunner(workers=0, include_schedule=True).run([inst])
        path = tmp_path / "records.jsonl"
        write_jsonl(res.records, path)
        back = read_jsonl(path)
        assert back[0].schedule == res.records[0].schedule


class TestExternalExecutor:
    def test_caller_owned_executor_reused_and_not_shut_down(self):
        from concurrent.futures import ThreadPoolExecutor

        instances = _instances(3)
        seq = BatchRunner(workers=0).run(instances)
        with ThreadPoolExecutor(max_workers=2) as pool:
            r1 = BatchRunner(workers=2).run(instances, executor=pool)
            # The pool must survive the first run for the second one.
            r2 = BatchRunner(workers=2).run(instances, executor=pool)
        for res in (r1, r2):
            assert res.n_errors == 0
            assert [r.makespan for r in res.records] == [
                r.makespan for r in seq.records
            ]

    def test_single_instance_batch_uses_external_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        inst = _instances(1)[0]
        with ThreadPoolExecutor(max_workers=1) as pool:
            res = BatchRunner(workers=1).run([inst], executor=pool)
        assert res.records[0].ok


class TestPoolFailureContract:
    def test_pool_error_records_carry_the_marker(self):
        # The service broker's replace-broken-pool logic keys on this
        # prefix; the constant pins the cross-module contract.
        from repro.engine.batch import (
            POOL_FAILURE_PREFIX,
            _pool_error_record,
        )

        rec = _pool_error_record((3, object()), RuntimeError("boom"))
        assert rec["error"].startswith(POOL_FAILURE_PREFIX)
        assert rec["index"] == 3 and rec["status"] == "error"
