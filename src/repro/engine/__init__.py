"""Batch scheduling engine: parallel fan-out of any registered pipeline.

High-throughput front end over :mod:`repro.pipeline`::

    from repro.engine import BatchRunner

    result = BatchRunner(workers=4, algorithm="ltw").run(instances)
    result.throughput              # solved instances / second
    result.records[0].makespan     # bit-identical to a sequential solve
    result.errors()                # isolated per-instance failures

See :mod:`repro.engine.batch` for the runner, record types and the
schema-versioned JSON-lines export the ``python -m repro batch``
subcommand uses.
"""

from .batch import (
    SCHEMA_VERSION,
    BatchItem,
    BatchRecord,
    BatchResult,
    BatchRunner,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "SCHEMA_VERSION",
    "BatchItem",
    "BatchRecord",
    "BatchResult",
    "BatchRunner",
    "read_jsonl",
    "write_jsonl",
]
