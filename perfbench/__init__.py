"""The repository benchmark: four named workloads, end-to-end metrics and
a per-module layer split.  Entry point: ``python3 perfbench/run.py``;
see ``perfbench/README.md`` for the workloads and the metric tables."""
