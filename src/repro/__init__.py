"""repro — reproduction of Jansen & Zhang, *Scheduling malleable tasks with
precedence constraints* (SPAA 2005 / JCSS 78 (2012) 245–259).

Public API overview
-------------------

Model building::

    from repro import MalleableTask, Instance, Dag
    from repro.models import power_law_profile
    from repro.dag import cholesky_dag

Solving::

    from repro import jz_schedule
    report = jz_schedule(instance)          # the paper's 3.2919-approx alg.
    report.schedule.makespan
    report.lower_bound                      # LP (9) optimum  <= OPT
    report.ratio_bound                      # proven r(m) of Theorem 4.1
    report.allotment, report.mu, report.rho # phase-1 α′, cap, rounding

``jz_schedule`` is the ``jz`` × ``earliest-start`` pipeline below and
returns its :class:`SolveReport`.  Theory (Tables 2/3/4 and the
asymptotics of Section 4.3) lives in :mod:`repro.theory`; baselines
(Lepère–Trystram–Woeginger, the greedy critical-path allotment, and an
exact branch-and-bound for tiny instances) live in
:mod:`repro.baselines`, and the naive anchors are the ``sequential``,
``full`` and ``greedy`` strategies.

Pipeline API (:mod:`repro.pipeline`) — every solver as a registered
strategy pair::

    from repro import SchedulingPipeline, list_strategies, solve

    report = solve(instance)                # jz × earliest-start default
    report = SchedulingPipeline("ltw", "critical-path").solve(instance)
    report.makespan, report.lower_bound, report.observed_ratio
    [i.name for i in list_strategies("allotment")]
    # ['bsearch', 'full', 'greedy-critical-path', 'jz', 'ltw',
    #  'sequential']

Evolution API (:mod:`repro.core.evolve` + :mod:`repro.pipeline
.incremental`) — online instance mutation with delta re-solves::

    from repro import Instance, ReplanSession, evolve

    child, delta = evolve(instance, [
        {"op": "retime", "task": 3, "times": [9.0, 5.0]},
        {"op": "complete", "task": 0, "start": 0.0},
    ])
    # or imperatively:
    ev = instance.evolve()
    ev.retime(3, [9.0, 5.0]); ev.mark_completed(0, 0.0)
    child, delta = ev.commit()

    session = ReplanSession(instance); session.solve()
    result = session.resolve_delta(child, delta)     # warm LP re-solve
    result.mode, result.lp_edits, result.disturbance.n_disturbed

Non-structural deltas re-solve LP (9) inside a resident dual-simplex
model — only the changed bounds/coefficients are pushed, the basis is
reused — and ``resolve_delta(..., replan=True)`` swaps in the anchored,
disturbance-minimizing schedule (completed tasks frozen, survivors kept
near their old slots).  The daemon exposes the same flow as
``POST /evolve`` and ``POST /replan``; the CLI as ``repro evolve``.

Batch API (:mod:`repro.engine`)::

    from repro import BatchRunner

    result = BatchRunner(workers=4).run(instances)   # process-pool fan-out
    result.records[0].makespan        # bit-identical to jz_schedule(...)
    result.throughput                 # solved instances / second
    result.errors()                   # per-instance failures, isolated

    BatchRunner(workers=4, algorithm="ltw", priority="fifo").run(instances)

The batch engine preserves input order, isolates failures (one bad
instance yields an ``"error"`` record instead of poisoning the batch) and
returns makespans, lower bounds and ratio bounds bit-identical to the
sequential path for any worker count — for *any* registered strategy
combination.  ``python -m repro batch --algorithm NAME --priority RULE``
exposes the same engine on the command line with schema-versioned
JSON-lines output.

Service API (:mod:`repro.service`) — the resident solver daemon::

    from repro.service import ServiceClient, serve_in_thread

    with serve_in_thread(workers=4) as handle:          # or: repro serve
        with ServiceClient(port=handle.port) as client:
            reply = client.solve(instance, algorithm="jz")
            reply["makespan"], reply["cached"], reply["schedule"]

Solve requests are keyed by the instance's *content fingerprint*
(:meth:`Instance.content_key`): repeated and concurrent identical
requests are served from a counted LRU result cache (optional disk
spill) or collapsed into a single in-flight solve, and misses run on
the batch engine's persistent process pool — every served schedule is
bit-identical to a direct ``SchedulingPipeline`` solve.
(:mod:`repro.service` is not imported here to keep ``import repro``
lean; import it explicitly.)

Experiments API (:mod:`repro.experiments`) — declarative campaigns::

    from repro.experiments import CampaignRunner, load_spec
    from repro.experiments.report import write_report

    result = CampaignRunner(load_spec("experiments/specs/smoke.toml")).run()
    result.summary()                  # cells, solved vs cached, errors
    write_report(result.output_dir)   # Markdown + HTML with Gantt SVGs

Campaigns expand a ``{family × model × size × m × seed} × {strategy
pair}`` grid, execute it through the batch engine and persist every
cell under its instance content fingerprint — interrupted runs resume,
finished runs re-solve nothing (``repro campaign run|report|list`` on
the CLI; like the service, not imported here — import it explicitly).
"""

from .core import (
    AssumptionError,
    Instance,
    InstanceDelta,
    InstanceEvolution,
    JZParameters,
    MalleableTask,
    evolve,
    extract_heavy_path,
    jz_parameters,
    list_schedule,
    ratio_bound,
    solve_allotment_lp,
)
from .bounds import LowerBounds, lower_bounds
from .dag import Dag
from .engine import BatchRecord, BatchResult, BatchRunner
from .pipeline import (
    DeltaReport,
    ReplanSession,
    SchedulingPipeline,
    SolveReport,
    UnknownStrategyError,
    jz_schedule,
    list_strategies,
    solve,
)
from .schedule import (
    Schedule,
    ScheduleDiff,
    ScheduledTask,
    assert_feasible,
    diff_schedules,
    render_gantt,
    replan_schedule,
    simulate,
    validate_schedule,
)

__version__ = "1.5.4"

__all__ = [
    "AssumptionError",
    "BatchRecord",
    "BatchResult",
    "BatchRunner",
    "Dag",
    "DeltaReport",
    "Instance",
    "InstanceDelta",
    "InstanceEvolution",
    "JZParameters",
    "LowerBounds",
    "MalleableTask",
    "ReplanSession",
    "Schedule",
    "ScheduleDiff",
    "ScheduledTask",
    "SchedulingPipeline",
    "SolveReport",
    "UnknownStrategyError",
    "assert_feasible",
    "diff_schedules",
    "evolve",
    "extract_heavy_path",
    "jz_parameters",
    "jz_schedule",
    "list_schedule",
    "list_strategies",
    "lower_bounds",
    "ratio_bound",
    "render_gantt",
    "replan_schedule",
    "simulate",
    "solve",
    "solve_allotment_lp",
    "validate_schedule",
    "__version__",
]
