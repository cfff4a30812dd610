"""Command-line interface.

``python -m repro <command>`` (or the ``repro-sched`` console script):

* ``demo``       — build a random instance, run a pipeline, print a
  Gantt chart and the report.
* ``solve``      — solve an instance JSON file with any registered
  strategy pair; optionally write the schedule JSON and print a Gantt.
* ``strategies`` — print the strategy registry (allotment + phase-2).
* ``tables``     — print the paper's Table 2 / 3 / 4, regenerated.
* ``params``     — print ρ(m), μ(m), r(m) for a machine size.
* ``generate``   — emit a workload instance JSON to stdout or a file.
* ``validate``   — check a schedule JSON against an instance JSON.
* ``evolve``     — apply a JSON mutation list to an instance
  (:mod:`repro.core.evolve`); with ``--replan``, re-solve the evolved
  instance (warm delta re-solve when eligible) and print the
  disturbance report.
* ``batch``      — solve many instance JSON files (or a generated sweep)
  on a process pool via :mod:`repro.engine`, writing JSON-lines results.
* ``serve``      — run the scheduling daemon (:mod:`repro.service`):
  async solve broker + content-addressed result cache over local HTTP.
* ``campaign``   — declarative experiment campaigns
  (:mod:`repro.experiments`): ``campaign run spec.toml`` executes (or
  resumes) a study grid, ``campaign report`` renders the Markdown +
  HTML report, ``campaign list`` shows known campaign directories.

``solve``, ``demo``, ``batch`` and ``serve`` all accept ``--algorithm``
(allotment strategy) and ``--priority`` (phase-2 rule); ``strategies``
lists the valid names.  ``repro-sched --version`` prints the package
version.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

_STRATEGY_EPILOG = """\
examples:
  %(prog)s inst.json --algorithm jz
  %(prog)s inst.json --algorithm ltw --priority critical-path
  %(prog)s inst.json --algorithm sequential --gantt

`repro-sched strategies` lists every registered --algorithm and
--priority name.
"""

_BATCH_EPILOG = """\
examples:
  %(prog)s a.json b.json --algorithm jz -o records.jsonl
  %(prog)s --generate layered --count 16 --algorithm ltw -w 4
  %(prog)s --generate fork_join --algorithm greedy-critical-path \\
      --priority widest

`repro-sched strategies` lists every registered --algorithm and
--priority name.
"""

_SERVE_EPILOG = """\
examples:
  %(prog)s                          # 127.0.0.1:8705, auto workers
  %(prog)s --port 0 -w 4            # ephemeral port, 4 solver processes
  %(prog)s --cache-size 4096 --spill-dir /var/tmp/repro-cache

endpoints: POST /solve  POST /evolve  POST /replan  GET /stats
           GET /metrics  GET /healthz  POST /shutdown
client:    python -c "from repro.service import ServiceClient; ..."
"""

_EVOLVE_EPILOG = """\
examples:
  %(prog)s inst.json --ops ops.json -o evolved.json
  %(prog)s inst.json --ops ops.json --replan
  %(prog)s inst.json --ops ops.json --replan --anchored \\
      --schedule-out replanned.json
  echo '[{"op": "retime", "task": 3, "times": [9.0, 5.0]}]' | \\
      %(prog)s inst.json --ops -

operation objects (see docs/evolve.md):
  {"op": "retime",      "task": J, "times": [...]}
  {"op": "complete",    "task": J, "start": T}
  {"op": "add_task",    "times": [...], "predecessors": [...],
                        "successors": [...]}
  {"op": "remove_task", "task": J}
  {"op": "add_edge",    "source": U, "target": V}
  {"op": "remove_edge", "source": U, "target": V}
"""

_CHAOS_EPILOG = """\
examples:
  %(prog)s --rate 0.05 --seed 7               # self-contained session
  %(prog)s --rate 0.2 --requests 200 --json chaos.json
  %(prog)s --plan plan.json                   # replay an exact plan
  %(prog)s --plan plan.json --attach 127.0.0.1:8705
                                    # drive a live daemon started with
                                    #   repro-sched serve --fault-plan plan.json

the session proves fail-correct-or-fail-loud: every 200 is
bit-identical to a direct pipeline solve of the same instance, every
failure is a typed error.  exit code 0 iff that holds (wrong == 0 and
untyped == 0).  see docs/resilience.md.
"""

_CAMPAIGN_EPILOG = """\
examples:
  %(prog)s run experiments/specs/smoke.toml
  %(prog)s run experiments/specs/paper_tables.toml -w 4
  %(prog)s report                  # most recent campaign
  %(prog)s report campaigns/smoke
  %(prog)s list

a campaign re-run skips every cell whose result is already in the
campaign cache (content-fingerprint keyed); --fresh re-solves all.
"""


def _workers_arg(value: str):
    """``--workers`` parser: a count >= 0, or 'auto' for the cpu count."""
    if value.strip().lower() == "auto":
        return None
    try:
        workers = int(value)
    except ValueError:
        workers = -1
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer >= 0 or 'auto', got {value!r}"
        )
    return workers


def _int_at_least(low: int):
    """argparse type for counts and sizes: an integer >= ``low``, so a
    value out of range is a usage error (exit 2), not a traceback or an
    empty run."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = low - 1
        if number < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {value!r}"
            )
        return number

    return parse


def _milliseconds(value: str) -> float:
    """``--deadline-ms`` parser: milliseconds >= 0 (0 = no deadline);
    NaN and negative budgets are usage errors, as ``ServiceClient``
    refuses them too."""
    try:
        ms = float(value)
    except ValueError:
        ms = -1.0
    if not ms >= 0:  # false for NaN too
        raise argparse.ArgumentTypeError(
            f"must be a number of milliseconds >= 0, got {value!r}"
        )
    return ms


class _UsageError(Exception):
    """An argument value only a command can refuse (a workload size its
    generator cannot build); :func:`main` prints it as one
    ``<command>: ...`` line and exits 2."""


def _make_workload(args: argparse.Namespace, family: str, seed: int):
    """The generated instance --size/-m/--model describe, with ``seed``;
    a size the family's generator refuses raises :class:`_UsageError`."""
    from .workloads import make_instance

    try:
        return make_instance(
            family, args.size, args.processors,
            model=args.model, seed=seed,
        )
    except ValueError as exc:
        raise _UsageError(
            f"cannot generate a {family} instance of --size "
            f"{args.size}: {exc}"
        ) from None


def _port(value: str) -> Optional[int]:
    """``value`` as a TCP port number 0-65535, else ``None``."""
    if not (value.isascii() and value.isdigit()):
        return None
    port = int(value)
    return port if port <= 65535 else None


def _port_arg(value: str) -> int:
    """``--port`` parser: a TCP port 0-65535 (0 = an ephemeral one)."""
    port = _port(value)
    if port is None:
        raise argparse.ArgumentTypeError(
            f"port must be an integer in 0-65535, got {value!r}"
        )
    return port


def _add_workload_options(
    sub: argparse.ArgumentParser, size: int = 24
) -> None:
    """--family/--size/-m/--model/--seed: a generated workload
    (:func:`repro.workloads.make_instance`), shared by demo, generate
    and trace.  An unknown family or model is a usage error (exit 2)."""
    from .dag import FAMILIES
    from .workloads import MODELS

    sub.add_argument(
        "--family", default="layered", choices=FAMILIES, metavar="FAMILY",
        help="DAG family: %(choices)s (default: %(default)s)",
    )
    sub.add_argument("--size", type=int, default=size)
    sub.add_argument("-m", "--processors", type=_int_at_least(1), default=8)
    sub.add_argument(
        "--model", default="power", choices=MODELS, metavar="MODEL",
        help="speedup model: %(choices)s (default: %(default)s)",
    )
    sub.add_argument("--seed", type=int, default=0)


def _add_strategy_options(sub: argparse.ArgumentParser) -> None:
    """--algorithm / --priority, shared by demo, solve and batch.

    Names are validated against the registry at run time (not via
    argparse ``choices``) so error messages can list what *is*
    registered — including strategies registered by user code.
    """
    sub.add_argument(
        "--algorithm", default="jz", metavar="NAME",
        help="allotment strategy (default: jz; see 'strategies')",
    )
    sub.add_argument(
        "--priority", default="earliest-start", metavar="RULE",
        help="phase-2 priority rule (default: earliest-start; "
             "see 'strategies')",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    from . import __version__
    from .dag import FAMILIES
    from .workloads import MODELS

    p = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Scheduling malleable tasks with precedence constraints "
            "(Jansen & Zhang, SPAA 2005) — reproduction toolkit"
        ),
    )
    p.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", help="run a pipeline on a random instance")
    _add_workload_options(d)
    _add_strategy_options(d)

    s = sub.add_parser(
        "solve",
        help="solve an instance JSON file",
        epilog=_STRATEGY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    s.add_argument("instance", help="path to instance JSON")
    s.add_argument("-o", "--output", help="write schedule JSON here")
    s.add_argument("--gantt", action="store_true", help="print ASCII Gantt")
    _add_strategy_options(s)

    st = sub.add_parser(
        "strategies", help="list registered pipeline strategies"
    )
    st.add_argument(
        "--kind", choices=["allotment", "phase2"], default=None,
        help="restrict to one stage kind",
    )

    t = sub.add_parser("tables", help="regenerate the paper's tables")
    t.add_argument("which", type=int, choices=[2, 3, 4])
    t.add_argument("--m-max", type=_int_at_least(2), default=33)

    pa = sub.add_parser("params", help="print rho(m), mu(m), r(m)")
    pa.add_argument("m", type=_int_at_least(1))

    g = sub.add_parser("generate", help="emit a workload instance JSON")
    _add_workload_options(g)
    g.add_argument("-o", "--output", help="write here instead of stdout")

    v = sub.add_parser(
        "validate",
        help="validate schedule vs instance",
        description=(
            "Check a schedule against an instance.  Exit codes: 0 "
            "feasible, 1 infeasible, 2 a file cannot be loaded."
        ),
    )
    v.add_argument("instance")
    v.add_argument("schedule")

    tr = sub.add_parser(
        "trace",
        help="run one traced solve and export Chrome trace-event JSON",
        description=(
            "Arm the span tracer, solve one instance (a file, or a "
            "generated workload), and write the flight recording as "
            "Chrome/Perfetto trace-event JSON (open it at "
            "chrome://tracing or https://ui.perfetto.dev).  Spans "
            "carry wall-clock timings plus deterministic work "
            "counters (LP pivots, binary-search probes, frontier "
            "sizes); the printed profile digest is bit-identical "
            "across same-seed runs, so a trace doubles as a "
            "regression artifact."
        ),
    )
    tr.add_argument(
        "instance", nargs="?", default=None,
        help="instance JSON to solve (default: generate a workload "
             "from --family/--size/--seed)",
    )
    _add_workload_options(tr, size=200)
    tr.add_argument(
        "-o", "--output", default="trace.json", metavar="FILE",
        help="trace-event JSON destination (default: trace.json)",
    )
    tr.add_argument(
        "--capacity", type=_int_at_least(1), default=8192, metavar="N",
        help="span ring-buffer size (default: 8192; older spans drop)",
    )
    _add_strategy_options(tr)

    e = sub.add_parser(
        "evolve",
        help="apply a mutation list to an instance (optionally replan)",
        epilog=_EVOLVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    e.add_argument("instance", help="path to the parent instance JSON")
    e.add_argument(
        "--ops", required=True, metavar="FILE",
        help=(
            "JSON array of operations (retime / complete / add_task / "
            "remove_task / add_edge / remove_edge); '-' reads stdin"
        ),
    )
    e.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the evolved instance JSON here",
    )
    e.add_argument(
        "--name", default=None, help="name for the evolved instance"
    )
    e.add_argument(
        "--replan", action="store_true",
        help=(
            "re-solve after evolving (warm delta re-solve when "
            "eligible) and print the disturbance report"
        ),
    )
    e.add_argument(
        "--anchored", action="store_true",
        help=(
            "with --replan: keep completed tasks frozen and survivors "
            "near their old slots instead of the free re-solve schedule"
        ),
    )
    e.add_argument(
        "--schedule-out", metavar="FILE",
        help="with --replan: write the new schedule JSON here",
    )
    _add_strategy_options(e)

    b = sub.add_parser(
        "batch",
        help="solve many instances on a process pool",
        epilog=_BATCH_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    b.add_argument(
        "instances", nargs="*", help="instance JSON files to solve"
    )
    b.add_argument(
        "-w", "--workers", type=_workers_arg, default=None,
        help=(
            "process count, or 'auto' for the machine's cpu count "
            "(default: auto; 0/1 = in-process)"
        ),
    )
    b.add_argument(
        "-o", "--output", help="write JSON-lines records here"
    )
    b.add_argument(
        "--generate", choices=FAMILIES, metavar="FAMILY",
        help="generate a sweep of this DAG family instead of reading "
             "files: %(choices)s",
    )
    b.add_argument("--count", type=_int_at_least(1), default=8,
                   help="number of generated instances (with --generate)")
    b.add_argument("--size", type=int, default=24)
    b.add_argument("-m", "--processors", type=_int_at_least(1), default=8)
    b.add_argument("--model", default="power", choices=MODELS,
                   metavar="MODEL", help="speedup model: %(choices)s")
    b.add_argument("--seed", type=int, default=0)
    _add_strategy_options(b)

    sv = sub.add_parser(
        "serve",
        help="run the scheduling daemon (solve broker + result cache)",
        epilog=_SERVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sv.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1 — local only)",
    )
    sv.add_argument(
        "--port", type=_port_arg, default=8705,
        help="TCP port (default: 8705; 0 = pick an ephemeral port)",
    )
    sv.add_argument(
        "-w", "--workers", type=_workers_arg, default=None,
        help=(
            "solver process count, or 'auto' for the machine's cpu "
            "count (default: auto; 0 = solve in-process)"
        ),
    )
    sv.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="in-memory result-cache entries (default: 1024)",
    )
    sv.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help=(
            "spill evicted cache entries to this directory as JSON "
            "(default: no disk tier)"
        ),
    )
    sv.add_argument(
        "--max-queue-depth", type=int, default=256, metavar="N",
        help=(
            "admission control: concurrent solve leaders before new "
            "misses get 503 + Retry-After (default: 256; 0 = "
            "unbounded)"
        ),
    )
    sv.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help=(
            "arm this JSON fault plan's injection seams (chaos "
            "testing; see `repro-sched chaos` and docs/resilience.md)"
        ),
    )
    sv.add_argument(
        "--log-json", action="store_true",
        help=(
            "emit structured logs as JSON lines on stderr (one object "
            "per record; warnings are mirrored as WARNING records)"
        ),
    )
    _add_strategy_options(sv)

    ch = sub.add_parser(
        "chaos",
        help="replay a deterministic fault plan against the daemon "
             "and verify fail-correct-or-fail-loud",
        epilog=_CHAOS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ch.add_argument(
        "--plan", default=None, metavar="FILE",
        help="JSON fault plan to replay (default: build one from "
             "--rate/--seed)",
    )
    ch.add_argument(
        "--rate", type=float, default=0.05,
        help="per-seam fault rate for the generated plan "
             "(default: 0.05; ignored with --plan)",
    )
    ch.add_argument(
        "--seed", type=int, default=0,
        help="plan seed: fixes fault draws, workload and retry jitter "
             "(default: 0; ignored with --plan)",
    )
    ch.add_argument(
        "--requests", type=_int_at_least(1), default=60, metavar="N",
        help="requests to drive (default: 60)",
    )
    ch.add_argument(
        "--instances", type=_int_at_least(1), default=6, metavar="K",
        help="distinct instances cycled through (default: 6)",
    )
    # The chaos workload is layered: two layers at least, so two tasks.
    ch.add_argument("--size", type=_int_at_least(2), default=16,
                    help="tasks per instance (default: 16)")
    ch.add_argument("-m", "--processors", type=_int_at_least(1), default=4,
                    help="machine count (default: 4)")
    ch.add_argument(
        "--deadline-ms", type=_milliseconds, default=30_000.0,
        metavar="MS",
        help="per-request deadline budget (default: 30000; 0 = none)",
    )
    ch.add_argument(
        "-w", "--workers", type=_workers_arg, default=0,
        help="daemon worker processes for the self-contained session "
             "(default: 0 = in-process)",
    )
    ch.add_argument(
        "--attach", default=None, metavar="HOST:PORT",
        help=(
            "drive an already-running daemon instead of booting one "
            "(it must have the same plan armed via serve --fault-plan)"
        ),
    )
    ch.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="write the full chaos report as JSON here ('-' = stdout)",
    )
    _add_strategy_options(ch)

    c = sub.add_parser(
        "campaign",
        help="run and report declarative experiment campaigns",
        epilog=_CAMPAIGN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    csub = c.add_subparsers(dest="campaign_command", required=True)
    cr = csub.add_parser(
        "run", help="execute (or resume) a campaign spec",
    )
    cr.add_argument("spec", help="path to a campaign spec (.toml/.json)")
    cr.add_argument(
        "-w", "--workers", type=_workers_arg, default=None,
        help=(
            "process count, or 'auto' for the machine's cpu count "
            "(default: auto; 0/1 = in-process)"
        ),
    )
    cr.add_argument(
        "-o", "--output", default=None, metavar="DIR",
        help="campaign directory (default: campaigns/<name>)",
    )
    cr.add_argument(
        "--fresh", action="store_true",
        help="drop the campaign cache first; re-solve every cell",
    )
    cr.add_argument(
        "--wave-size", type=_int_at_least(1), default=None, metavar="N",
        help="cells per flush wave (default: auto; the resume "
             "granularity)",
    )
    cr.add_argument(
        "-q", "--quiet", action="store_true",
        help="no per-cell progress lines",
    )
    cp = csub.add_parser(
        "report", help="render report.md + report.html for a campaign",
    )
    cp.add_argument(
        "target", nargs="?", default=None,
        help=(
            "campaign directory or spec file (default: the most "
            "recently modified campaign under campaigns/)"
        ),
    )
    cl = csub.add_parser("list", help="list known campaign directories")
    cl.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory to scan (default: campaigns/)",
    )
    return p


def _build_pipeline(args: argparse.Namespace, command: str):
    """Resolve --algorithm/--priority; returns a pipeline or None after
    printing the registry-aware error (exit code 2 for the caller)."""
    from .pipeline import SchedulingPipeline, UnknownStrategyError

    try:
        return SchedulingPipeline(args.algorithm, args.priority)
    except UnknownStrategyError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import render_gantt

    pipe = _build_pipeline(args, "demo")
    if pipe is None:
        return 2
    inst = _make_workload(args, args.family, args.seed)
    try:
        rep = pipe.solve(inst)
    except Exception as exc:
        print(
            f"demo: {args.algorithm} failed on {inst.name}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(f"instance      : {inst!r}")
    print(f"pipeline      : {rep.algorithm} × {rep.priority}")
    if rep.rho is not None or rep.mu is not None:
        rho = "-" if rep.rho is None else f"{rep.rho:g}"
        print(f"parameters    : rho={rho} mu={rep.mu}")
    print(f"lower bound   : {rep.lower_bound:.4f}")
    print(f"makespan      : {rep.makespan:.4f}")
    proven = (
        f" (proven <= {rep.ratio_bound:.4f})"
        if rep.ratio_bound is not None
        else ""
    )
    print(f"observed ratio: {rep.observed_ratio:.4f}{proven}")
    print(render_gantt(rep.schedule))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import render_gantt
    from .io import load_instance, save_schedule

    pipe = _build_pipeline(args, "solve")
    if pipe is None:
        return 2
    try:
        inst = load_instance(args.instance)
    except Exception as exc:
        # Covers unreadable files, malformed JSON and infeasible
        # instances (e.g. a machine count below 1 or profiles that do
        # not match m) with one clear diagnostic instead of a traceback.
        print(
            f"solve: cannot load instance {args.instance!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        rep = pipe.solve(inst)
    except Exception as exc:
        # A loaded instance the chosen algorithm cannot handle (e.g.
        # ltw needs m >= 2) or a solver failure: diagnostic, not a
        # traceback.
        print(
            f"solve: {args.algorithm} failed on "
            f"{args.instance!r}: {exc}",
            file=sys.stderr,
        )
        return 1
    proven = (
        f"  proven<={rep.ratio_bound:.4f}"
        if rep.ratio_bound is not None
        else ""
    )
    print(
        f"algorithm={rep.algorithm}  priority={rep.priority}\n"
        f"makespan={rep.makespan:.6g}  lower_bound={rep.lower_bound:.6g}"
        f"  observed_ratio={rep.observed_ratio:.4f}{proven}"
    )
    if args.gantt:
        print(render_gantt(rep.schedule))
    if args.output:
        save_schedule(rep.schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    from .pipeline import list_strategies

    flag = {"allotment": "--algorithm", "phase2": "--priority"}
    for info in list_strategies(args.kind):
        alias = (
            f" (alias: {', '.join(info.aliases)})" if info.aliases else ""
        )
        print(f"{info.kind:<10} {flag[info.kind]:<12} {info.name}{alias}")
        if info.summary:
            print(f"{'':<10} {'':<12}   {info.summary}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .theory import format_table, table2, table3, table4

    if args.which == 2:
        print(format_table(table2(args.m_max), with_rho=True))
    elif args.which == 3:
        print(format_table(table3(args.m_max), with_rho=False))
    else:
        print(format_table(table4(args.m_max), with_rho=True))
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    from .core import jz_parameters

    p = jz_parameters(args.m)
    print(f"m={p.m} rho={p.rho:g} mu={p.mu} ratio_bound={p.ratio:.6f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .io import instance_to_dict

    inst = _make_workload(args, args.family, args.seed)
    text = json.dumps(instance_to_dict(inst), indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"instance written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .io import load_instance, load_schedule
    from .schedule import validate_schedule

    loaded = []
    for what, path, load in (
        ("instance", args.instance, load_instance),
        ("schedule", args.schedule, load_schedule),
    ):
        try:
            loaded.append(load(path))
        except Exception as exc:
            # Exit 1 means INFEASIBLE, so an unreadable input is a
            # usage error (2) with a one-line diagnostic.
            reason = (
                f"missing field {exc}" if isinstance(exc, KeyError) else exc
            )
            print(
                f"validate: cannot load {what} {path!r}: {reason}",
                file=sys.stderr,
            )
            return 2
    inst, sched = loaded
    bad = validate_schedule(inst, sched)
    if bad:
        print("INFEASIBLE:")
        for b in bad:
            print(f"  {b}")
        return 1
    print(f"feasible; makespan={sched.makespan:.6g}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from .core.evolve import evolve
    from .dag import CycleError
    from .io import instance_to_dict, load_instance, save_schedule

    if not args.replan and (args.anchored or args.schedule_out):
        print(
            "evolve: --anchored/--schedule-out need --replan",
            file=sys.stderr,
        )
        return 2
    try:
        inst = load_instance(args.instance)
    except Exception as exc:
        print(
            f"evolve: cannot load instance {args.instance!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.ops == "-":
            operations = json.load(sys.stdin)
        else:
            with open(args.ops) as fh:
                operations = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"evolve: cannot read --ops: {exc}", file=sys.stderr)
        return 2
    if not isinstance(operations, list):
        print("evolve: --ops must hold a JSON array", file=sys.stderr)
        return 2
    try:
        child, delta = evolve(inst, operations, name=args.name)
    except (CycleError, ValueError, KeyError) as exc:
        print(f"evolve: {exc}", file=sys.stderr)
        return 1
    s = delta.summary()
    print(
        f"evolved {delta.n_parent} -> {delta.n_child} tasks "
        f"(retimed {len(delta.retimed_tasks)}, "
        f"added {len(delta.added_tasks)}, "
        f"removed {len(delta.removed_tasks)}, "
        f"edges +{len(delta.added_edges)}/-{len(delta.removed_edges)}, "
        f"completed {len(delta.completed)})"
    )
    print(f"fingerprint: {s['parent_fingerprint'][:16]}... -> "
          f"{s['child_fingerprint'][:16]}...")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(instance_to_dict(child), fh, indent=2)
        print(f"evolved instance written to {args.output}")
    if not args.replan:
        return 0

    from .pipeline import UnknownStrategyError
    from .pipeline.incremental import ReplanSession

    try:
        session = ReplanSession(
            inst, algorithm=args.algorithm, priority=args.priority
        )
    except UnknownStrategyError as exc:
        print(f"evolve: {exc}", file=sys.stderr)
        return 2
    try:
        session.solve()
        result = session.resolve_delta(child, delta, replan=args.anchored)
    except Exception as exc:
        print(f"evolve: replan failed: {exc}", file=sys.stderr)
        return 1
    rep = result.report
    print(
        f"replan[{rep.algorithm}×{rep.priority}] mode={result.mode} "
        f"lp_edits={result.lp_edits}"
    )
    print(
        f"makespan={rep.makespan:.6g}  lower_bound={rep.lower_bound:.6g}"
        f"  observed_ratio={rep.observed_ratio:.4f}"
    )
    d = result.disturbance
    if d is not None:
        print(
            f"disturbance: {d.n_disturbed} disturbed "
            f"({len(d.moved)} moved, {len(d.resized)} resized), "
            f"{d.n_unchanged} unchanged, "
            f"total_shift={d.total_shift:.6g}, "
            f"max_shift={d.max_shift:.6g}"
        )
    if args.schedule_out:
        save_schedule(rep.schedule, args.schedule_out)
        print(f"schedule written to {args.schedule_out}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .engine import BatchRunner, write_jsonl
    from .pipeline import UnknownStrategyError

    if args.generate and args.instances:
        print(
            "batch: --generate conflicts with instance files; "
            "pass one or the other",
            file=sys.stderr,
        )
        return 2
    if args.generate:
        instances = [
            _make_workload(args, args.generate, args.seed + k)
            for k in range(args.count)
        ]
    elif args.instances:
        # Paths go to the engine as-is: workers load them, and an
        # unreadable file yields an isolated error record.
        instances = list(args.instances)
    else:
        print(
            "batch: pass instance JSON files or --generate FAMILY",
            file=sys.stderr,
        )
        return 2

    runner = BatchRunner(
        workers=args.workers,
        algorithm=args.algorithm,
        priority=args.priority,
    )
    try:
        result = runner.run(instances)
    except UnknownStrategyError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    if args.output:
        write_jsonl(result.records, args.output)
        print(f"records written to {args.output}", file=sys.stderr)
    else:
        for rec in result.records:
            print(json.dumps(rec.to_dict()))
    s = result.summary()
    if args.output:
        # Machine-readable companion to the record file: the aggregate
        # counts plus the solver-core ``metrics`` block as one JSON line
        # (stdout stays record-JSONL when no ``-o`` is given).
        print(json.dumps(s, sort_keys=True))
    tiers = s["kernel_tiers"]
    tier_note = (
        " [" + ", ".join(
            f"{t}:{tiers[t]}" for t in sorted(tiers)
        ) + "]"
        if tiers
        else ""
    )
    print(
        f"batch[{args.algorithm}×{args.priority}]: "
        f"{s['ok']}/{s['instances']} ok, {s['errors']} errors, "
        f"workers={s['workers']}, {s['wall_time']:.2f}s "
        f"({s['throughput']:.2f} inst/s)" + tier_note,
        file=sys.stderr,
    )
    for rec in result.errors():
        first = (rec.error or "").strip().splitlines()
        print(
            f"  instance #{rec.index} ({rec.name}): "
            f"{first[-1] if first else 'unknown error'}",
            file=sys.stderr,
        )
    return 0 if result.n_errors == 0 else 1


def _campaign_root() -> "Path":
    from pathlib import Path

    from .experiments.runner import DEFAULT_ROOT

    return Path(DEFAULT_ROOT)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .experiments import CampaignRunner, SpecError, load_spec

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"campaign run: {exc}", file=sys.stderr)
        return 2
    cells_total = spec.n_cells
    done = [0]

    def on_cell(record) -> None:
        done[0] += 1
        if args.quiet:
            return
        if record.ok:
            via = "cache " if record.cached else "solved"
            detail = f"ratio {record.observed_ratio:.4f}"
        else:
            via = "ERROR "
            first = (record.error or "").strip().splitlines()
            detail = first[-1] if first else "unknown error"
        print(
            f"[{done[0]:>{len(str(cells_total))}}/{cells_total}] "
            f"{via} {record.cell.label}  {detail}",
            file=sys.stderr,
        )

    runner = CampaignRunner(
        spec,
        workers=args.workers,
        output_dir=args.output,
        wave_size=args.wave_size,
        on_cell=on_cell,
    )
    result = runner.run(fresh=args.fresh)
    s = result.summary()
    print(
        f"campaign {s['campaign']}: {s['ok']}/{s['cells']} ok "
        f"({s['solved']} solved, {s['cached']} from cache, "
        f"{s['errors']} errors) in {s['wall_time']:.2f}s "
        f"-> {s['output_dir']}",
        file=sys.stderr,
    )
    print(
        f"next: repro-sched campaign report {s['output_dir']}",
        file=sys.stderr,
    )
    return 0 if result.n_errors == 0 else 1


def _resolve_campaign_dir(target) -> "tuple[Optional[str], str]":
    """Resolve a ``campaign report`` target to a campaign directory;
    returns ``(dir, error)`` with exactly one of them set."""
    from pathlib import Path

    from .experiments import SpecError, load_spec

    if target is None:
        root = _campaign_root()
        candidates = sorted(
            (p for p in root.glob("*/spec.json")),
            key=lambda p: p.stat().st_mtime,
        ) if root.is_dir() else []
        if not candidates:
            return None, (
                f"no campaigns under {root}/; run "
                "'repro-sched campaign run <spec>' first or pass a "
                "campaign directory"
            )
        return str(candidates[-1].parent), ""
    path = Path(target)
    if path.is_dir():
        return str(path), ""
    if path.is_file():
        # A spec file: report on its default campaign directory.
        try:
            spec = load_spec(path)
        except SpecError as exc:
            return None, str(exc)
        return str(_campaign_root() / spec.name), ""
    return None, f"{target!r}: no such campaign directory or spec file"


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .experiments.report import write_report

    target, error = _resolve_campaign_dir(args.target)
    if target is None:
        print(f"campaign report: {error}", file=sys.stderr)
        return 2
    try:
        paths = write_report(target)
    except (FileNotFoundError, ValueError) as exc:
        print(f"campaign report: {exc}", file=sys.stderr)
        return 2
    print(f"report written: {paths['markdown']}")
    print(f"report written: {paths['html']}")
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .experiments.runner import read_records

    root = Path(args.root) if args.root else _campaign_root()
    if not root.is_dir():
        print(f"(no campaign directory {root}/)")
        return 0
    rows = []
    for spec_path in sorted(root.glob("*/spec.json")):
        directory = spec_path.parent
        try:
            name = _json.loads(spec_path.read_text()).get("name", "?")
        except ValueError:
            name = "?"
        try:
            records = read_records(directory)
            ok = sum(1 for r in records if r.ok)
            status = f"{ok}/{len(records)} ok"
            if any(not r.ok for r in records):
                status += f", {sum(1 for r in records if not r.ok)} errors"
        except (OSError, ValueError):
            status = "no records"
        report = "yes" if (directory / "report.html").is_file() else "no"
        rows.append((name, status, report, str(directory)))
    if not rows:
        print(f"(no campaigns under {root}/)")
        return 0
    headers = ("campaign", "cells", "report")
    widths = [
        max(len(headers[k]), max(len(r[k]) for r in rows))
        for k in range(3)
    ]
    print(
        f"{headers[0]:<{widths[0]}}  {headers[1]:<{widths[1]}}  "
        f"{headers[2]:<{widths[2]}}  directory"
    )
    for name, status, report, directory in rows:
        print(
            f"{name:<{widths[0]}}  {status:<{widths[1]}}  "
            f"{report:<{widths[2]}}  {directory}"
        )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    return {
        "run": _cmd_campaign_run,
        "report": _cmd_campaign_report,
        "list": _cmd_campaign_list,
    }[args.campaign_command](args)


def _cmd_trace(args: argparse.Namespace) -> int:
    import hashlib

    from .obs import trace as obs_trace

    pipe = _build_pipeline(args, "trace")
    if pipe is None:
        return 2
    if args.instance is not None:
        from .io import load_instance

        try:
            inst = load_instance(args.instance)
        except Exception as exc:
            print(
                f"trace: cannot load instance {args.instance!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        inst = _make_workload(args, args.family, args.seed)
    tracer = obs_trace.Tracer(capacity=args.capacity)
    try:
        with obs_trace.tracing(tracer):
            rep = pipe.solve(inst)
    except Exception as exc:
        print(f"trace: {args.algorithm} failed: {exc}", file=sys.stderr)
        return 1
    tracer.dump(args.output)
    # The deterministic profile is wall-time-free: its digest is
    # bit-identical across same-seed runs and machines, which is what
    # makes a trace usable as a regression artifact.
    digest = hashlib.sha256(
        json.dumps(tracer.deterministic_profile(), sort_keys=True).encode()
    ).hexdigest()
    spans = tracer.spans()
    print(
        f"trace: {len(spans)} spans written to {args.output} "
        f"(makespan={rep.makespan:.6g}, "
        f"lower_bound={rep.lower_bound:.6g})"
    )
    for name, value in sorted(tracer.counter_totals().items()):
        print(f"trace:   {name} = {value}")
    print(f"trace: deterministic profile sha256:{digest[:16]}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import log as obs_log
    from .pipeline import UnknownStrategyError
    from .resilience import FaultPlan
    from .service import SolverService

    if args.log_json:
        obs_log.configure(json_lines=True)
    faults = None
    if args.fault_plan is not None:
        try:
            faults = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"serve: cannot load fault plan: {exc}", file=sys.stderr)
            return 2
    try:
        service = SolverService(
            workers=args.workers,
            cache_capacity=args.cache_size,
            spill_dir=args.spill_dir,
            algorithm=args.algorithm,
            priority=args.priority,
            max_queue_depth=(
                None if args.max_queue_depth == 0 else args.max_queue_depth
            ),
            faults=faults,
        )
    except (UnknownStrategyError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    async def _run() -> None:
        try:
            await service.start(args.host, args.port)
        except OSError as exc:  # port in use, bad address
            print(f"serve: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from None

        # Graceful drain on SIGTERM/SIGINT: stop accepting, finish
        # in-flight solves, deliver their responses, then exit 0 — a
        # supervisor's `kill` (or ctrl-C) must never cost a client an
        # already-accepted request.
        loop = asyncio.get_running_loop()
        handled = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            def _stop(sig=sig) -> None:
                print(
                    f"serve: {signal.Signals(sig).name} received, "
                    "draining connections and shutting down",
                    file=sys.stderr,
                )
                service.request_stop()
            try:
                loop.add_signal_handler(sig, _stop)
                handled.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or exotic platform: fall back
                      # to the KeyboardInterrupt path below

        armed = (
            f", faults={len(service.faults.plan.specs)} specs"
            if service.faults.armed
            else ""
        )
        print(
            f"serving on http://{service.host}:{service.port} "
            f"(workers={service.workers}, "
            f"cache={service.cache.capacity}, "
            f"default={service.algorithm}x{service.priority}{armed})",
            file=sys.stderr,
        )
        try:
            await service.serve_forever()
        finally:
            for sig in handled:
                loop.remove_signal_handler(sig)

    try:
        asyncio.run(_run())
    except SystemExit as exc:  # bind failure inside the coroutine
        return int(exc.code or 0)
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .pipeline import UnknownStrategyError, canonical_strategy_pair
    from .resilience import FaultPlan, drive_chaos, run_chaos

    try:
        algorithm, priority = canonical_strategy_pair(
            args.algorithm, args.priority
        )
    except UnknownStrategyError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if args.plan is not None:
        try:
            plan = FaultPlan.load(args.plan)
        except (OSError, ValueError) as exc:
            print(f"chaos: cannot load fault plan: {exc}", file=sys.stderr)
            return 2
    else:
        if not 0.0 <= args.rate <= 1.0:
            print(f"chaos: --rate must be in [0, 1], got {args.rate}",
                  file=sys.stderr)
            return 2
        plan = FaultPlan.uniform(args.rate, seed=args.seed)
    common = dict(
        n_requests=args.requests,
        n_instances=args.instances,
        size=args.size,
        m=args.processors,
        algorithm=algorithm,
        priority=priority,
        deadline_ms=args.deadline_ms or None,
    )
    if args.attach is not None:
        host, _, port_text = args.attach.rpartition(":")
        port = _port(port_text)
        if not host or not port:  # port 0 names no daemon
            print(f"chaos: --attach wants HOST:PORT, got {args.attach!r}",
                  file=sys.stderr)
            return 2
        report = drive_chaos(host, port, plan, **common)
        try:
            # The injection tally lives daemon-side; read it off /stats
            # so the report shows what actually fired.
            from .service import ServiceClient

            with ServiceClient(host=host, port=port) as stats_client:
                report.faults_fired = dict(
                    stats_client.stats()["resilience"]["faults_fired"]
                )
        except Exception:
            pass  # an unreachable/stopped daemon keeps the local tally
    else:
        report = run_chaos(plan, workers=args.workers, **common)

    if args.json_out == "-":
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        if args.json_out:
            Path(args.json_out).write_text(
                json.dumps(report.to_dict(), indent=2) + "\n"
            )
        verdict = (
            "fail-correct-or-loud HOLDS"
            if report.fail_correct_or_loud
            else "fail-correct-or-loud VIOLATED"
        )
        fired = sum(report.faults_fired.values())
        print(
            f"chaos: {report.n_requests} requests, "
            f"{report.total_attempts} attempts, {fired} faults fired "
            f"({len(report.faults_fired)} distinct site:kind)"
        )
        print(
            f"chaos: goodput {report.goodput:.1%}  "
            f"availability {report.availability:.1%}  "
            f"wrong {report.wrong}  "
            f"typed {report.n_typed_errors} {dict(report.typed_errors)}  "
            f"untyped {report.untyped_failures}"
        )
        for detail in report.wrong_details[:5]:
            print(f"chaos: WRONG: {detail}", file=sys.stderr)
        print(f"chaos: {verdict}")
    return 0 if report.fail_correct_or_loud else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "demo": _cmd_demo,
        "solve": _cmd_solve,
        "strategies": _cmd_strategies,
        "tables": _cmd_tables,
        "params": _cmd_params,
        "generate": _cmd_generate,
        "validate": _cmd_validate,
        "trace": _cmd_trace,
        "evolve": _cmd_evolve,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "campaign": _cmd_campaign,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
