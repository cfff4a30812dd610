"""Helpers shared by every workload: statistics, output checks, the
traced run's layer path, work counters, provenance and the result line.

The workload modules (:mod:`perfbench.plan`, :mod:`perfbench.fleet`,
:mod:`perfbench.serve`) decide what to run and time; these helpers check
and count around those operations.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import socket
import statistics
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make the tail a handful of outliers.
MIN_BEYOND = 10

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Wall time of each :class:`SpeedProbe` kernel on a quiet host (a 2-vCPU
#: x86-64 VM, CPython 3.11, SciPy 1.17): the speed that every reported
#: time is scaled to.
PROBE_NOMINAL_S = {"solver": 0.032, "request": 0.030}

#: Round trips in one ``"request"`` probe kernel.
REQUEST_KERNEL_ROUNDS = 5

#: Seconds of run time per probe (a probe takes about 30 ms) ...
PROBE_EVERY_S = 0.25

#: ... of which at most this many run back to back after a long operation.
PROBE_BURST = 4

#: Probes around an operation whose median judges the host's speed then.
PROBE_NEAR = 4


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``.

    Returns the sample of rank ``ceil(p/100 * N)`` in ascending order.
    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND`
    samples lie above that rank: such a tail is not measured.
    """
    xs = sorted(samples)
    n = len(xs)
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return xs[rank - 1]


def median(samples: Iterable[float]) -> float:
    """Median; raises on an empty sample."""
    return statistics.median(list(samples))


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty sample."""
    return statistics.fmean(list(samples))


def typical_busy(*groups: Sequence[float]) -> float:
    """Time a closed loop spends on its operations, with each group of
    operation times counted at its median."""
    return sum(len(g) * median(g) for g in groups if g)


class Span(NamedTuple):
    """When an operation ran, on two clocks: wall time
    (``perf_counter``) and this process's CPU time (``process_time``)."""

    w0: float
    w1: float
    c0: float
    c1: float

    @property
    def wall(self) -> float:
        return self.w1 - self.w0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0


def timed(fn: Callable, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def timed_span(fn: Callable, *args, **kwargs):
    """``(fn(*args, **kwargs), span)``: :func:`timed` on both clocks."""
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    c1 = time.process_time()
    return out, Span(w0, time.perf_counter(), c0, c1)


def duration(span: Span) -> float:
    return span.wall


def repeated_setup(
    setup: Callable[[], object],
    probe: "SpeedProbe",
    teardown: Optional[Callable[[object], None]] = None,
    repeats: int = SETUP_REPEATS,
):
    """Run ``setup`` ``repeats`` times with a probe before each and after
    the last; returns the last state and the spans of the set-ups.
    ``teardown`` (untimed) releases every state but the last."""
    spans = []
    state = None
    for i in range(repeats):
        probe.sample()
        state, span = timed_span(setup)
        spans.append(span)
        if teardown is not None and i < repeats - 1:
            teardown(state)
    probe.sample()
    return state, spans


class SpeedProbe:
    """The host's speed, sampled between a workload's operations.

    A shared host slows down and speeds up by tens of percent, over
    seconds and over minutes, for every process on it.  The probe
    times fixed reference kernels that call no code of the program about
    once per :data:`PROBE_EVERY_S` seconds, between the timed operations,
    and :meth:`scaled` turns each operation's time into seconds at the
    kernel's nominal speed (:data:`PROBE_NOMINAL_S`), so a run on a
    slowed host reads about what it would on a quiet one.

    Work of different kinds slows by different amounts, so an operation
    is scaled by the kernel of the kind of work it does: ``"solver"`` is
    a small HiGHS LP through SciPy, a pure-Python dictionary loop and a
    NumPy sort, where a solve spends its time; ``"request"`` is a JSON
    round trip of an instance-sized document, its SHA-256 and a pass
    through a local socket pair, where a cache hit spends its time.
    Every sample runs each of the probe's ``kinds``.
    """

    def __init__(self, *kinds: str) -> None:
        import numpy as np
        from scipy import sparse

        rng = np.random.default_rng(20050627)
        n_vars, n_rows = 260, 390
        self._a = sparse.random(
            n_rows, n_vars, density=0.012, random_state=rng, format="csr"
        )
        self._b = self._a @ np.full(n_vars, 2.0)
        self._c = -rng.random(n_vars)
        self._v = rng.random(300_000)
        self._doc = {
            "m": 16,
            "tasks": [{"times": rng.random(16).tolist()} for _ in range(200)],
            "edges": rng.integers(0, 200, size=(400, 2)).tolist(),
        }
        kernels = {
            "solver": self._solver_kernel, "request": self._request_kernel,
        }
        self._kernels = {kind: kernels[kind] for kind in kinds}
        self.spans: Dict[str, List[Span]] = {kind: [] for kind in kinds}
        for kernel in self._kernels.values():
            kernel()  # first-call imports and allocations, untimed
        self.sample()

    def _solver_kernel(self) -> None:
        import numpy as np
        from scipy.optimize import linprog

        res = linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(0, 5),
                      method="highs")
        if res.status != 0:
            raise RuntimeError(f"speed probe LP failed: {res.message}")
        h: Dict[int, int] = {}
        for i in range(60_000):
            k = (i * 7919) % 4093
            h[k] = h.get(k, 0) + i
        np.sort(self._v)

    def _request_kernel(self) -> None:
        a, b = socket.socketpair()
        try:
            for _ in range(REQUEST_KERNEL_ROUNDS):
                raw = json.dumps(self._doc).encode()
                hashlib.sha256(raw).hexdigest()
                a.sendall(raw)
                got = bytearray()
                while len(got) < len(raw):
                    got += b.recv(1 << 16)
                json.loads(got)
        finally:
            a.close()
            b.close()

    def sample(self) -> None:
        for kind, kernel in self._kernels.items():
            _, span = timed_span(kernel)
            self.spans[kind].append(span)

    def maybe(self) -> None:
        """Sample once per :data:`PROBE_EVERY_S` seconds since the last
        sample (at most :data:`PROBE_BURST` times)."""
        last = max(v[-1].w1 for v in self.spans.values())
        due = int((time.perf_counter() - last) / PROBE_EVERY_S)
        for _ in range(min(due, PROBE_BURST)):
            self.sample()

    def scaled(self, spans: Sequence[Span], clock: str, kind: str
               ) -> List[float]:
        """Each operation's time on ``clock`` (``"wall"`` or ``"cpu"``)
        at the nominal speed of the ``kind`` kernel: times its nominal
        time over the median, on the same clock, of the
        :data:`PROBE_NEAR` probes that started nearest the operation
        (half before it, half after)."""
        probes = self.spans[kind]
        starts = [p.w0 for p in probes]
        probe_s = [getattr(p, clock) for p in probes]
        out = []
        for span in spans:
            i = bisect.bisect_left(starts, span.w0)
            lo = max(0, min(i - PROBE_NEAR // 2, len(probe_s) - PROBE_NEAR))
            near = probe_s[lo:lo + PROBE_NEAR]
            out.append(
                getattr(span, clock) * PROBE_NOMINAL_S[kind] / median(near)
            )
        return out

    def phase_scale(self, clock: str, kind: str, until: float) -> float:
        """Nominal over the median of the ``kind`` probes up to the first
        one after ``until``: the scale for the set-up phase, whose
        operations run for seconds with a probe only between them."""
        probes = self.spans[kind]
        end = bisect.bisect_right([p.w0 for p in probes], until) + 1
        return PROBE_NOMINAL_S[kind] / median(
            getattr(p, clock) for p in probes[:end]
        )

    def timeline(self, ops: Dict[str, Sequence[Span]]) -> Dict:
        """Every probe and operation as ``[start, wall, cpu]`` with the
        start relative to the first probe: the raw record behind the
        scaled times."""
        base = min(v[0].w0 for v in self.spans.values())

        def rows(spans):
            return [[s.w0 - base, s.wall, s.cpu] for s in spans]

        return {
            "probes": {kind: rows(v) for kind, v in self.spans.items()},
            "ops": {name: rows(v) for name, v in ops.items()},
        }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def bound_problems(
    makespan: float, lower_bound: float, ratio_bound: Optional[float]
) -> List[str]:
    """The makespan must sit between the certified lower bound and the
    proven ratio bound times that lower bound."""
    problems = []
    if not lower_bound <= makespan:
        problems.append(
            f"makespan {makespan!r} is below the lower bound {lower_bound!r}"
        )
    if ratio_bound is not None and not makespan <= ratio_bound * lower_bound:
        problems.append(
            f"makespan {makespan!r} exceeds {ratio_bound!r} x lower bound "
            f"{lower_bound!r}"
        )
    return problems


def check_schedule(
    instance, schedule, lower_bound: float, ratio_bound: Optional[float]
) -> List[str]:
    """Every reason ``schedule`` is not an acceptable answer: the
    program's own validator, then :func:`bound_problems`."""
    from repro.schedule import validate_schedule

    return list(validate_schedule(instance, schedule)) + bound_problems(
        schedule.makespan, lower_bound, ratio_bound
    )


def same_schedule(a, b) -> bool:
    """Bit-for-bit equality of two schedules."""
    return a.m == b.m and a.entries == b.entries


# ---------------------------------------------------------------------------
# the traced run's layer path
# ---------------------------------------------------------------------------
class LayerSolve(NamedTuple):
    schedule: object
    allotment: Tuple[int, ...]
    lower_bound: float
    arrays: object
    times: Dict[str, float]
    counters: Dict[str, int]
    array_tier: bool


def layer_solve(instance) -> LayerSolve:
    """Solve ``instance`` the way the ``jz`` x ``earliest-start``
    pipeline does, one public layer function at a time, timing each
    call.  The ``repro.obs`` tracer is armed only to read counters the
    program already emits (LP pivots, LIST frontier)."""
    from repro.core.list_scheduler import dispatch_tier, list_schedule
    from repro.core.lp import assemble_allotment_arrays, solve_allotment_lp
    from repro.core.parameters import resolve_parameters
    from repro.core.rounding import rounding_stretch_report
    from repro.obs import trace as obs_trace

    with obs_trace.tracing() as tr:
        arrays, t_asm = timed(assemble_allotment_arrays, instance)
        lp, t_lp = timed(solve_allotment_lp, instance)
        params = resolve_parameters(instance.m)
        rnd, t_rnd = timed(rounding_stretch_report, instance, lp.x, params.rho)
        sched, t_list = timed(
            list_schedule, instance, rnd.allotment, mu=params.mu
        )
    return LayerSolve(
        schedule=sched,
        allotment=tuple(rnd.allotment),
        lower_bound=lp.objective,
        arrays=arrays,
        times={
            "lp.assemble_s": t_asm,
            "lpsolve.solve_s": t_lp,
            "rounding.s": t_rnd,
            "list.s": t_list,
        },
        counters=tr.counter_totals(),
        array_tier=dispatch_tier(instance) == "array",
    )


class LayerTotals:
    """Per-layer metrics over a traced run's layer-path solves: times as
    a mean per solve, LP sizes and work counters summed over the solves
    added with ``counted=True``."""

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}
        self.solves = 0
        self.array_tier = 0
        self.counted = {
            "lp.rows": 0, "lp.cols": 0, "lp.nnz": 0,
            "lpsolve.iterations": 0, "list.frontier_size_sum": 0,
            "list.frontier_peak": 0,
        }

    def add(self, res: LayerSolve, counted: bool = True) -> None:
        for name, v in res.times.items():
            self.times.setdefault(name, []).append(v)
        self.solves += 1
        self.array_tier += res.array_tier
        if counted:
            c = self.counted
            c["lp.rows"] += len(res.arrays.b_ub)
            c["lp.cols"] += res.arrays.n_variables
            c["lp.nnz"] += len(res.arrays.vals)
            c["lpsolve.iterations"] += res.counters.get("lp_pivots", 0)
            c["list.frontier_size_sum"] += res.counters.get(
                "frontier_size_sum", 0
            )
            c["list.frontier_peak"] = max(
                c["list.frontier_peak"], res.counters.get("frontier_peak", 0)
            )

    def mean_times(self) -> Dict[str, float]:
        return {name: mean(v) for name, v in self.times.items()}

    def metrics(self) -> Dict[str, float]:
        return {
            **self.mean_times(),
            **self.counted,
            "list.array_share": self.array_tier / self.solves,
        }


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems: Sequence[str]) -> bool:
        """Count one operation; ``problems`` empty means it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(f"{what}: {problems[0]}")
        return not problems

    def flag(self, what: str, problems: Sequence[str]) -> None:
        """Mark an already-counted operation failed after a later check
        (a sampled cross-check, a repeat that diverged)."""
        if problems:
            self.failed += 1
            self.note(f"{what}: {problems[0]}")

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def service_call(fn: Callable, *args, **kwargs):
    """``(reply, None)`` on success, ``(None, reason)`` when the daemon
    refused or failed the request.

    A :class:`repro.service.ServiceError` covers every refusal the
    client surfaces after its own retries: ``503 overloaded``, ``504
    deadline_exceeded``, a connection that never answered (status 0) and
    any other non-2xx reply.  Each counts as a failed request.
    """
    from repro.service import ServiceError

    try:
        return fn(*args, **kwargs), None
    except ServiceError as exc:
        return None, f"HTTP {exc.http_status} {exc.code}: {exc}"


# ---------------------------------------------------------------------------
# deterministic work counters
# ---------------------------------------------------------------------------
class ScheduleDigest:
    """SHA-256 over a sequence of schedules, in the order given."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, schedule) -> None:
        self._h.update(f"m={schedule.m};".encode())
        self._h.update(
            "".join(
                f"{e.task},{e.start.hex()},{e.processors},"
                f"{e.duration.hex()};"
                for e in schedule.entries
            ).encode()
        )
        self.count += 1

    def add_numbers(self, *values) -> None:
        """Fold plain numbers in (records that carry no schedule)."""
        self._h.update(
            ";".join(
                v.hex() if isinstance(v, float) else repr(v) for v in values
            ).encode()
        )
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def frontier_counts(instance, schedule) -> Tuple[int, int]:
    """LIST's ready-frontier size summed over its steps, and its peak.

    The same quantities :func:`repro.core.list_scheduler.list_schedule`
    adds to an armed tracer, recovered from the finished schedule so an
    untraced run can report them.  LIST starts tasks in non-decreasing
    start order with ties going to the lower task id, which is exactly
    the ``(start, task)`` order :class:`repro.schedule.Schedule` keeps
    its entries in; replaying that order over the DAG recovers the ready
    set before every step.  The traced run checks the two agree.
    """
    csr = instance.dag.to_csr()
    indptr = csr.succ_indptr.tolist()
    succ = csr.succ_indices.tolist()
    indeg = csr.in_degrees().tolist()
    ready = sum(1 for d in indeg if d == 0)
    total = peak = 0
    for e in schedule.entries:
        total += ready
        if ready > peak:
            peak = ready
        ready -= 1
        j = e.task
        for s in succ[indptr[j]:indptr[j + 1]]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready += 1
    return total, peak


def lp_pivots_since(before) -> int:
    """LP iterations the in-process HiGHS calls made since ``before``
    (a :meth:`MetricsRegistry.counter_state` snapshot), read from the
    always-on ``repro_solver_lp_pivots_total`` counter."""
    from repro.obs.metrics import REGISTRY

    return int(
        sum(
            v
            for (name, _labels), v in REGISTRY.counters_since(before).items()
            if name == "repro_solver_lp_pivots_total"
        )
    )


def counter_snapshot():
    from repro.obs.metrics import REGISTRY

    return REGISTRY.counter_state()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's and this benchmark's source files
    (path and bytes): work counters are comparable only between runs of
    the same code."""
    h = hashlib.sha256()
    for base in (root / "src", root / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_counters(
    state_dir: Path, key: str, source: str, counters: Dict
) -> Optional[str]:
    """Compare ``counters`` with the ones an earlier run of the same
    workload, seed and program source recorded; record them when there
    is none.  Returns a description of the mismatch, or ``None``."""
    path = state_dir / "counters" / f"{key}.json"
    if path.exists():
        try:
            earlier = json.loads(path.read_text())
        except ValueError:
            earlier = None
        if earlier and earlier.get("source") == source:
            if earlier.get("counters") != counters:
                diff = sorted(
                    k
                    for k in set(counters) | set(earlier["counters"])
                    if counters.get(k) != earlier["counters"].get(k)
                )
                return f"work counters differ from an earlier run: {diff}"
            return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"source": source, "counters": counters}, sort_keys=True)
    )
    return None


# ---------------------------------------------------------------------------
# provenance and the result line
# ---------------------------------------------------------------------------
def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(
    root: Path, workload: str, seed: int, seconds: int, traced: bool,
    source: str,
) -> Dict:
    import numpy
    import repro

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "repro_version": repro.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def metrics_block(declared: Dict[str, str], values: Dict[str, float]) -> Dict:
    """The ``metrics`` object of the result line: exactly the declared
    names, each with its declared unit."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise RuntimeError(
            f"metric set mismatch: missing {missing}, undeclared {extra}"
        )
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
    }
