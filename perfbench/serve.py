"""The daemon workload: ``serve-repeat``.

The daemon runs as its own ``python -m repro serve -w 1`` process (one
pool worker, default cache), so it and the load generator do not share
one interpreter lock.  This process is the load generator: a closed loop
over one keep-alive :class:`repro.service.ServiceClient` connection,
sending the next request of the seeded stream only after the previous
reply.  The first :data:`COUNTED` requests are the counted set; the
stream continues until ``--seconds`` have passed.  One connection keeps
the two processes from contending for the two cores of a small host,
and leaves the daemon idle while the speed probe runs between requests.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import common
from .common import Span, Tally, duration, timed_span
from .inputs import instance_dicts, request_plan, sub_seeds

#: Why: a cache hit runs only the request path (HTTP, JSON,
#: ``instance_from_dict``, ``content_key``, cache lookup, digest) and a
#: miss adds pool dispatch and a solve, so a request-path change shows on
#: hits only and a solver change on misses only.  Nine requests in every
#: ten repeat one of the warm instances solved during set-up, the tenth
#: carries an instance the daemon has never seen; the warm set fits the
#: default cache, so nothing is evicted.  Isolates: ``io`` + ``core.fingerprint``
#: and ``service``.
WARM = 40
SERVE_N = 200
SERVE_M = 16
MISS_SHARE = 0.1
#: Requests every run completes; they carry the counters and the digest.
COUNTED = 300
#: The pre-drawn stream; a run ends early if it reaches the end.
STREAM = 1000
#: Distinct served instances re-solved in process to check the replies.
CHECK_SAMPLE = 8

_PORT_LINE = re.compile(r"serving on http://([0-9.]+):(\d+)")


class Daemon:
    """One ``repro serve`` process, its stderr kept in a log file."""

    def __init__(self, root: Path, state_dir: Path, tag: int):
        state_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = state_dir / f"serve-{os.getpid()}-{tag}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.port: Optional[int] = None
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", "0", "-w", "1"],
                cwd=str(root), env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            self.port = self._wait_for_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self.log_path.read_text())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            f"daemon did not come up: {self.log_path.read_text()[-500:]}"
        )

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(str(self.proc.pid))

    def watch(self) -> None:
        """Find the pool worker (a child process), so :meth:`cpu_s`
        counts it; call once the pool has started."""
        self.pids = [self.proc.pid] + _child_pids(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU seconds every thread of the daemon and its pool worker has
        run so far, from ``/proc/<pid>/task/<tid>/schedstat`` (ns)."""
        total = 0
        for pid in self.pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:  # a replaced pool worker; /stats counts it
                continue
            for tid in tids:
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                        total += int(fh.read().split()[0])
                except OSError:  # the thread ended after the listing
                    pass
        return total / 1e9

    def stop(self) -> None:
        """Ask for a graceful shutdown; terminate, then kill, if ignored.
        Returns only once the process has exited."""
        from repro.service import ServiceClient

        if self.proc.poll() is None and self.port is not None:
            client = ServiceClient(port=self.port, timeout=10.0)
            common.service_call(client.shutdown)
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log_path.unlink(missing_ok=True)


def _child_pids(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # the process ended after the listing
            continue
        # the parent pid is the second field after the "(command)" one
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def _hit_path(body: Dict, reply: Dict) -> Dict[str, float]:
    """The server- and client-side steps of one cache hit, replayed in
    process on a body the generator sent and the reply it got back."""
    from repro.io import instance_from_dict

    t = time.perf_counter
    t0 = t()
    raw = json.dumps({"instance": body}).encode()
    t1 = t()
    data = json.loads(raw)
    t2 = t()
    # The embedded fingerprint would make instance_from_dict hash too;
    # drop it so building and keying are timed apart.
    inst = instance_from_dict(
        {k: v for k, v in data["instance"].items() if k != "fingerprint"}
    )
    t3 = t()
    key = inst.content_key()
    t4 = t()
    out = json.dumps(dict(reply)).encode()
    hashlib.sha256(out).hexdigest()
    t5 = t()
    json.loads(out)
    t6 = t()
    return {
        "client.encode_ms": 1000 * (t1 - t0),
        "io.decode_ms": 1000 * (t2 - t1),
        "io.instance_from_dict_ms": 1000 * (t3 - t2),
        "fingerprint.content_key_ms": 1000 * (t4 - t3),
        "io.encode_ms": 1000 * (t5 - t4),
        "client.decode_ms": 1000 * (t6 - t5),
        "key_matches": key == reply["instance_key"],
    }


def _direct_check(body: Dict, reply: Dict, traced: bool,
                  totals: common.LayerTotals) -> List[str]:
    """Re-solve a served instance in process and compare.  Untraced runs
    use the pipeline; traced runs go one layer at a time and add the
    layer times and counters to ``totals``."""
    from repro.io import instance_from_dict, schedule_from_dict

    served = schedule_from_dict(reply["schedule"])
    inst = instance_from_dict(body)
    if traced:
        res = common.layer_solve(inst)
        totals.add(res)
        sched, lower = res.schedule, res.lower_bound
    else:
        from repro.pipeline import SchedulingPipeline

        rep = SchedulingPipeline("jz", "earliest-start").solve(inst)
        sched, lower = rep.schedule, rep.lower_bound
    problems = []
    if not common.same_schedule(sched, served):
        problems.append("served schedule differs from a direct solve")
    if lower != reply["lower_bound"]:
        problems.append("served lower bound differs from a direct solve")
    return problems


def run(root: Path, state_dir: Path, seed: int, seconds: float,
        traced: bool) -> Dict:
    from repro.service import ServiceClient

    probe = common.SpeedProbe("request", "solver")
    def make_inputs():
        plan = request_plan(seed, STREAM, WARM, MISS_SHARE)
        n_fresh = sum(1 for kind, _ in plan if kind == "miss")
        warm = instance_dicts(
            "layered", SERVE_N, SERVE_M, sub_seeds(seed, "warm", WARM)
        )
        fresh = instance_dicts(
            "layered", SERVE_N, SERVE_M, sub_seeds(seed, "fresh", n_fresh)
        )
        return plan, warm, fresh

    (plan, warm, fresh), gen_span = timed_span(make_inputs)

    tally = Tally()
    fill: List[Optional[Dict]] = [None] * WARM
    boots = iter(range(common.SETUP_REPEATS))

    boot_cpu: List[float] = []

    def program_setup() -> Daemon:
        daemon = Daemon(root, state_dir, next(boots))
        client = ServiceClient(port=daemon.port, timeout=60.0)
        try:
            for i in range(WARM):
                fill[i], err = common.service_call(client.solve, warm[i])
                if err:
                    tally.note(f"warm fill {i}: {err}")
            if any(f is None for f in fill):
                raise RuntimeError("the warm set could not be solved")
            daemon.watch()
            boot_cpu.append(daemon.cpu_s())
        except BaseException:
            daemon.stop()
            raise
        finally:
            client.close()
        return daemon

    daemon, setup_spans = common.repeated_setup(
        program_setup, probe, teardown=Daemon.stop
    )
    # A set-up's CPU time includes everything its daemon has run.
    setup_spans = [
        sp._replace(c1=sp.c1 + cpu) for sp, cpu in zip(setup_spans, boot_cpu)
    ]
    try:
        outcome = _measure(
            daemon, plan, warm, fresh, fill, seconds, traced, seed, tally,
            probe,
        )
    finally:
        daemon.stop()
    # CPU time at the nominal host speed; most of a set-up is imports and
    # solves.
    outcome["e2e"]["setup_s"] = probe.phase_scale(
        "cpu", "solver", setup_spans[-1].w1
    ) * (gen_span.cpu + common.median(sp.cpu for sp in setup_spans))
    outcome["samples"] = probe.timeline({
        **outcome.pop("spans"), "inputs": [gen_span], "setup": setup_spans,
    })
    return outcome


def _measure(daemon, plan, warm, fresh, fill, seconds, traced, seed, tally,
             probe) -> Dict:
    from repro.io import instance_from_dict, schedule_from_dict
    from repro.service import ServiceClient

    stats_client = ServiceClient(port=daemon.port, timeout=60.0)
    stats_before = stats_client.stats()
    replies: List = [None] * len(plan)
    spans: List[Optional[Span]] = [None] * len(plan)
    errors: Dict[int, str] = {}
    begin = time.perf_counter()

    # The run ends on a whole block of the stream, so its mix is exact.
    block = round(1 / MISS_SHARE)
    client = ServiceClient(port=daemon.port, timeout=60.0)
    try:
        for k, (kind, idx) in enumerate(plan):
            if (k >= COUNTED and k % block == 0
                    and time.perf_counter() - begin >= seconds):
                break
            body = warm[idx] if kind == "hit" else fresh[idx]
            d0 = daemon.cpu_s()
            try:
                (reply, err), span = timed_span(
                    common.service_call, client.solve, body
                )
            except Exception as exc:  # recorded as a failed request
                w, c = time.perf_counter(), time.process_time()
                reply, err, span = None, repr(exc), Span(w, w, c, c)
            # The request's CPU time is this process's and the daemon's.
            span = span._replace(c0=span.c0 + d0, c1=span.c1 + daemon.cpu_s())
            replies[k], spans[k] = reply, span
            if err:
                errors[k] = err
            probe.maybe()
    finally:
        client.close()
    probe.sample()
    stats_after = stats_client.stats()
    stats_client.close()
    daemon_rss = daemon.peak_rss_mb()

    # ---- checks and counters outside the timed region -------------------
    sent = [k for k in range(len(plan)) if spans[k] is not None]
    # A hit is request-path work and a miss mostly a solve: each is scaled
    # by the probe kernel of its kind.
    nominal = {}
    for kind, probe_kind in (("hit", "request"), ("miss", "solver")):
        ks = [k for k in sent if plan[k][0] == kind]
        nominal.update(zip(ks, probe.scaled(
            [spans[k] for k in ks], "cpu", probe_kind
        )))
    # wall-clock latencies (for the layer split) and the same at the
    # nominal host speed (for the end-to-end metrics)
    hit_ms, miss_ms, solve_ms = [], [], []
    hit_nom, miss_nom = [], []
    digest = common.ScheduleDigest()
    ratios: List[float] = []
    counted_hits = counted_misses = cached_total = 0
    first_reply: Dict = {}
    for k in sent:
        kind, idx = plan[k]
        reply = replies[k]
        problems = [errors[k]] if k in errors else []
        if reply is not None:
            if reply["cached"] != (kind == "hit") or reply["deduped"]:
                problems.append(
                    f"{kind} answered with cached={reply['cached']} "
                    f"deduped={reply['deduped']}"
                )
            ref = fill[idx] if kind == "hit" else None
            if ref is not None and reply["schedule"] != ref["schedule"]:
                problems.append("hit differs from the warm-set solve")
            cached_total += bool(reply["cached"])
            (hit_ms if kind == "hit" else miss_ms).append(
                1000 * duration(spans[k])
            )
            (hit_nom if kind == "hit" else miss_nom).append(
                1000 * nominal[k]
            )
            if kind == "miss":
                solve_ms.append(1000 * reply["solve_wall_time"])
            first_reply.setdefault((kind, idx), reply)
            if k < COUNTED:
                counted_hits += bool(reply["cached"])
                counted_misses += not reply["cached"]
                digest.add(schedule_from_dict(reply["schedule"]))
                ratios.append(reply["makespan"] / reply["lower_bound"])
        tally.record(f"request {k} ({kind})", problems)
    missing = [k for k in range(COUNTED) if spans[k] is None]
    if missing:
        tally.flag("counted set", [f"requests {missing[:5]} never sent"])

    for (kind, idx), reply in first_reply.items():
        body = warm[idx] if kind == "hit" else fresh[idx]
        problems = common.check_schedule(
            instance_from_dict(body),
            schedule_from_dict(reply["schedule"]),
            reply["lower_bound"],
            reply["ratio_bound"],
        )
        tally.flag(f"{kind} {idx} schedule", problems)

    d_cache = {
        k: stats_after["cache"][k] - stats_before["cache"][k]
        for k in ("hits", "misses")
    }
    if (d_cache["hits"], d_cache["misses"]) != (
        cached_total, len(sent) - len(errors) - cached_total
    ):
        tally.flag(
            "stats",
            [f"/stats cache deltas {d_cache} disagree with the replies"],
        )

    rng = np.random.default_rng(sub_seeds(seed, "serve-check", 1)[0])
    keys = sorted(first_reply)
    picks = rng.choice(len(keys), size=min(CHECK_SAMPLE, len(keys)),
                       replace=False)
    layer_totals = common.LayerTotals()
    for kind, idx in (keys[i] for i in picks):
        body = warm[idx] if kind == "hit" else fresh[idx]
        tally.flag(
            f"{kind} {idx} direct check",
            _direct_check(
                body, first_reply[(kind, idx)], traced, layer_totals
            ),
        )

    e2e = {
        "solve_s": common.median(miss_nom) / 1000.0,
        "op_p50_ms": common.median(hit_nom),
        "schedules_per_s": 1000.0 * (len(hit_nom) + len(miss_nom))
        / common.typical_busy(hit_nom, miss_nom),
        "makespan_ratio": common.mean(ratios),
        "peak_rss_mb": daemon_rss,
    }
    counters = {
        "cache.hits": counted_hits,
        "cache.misses": counted_misses,
        "schedules": digest.count,
        "schedule_sha256": digest.hexdigest(),
    }
    layers: Dict[str, float] = {}
    if traced:
        steps: Dict[str, List[float]] = {}
        for idx in range(WARM):
            reply = first_reply.get(("hit", idx))
            if reply is None:
                continue
            step = _hit_path(warm[idx], reply)
            if not step.pop("key_matches"):
                tally.flag(f"hit {idx} key", ["content key differs"])
            for name, v in step.items():
                steps.setdefault(name, []).append(v)
        hit_steps = {name: common.median(v) for name, v in steps.items()}
        layers.update(hit_steps)
        hit_p50 = common.median(hit_ms)
        wait = hit_p50 - sum(hit_steps.values())
        res_before = stats_before["resilience"]
        res_after = stats_after["resilience"]
        d = {
            k: stats_after[k] - stats_before[k]
            for k in ("deduped", "errors", "pool_restarts")
        }
        layers.update(layer_totals.metrics())
        layers.update({
            "cache.hits": d_cache["hits"],
            "cache.misses": d_cache["misses"],
            "cache.hit_ratio": d_cache["hits"] / max(
                1, d_cache["hits"] + d_cache["misses"]
            ),
            "service.deduped": d["deduped"],
            "service.shed": sum(
                res_after[k] - res_before[k]
                for k in ("shed_deadline", "shed_overload")
            ),
            "service.errors": d["errors"],
            "service.pool_restarts": d["pool_restarts"],
            "client.retries": sum(
                replies[k].attempts - 1 for k in sent if replies[k]
            ),
            "service.hit_p90_ms": common.percentile(hit_ms, 90),
            "service.hit_wait_ms": wait,
            "service.miss_solve_ms": common.median(solve_ms),
            "service.miss_wait_ms": (
                common.median(miss_ms) - common.median(solve_ms)
            ),
            "trace.unaccounted_share": wait / hit_p50,
        })
    return {
        "e2e": e2e,
        "layers": layers,
        "counters": counters,
        "tally": tally,
        "spans": {
            "hit": [spans[k] for k in sent if plan[k][0] == "hit"],
            "miss": [spans[k] for k in sent if plan[k][0] == "miss"],
        },
    }
