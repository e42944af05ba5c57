"""The four workload runners: run, time, check, and trace one workload.

Each runner takes a :class:`Context` and the workload's generated
inputs, runs the workload in its own process(es), and returns a
:class:`Outcome`: the end-to-end metrics (untraced pass), and for a
traced run the per-layer breakdown of a second, traced pass.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import inputs as gen
import layers
import loadgen
import verify
from hostspeed import SpeedLog, TreeCpu
from measure import (covered_length, generator_lag, latency_summary,
                     open_loop_latency, percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
PROBE = os.path.join(HERE, "hostspeed.py")

SETUP_REPEATS = 3
MIN_INVOCATIONS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120.0
#: Latency limits behind ``slo_attainment``, per operation: the
#: service's limits for reads and writes, and for the closed loops
#: three times their median operation time over ten seeds (README.md).
SLO_LIMIT_S = {"cold-full": 12.0, "cold-grounded": 12.6,
               "read": 0.25, "write": 1.0, "batch-analytics": 6.2}
SERVE_CONNECTIONS = 2
SERVE_CHECK_SAMPLE = 48
SERVE_DRAIN_TIMEOUT_S = 20.0
#: A read is scaled by the probe tasks within this many seconds of it:
#: besides states that last seconds, the CPU slows for tens of
#: milliseconds at a time, about as long as a read takes.
SERVE_SPEED_MARGIN_S = 0.05
#: A run whose generator ran later than this is not valid load.
LAG_LIMIT_MS = 5.0


class Context:
    """Where and how one benchmark process runs workloads."""

    def __init__(self, root: str, work: str, seconds: float) -> None:
        self.root = root
        self.work = work
        self.seconds = seconds
        self.python = sys.executable
        source = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [source] + ([self.env["PYTHONPATH"]]
                        if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"
        self.children: List[subprocess.Popen] = []
        # Every workload process (and the threads and processes it
        # starts) runs on one CPU, beside the speed probe (hostspeed.py);
        # this process, serve's load generator, keeps another.
        cpus = sorted(os.sched_getaffinity(0))
        self.workload_cpus = {cpus[-1]}
        os.sched_setaffinity(0, {cpus[0]})
        self.speed_log = self.path("speed.log")
        self.spawn([self.python, PROBE, self.speed_log, str(os.getpid())],
                   os.devnull, self.path("probe.err"))

    def _pin(self) -> None:
        os.sched_setaffinity(0, self.workload_cpus)

    def speed(self) -> SpeedLog:
        """The probe's timings so far."""
        return SpeedLog.read(self.speed_log)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def spawn(self, argv: Sequence[str], stdout: str,
              stderr: str) -> subprocess.Popen:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                    env=self.env, cwd=self.root,
                                    preexec_fn=self._pin)
        self.children.append(proc)
        return proc

    def stop_all(self) -> None:
        """Kill and reap every child still running (error paths)."""
        for proc in self.children:
            if proc.returncode is None:
                try:
                    proc.kill()
                except OSError:
                    pass
                reap(proc, 10.0)
        self.children = []


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[float, float]:
    """Wait for ``proc``; returns its peak RSS in MB (``ru_maxrss``) and
    the CPU seconds it used (user plus system, all its threads).

    Kills the process past ``timeout``.  Reaping through ``wait4``
    keeps each child's own resource usage, not the running maximum over
    every child this process ever had.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        except ChildProcessError:
            proc.returncode = proc.returncode if proc.returncode is not None \
                else -1
            return 0.0, 0.0
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime)
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + 10.0
        time.sleep(0.001)


class Outcome:
    """One workload run: e2e metrics, per-layer metrics, and details."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.details: Dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _merged_cache_ratios(views: Iterable[Dict[str, float]]
                         ) -> Dict[str, float]:
    """Mean hit ratios and summed invalidations over several executors
    (one per CLI invocation, or one per tenant)."""
    views = list(views)
    if not views:
        return {}
    return {field: (sum if field == "exec.invalidations"
                    else statistics.mean)([view[field] for view in views])
            for field in views[0]}


#: One timed operation: monotonic start and end, and the CPU seconds
#: the workload's processes used for it.
Span = Tuple[float, float, float]


def _setup_imports(ctx: Context) -> List[Span]:
    """Cold start every CLI invocation pays: import ``repro.cli``."""
    spans = []
    for index in range(SETUP_REPEATS):
        started = time.monotonic()
        proc = ctx.spawn([ctx.python, "-c", "import repro.cli"],
                         ctx.path("import-%d.out" % index),
                         ctx.path("import-%d.err" % index))
        _rss, cpu = reap(proc, 60.0)
        spans.append((started, time.monotonic(), cpu))
        if proc.returncode != 0:
            raise RuntimeError("import repro.cli failed")
    return spans


def _durations(spans: Iterable[Span]) -> List[float]:
    return [end - start for start, end, _cpu in spans]


def _raw_medians(spans: Sequence[Span], scaled: Sequence[float],
                 setups: Sequence[Span]) -> Dict[str, object]:
    """The raw wall-clock and CPU-time medians behind the
    reference-speed metrics, and the median factor from CPU time to the
    reference speed."""
    cpu = [seconds for _start, _end, seconds in spans]
    setup_cpu = [seconds for _start, _end, seconds in setups]
    return {
        "wall_clock": {"latency_p50_ms": 1000.0 * _median(_durations(spans)),
                       "setup_s": _median(_durations(setups))},
        "cpu_time": {"latency_p50_ms": 1000.0 * _median(cpu),
                     "setup_s": _median(setup_cpu)},
        "speed_factor": _median([value / seconds for value, seconds
                                 in zip(scaled, cpu) if seconds > 0]),
    }


def _read_json_tail(path: str) -> Optional[dict]:
    """The JSON document in a file (from its first ``{``), or None."""
    with open(path, encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    start = text.find("{")
    if start < 0:
        return None
    try:
        return json.loads(text[start:])
    except ValueError:
        return None


def _load_spans(path: str) -> List[dict]:
    from repro.telemetry.validate import load_jsonl
    return load_jsonl(path) if os.path.exists(path) else []


def _validate_trace(path: str, outcome: Outcome) -> None:
    from repro.telemetry.validate import validate_span_dicts
    problems = validate_span_dicts(_load_spans(path))
    if problems:
        outcome.fail("trace %s fails validation: %s"
                     % (os.path.basename(path), problems[0]))


# -- cold-full / cold-grounded -----------------------------------------------------

def _cold_argv(program: str, keys: List[str], grounded: bool) -> List[str]:
    argv = ["query", program] + keys + ["--hop-limit", str(gen.HOP_COLD),
                                        "--json"]
    if grounded:
        argv += ["--grounding", "query"]
    return argv


def _cold_pass(ctx: Context, name: str, program: str,
               key_sets: List[List[str]], traced: bool,
               outcome: Outcome) -> dict:
    """Closed loop of CLI invocations for ``ctx.seconds``; answers are
    checked afterwards (:func:`_check_cold`)."""
    grounded = name == "cold-grounded"
    spans: List[Span] = []
    answered: List[Tuple[List[str], Dict[str, object], int]] = []
    rss: List[float] = []
    breakdown = layers.Breakdown()
    stats_views: List[dict] = []
    started = time.monotonic()
    index = 0
    while (index < MIN_INVOCATIONS
           or time.monotonic() - started < ctx.seconds):
        keys = key_sets[index % len(key_sets)]
        cli_args = _cold_argv(program, keys, grounded)
        tag = "%s-%s-%d" % (name, "traced" if traced else "plain", index)
        trace = ctx.path(tag + ".jsonl")
        sidecar = ctx.path(tag + ".timeline.json")
        if traced:
            argv = [ctx.python, LAUNCHER, "cli", "--trace-out", trace,
                    "--sidecar", sidecar, "--"] + cli_args + ["--stats"]
        else:
            argv = [ctx.python, "-m", "repro"] + cli_args
        spawned_unix = time.time()
        t0 = time.monotonic()
        proc = ctx.spawn(argv, ctx.path(tag + ".out"), ctx.path(tag + ".err"))
        peak, cpu = reap(proc, CHILD_TIMEOUT_S)
        rss.append(peak)
        spans.append((t0, time.monotonic(), cpu))
        reaped_unix = time.time()
        document = _read_json_tail(ctx.path(tag + ".out")) or {}
        answered.append((keys, document.get("results", {}), proc.returncode))
        if traced:
            trace_spans = _load_spans(trace)
            breakdown.add(trace_spans)
            _validate_trace(trace, outcome)
            with open(sidecar, encoding="utf-8") as handle:
                timeline = json.load(handle)
            roots = sum(span["duration_ns"] for span in trace_spans
                        if span["parent_id"] is None) / 1e9
            breakdown.add_seconds(
                "cli.import", timeline["imported_unix"] - spawned_unix, 1)
            main_self = (timeline["main_end_unix"]
                         - timeline["main_start_unix"] - roots)
            breakdown.add_seconds(
                "cli.main",
                max(main_self, 0.0) + reaped_unix - timeline["main_end_unix"],
                1)
            stats = _read_json_tail(ctx.path(tag + ".err"))
            if stats is not None:
                stats_views.append(stats)
        index += 1
    result = {"spans": spans, "answered": answered, "rss": rss}
    if traced:
        result["breakdown"] = breakdown
        result["stats"] = stats_views
    return result


def _cold_references(name: str, data: dict, network, keys: List[str],
                     outcome: Outcome) -> Dict[str, float]:
    """Reference answers for the keys a cold pass queried."""
    if name == "cold-full":
        return verify.cold_full_reference(data["program"], keys,
                                          gen.HOP_COLD)
    references = verify.cold_grounded_reference(network, keys, gen.HOP_COLD)
    golden = data.get("golden") or {}
    for key in keys:
        if key in golden and not verify.close(references[key], golden[key]):
            outcome.fail("reference for %s disagrees with the golden file"
                         % key)
    return references


def _check_cold(run: dict, references: Dict[str, float],
                outcome: Outcome) -> None:
    """Marks each invocation of a cold pass good or not (``run["good"]``)."""
    run["good"] = []
    for index, (keys, answers, code) in enumerate(run["answered"]):
        ok = code == 0 and all(verify.close(answers.get(key), references[key])
                               for key in keys)
        if not ok:
            outcome.fail("invocation %d (%s): exit %s, answers %s"
                         % (index, ", ".join(keys), code,
                            {key: answers.get(key) for key in keys}))
        run["good"].append(ok)


def run_cold(ctx: Context, name: str, data: dict, network, traced: bool,
             outcome: Outcome) -> None:
    grounded = name == "cold-grounded"
    program = ctx.write(name + ".pl", data["program"])
    key_sets = ([[key] for key in data["keys"]] if grounded
                else data["keys"])
    setup_spans = _setup_imports(ctx)
    passes = [_cold_pass(ctx, name, program, key_sets, False, outcome)]
    if traced:
        passes.append(_cold_pass(ctx, name, program, key_sets, True, outcome))
    queried = sorted({key for run in passes
                      for keys, _answers, _code in run["answered"]
                      for key in keys})
    references = _cold_references(name, data, network, queried, outcome)
    for run in passes:
        _check_cold(run, references, outcome)
    plain = passes[0]
    speed = ctx.speed()
    latencies = speed.scaled(plain["spans"])
    setups = speed.scaled(setup_spans)
    limit = SLO_LIMIT_S[name]
    met = sum(1 for seconds, ok in zip(latencies, plain["good"])
              if ok and seconds <= limit)
    outcome.attempted = len(latencies)
    outcome.failed = sum(1 for ok in plain["good"] if not ok)
    outcome.metrics = {
        "setup_s": _median(setups),
        "latency_p50_ms": 1000.0 * _median(latencies),
        "slo_attainment": met / len(latencies),
        "peak_rss_mb": max(plain["rss"]),
    }
    specs = sum(len(key_sets[index % len(key_sets)])
                for index in range(len(latencies)))
    outcome.details.update({
        "invocations": len(latencies),
        "latency_ms": latency_summary([1000.0 * s for s in latencies]),
        "setup_samples_s": setups,
        "reference_tasks": len(speed),
        "throughput_qps": specs / sum(latencies),
        "error_rate": outcome.failed / len(latencies),
    })
    outcome.details.update(_raw_medians(plain["spans"], latencies,
                                        setup_spans))
    if not traced:
        return
    traced_run = passes[1]
    breakdown: layers.Breakdown = traced_run["breakdown"]
    e2e = sum(_durations(traced_run["spans"]))
    metrics = breakdown.metrics(e2e)
    metrics.update(_merged_cache_ratios(
        layers.cache_ratios(None, stats) for stats in traced_run["stats"]))
    metrics["telemetry.trace_overhead"] = (
        _median(speed.scaled(traced_run["spans"])) / _median(latencies))
    outcome.layers = metrics


# -- serve-mixed -------------------------------------------------------------------

class _Server:
    """One ``p3 serve`` process (plain, or traced through the launcher)."""

    def __init__(self, ctx: Context, tag: str, traced: bool) -> None:
        self.log = ctx.path(tag + ".log")
        self.trace = ctx.path(tag + ".jsonl")
        if traced:
            argv = [ctx.python, LAUNCHER, "cli", "--trace-out", self.trace,
                    "--sidecar", ctx.path(tag + ".timeline.json"), "--",
                    "serve", "--port", "0",
                    "--drain-timeout", str(SERVE_DRAIN_TIMEOUT_S)]
        else:
            argv = [ctx.python, "-m", "repro", "serve", "--port", "0",
                    "--no-telemetry",
                    "--drain-timeout", str(SERVE_DRAIN_TIMEOUT_S)]
        self.proc = ctx.spawn(argv, ctx.path(tag + ".out"), self.log)
        self.port = self._await_port()
        self.http = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=120)
        self.workers: List[int] = []

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            with open(self.log, encoding="utf-8", errors="replace") as handle:
                match = pattern.search(handle.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("p3 serve did not start (see %s)" % self.log)

    def request(self, method: str, path: str,
                document: Optional[dict] = None) -> Tuple[int, dict]:
        body = json.dumps(document).encode("utf-8") if document else None
        headers = {"Content-Type": "application/json"} if body else {}
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        payload = response.read()
        return response.status, json.loads(payload.decode("utf-8"))

    def children(self) -> List[int]:
        """Pids of this server's child processes (isolation workers)."""
        pids = []
        for stat in glob.glob("/proc/[0-9]*/stat"):
            try:
                with open(stat, encoding="ascii", errors="replace") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.append(int(stat.split("/")[2]))
        return pids

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its isolation workers."""
        from launcher import vm_hwm_mb
        self.workers = self.children()
        total = 0.0
        for pid in [self.proc.pid] + self.workers:
            try:
                total += vm_hwm_mb(str(pid))
            except (OSError, RuntimeError):
                pass
        return total

    def stop(self) -> int:
        """SIGTERM (graceful drain), then reap the server and workers."""
        self.http.close()
        if not self.workers:
            self.workers = self.children()
        self.proc.send_signal(signal.SIGTERM)
        reap(self.proc, SERVE_DRAIN_TIMEOUT_S + 20.0)
        for pid in self.workers:
            # A clean shutdown already stopped them; kill stragglers,
            # checking the pid still names a multiprocessing worker.
            try:
                with open("/proc/%d/cmdline" % pid, "rb") as handle:
                    if b"multiprocessing" in handle.read():
                        os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return self.proc.returncode


def _serve_setup(server: _Server, program: str, store: str,
                 probe: str) -> Dict[str, float]:
    """Spawn → healthz → both tenants → one answered probe per tenant."""
    deadline = time.monotonic() + 60.0
    while server.request("GET", "/healthz")[0] != 200:
        if time.monotonic() > deadline:
            raise RuntimeError("healthz never returned 200")
        time.sleep(0.005)
    config = {"hop_limit": gen.HOP_QUERY}
    for name, document in (
            ("hot", {"path": program,
                     "config": dict(config, isolation="thread")}),
            ("durable", {"store": store, "persist": True,
                         "config": dict(config, isolation="process")})):
        status, reply = server.request("POST", "/tenants/" + name, document)
        if status != 201:
            raise RuntimeError("creating tenant %s: %s" % (name, reply))
    answers = {}
    for name in gen.TENANTS:
        status, reply = server.request(
            "POST", "/tenants/%s/query" % name,
            {"specs": [{"kind": "probability", "key": probe}]})
        if status != 200:
            raise RuntimeError("probe on %s: %s" % (name, reply))
        answers[name] = reply["result"]["outcomes"][0].get("value")
    return answers


def _serve_requests(events: List[list], horizon: float
                    ) -> List[loadgen.Request]:
    requests = []
    for offset, tenant, kind, payload in events:
        if offset > horizon:
            break
        if kind == "write":
            requests.append((offset, "POST", "/tenants/%s/facts" % tenant,
                             json.dumps({"facts": payload}).encode("utf-8")))
        else:
            requests.append((offset, "POST", "/tenants/%s/query" % tenant,
                             json.dumps({"specs": payload}).encode("utf-8")))
    return requests


def _serve_pass(ctx: Context, data: dict, program: str, store: str,
                traced: bool, outcome: Outcome) -> dict:
    """Set the service up (timed), then drive warm-up plus window."""
    repeats = 1 if traced else SETUP_REPEATS
    setups = []
    probes = []
    server = None
    try:
        for index in range(repeats):
            tag = "serve-%s-%d" % ("traced" if traced else "plain", index)
            started = time.monotonic()
            server = _Server(ctx, tag, traced)
            probes.append(_serve_setup(server, program, store,
                                       data["probe_key"]))
            ended = time.monotonic()
            # The server and its workers started with this set-up.
            setups.append((started, ended,
                           TreeCpu(server.proc.pid).read(discover=True)))
            if index < repeats - 1:
                server.stop()
        applied = []
        for tenant, fact in data["prelude"]:
            status, reply = server.request(
                "POST", "/tenants/%s/facts" % tenant, {"facts": fact})
            if status != 200:
                raise RuntimeError("prelude write on %s: %s" % (tenant, reply))
            applied.append((tenant, reply["epoch"], fact))
        before = {name: server.request("GET", "/tenants/%s/stats" % name)[1]
                  for name in gen.TENANTS}
        warmup = data["warmup_s"]
        events = [event for event in data["events"]
                  if event[0] <= warmup + ctx.seconds]
        wall_start, start, records = loadgen.run(
            "127.0.0.1", server.port,
            _serve_requests(events, warmup + ctx.seconds),
            connections=SERVE_CONNECTIONS,
            cpu=TreeCpu(server.proc.pid).read)
        after = {name: server.request("GET", "/tenants/%s/stats" % name)[1]
                 for name in gen.TENANTS}
        health = server.request("GET", "/healthz")[1]
        peak = server.peak_rss_mb()
        trace = server.trace
        code = server.stop()
        server = None
        if code != 0:
            outcome.fail("p3 serve exited %s after SIGTERM" % code)
    finally:
        if server is not None:
            server.stop()
    return {"setups": setups, "probes": probes, "prelude": applied,
            "events": events,
            "records": records, "wall_start": wall_start, "start": start,
            "warmup": warmup,
            "before": before, "after": after, "health": health,
            "peak_rss_mb": peak, "trace": trace}


def _serve_results(run: dict, data: dict, seed: int, speed: SpeedLog,
                   outcome: Outcome) -> dict:
    """Latencies (server CPU time from when a request was due until its
    answer was in, at the reference speed), SLO, and answer checks of one
    serve pass."""
    events, records, warmup = run["events"], run["records"], run["warmup"]
    history: Dict[str, List[Tuple[int, str]]] = {name: []
                                                  for name in gen.TENANTS}
    for tenant, epoch, fact in run["prelude"]:
        history[tenant].append((epoch, fact))
    writes: Dict[str, List[Tuple[float, float]]] = {name: []
                                                    for name in gen.TENANTS}
    answers = verify.ServeAnswers()
    failed = set()
    reasons: List[str] = []
    for index, (event, record) in enumerate(zip(events, records)):
        _offset, tenant, kind, payload = event
        if record.error or record.status != 200 or record.done is None:
            failed.add(index)
            reasons.append("request %d (%s %s): %s" % (
                index, kind, tenant,
                record.error or "HTTP %d %s" % (record.status,
                                                 record.body[:200])))
            continue
        document = json.loads(record.body.decode("utf-8"))
        if kind == "write":
            history[tenant].append((document["epoch"], payload))
            writes[tenant].append((record.sent, record.done))
    for tenant, probe in ((name, value) for probes in run["probes"]
                          for name, value in probes.items()):
        answers.add(tenant, 0, data["probe_key"], probe, False, -1)
    for index, (event, record) in enumerate(zip(events, records)):
        _offset, tenant, kind, payload = event
        if kind != "read" or index in failed:
            continue
        document = json.loads(record.body.decode("utf-8"))
        epoch = document["epoch"]
        # A write that overlapped this read may have bumped the epoch
        # after the answers were computed but before the envelope read it.
        ambiguous = any(sent < record.done and done > record.sent
                        for sent, done in writes[tenant])
        for spec, item in zip(payload, document["result"]["outcomes"]):
            if "error" in item:
                failed.add(index)
                reasons.append("request %d (%s %s): %s"
                               % (index, spec["kind"], spec["key"],
                                  item["error"]))
                continue
            value = item["value"]
            if spec["kind"] == "explain":
                value = value["probability"]
            answers.add(tenant, epoch, spec["key"], value, ambiguous, index)
    check = answers.check(data["program"], history, gen.HOP_QUERY,
                          SERVE_CHECK_SAMPLE, seed)
    if check["inconsistent"] or check["mismatched"]:
        outcome.fail("serve answers: %d inconsistent groups, %d mismatched "
                     "references"
                     % (check["inconsistent"], len(check["mismatched"])))
    for index in check.pop("wrong_requests"):
        failed.add(index)
        reasons.append("request %d: wrong answer" % index)
    window = [index for index, event in enumerate(events)
              if event[0] > warmup]
    reads, read_latency, write_latency = [], [], []
    raw_read: List[Span] = []
    by_tenant: Dict[str, List[float]] = {name: [] for name in gen.TENANTS}
    met = 0
    for index in window:
        event, record = events[index], records[index]
        latency = float("inf")
        if record.done is not None:
            # From when the read was due, so that a read queued behind
            # another on a busy connection is charged the server's work
            # on that one.
            cpu = open_loop_latency(record.cpu_due, record.cpu_done)
            raw = (record.scheduled, record.done, cpu)
            latency = cpu * speed.factor(run["start"] + record.scheduled,
                                         run["start"] + record.done,
                                         SERVE_SPEED_MARGIN_S)
        limit = SLO_LIMIT_S[event[2]]
        met += index not in failed and latency <= limit
        if event[2] == "read":
            reads.append(index)
            if index not in failed:
                read_latency.append(1000.0 * latency)
                raw_read.append(raw)
                by_tenant[event[1]].append(1000.0 * latency)
        elif index not in failed:
            write_latency.append(1000.0 * latency)
    lag = generator_lag((records[i].scheduled, records[i].sent,
                         records[i].free) for i in window)
    failed_window = sum(1 for index in window if index in failed)
    lag_ms = [1000.0 * value for value in lag]
    return {
        "window": window, "failed": failed, "failed_window": failed_window,
        "read_latency_ms": read_latency, "write_latency_ms": write_latency,
        "raw_read_s": raw_read,
        "by_tenant_ms": by_tenant, "slo": met / len(window) if window else 0,
        "lag_ms": lag_ms,
        "lag_p99_ms": percentile(lag_ms, 99.0) if lag_ms else 0.0,
        "check": check, "history": history, "failures": reasons[:10],
        "specs": sum(len(events[i][3]) for i in reads),
    }


def _snapshot(ctx: Context, program: str, tag: str) -> str:
    """A fresh durable store for the ``durable`` tenant (untimed)."""
    store = ctx.path(tag + ".db")
    snapshot = ctx.spawn(
        [ctx.python, "-m", "repro", "snapshot", program, "--store", store,
         "--hop-limit", str(gen.HOP_QUERY)],
        ctx.path(tag + ".out"), ctx.path(tag + ".err"))
    reap(snapshot, CHILD_TIMEOUT_S)
    if snapshot.returncode != 0:
        raise RuntimeError("p3 snapshot failed (see %s)"
                           % ctx.path(tag + ".err"))
    return store


def run_serve(ctx: Context, data: dict, seed: int, traced: bool,
              outcome: Outcome) -> None:
    program = ctx.write("serve.pl", data["program"])
    store = _snapshot(ctx, program, "store-plain")
    plain = _serve_pass(ctx, data, program, store, False, outcome)
    speed = ctx.speed()
    result = _serve_results(plain, data, seed, speed, outcome)
    window = result["window"]
    outcome.attempted = len(window)
    outcome.failed = result["failed_window"]
    if not result["read_latency_ms"]:
        outcome.fail("no read answered in the measured window")
        return
    setups = speed.scaled(plain["setups"])
    outcome.metrics = {
        "setup_s": _median(setups),
        "latency_p50_ms": _median(result["read_latency_ms"]),
        "slo_attainment": result["slo"],
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    per_tenant = {name: latency_summary(values)
                  for name, values in result["by_tenant_ms"].items()}
    outcome.details.update({
        "rate_per_s": data["rate_per_s"],
        "requests": len(window),
        "read_latency_ms": latency_summary(result["read_latency_ms"]),
        "update_latency_ms": latency_summary(result["write_latency_ms"]),
        "per_tenant_read_latency_ms": per_tenant,
        "throughput_qps": result["specs"] / ctx.seconds,
        "error_rate": outcome.failed / max(len(window), 1),
        "shed": plain["health"]["admission"]["rejected_total"],
        "loadgen_lag_p99_ms": result["lag_p99_ms"],
        "loadgen_lag_ms": latency_summary(result["lag_ms"]),
        "valid_load": result["lag_p99_ms"] < LAG_LIMIT_MS,
        "setup_samples_s": setups,
        "reference_tasks": len(speed),
        "answer_check": result["check"],
        "failures": result["failures"],
        "cache": {name: layers.cache_ratios(plain["before"][name]["stats"],
                                            plain["after"][name]["stats"])
                  for name in gen.TENANTS},
        "epochs": {name: len(entries)
                   for name, entries in result["history"].items()},
    })
    outcome.details.update(_raw_medians(
        result["raw_read_s"],
        [ms / 1000.0 for ms in result["read_latency_ms"]], plain["setups"]))
    if traced:
        _serve_traced(ctx, data, program, seed, result, outcome)


def _serve_traced(ctx: Context, data: dict, program: str, seed: int,
                  plain_result: dict, outcome: Outcome) -> None:
    store = _snapshot(ctx, program, "store-traced")
    run = _serve_pass(ctx, data, program, store, True, outcome)
    result = _serve_results(run, data, seed, ctx.speed(), outcome)
    spans = _load_spans(run["trace"])
    _validate_trace(run["trace"], outcome)
    window = result["window"]
    records = run["records"]
    lo = run["wall_start"] + run["warmup"]
    hi = run["wall_start"] + max(records[i].done for i in window
                                 if records[i].done is not None)
    breakdown = layers.Breakdown()
    breakdown.add(spans, window=(lo, hi))
    answered = [(records[i].sent, records[i].done) for i in window
                if records[i].done is not None]
    served = [done - sent for sent, done in answered]
    # Two connections can have requests open at once: the traced
    # end-to-end time is the client time under at least one request.
    metrics = breakdown.metrics(covered_length(
        answered, min(sent for sent, _ in answered),
        max(done for _, done in answered)))
    metrics.update(_merged_cache_ratios(
        layers.cache_ratios(run["before"][name]["stats"],
                            run["after"][name]["stats"])
        for name in gen.TENANTS))
    pool = run["after"]["durable"]["stats"].get("pool", {}).get(
        "isolation_workers", {})
    metrics["resilience.respawns"] = pool.get("respawned", 0)
    tenants = plain_result["by_tenant_ms"]
    metrics["resilience.process_thread_ratio"] = (
        _median(tenants["durable"]) / _median(tenants["hot"]))
    metrics["serve.shed"] = run["health"]["admission"]["rejected_total"]
    handler = breakdown.handler_durations
    metrics["serve.http_ms"] = (
        1000.0 * (statistics.mean(served) - statistics.mean(handler))
        if handler else 0.0)
    metrics["serve.loadgen_lag_p99_ms"] = result["lag_p99_ms"]
    metrics["telemetry.trace_overhead"] = (
        _median(result["read_latency_ms"])
        / _median(plain_result["read_latency_ms"]))
    outcome.layers = metrics


# -- batch-analytics ---------------------------------------------------------------

def _batch_child(ctx: Context, data: dict, program: str, traced: bool,
                 outcome: Outcome) -> dict:
    tag = "batch-%s" % ("traced" if traced else "plain")
    spec_path = ctx.write(tag + ".spec.json", json.dumps({
        "program_path": program, "specs": data["specs"],
        "setup_repeats": 1 if traced else SETUP_REPEATS,
        "seconds": ctx.seconds, "min_rounds": MIN_ROUNDS}))
    out = ctx.path(tag + ".result.json")
    argv = [ctx.python, LAUNCHER, "batch", "--spec", spec_path, "--out", out]
    if traced:
        argv += ["--trace-out", ctx.path(tag + ".jsonl")]
    proc = ctx.spawn(argv, ctx.path(tag + ".out"), ctx.path(tag + ".err"))
    reap(proc, CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError("batch workload process failed (exit %s, see %s)"
                           % (proc.returncode, ctx.path(tag + ".err")))
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    for problem in verify.batch_problems(result, data, gen.HOP_QUERY):
        outcome.fail(problem)
    return result


def run_batch(ctx: Context, data: dict, traced: bool,
              outcome: Outcome) -> None:
    program = ctx.write("batch.pl", data["program"])
    result = _batch_child(ctx, data, program, False, outcome)
    speed = ctx.speed()
    rounds = speed.scaled(result["round_spans"])
    setups = speed.scaled(result["setup_spans"])
    good = outcome.correct
    limit = SLO_LIMIT_S["batch-analytics"]
    outcome.attempted = len(rounds)
    outcome.failed = 0 if good else len(rounds)
    outcome.metrics = {
        "setup_s": _median(setups),
        "latency_p50_ms": 1000.0 * _median(rounds),
        "slo_attainment": (sum(1 for seconds in rounds if seconds <= limit)
                           / len(rounds)) if good else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    outcome.details.update({
        "rounds": len(rounds),
        "round_ms": latency_summary([1000.0 * s for s in rounds]),
        "round_samples_s": rounds,
        "specs_per_round": len(data["specs"]),
        "throughput_qps": len(data["specs"]) / _median(rounds),
        "error_rate": outcome.failed / len(rounds),
        "setup_samples_s": setups,
        "reference_tasks": len(speed),
        "mid_keys": list(data["mid_keys"]),
    })
    outcome.details.update(_raw_medians(result["round_spans"], rounds,
                                        result["setup_spans"]))
    if not traced:
        return
    traced_result = _batch_child(ctx, data, program, True, outcome)
    trace = ctx.path("batch-traced.jsonl")
    spans = _load_spans(trace)
    _validate_trace(trace, outcome)
    breakdown = layers.Breakdown()
    breakdown.add(spans)
    e2e = sum(span["duration_ns"] for span in spans
              if span["name"] in ("bench.setup", "bench.round")) / 1e9
    metrics = breakdown.metrics(e2e)
    metrics.update(layers.cache_ratios(traced_result["stats_before"],
                                       traced_result["stats"]))
    metrics["telemetry.trace_overhead"] = (
        _median(ctx.speed().scaled(traced_result["round_spans"]))
        / _median(rounds))
    outcome.layers = metrics
