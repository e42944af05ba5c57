"""Workload-process entry point.

``cli``    run ``repro.cli.main(ARGS)`` with the layer wrappers installed
           and ``--trace-out`` added, then write a sidecar with the
           process's own timeline (import done, main start and end).
           Used for the traced cold invocations and the traced server.
``batch``  the batch-analytics workload: set the library system up,
           then run closed-loop rounds of one executor batch, and write
           timings, answers and stats as JSON.  ``--trace-out`` turns the
           telemetry runtime and the layer wrappers on.

Telemetry is flushed on normal exit and on SIGTERM (which is turned into
``SystemExit`` so ``finally`` blocks run).
"""

from __future__ import annotations

import time

STARTED_UNIX = time.time()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from typing import List, Optional, Tuple  # noqa: E402


def _sigterm_exit(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open("/proc/%s/status" % pid, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %s" % pid)


def run_cli(trace_out: str, sidecar: str, cli_args: List[str]) -> int:
    import repro.cli
    imported_unix = time.time()
    import layers
    layers.install()
    timeline = {"started_unix": STARTED_UNIX, "imported_unix": imported_unix,
                "main_start_unix": time.time()}
    signal.signal(signal.SIGTERM, _sigterm_exit)
    code: Optional[int] = None
    try:
        code = repro.cli.main(cli_args + ["--trace-out", trace_out])
        return code
    finally:
        timeline["main_end_unix"] = time.time()
        timeline["exit_code"] = code
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(timeline, handle)


def _answers_digest(outcomes: List[dict]) -> str:
    values = [outcome.get("value", outcome.get("error"))
              for outcome in outcomes]
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_batch(spec_path: str, out_path: str,
              trace_out: Optional[str]) -> int:
    """The batch-analytics workload process."""
    from repro import P3, P3Config, telemetry
    from inputs import HOP_QUERY, polynomial_digest
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if trace_out is not None:
        import layers
        telemetry.configure(telemetry.TelemetryConfig(trace_path=trace_out))
        layers.install()
    signal.signal(signal.SIGTERM, _sigterm_exit)
    tracer = telemetry.runtime().tracer
    try:
        setups = []
        system = None
        for _ in range(spec["setup_repeats"]):
            system = None
            gc.collect()
            started, cpu = time.monotonic(), time.process_time()
            with tracer.span("bench.setup"):
                system = P3.from_file(spec["program_path"],
                                      P3Config(hop_limit=HOP_QUERY))
                evaluation = system.evaluate()
            setups.append((started, time.monotonic(),
                           time.process_time() - cpu))
        executor = system.executor()
        stats_before = executor.stats()
        # (monotonic start, end, CPU seconds of all the process's threads)
        rounds: List[Tuple[float, float, float]] = []
        digests: List[str] = []
        first: Optional[List[dict]] = None
        deadline = time.monotonic() + spec["seconds"]
        while (len(rounds) < spec["min_rounds"]
               or time.monotonic() < deadline):
            executor.clear_caches()
            started, cpu = time.monotonic(), time.process_time()
            with tracer.span("bench.round"):
                batch = executor.run(spec["specs"])
            rounds.append((started, time.monotonic(),
                           time.process_time() - cpu))
            outcomes = batch.to_dict()["outcomes"]
            digests.append(_answers_digest(outcomes))
            if first is None:
                first = outcomes
        keys = sorted({entry["key"] for entry in spec["specs"]})
        result = {
            "setup_spans": setups,
            "round_spans": rounds,
            "digests": digests,
            "outcomes": first,
            "polynomials": {key: polynomial_digest(executor.polynomial(key))
                            for key in keys},
            "stats_before": stats_before,
            "stats": executor.stats(),
            "evaluation": {"rounds": evaluation.rounds,
                           "derived": evaluation.derived_count,
                           "firings": evaluation.firing_count},
            "peak_rss_mb": vm_hwm_mb(),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        executor.close()
        return 0
    finally:
        if trace_out is not None:
            telemetry.disable()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace-out", required=True)
    cli.add_argument("--sidecar", required=True)
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    batch = sub.add_parser("batch")
    batch.add_argument("--spec", required=True)
    batch.add_argument("--out", required=True)
    batch.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        cli_args = args.cli_args
        if cli_args and cli_args[0] == "--":
            cli_args = cli_args[1:]
        return run_cli(args.trace_out, args.sidecar, cli_args)
    return run_batch(args.spec, args.out, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
