"""End-to-end benchmark of P3 with a traced per-layer breakdown.

Run every workload once, print each end-to-end metric with its unit,
and write a results JSON::

    python benchmarks/e2e/run.py --seed 0 [--traced] [--runs N] [--out F]

One workload, one run, result as the last stdout line (the form a
harness drives)::

    python benchmarks/e2e/run.py --workload cold-full --seed 3 \\
        --seconds 20 --trace 0

Compare two results files metric by metric::

    python benchmarks/e2e/run.py compare BEFORE.json AFTER.json

Regenerate the golden answers and seed-0 input fingerprints::

    python benchmarks/e2e/run.py golden

Run from the repository root; ``src/`` is put on the path here and in
every workload process.  Scratch files go to ``benchmarks/e2e/.work/``
and are removed afterwards.  See README.md for the workloads, metrics
and layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("cold-full", "cold-grounded", "serve-mixed", "batch-analytics")
DEFAULT_OUT = os.path.join(HERE, "results", "latest.json")


def _fail(message: str, code: int = 2) -> None:
    """Exit without printing a result line."""
    print("run.py: %s" % message, file=sys.stderr)
    sys.exit(code)


def _prepare() -> dict:
    """Put ``src`` on the path; load the benchmark declaration."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail("no src/repro under %s: run from a checkout of the "
              "repository" % ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "platform": platform.platform()}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 network=None) -> dict:
    """Generate inputs, run one workload, and return its run record."""
    import runners
    import inputs
    import verify
    from repro.data import generate_network
    if network is None:
        network = generate_network()
    data = inputs.GENERATORS[name](network, seed)
    fingerprint = inputs.fingerprint(data)
    if seed == 0:
        expected = verify.load_golden("fingerprints.json").get(name)
        if expected != fingerprint:
            _fail("seed-0 inputs of %s changed (fingerprint %s, expected "
                  "%s): repro.data or the generator moved the workload; "
                  "regenerate with 'run.py golden' only if that is "
                  "intended" % (name, fingerprint[:16], str(expected)[:16]),
                  code=3)
        if name == "cold-grounded":
            data["golden"] = verify.load_golden(
                "cold_grounded_seed0.json")["answers"]
    work = os.path.join(HERE, ".work", "%d-%s" % (os.getpid(), name))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = runners.Context(ROOT, work, seconds)
    outcome = runners.Outcome()
    started = time.perf_counter()
    try:
        if name in ("cold-full", "cold-grounded"):
            runners.run_cold(ctx, name, data, network, traced, outcome)
        elif name == "serve-mixed":
            runners.run_serve(ctx, data, seed, traced, outcome)
        else:
            runners.run_batch(ctx, data, traced, outcome)
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    if traced:
        import layers
        layers.complete(outcome.layers)
        _check_predictions(name, outcome)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "traced": traced, "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": outcome.metrics, "layers": outcome.layers,
        "details": outcome.details, "problems": outcome.problems,
        "fingerprint": fingerprint,
        "wall_s": time.perf_counter() - started,
    }


#: What every traced run asserts about its per-layer metrics: the
#: coverage floor and the bypass predictions of the README's layer
#: table, as ``(description, check(workload, metrics))``.
PREDICTIONS = (
    ("attributed spans cover >= 85% of the traced end-to-end time",
     lambda name, got: got["trace.coverage"] >= 0.85),
    ("resilience.dispatch_calls > 0 only on serve-mixed",
     lambda name, got: (got["resilience.dispatch_calls"] > 0)
     == (name == "serve-mixed")),
    ("queries.influence_s > 0 only on batch-analytics",
     lambda name, got: (got["queries.influence_s"] > 0)
     == (name == "batch-analytics")),
    ("queries.modify_s > 0 only on batch-analytics",
     lambda name, got: (got["queries.modify_s"] > 0)
     == (name == "batch-analytics")),
    ("no fixpoint rounds and datalog.evaluate_share < 0.02 on cold-grounded",
     lambda name, got: name != "cold-grounded"
     or (got["datalog.rounds"] == 0 and got["datalog.evaluate_share"] < 0.02)),
    ("ground.goal_s = 0 on cold-full",
     lambda name, got: name != "cold-full" or got["ground.goal_s"] == 0),
)


def _check_predictions(name: str, outcome) -> None:
    if not outcome.layers:
        return
    for description, holds in PREDICTIONS:
        if not holds(name, outcome.layers):
            outcome.fail("layer prediction failed: " + description)


def _metric_line(declared: List[dict], values: Dict[str, float]) -> dict:
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in declared}


def single_run(args: argparse.Namespace, benchmark: dict) -> int:
    traced = bool(args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, traced)
    for problem in record["problems"]:
        print("run.py: %s" % problem, file=sys.stderr)
    _print_record(record, benchmark, sys.stderr)
    declared = benchmark["per_layer" if traced else "end_to_end"]
    values = record["layers"] if traced else record["metrics"]
    if any(entry["name"] not in values for entry in declared):
        _fail("%s produced no %s metrics"
              % (args.workload, "per-layer" if traced else "end-to-end"), 1)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": _metric_line(declared, values)}))
    return 0 if record["correct"] else 1


def _print_record(record: dict, benchmark: dict, stream) -> None:
    units = {entry["name"]: entry["unit"]
             for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    print("%s seed %d: %s, %d attempted, %d failed (%.1fs wall)"
          % (record["workload"], record["seed"],
             "correct" if record["correct"] else "WRONG",
             record["attempted"], record["failed"], record["wall_s"]),
          file=stream)
    for name, value in record["metrics"].items():
        print("  %-34s %14.4f %s" % (name, value, units.get(name, "")),
              file=stream)
    for name, value in sorted(record["layers"].items()):
        if value:
            print("  %-34s %14.4f %s" % (name, value, units.get(name, "")),
                  file=stream)


def full_run(args: argparse.Namespace, benchmark: dict) -> int:
    from measure import quartiles
    from repro.data import generate_network
    network = generate_network()
    records = []
    for repeat in range(args.runs):
        order = WORKLOADS if repeat % 2 == 0 else tuple(reversed(WORKLOADS))
        for name in order:
            record = run_workload(name, args.seed + repeat, args.seconds,
                                  args.traced, network)
            _print_record(record, benchmark, sys.stdout)
            for problem in record["problems"]:
                print("  problem: %s" % problem)
            records.append(record)
    summary: Dict[str, dict] = {}
    for name in WORKLOADS:
        runs = [record for record in records if record["workload"] == name]
        if not runs:
            continue
        summary[name] = {}
        for entry in benchmark["end_to_end"]:
            values = [run["metrics"][entry["name"]] for run in runs
                      if entry["name"] in run["metrics"]]
            if values:
                q1, median, q3 = quartiles(values)
                summary[name][entry["name"]] = {
                    "median": median, "q1": q1, "q3": q3, "n": len(values),
                    "unit": entry["unit"]}
    document = {
        "version": 1, "kind": "bench_e2e", "host": _host(),
        "command": ["python", "benchmarks/e2e/run.py"] + sys.argv[1:],
        "seconds": args.seconds, "runs": records, "summary": summary,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("results written to %s" % args.out)
    return 0 if all(record["correct"] for record in records) else 1


def compare(paths: List[str], benchmark: dict) -> int:
    from compare import compare_documents, render
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare_documents(documents[0], documents[1],
                             benchmark["end_to_end"])
    print(render(rows))
    return 0


def _terminate(signum: int, frame: object) -> None:
    # SystemExit runs the ``finally`` blocks that stop workload processes.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    benchmark = _prepare()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            _fail("usage: run.py compare A.json B.json")
        return compare(argv[1:], benchmark)
    if argv[:1] == ["golden"]:
        from golden import regenerate
        regenerate()
        return 0
    parser = argparse.ArgumentParser(
        description="P3 end-to-end benchmark (see README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload once and print its result "
                        "as the last stdout line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass (default: "
                        "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer "
                        "metrics of an extra traced pass")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also trace every run")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the workload set (seeds seed, "
                        "seed+1, ...; order alternates)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="results JSON of a full run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.workload is not None:
        return single_run(args, benchmark)
    return full_run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
