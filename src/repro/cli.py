"""Command-line interface: ``p3`` (or ``python -m repro``).

Subcommands
-----------
run        Evaluate a program file and print derived tuples.
query      Batched probability queries through the shared executor.
update     Apply a live update (new base facts) and re-answer queries.
explain    Explanation Query for one tuple.
derive     Derivation Query (ε-sufficient provenance).
influence  Influence Query (top-K literals).
modify     Modification Query (reach a target probability).
audit      Differential audit of every inference backend and query path.
chaos      Chaos harness: inject backend faults, assert every query
           still yields a well-formed answer through the resilience layer.
           ``--service`` / ``--process`` target the HTTP service / workers.
serve      Long-lived multi-tenant HTTP/JSON service over the executor.
trace      Traced explanation query; prints the telemetry span tree.
generate   Emit a synthetic trust-network program to stdout.
snapshot   Append the evaluated provenance graph to a durable store file.
record     Capture a query session (queries, epochs, envelopes) in a store.
replay     Re-run a recorded session from the store; assert byte-identical
           envelopes.

``query``, ``snapshot``, ``record``, and ``serve`` can start from
persisted provenance instead of a program file: ``--from-store FILE``
warm-starts from a durable store (no fixpoint re-evaluation; see
docs/STORE.md).

Tuples are addressed by their canonical key, e.g.::

    p3 explain program.pl 'know("Ben","Elena")'

Every querying subcommand accepts ``--stats`` (per-stage wall-clock
timings, counters, and cache hit rates on stderr) and, where a structured
answer exists, ``--json`` (the unified QueryResult envelope on stdout).
Telemetry flags are global: ``--trace-out FILE`` streams spans as JSONL,
``--metrics-out FILE`` writes Prometheus-text metrics on exit,
``--chrome-out FILE`` writes a Chrome ``trace_event`` file, and
``--slow-query SECONDS`` logs slow queries to stderr.

``--resilient`` answers probabilities through the default backend
fallback ladder (retries, circuit breakers) instead of a single backend.

Failures exit nonzero.  With ``--json``, a failed command prints the
structured error envelope (:func:`repro.io.serialize.error_to_json`) on
stdout — scripted callers always get parseable output — while the
human-readable message still goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Iterator, List, Optional, Tuple

from .core.config import P3Config
from .core.system import P3
from .data.bitcoin_otc import generate_network


@contextlib.contextmanager
def _timed(timings: List[Tuple[str, float]], stage: str) -> Iterator[None]:
    """Time one build stage, as a span named after it."""
    from . import telemetry
    start = time.perf_counter()
    with telemetry.runtime().tracer.span(stage):
        try:
            yield
        finally:
            timings.append((stage, time.perf_counter() - start))


def _build_system(args: argparse.Namespace) -> P3:
    """Build the system from a program file or a durable store, timing
    each stage into the shared executor's registry so ``--stats`` covers
    the whole pipeline.

    A program file is parsed and evaluated; ``--from-store`` warm-starts
    instead (no fixpoint evaluation), with the persisted epoch restored
    into the executor's epoch-tagged caches.
    """
    from .inference.registry import is_deterministic
    resilience = None
    if getattr(args, "resilient", False):
        from .resilience import ResilienceConfig
        resilience = ResilienceConfig()
    config = P3Config(
        probability_method=args.method,
        influence_method=("exact" if is_deterministic(args.method)
                          else "parallel"),
        samples=args.samples,
        seed=args.seed,
        hop_limit=args.hop_limit,
        grounding=getattr(args, "grounding", "full") or "full",
        query_timeout=getattr(args, "timeout", None),
        resilience=resilience,
    )
    program = getattr(args, "program", None)
    from_store = getattr(args, "from_store", None)
    if program and from_store:
        raise ValueError("Give exactly one source: a program file or "
                         "--from-store, not both")
    if not (program or from_store):
        raise ValueError("exactly one program source is required — a "
                         "program file or --from-store (got: none)")
    timings: List[Tuple[str, float]] = []
    if from_store is not None:
        with _timed(timings, "load"):
            p3 = P3.from_store(from_store, config=config, attach=False)
    else:
        with _timed(timings, "parse"):
            p3 = P3.from_file(program, config=config)
        with _timed(timings, "evaluate"):
            p3.evaluate()
    executor = p3.configure_executor()
    for stage, seconds in timings:
        executor.record_stage(stage, seconds)
    args.metrics_registries = p3.metrics_registries
    return p3


def _add_loading(parser: argparse.ArgumentParser) -> None:
    """The ``--from-store`` warm-start flag."""
    parser.add_argument("--from-store", metavar="FILE", default=None,
                        help="warm-start from a durable provenance store "
                        "(see 'p3 snapshot') instead of evaluating")


def _reclaim_program_positional(args: argparse.Namespace) -> None:
    """With ``--from-store``, the optional program positional actually
    holds the first tuple key — rebind it, unless it names an existing
    file: then it is a second source, which ``_build_system`` rejects."""
    if (getattr(args, "from_store", None)
            and getattr(args, "program", None) is not None
            and not os.path.isfile(args.program)):
        args.tuples = [args.program] + list(args.tuples)
        args.program = None


def _emit_stats(p3: P3, args: argparse.Namespace) -> None:
    """Print executor statistics as JSON on stderr when --stats was given."""
    if getattr(args, "stats", False):
        json.dump(p3.executor().stats(), sys.stderr, indent=2,
                  sort_keys=True)
        sys.stderr.write("\n")


def _emit_result(result, args: argparse.Namespace) -> bool:
    """Print the unified QueryResult JSON envelope when --json was given."""
    if getattr(args, "json", False):
        from .io.serialize import dump_query_result
        print(dump_query_result(result))
        return True
    return False


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by every subcommand that does real work."""
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="stream every telemetry span to this JSONL "
                        "file (enables tracing)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write metrics in Prometheus text format to "
                        "this file on exit (enables telemetry)")
    parser.add_argument("--chrome-out", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON file on "
                        "exit (open in chrome://tracing or Perfetto)")
    parser.add_argument("--slow-query", metavar="SECONDS", type=float,
                        default=None,
                        help="log queries slower than this many seconds "
                        "to stderr")


def _configure_telemetry(args: argparse.Namespace) -> None:
    """Install the telemetry runtime when any telemetry flag was given."""
    from . import telemetry
    wants = (getattr(args, "trace_out", None),
             getattr(args, "metrics_out", None),
             getattr(args, "chrome_out", None),
             getattr(args, "slow_query", None))
    if getattr(args, "command", None) == "trace" or any(
            value is not None for value in wants):
        telemetry.configure(telemetry.TelemetryConfig(
            trace_path=wants[0],
            metrics_path=wants[1],
            chrome_path=wants[2],
            slow_query_seconds=wants[3],
        ))


def _finish_telemetry(args: argparse.Namespace) -> None:
    """Flush sinks, report slow queries, and restore the no-op runtime;
    the metrics file adds what the command served (``args``)."""
    from . import telemetry
    rt = telemetry.runtime()
    if not rt.enabled:
        return
    if rt.slow_log is not None:
        for span in rt.slow_log.entries():
            print("p3: slow query: %s took %.3fs (threshold %.3fs) %s"
                  % (span.name, span.duration_seconds,
                     rt.slow_log.threshold_seconds, span.attributes),
                  file=sys.stderr)
    served = getattr(args, "metrics_registries", None)
    telemetry.disable(served() if served is not None else ())


def _add_common(parser: argparse.ArgumentParser,
                optional_program: bool = False) -> None:
    from .inference import METHODS
    if optional_program:
        parser.add_argument("program", nargs="?", default=None,
                            help="path to a ProbLog program file (omit "
                            "with --from-store)")
    else:
        parser.add_argument("program", help="path to a ProbLog program file")
    parser.add_argument("--method", default="exact",
                        choices=METHODS,
                        help="probability backend (default: exact)")
    parser.add_argument("--samples", type=int, default=10000,
                        help="Monte-Carlo sample budget (default: 10000)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for estimation backends")
    parser.add_argument("--hop-limit", type=int, default=None,
                        help="bound derivation depth during extraction")
    parser.add_argument("--grounding", default="full",
                        choices=("full", "query", "auto"),
                        help="evaluation strategy: 'full' materializes "
                        "the whole least model up front, 'query' grounds "
                        "each queried goal on demand (magic sets), 'auto' "
                        "picks per program size (default: full)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-query deadline in seconds; a query "
                        "exceeding it reports a TimeoutError instead of "
                        "stalling the batch")
    parser.add_argument("--stats", action="store_true",
                        help="print executor statistics (stage timings, "
                        "cache hit rates) to stderr")
    parser.add_argument("--resilient", action="store_true",
                        help="answer probabilities through the default "
                        "backend fallback ladder (retries, circuit "
                        "breakers) instead of the single --method backend")
    _add_telemetry(parser)


def _cmd_run(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    relations = [args.relation] if args.relation else p3.database.relations()
    for relation in relations:
        for atom in sorted(map(str, p3.derived_atoms(relation))):
            if args.probabilities:
                print("%-50s %.6f" % (atom, p3.probability_of(atom)))
            else:
                print(atom)
    _emit_stats(p3, args)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .exec.specs import QuerySpec
    _reclaim_program_positional(args)
    p3 = _build_system(args)
    if args.tuples:
        specs = [QuerySpec.probability(key) for key in args.tuples]
        batch = p3.executor().run(specs)
        results = {}
        for outcome in batch:
            if outcome.error is not None:
                print("p3: query %s failed: %s"
                      % (outcome.spec.key, outcome.error), file=sys.stderr)
            results[outcome.spec.key] = outcome.value
        failed = not batch.ok
    else:
        results = p3.answer_queries()
        failed = False
        if not results:
            print("p3: program has no query(...) directives; pass tuple "
                  "keys explicitly", file=sys.stderr)
            _emit_stats(p3, args)
            return 2
    if args.json:
        document = {
            "version": 1,
            "kind": "query_batch",
            "results": {
                key: results[key] for key in sorted(results)
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for key in sorted(results):
            value = results[key]
            rendered = "%.6f" % value if value is not None else "ERROR"
            print("%-50s %s" % (key, rendered))
    _emit_stats(p3, args)
    return 1 if failed else 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .exec.specs import QuerySpec
    p3 = _build_system(args)
    with open(args.updates, encoding="utf-8") as handle:
        source = handle.read()
    delta = p3.add_facts(source)
    results = {}
    if args.tuples:
        batch = p3.executor().run(
            [QuerySpec.probability(key) for key in args.tuples])
        for outcome in batch:
            if outcome.error is not None:
                print("p3: query %s failed: %s"
                      % (outcome.spec.key, outcome.error), file=sys.stderr)
            results[outcome.spec.key] = outcome.value
    elif p3.program.queries:
        results = p3.answer_queries()
    if args.json:
        from .io.serialize import update_to_json
        print(json.dumps(update_to_json(delta, p3.epoch, results),
                         indent=2, sort_keys=True))
    else:
        print("update applied: %d rounds, %d new firings, %d derived "
              "tuples, %.3fs (epoch %d)"
              % (delta.rounds, delta.firing_count, delta.derived_count,
                 delta.elapsed_seconds, p3.epoch))
        for key in sorted(results):
            value = results[key]
            rendered = "%.6f" % value if value is not None else "ERROR"
            print("%-50s %s" % (key, rendered))
    _emit_stats(p3, args)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    explanation = p3.explain(args.tuple)
    if not _emit_result(explanation, args):
        if args.dot:
            print(explanation.to_dot())
        else:
            print(explanation.to_text())
    _emit_stats(p3, args)
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    result = p3.sufficient_provenance(
        args.tuple, epsilon=args.epsilon, method=args.algorithm)
    if not _emit_result(result, args):
        print("full probability:        %.6f" % result.full_probability)
        print("sufficient probability:  %.6f (error %.6f <= eps %.6f)"
              % (result.sufficient_probability, result.error, result.epsilon))
        print("monomials: %d -> %d (compression ratio %.1f%%)"
              % (len(result.original), len(result.sufficient),
                 100 * result.compression_ratio))
        print("sufficient provenance: %s" % result.sufficient)
    _emit_stats(p3, args)
    return 0


def _cmd_influence(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    report = p3.influence(args.tuple, kind=args.kind, relation=args.relation)
    if args.json:
        from .queries.influence import InfluenceReport
        trimmed = InfluenceReport(report.top(args.top), report.method)
        _emit_result(trimmed, args)
    else:
        for score in report.top(args.top):
            print("%-50s %.6f" % (score.literal, score.influence))
    _emit_stats(p3, args)
    return 0


def _cmd_modify(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    plan = p3.modify(
        args.tuple, target=args.target, strategy=args.strategy,
        only_tuples=args.only_tuples, only_rules=args.only_rules)
    if not _emit_result(plan, args):
        print(plan.to_text())
    _emit_stats(p3, args)
    return 0 if plan.reached else 1


def _cmd_topk(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    derivations = p3.top_derivations(args.tuple, k=args.k)
    for rank, (monomial, probability) in enumerate(derivations, start=1):
        print("#%d  p=%.6f  %s" % (rank, probability, monomial))
    if not derivations:
        print("no derivations found")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import telemetry
    rt = telemetry.runtime()
    p3 = _build_system(args)
    explanation = p3.explain(args.tuple)
    spans = rt.ring.spans() if rt.ring is not None else []
    if args.json:
        from .io.serialize import trace_to_json
        print(json.dumps(trace_to_json(spans, rt.tracer.anchor_ns),
                         indent=2, sort_keys=True))
    else:
        from .telemetry import render_span_tree
        print("trace of explain(%s): P=%.6f, %d spans"
              % (args.tuple, explanation.probability, len(spans)))
        print(render_span_tree(spans))
    _emit_stats(p3, args)
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    report = p3.what_if(deleted=args.delete, targets=[args.tuple])
    print(report.to_text())
    return 0


def _cmd_whynot(args: argparse.Namespace) -> int:
    p3 = _build_system(args)
    print(p3.why_not(args.tuple).to_text())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .provenance.stats import summarize
    p3 = _build_system(args)
    polynomial = None
    probabilities = None
    if args.tuple:
        polynomial = p3.polynomial_of(args.tuple)
        probabilities = p3.probabilities
    print(summarize(p3.graph, polynomial, probabilities))
    return 0


def _cmd_goal(args: argparse.Namespace) -> int:
    from .core.goal import goal_directed_query
    from .datalog.parser import parse_atom, parse_file

    config = P3Config(
        probability_method=args.method,
        samples=args.samples, seed=args.seed, hop_limit=args.hop_limit)
    program = parse_file(args.program)
    pattern = parse_atom(args.pattern)
    result = goal_directed_query(
        program, pattern.relation, pattern=pattern, config=config)
    print("goal-directed evaluation: %d rule firings" % result.firing_count)
    for key in result.answers():
        print("%-50s %.6f" % (key, result.probability_of(key)))
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Evaluate (or load) a system and snapshot it into a durable store."""
    from .store import ProvenanceStore
    p3 = _build_system(args)
    store = ProvenanceStore(args.store)
    try:
        p3.attach_store(store)
        epochs = store.epochs()
    finally:
        p3.detach_store()
        store.close()
    if getattr(args, "json", False):
        from .io.serialize import FORMAT_VERSION
        print(json.dumps({
            "version": FORMAT_VERSION,
            "kind": "snapshot",
            "store": args.store,
            "epoch": p3.epoch,
            "epochs": epochs,
        }, indent=2, sort_keys=True))
    else:
        print("snapshot written to %s (epoch %d, %d committed epoch(s))"
              % (args.store, p3.epoch, len(epochs)))
    _emit_stats(p3, args)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    """Capture a replayable query session into the store."""
    from .exec.specs import QuerySpec
    from .store import ProvenanceStore, record_session
    _reclaim_program_positional(args)
    p3 = _build_system(args)
    keys = args.tuples or p3.registered_queries()
    if not keys:
        print("p3: nothing to record: pass tuple keys or use a program "
              "with query(...) directives", file=sys.stderr)
        return 2
    specs = [QuerySpec.probability(key) for key in keys]
    updates = []
    for path in args.update:
        with open(path, encoding="utf-8") as handle:
            updates.append(handle.read())
    store = ProvenanceStore(args.store)
    try:
        recording = record_session(
            p3, store, args.name, specs, updates=updates)
        epochs = store.epochs()
    finally:
        store.close()
    if getattr(args, "json", False):
        from .io.serialize import FORMAT_VERSION
        print(json.dumps({
            "version": FORMAT_VERSION,
            "kind": "recording",
            "store": args.store,
            "name": recording.name,
            "queries": len(recording.queries),
            "epochs": epochs,
        }, indent=2, sort_keys=True))
    else:
        print("recorded '%s': %d queries across %d epoch(s) into %s"
              % (recording.name, len(recording.queries), len(epochs),
                 args.store))
    _emit_stats(p3, args)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded session from the store; fail on any divergence."""
    from .store import ProvenanceStore, replay_recording
    store = ProvenanceStore(args.store, create=False)
    try:
        report = replay_recording(store, args.name)
    finally:
        store.close()
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for mismatch in report.mismatches:
            print("  seq %d (epoch %d, %s %s): envelopes differ"
                  % (mismatch.seq, mismatch.epoch, mismatch.kind,
                     mismatch.key))
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import run_audit, run_replay
    from .io.serialize import audit_report_to_json
    if args.replay:
        report = run_replay(args.replay,
                            prefer_shrunk=not args.replay_original)
    else:
        report = run_audit(
            cases=args.cases,
            seed=args.seed,
            backends=args.backends,
            samples=args.samples,
            repeats=args.repeats,
            z=args.z,
            include_corpus=not args.no_corpus,
            include_programs=not args.no_programs,
            shrink=not args.no_shrink,
            fail_fast=args.fail_fast,
            replay_dir=args.replay_dir,
        )
    if args.json:
        print(json.dumps(audit_report_to_json(report), indent=2,
                         sort_keys=True))
    else:
        print(report.summary())
        for failure in report.failures:
            for disagreement in failure.verdict.disagreements:
                print("  %s" % (disagreement,))
            if failure.shrunk is not None:
                print("  shrunk to %d monomial(s) / %d literal(s)"
                      % (len(failure.shrunk.polynomial),
                         len(failure.shrunk.polynomial.literals())))
        if not report.ok and args.replay_dir:
            print("replay files written to %s" % args.replay_dir)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from . import telemetry
    from .serve import AdmissionController, ProvenanceService, TenantRegistry
    from .serve.tenants import default_tenant_config

    # The service enables telemetry by default, so /metrics carries the
    # process-scoped families too.  --no-telemetry opts out.
    if not telemetry.runtime().enabled and not args.no_telemetry:
        telemetry.configure(telemetry.TelemetryConfig())

    base_config = None
    if args.isolation is not None:
        base_config = default_tenant_config().replace(
            isolation=args.isolation)
    registry = TenantRegistry(base_config=base_config,
                              max_tenants=args.max_tenants)
    if args.program is not None and args.from_store is not None:
        raise ValueError(
            "Give the default tenant exactly one source: a program "
            "file or --from-store")
    if args.persist and args.from_store is None:
        raise ValueError("--persist requires --from-store")
    if args.program is not None:
        registry.create("default", path=args.program)
    elif args.from_store is not None:
        registry.create("default", store=args.from_store,
                        persist=args.persist)
    for spec in args.tenant:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ValueError(
                "--tenant expects NAME=PROGRAM_FILE, got %r" % spec)
        registry.create(name, path=path)
    admission = AdmissionController(
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        max_tenant_inflight=args.max_tenant_inflight)
    service = ProvenanceService(
        registry, admission,
        degraded_abandoned_threshold=(args.degraded_threshold or None))

    async def _serve() -> int:
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        handled_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
                handled_signals.append(signum)
            except (NotImplementedError, RuntimeError, OSError):
                pass  # non-POSIX loop; the KeyboardInterrupt path below
        await service.start(args.host, args.port)
        print("p3 serve: listening on http://%s:%d, tenants: %s"
              % (args.host, service.port,
                 ", ".join(registry.names()) or "(none)"),
              file=sys.stderr)
        server_task = asyncio.ensure_future(service.serve_forever())
        waiter = asyncio.ensure_future(shutdown.wait())
        done, _pending = await asyncio.wait(
            {server_task, waiter}, return_when=asyncio.FIRST_COMPLETED)
        for signum in handled_signals:
            loop.remove_signal_handler(signum)
        if server_task in done and waiter not in done:
            # The server itself died; surface its exception.
            waiter.cancel()
            await server_task
            return 0
        # Graceful lifecycle: close admission (503 + Retry-After for
        # new work), let in-flight requests finish under the drain
        # budget, then tear the front-end down.  The listening socket
        # stays open throughout, so clients never see a reset.
        print("p3 serve: signal received, draining (timeout %.1fs)"
              % args.drain_timeout, file=sys.stderr)
        service.begin_drain()
        clean = await service.drain(args.drain_timeout)
        server_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await server_task
        await service.stop()
        if clean:
            print("p3 serve: drained cleanly", file=sys.stderr)
            return 0
        snapshot = admission.snapshot()
        print("p3 serve: drain timed out with %d in flight, %d queued; "
              "forcing shutdown"
              % (snapshot["inflight"], snapshot["queued"]), file=sys.stderr)
        # Wedged worker threads cannot be joined (that is what process
        # isolation exists for), so sync the durable side and hard-exit
        # with the distinct force-shutdown code.
        registry.sync_stores()
        print("p3 serve: stores synced; forced exit", file=sys.stderr)
        sys.stderr.flush()
        os._exit(3)

    try:
        code = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("p3 serve: shutting down", file=sys.stderr)
        code = 0
    finally:
        exported = service.metrics_registries()
        args.metrics_registries = lambda: exported
        # Closing the registry syncs and detaches every store-attached
        # tenant, so a restart from the same store resumes losslessly.
        registry.close()
        print("p3 serve: tenants closed, stores synced", file=sys.stderr)
    return code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .io.serialize import chaos_report_to_json
    from .resilience.chaos import (
        ExecutorTransport, ProcessTransport, ServiceTransport, run_chaos)
    if args.process:
        transport = ProcessTransport(
            rounds=args.rounds, people=args.people, samples=args.samples)
    elif args.service:
        transport = ServiceTransport(
            requests=args.requests, people=args.people, samples=args.samples)
    else:
        transport = ExecutorTransport(
            specs=args.specs, people=args.people, samples=args.samples,
            include_outcomes=args.outcomes)
    report = run_chaos(transport, seed=args.seed)
    args.metrics_registries = lambda: report.registries
    if args.json:
        print(json.dumps(chaos_report_to_json(report), indent=2,
                         sort_keys=True))
    else:
        print(report.summary())
        if report.unhandled:
            print("  unhandled exception: %s" % report.unhandled)
        for entry in report.malformed:
            print("  malformed exchange: %s" % entry)
    return 0 if report.ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    network = generate_network(
        nodes=args.nodes, edges=args.edges, seed=args.seed)
    if args.sample:
        network = network.bfs_sample(args.sample, seed=args.seed)
    print("%% synthetic Bitcoin-OTC-like trust network: "
          "%d nodes, %d edges" % (network.node_count, network.edge_count))
    print(str(network.to_program()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3",
        description="P3: provenance queries over probabilistic logic programs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="evaluate a program and print derived tuples")
    _add_common(run_parser)
    run_parser.add_argument("--relation", help="print only this relation")
    run_parser.add_argument("--probabilities", action="store_true",
                            help="also print success probabilities")
    run_parser.set_defaults(func=_cmd_run)

    query_parser = subparsers.add_parser(
        "query", help="batched probability queries through the executor")
    _add_common(query_parser, optional_program=True)
    _add_loading(query_parser)
    query_parser.add_argument(
        "tuples", nargs="*",
        help="tuple keys to query; when omitted, answer the program's "
        "query(...) directives")
    query_parser.add_argument("--json", action="store_true",
                              help="emit a JSON document of results")
    query_parser.set_defaults(func=_cmd_query)

    update_parser = subparsers.add_parser(
        "update", help="apply a live update (new base facts) and "
        "re-answer queries incrementally")
    _add_common(update_parser)
    update_parser.add_argument(
        "updates", help="path to a facts-only program file to insert")
    update_parser.add_argument(
        "tuples", nargs="*",
        help="tuple keys to (re-)query after the update; when omitted, "
        "the program's query(...) directives are answered")
    update_parser.add_argument("--json", action="store_true",
                               help="emit a JSON document of the delta "
                               "and results")
    update_parser.set_defaults(func=_cmd_update)

    explain_parser = subparsers.add_parser(
        "explain", help="explanation query for one tuple")
    _add_common(explain_parser)
    explain_parser.add_argument("tuple", help="tuple key, e.g. 'know(\"a\",\"b\")'")
    explain_parser.add_argument("--dot", action="store_true",
                                help="emit Graphviz DOT instead of text")
    explain_parser.add_argument("--json", action="store_true",
                                help="emit the QueryResult JSON envelope")
    explain_parser.set_defaults(func=_cmd_explain)

    derive_parser = subparsers.add_parser(
        "derive", help="derivation query (sufficient provenance)")
    _add_common(derive_parser)
    derive_parser.add_argument("tuple")
    derive_parser.add_argument("--epsilon", type=float, required=True,
                               help="approximation error limit")
    derive_parser.add_argument("--algorithm", default="naive",
                               choices=("naive", "naive-mc", "match-group"))
    derive_parser.add_argument("--json", action="store_true",
                               help="emit the QueryResult JSON envelope")
    derive_parser.set_defaults(func=_cmd_derive)

    influence_parser = subparsers.add_parser(
        "influence", help="influence query (top-K literals)")
    _add_common(influence_parser)
    influence_parser.add_argument("tuple")
    influence_parser.add_argument("--top", type=int, default=10)
    influence_parser.add_argument("--kind", choices=("tuple", "rule"))
    influence_parser.add_argument("--relation",
                                  help="restrict to one base relation")
    influence_parser.add_argument("--json", action="store_true",
                                  help="emit the QueryResult JSON envelope")
    influence_parser.set_defaults(func=_cmd_influence)

    modify_parser = subparsers.add_parser(
        "modify", help="modification query (reach a target probability)")
    _add_common(modify_parser)
    modify_parser.add_argument("tuple")
    modify_parser.add_argument("--target", type=float, required=True)
    modify_parser.add_argument("--strategy", default="greedy",
                               choices=("greedy", "random"))
    modify_parser.add_argument("--only-tuples", action="store_true",
                               help="modify base tuples only")
    modify_parser.add_argument("--only-rules", action="store_true",
                               help="modify rule weights only")
    modify_parser.add_argument("--json", action="store_true",
                               help="emit the QueryResult JSON envelope")
    modify_parser.set_defaults(func=_cmd_modify)

    trace_parser = subparsers.add_parser(
        "trace", help="run a traced explanation query and print the "
        "span tree (telemetry is forced on)")
    _add_common(trace_parser)
    trace_parser.add_argument("tuple", help="tuple key to trace")
    trace_parser.add_argument("--json", action="store_true",
                              help="emit the trace JSON envelope instead "
                              "of the text tree")
    trace_parser.set_defaults(func=_cmd_trace)

    topk_parser = subparsers.add_parser(
        "topk", help="top-K most probable derivations of a tuple")
    _add_common(topk_parser)
    topk_parser.add_argument("tuple")
    topk_parser.add_argument("--k", type=int, default=3)
    topk_parser.set_defaults(func=_cmd_topk)

    whatif_parser = subparsers.add_parser(
        "whatif", help="deletion scenario: what happens without these "
        "tuples/rules?")
    _add_common(whatif_parser)
    whatif_parser.add_argument("tuple", help="target tuple to report on")
    whatif_parser.add_argument("--delete", action="append", required=True,
                               help="tuple key or rule label to delete "
                               "(repeatable)")
    whatif_parser.set_defaults(func=_cmd_whatif)

    whynot_parser = subparsers.add_parser(
        "whynot", help="explain why a tuple was NOT derived")
    _add_common(whynot_parser)
    whynot_parser.add_argument("tuple", help="the absent ground tuple")
    whynot_parser.set_defaults(func=_cmd_whynot)

    stats_parser = subparsers.add_parser(
        "stats", help="provenance size statistics")
    _add_common(stats_parser)
    stats_parser.add_argument("tuple", nargs="?", default=None,
                              help="also summarise this tuple's polynomial")
    stats_parser.set_defaults(func=_cmd_stats)

    goal_parser = subparsers.add_parser(
        "goal", help="goal-directed (magic sets) evaluation of one pattern")
    _add_common(goal_parser)
    goal_parser.add_argument(
        "pattern", help="query pattern, e.g. 'trustPath(1,X)'")
    goal_parser.set_defaults(func=_cmd_goal)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="evaluate a program (or warm-start from a store) "
        "and snapshot its provenance into a durable store (see "
        "docs/STORE.md)")
    _add_common(snapshot_parser, optional_program=True)
    _add_loading(snapshot_parser)
    snapshot_parser.add_argument("--store", required=True, metavar="FILE",
                                 help="SQLite store file (created if "
                                 "missing, appended otherwise)")
    snapshot_parser.add_argument("--json", action="store_true",
                                 help="emit a JSON snapshot summary")
    snapshot_parser.set_defaults(func=_cmd_snapshot)

    record_parser = subparsers.add_parser(
        "record", help="capture a replayable query session: answer "
        "queries, apply updates (each a new store epoch), and persist "
        "every result envelope")
    _add_common(record_parser, optional_program=True)
    _add_loading(record_parser)
    record_parser.add_argument(
        "tuples", nargs="*",
        help="tuple keys to record; when omitted, the program's "
        "query(...) directives are recorded")
    record_parser.add_argument("--store", required=True, metavar="FILE",
                               help="SQLite store file to record into")
    record_parser.add_argument("--name", default="session",
                               help="recording name (default: session)")
    record_parser.add_argument("--update", action="append", default=[],
                               metavar="FILE",
                               help="facts-only program file applied as a "
                               "live update between query rounds "
                               "(repeatable; each lands as a new epoch)")
    record_parser.add_argument("--json", action="store_true",
                               help="emit a JSON recording summary")
    record_parser.set_defaults(func=_cmd_record)

    replay_parser = subparsers.add_parser(
        "replay", help="cold-start from the store at every recorded "
        "epoch, re-run the session with its recorded seeds, and assert "
        "byte-identical result envelopes")
    replay_parser.add_argument("--store", required=True, metavar="FILE",
                               help="SQLite store file holding the "
                               "recording")
    replay_parser.add_argument("--name", default=None,
                               help="recording name (default: the "
                               "newest recording in the store)")
    replay_parser.add_argument("--json", action="store_true",
                               help="emit the replay report JSON envelope")
    _add_telemetry(replay_parser)
    replay_parser.set_defaults(func=_cmd_replay)

    audit_parser = subparsers.add_parser(
        "audit", help="differential audit: cross-check every inference "
        "backend and query path on randomized cases")
    audit_parser.add_argument("--cases", type=int, default=100,
                              help="number of cases in the sweep "
                              "(default: 100)")
    audit_parser.add_argument("--seed", type=int, default=0,
                              help="sweep seed; fixes both case "
                              "generation and sampling (default: 0)")
    audit_parser.add_argument("--backends", nargs="+", default=None,
                              metavar="NAME",
                              help="restrict to these backends "
                              "(default: all registered)")
    audit_parser.add_argument("--samples", type=int, default=4000,
                              help="Monte-Carlo draws per sampling run "
                              "(default: 4000)")
    audit_parser.add_argument("--repeats", type=int, default=1,
                              help="independent runs averaged per "
                              "sampling backend (default: 1; raise to "
                              "hunt small biases)")
    audit_parser.add_argument("--z", type=float, default=5.0,
                              help="sampling agreement band width in "
                              "standard errors (default: 5)")
    audit_parser.add_argument("--replay", metavar="FILE", default=None,
                              help="re-run a recorded replay file "
                              "instead of sweeping")
    audit_parser.add_argument("--replay-original", action="store_true",
                              help="with --replay: check the original "
                              "case, not the shrunk reproducer")
    audit_parser.add_argument("--replay-dir", default=None,
                              help="write a replay file per failing case "
                              "into this directory")
    audit_parser.add_argument("--no-corpus", action="store_true",
                              help="skip the adversarial corpus fixtures")
    audit_parser.add_argument("--no-programs", action="store_true",
                              help="skip random recursive program cases")
    audit_parser.add_argument("--no-shrink", action="store_true",
                              help="report failures without shrinking")
    audit_parser.add_argument("--fail-fast", action="store_true",
                              help="stop at the first failing case")
    audit_parser.add_argument("--json", action="store_true",
                              help="emit the audit report JSON envelope")
    _add_telemetry(audit_parser)
    audit_parser.set_defaults(func=_cmd_audit)

    chaos_parser = subparsers.add_parser(
        "chaos", help="chaos harness: inject backend faults into a live "
        "batch and assert the resilience layer keeps every answer "
        "well-formed")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="seed for the program, the fault "
                              "plan, and sampling (default: 0)")
    chaos_parser.add_argument("--specs", type=int, default=50,
                              help="batch size including the query-hang "
                              "spec (default: 50)")
    chaos_parser.add_argument("--people", type=int, default=13,
                              help="trust-network size; bounds how many "
                              "distinct query keys exist (default: 13)")
    chaos_parser.add_argument("--samples", type=int, default=20000,
                              help="Monte-Carlo budget for sampling "
                              "rungs (default: 20000)")
    chaos_parser.add_argument("--outcomes", action="store_true",
                              help="include every per-spec outcome in "
                              "the report (verbose)")
    chaos_parser.add_argument("--json", action="store_true",
                              help="emit the chaos report JSON envelope")
    transport_group = chaos_parser.add_mutually_exclusive_group()
    transport_group.add_argument("--service", action="store_true",
                                 help="drive the HTTP service end-to-end "
                                 "instead of the library executor: boot "
                                 "repro.serve in-process, inject the same "
                                 "faults, and assert every HTTP exchange "
                                 "is well-formed")
    chaos_parser.add_argument("--requests", type=int, default=60,
                              help="HTTP requests to issue in service "
                              "mode (default: 60)")
    transport_group.add_argument("--process", action="store_true",
                                 help="target subprocess isolation workers "
                                 "instead: SIGKILL, OOM, and wedge live "
                                 "workers and assert typed errors, bounded "
                                 "respawns, and correct answers after "
                                 "every fault")
    chaos_parser.add_argument("--rounds", type=int, default=3,
                              help="process-mode fault rounds; each "
                              "delivers every fault class once "
                              "(default: 3)")
    _add_telemetry(chaos_parser)
    chaos_parser.set_defaults(func=_cmd_chaos)

    serve_parser = subparsers.add_parser(
        "serve", help="serve programs as a long-lived multi-tenant "
        "HTTP/JSON service (see docs/SERVICE.md)")
    serve_parser.add_argument("program", nargs="?", default=None,
                              help="program file served as tenant "
                              "'default'; omit to start empty and POST "
                              "programs to /tenants/{name}")
    serve_parser.add_argument("--tenant", action="append", default=[],
                              metavar="NAME=FILE",
                              help="load an additional named tenant "
                              "(repeatable)")
    _add_loading(serve_parser)
    serve_parser.add_argument("--persist", action="store_true",
                              help="with --from-store: keep the default "
                              "tenant attached, so live updates append "
                              "new epochs to the store")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="bind port; 0 picks a free one "
                              "(default: 8080)")
    serve_parser.add_argument("--max-concurrent", type=int, default=8,
                              help="admission slots executing at once "
                              "(default: 8)")
    serve_parser.add_argument("--max-queue", type=int, default=16,
                              help="requests allowed to wait for a "
                              "slot before 429s (default: 16)")
    serve_parser.add_argument("--max-tenant-inflight", type=int,
                              default=None,
                              help="per-tenant in-flight cap "
                              "(default: unlimited)")
    serve_parser.add_argument("--max-tenants", type=int, default=32,
                              help="resident program cap (default: 32)")
    serve_parser.add_argument("--drain-timeout", type=float, default=30.0,
                              metavar="SECONDS",
                              help="on SIGTERM/SIGINT, wait this long for "
                              "in-flight requests before forcing shutdown "
                              "(exit code 3; default: 30)")
    serve_parser.add_argument("--isolation", default=None,
                              choices=("thread", "process", "auto"),
                              help="inference isolation for every tenant: "
                              "'process' runs backends in killable "
                              "subprocess workers (default: config "
                              "default, i.e. thread)")
    serve_parser.add_argument("--degraded-threshold", type=int, default=8,
                              metavar="N",
                              help="wedged deadline-runner threads at "
                              "which /healthz reports 'degraded' "
                              "(default: 8; 0 disables)")
    serve_parser.add_argument("--no-telemetry", action="store_true",
                              help="do not enable telemetry: no tracing; "
                              "/metrics serves only tenant and admission "
                              "counts")
    _add_telemetry(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    generate_parser = subparsers.add_parser(
        "generate", help="emit a synthetic trust-network program")
    generate_parser.add_argument("--nodes", type=int, default=500)
    generate_parser.add_argument("--edges", type=int, default=1500)
    generate_parser.add_argument("--seed", type=int, default=2020)
    generate_parser.add_argument("--sample", type=int, default=None,
                                 help="BFS-sample this many nodes")
    generate_parser.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .core.errors import P3Error
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_telemetry(args)
    try:
        return args.func(args)
    except (P3Error, OSError, ValueError, KeyError) as exc:
        print("p3: error: %s" % exc, file=sys.stderr)
        if getattr(args, "json", False):
            from .io.serialize import error_to_json
            try:
                print(json.dumps(error_to_json(exc), indent=2,
                                 sort_keys=True))
            except OSError:
                pass  # stdout gone (broken pipe); stderr has the message
        return 2
    finally:
        _finish_telemetry(args)


if __name__ == "__main__":
    sys.exit(main())
