"""Per-layer spans for the traced run, and the breakdown built from them.

The traced run wraps the public entry points of each ``src/repro``
module in spans named ``bench.<layer>.<part>`` (the benchmark's own
spans; the program's spans stay untouched).  The wrappers open their
spans on ``telemetry.runtime().tracer``, so they nest with the spans the
program already emits (``batch``, ``query``, ``extract.polynomial``,
``infer.backend``, ``evaluate.fixpoint``, ...), and every span — ours or
the program's — is attributed to one layer metric below.  A metric's
time is the summed *self* time of its spans: each span's duration minus
the part its children cover.

Functions bound into other modules by ``from X import f`` are rebound in
every ``repro`` module that holds them, so e.g. the executor's
``extract_polynomial`` and ``compute_probability`` names are wrapped too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import covered_length, self_times

SPAN_PREFIX = "bench."


class Layer:
    """One timed layer metric and the functions its spans wrap.

    What each layer should move, and where it is bypassed, is the layer
    table in README.md; ``run.PREDICTIONS`` asserts the bypasses.
    """

    def __init__(self, name: str, targets: Sequence[str],
                 hooks: Optional[Tuple[Callable, Callable]] = None) -> None:
        self.name = name
        self.targets = tuple(targets)
        self.hooks = hooks


# -- span annotations (counts read off return values and stats views) --------

def _no_state(args: tuple, kwargs: dict) -> None:
    return None


def _after_parse(span: Any, state: None, result: Any) -> None:
    span.set_attribute("facts", len(result.facts))


def _after_evaluate(span: Any, state: None, result: Any) -> None:
    if result is not None:
        span.set_attributes(rounds=result.rounds,
                            derived=result.derived_count)


def _after_extract(span: Any, state: None, result: Any) -> None:
    span.set_attribute("monomials", len(result))


def _after_ladder(span: Any, state: None, result: Any) -> None:
    _reading, record = result
    span.set_attributes(retries=record.retries,
                        fallback=bool(record.used_fallback))


def _before_ground(args: tuple, kwargs: dict) -> Tuple[Any, Dict[str, int]]:
    planner = args[0]
    return planner, dict(planner.stats)


def _after_ground(span: Any, state: Tuple[Any, Dict[str, int]],
                  result: Any) -> None:
    planner, before = state
    span.set_attributes(
        rows=planner.stats["derived_rows"] - before["derived_rows"],
        fallbacks=planner.stats["fallbacks"] - before["fallbacks"])


_SERIALIZE = "repro.io.serialize:"
_ENVELOPES = "repro.serve.envelopes:"

#: Every timed layer metric, in pipeline order, with the functions its
#: spans wrap.  ``cli.import`` and ``cli.main`` wrap nothing: they are
#: timed from the launcher's timeline (``Breakdown.add_seconds``).
LAYERS: Tuple[Layer, ...] = (
    Layer("cli.import", ()),
    Layer("cli.main", ()),
    Layer("datalog.parse", ("repro.datalog.parser:parse_program",),
          hooks=(_no_state, _after_parse)),
    Layer("datalog.evaluate", ("repro.core.system:P3.evaluate",),
          hooks=(_no_state, _after_evaluate)),
    Layer("datalog.update", ("repro.core.system:P3.add_facts",),
          hooks=(_no_state, _after_evaluate)),
    Layer("ground.bootstrap",
          ("repro.ground.planner:GroundingPlanner.__init__",
           "repro.ground.planner:GroundingPlanner.bootstrap")),
    Layer("ground.goal",
          ("repro.ground.planner:GroundingPlanner.ensure",
           "repro.ground.planner:GroundingPlanner.ensure_pattern"),
          hooks=(_before_ground, _after_ground)),
    Layer("provenance.extract",
          ("repro.provenance.extraction:extract_polynomial",),
          hooks=(_no_state, _after_extract)),
    Layer("exec.batch", ("repro.exec.executor:QueryExecutor.run",)),
    Layer("inference.infer", ("repro.inference:probability",)),
    Layer("resilience.ladder",
          ("repro.resilience.ladder:FallbackLadder.run",),
          hooks=(_no_state, _after_ladder)),
    Layer("resilience.dispatch",
          ("repro.resilience.isolation:ProcessWorkerPool.submit",)),
    Layer("queries.influence", ("repro.queries.influence:influence_query",)),
    Layer("queries.modify",
          ("repro.queries.modification:modification_query",)),
    Layer("queries.derive", ("repro.queries.derivation:derivation_query",)),
    Layer("queries.explain", ("repro.exec.executor:QueryExecutor._explain",)),
    Layer("io.serialize",
          tuple(_SERIALIZE + name for name in (
              "query_result_to_json", "dump_query_result",
              "evaluation_result_to_json", "update_to_json",
              "error_to_json")) + (_ENVELOPES + "batch_envelope",
                                   _ENVELOPES + "update_envelope")),
    Layer("store.warm_start",
          ("repro.store.provenance:ProvenanceStore.open_system",)),
    Layer("store.sync", ("repro.store.provenance:ProvenanceStore.sync",)),
    Layer("serve.admission_wait",
          ("repro.serve.admission:AdmissionController.admit",)),
    Layer("serve.handler",
          ("repro.serve.tenants:Tenant.run_batch",
           "repro.serve.tenants:Tenant.add_facts")),
)

LAYER_BY_NAME = {layer.name: layer for layer in LAYERS}

#: The program's own span names, attributed to the layer doing the work.
PROGRAM_SPANS: Dict[str, str] = {
    "parse": "datalog.parse",
    "evaluate": "datalog.evaluate",
    "evaluate.fixpoint": "datalog.evaluate",
    "update": "datalog.update",
    "update.delta": "datalog.update",
    "ground.goal": "ground.goal",
    "ground.fallback": "ground.goal",
    "extract": "provenance.extract",
    "extract.polynomial": "provenance.extract",
    "extract.many": "provenance.extract",
    "batch": "exec.batch",
    "query": "exec.batch",
    "infer": "inference.infer",
    "infer.backend": "inference.infer",
    "resilience.ladder": "resilience.ladder",
    "query.influence": "queries.influence",
    "query.derive": "queries.derive",
    "query.modify": "queries.modify",
    "load": "store.warm_start",
}

#: Layers whose call count comes from a program span rather than the
#: outermost benchmark span (every backend run emits ``infer.backend``,
#: including the fallback ladder's, which bypasses ``probability``).
CALL_SPANS = {"inference.infer": "infer.backend"}

#: Count and ratio metrics, with their units and better direction.
COUNT_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("datalog.parse_facts", "count", "lower"),
    ("datalog.tuples", "count", "lower"),
    ("datalog.rounds", "count", "lower"),
    ("datalog.update_calls", "count", "lower"),
    ("ground.rows", "count", "lower"),
    ("ground.fallbacks", "count", "lower"),
    ("provenance.extract_calls", "count", "lower"),
    ("provenance.monomials", "count", "lower"),
    ("exec.cache_hit_ratio.polynomial", "ratio", "higher"),
    ("exec.cache_hit_ratio.result", "ratio", "higher"),
    ("exec.invalidations", "count", "lower"),
    ("exec.parallelism", "ratio", "higher"),
    ("inference.calls", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.fallbacks", "count", "lower"),
    ("resilience.dispatch_calls", "count", "lower"),
    ("resilience.respawns", "count", "lower"),
    ("resilience.process_thread_ratio", "ratio", "lower"),
    ("store.sync_calls", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.http_ms", "ms", "lower"),
    ("serve.loadgen_lag_p99_ms", "ms", "lower"),
    ("telemetry.trace_overhead", "ratio", "lower"),
    ("trace.coverage", "fraction", "higher"),
)


def metric_declarations() -> List[Dict[str, str]]:
    """Every per-layer metric as ``{"name", "unit", "better"}``."""
    declared = []
    for layer in LAYERS:
        declared.append({"name": layer.name + "_s", "unit": "s",
                         "better": "lower"})
        declared.append({"name": layer.name + "_mean_ms", "unit": "ms",
                         "better": "lower"})
        declared.append({"name": layer.name + "_share", "unit": "fraction",
                         "better": "lower"})
    for name, unit, better in COUNT_METRICS:
        declared.append({"name": name, "unit": unit, "better": better})
    return declared


# -- installing the wrappers ---------------------------------------------------

def _span_wrapper(original: Callable, span_name: str,
                  hooks: Optional[Tuple[Callable, Callable]]) -> Callable:
    from repro import telemetry

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rt = telemetry.runtime()
        if not rt.enabled:
            return original(*args, **kwargs)
        state = hooks[0](args, kwargs) if hooks else None
        with rt.tracer.span(span_name) as span:
            result = original(*args, **kwargs)
            if hooks:
                hooks[1](span, state, result)
            return result

    wrapper.__bench_original__ = original  # type: ignore[attr-defined]
    return wrapper


class _TimedAdmission:
    """Async context manager timing admission from entry to body start."""

    def __init__(self, manager: Any, span_name: str) -> None:
        self._manager = manager
        self._span_name = span_name

    async def __aenter__(self) -> Any:
        from repro import telemetry
        with telemetry.runtime().tracer.span(self._span_name):
            return await self._manager.__aenter__()

    async def __aexit__(self, *exc_info: Any) -> Any:
        return await self._manager.__aexit__(*exc_info)


def _admission_wrapper(original: Callable, span_name: str,
                       hooks: Any) -> Callable:
    @functools.wraps(original)
    def admit(self: Any, tenant: Any = None) -> _TimedAdmission:
        return _TimedAdmission(original(self, tenant), span_name)

    admit.__bench_original__ = original  # type: ignore[attr-defined]
    return admit


def _rebind_everywhere(original: Callable, wrapper: Callable) -> None:
    """Replace every ``repro`` module-level binding of ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> None:
    """Wrap every layer target.

    Importing the target modules first makes the ``from X import f``
    bindings exist before the rebinding scan.  Idempotent.
    """
    resolved = []
    for layer in LAYERS:
        for target in layer.targets:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            resolved.append((layer, owner, attr, module))
    for layer, owner, attr, module in resolved:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if hasattr(original, "__bench_original__"):
            continue
        factory = (_admission_wrapper if layer.name == "serve.admission_wait"
                   else _span_wrapper)
        wrapper = factory(original, SPAN_PREFIX + layer.name, layer.hooks)
        if owner is module:
            _rebind_everywhere(original, wrapper)
        else:
            setattr(owner, attr, wrapper)


# -- the breakdown ---------------------------------------------------------------

def span_metric(name: str) -> Optional[str]:
    """The layer metric a span name is attributed to (None: unattributed)."""
    if name.startswith(SPAN_PREFIX):
        metric = name[len(SPAN_PREFIX):]
        return metric if metric in LAYER_BY_NAME else None
    return PROGRAM_SPANS.get(name)


class Breakdown:
    """Accumulates layer self times and counts over groups of spans.

    Each group is the span list of one process (span ids are unique per
    process only).  ``window`` keeps the span trees whose root started
    inside ``[lo, hi]`` unix seconds.

    Self times of spans on different executor threads overlap in wall
    time, so layer seconds can sum past it; ``covered_seconds`` is the
    wall time under at least one attributed span instead, which never
    exceeds the time the spans were open.
    """

    def __init__(self) -> None:
        self.covered_seconds = 0.0
        self.seconds: Dict[str, float] = {layer.name: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer.name: 0 for layer in LAYERS}
        self.counts: Dict[str, float] = {
            "datalog.parse_facts": 0, "datalog.tuples": 0,
            "datalog.rounds": 0, "ground.rows": 0, "ground.fallbacks": 0,
            "provenance.monomials": 0, "resilience.retries": 0,
            "resilience.fallbacks": 0}
        self.unattributed_seconds = 0.0
        self.spec_seconds = 0.0
        self.batch_seconds = 0.0
        self.handler_durations: List[float] = []

    def add(self, spans: Sequence[dict],
            window: Optional[Tuple[float, float]] = None) -> None:
        by_id = {span["span_id"]: span for span in spans}
        if window is not None:
            spans = [span for span in spans
                     if window[0] <= _root_of(span, by_id)["start_unix"]
                     <= window[1]]
        attributed = [(span["start_ns"], span["start_ns"] + span["duration_ns"])
                      for span in spans if span_metric(span["name"])]
        if attributed:
            self.covered_seconds += covered_length(
                attributed, min(start for start, _ in attributed),
                max(end for _, end in attributed)) / 1e9
        selfs = self_times(spans)
        for span in spans:
            name = span["name"]
            metric = span_metric(name)
            seconds = selfs[span["span_id"]] / 1e9
            if metric is None:
                self.unattributed_seconds += seconds
                continue
            self.seconds[metric] += seconds
            parent = by_id.get(span.get("parent_id"))
            outermost = parent is None or parent["name"] != name
            call_span = CALL_SPANS.get(metric, SPAN_PREFIX + metric)
            if name == call_span and (outermost or metric in CALL_SPANS):
                self.calls[metric] += 1
            self._count(span, metric, outermost)

    def _count(self, span: dict, metric: str, outermost: bool) -> None:
        name = span["name"]
        attributes = span.get("attributes") or {}
        if not name.startswith(SPAN_PREFIX):
            if name == "query" and "kind" in attributes:
                self.spec_seconds += span["duration_ns"] / 1e9
            return
        if metric == "datalog.parse":
            self.counts["datalog.parse_facts"] += attributes.get("facts", 0)
        elif metric == "datalog.evaluate" and outermost:
            self.counts["datalog.tuples"] += attributes.get("derived", 0)
            self.counts["datalog.rounds"] += attributes.get("rounds", 0)
        elif metric == "ground.goal" and outermost:
            self.counts["ground.rows"] += attributes.get("rows", 0)
            self.counts["ground.fallbacks"] += attributes.get("fallbacks", 0)
        elif metric == "provenance.extract":
            self.counts["provenance.monomials"] += attributes.get(
                "monomials", 0)
        elif metric == "resilience.ladder":
            self.counts["resilience.retries"] += attributes.get("retries", 0)
            self.counts["resilience.fallbacks"] += int(
                bool(attributes.get("fallback")))
        elif metric == "exec.batch" and outermost:
            self.batch_seconds += span["duration_ns"] / 1e9
        elif metric == "serve.handler" and outermost:
            self.handler_durations.append(span["duration_ns"] / 1e9)

    def add_seconds(self, metric: str, seconds: float, calls: int) -> None:
        """Time measured outside the span tree (the ``cli`` layer)."""
        self.seconds[metric] += seconds
        self.calls[metric] += calls
        self.covered_seconds += seconds

    def metrics(self, e2e_seconds: float) -> Dict[str, float]:
        """Timing trios, counts, and coverage for ``e2e_seconds`` of
        traced end-to-end time."""
        result: Dict[str, float] = {}
        for layer in LAYERS:
            total = self.seconds[layer.name]
            calls = self.calls[layer.name]
            result[layer.name + "_s"] = total
            result[layer.name + "_mean_ms"] = (
                1000.0 * total / calls if calls else 0.0)
            result[layer.name + "_share"] = (
                total / e2e_seconds if e2e_seconds > 0 else 0.0)
        result.update(self.counts)
        result["datalog.update_calls"] = self.calls["datalog.update"]
        result["provenance.extract_calls"] = self.calls["provenance.extract"]
        result["inference.calls"] = self.calls["inference.infer"]
        result["resilience.dispatch_calls"] = \
            self.calls["resilience.dispatch"]
        result["store.sync_calls"] = self.calls["store.sync"]
        result["exec.parallelism"] = (
            self.spec_seconds / self.batch_seconds
            if self.batch_seconds > 0 else 0.0)
        result["trace.coverage"] = (
            self.covered_seconds / e2e_seconds if e2e_seconds > 0 else 0.0)
        return result


def _root_of(span: dict, by_id: Dict[str, dict]) -> dict:
    seen = set()
    while span.get("parent_id") in by_id and span["span_id"] not in seen:
        seen.add(span["span_id"])
        span = by_id[span["parent_id"]]
    return span


def cache_ratios(before: Optional[dict], after: dict) -> Dict[str, float]:
    """Hit ratios and invalidations between two executor ``stats()``
    views (``before=None`` counts from zero)."""
    def delta(cache: str, field: str) -> float:
        start = before["caches"][cache][field] if before else 0
        return after["caches"][cache][field] - start

    result = {}
    for cache, name in (("polynomial", "polynomial"),
                        ("probability", "result")):
        hits = delta(cache, "hits")
        lookups = hits + delta(cache, "misses")
        result["exec.cache_hit_ratio." + name] = (
            hits / lookups if lookups else 0.0)
    result["exec.invalidations"] = (
        after["invalidations"] - (before["invalidations"] if before else 0))
    return result


def complete(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every declared per-layer metric, 0 where a workload bypasses it."""
    for entry in metric_declarations():
        metrics.setdefault(entry["name"], 0.0)
    return metrics
