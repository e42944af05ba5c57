"""Uniform registry of P[λ] inference backends.

Every way this repo can compute or estimate the success probability of a
provenance polynomial is registered here under a stable name with one
uniform signature, so callers — the :func:`repro.inference.probability`
front door, the batch executor, and the differential audit harness
(:mod:`repro.audit`) — can enumerate, select, and cross-check backends
mechanically instead of hard-coding method lists.

A backend is an :class:`InferenceBackend`: a name, a kind (``"exact"`` or
``"sampling"``), an applicability predicate (brute force refuses large
polynomials), and a runner
``(polynomial, probabilities, request) → BackendReading`` taking a single
typed :class:`~repro.inference.request.InferenceRequest` — samples, seed,
deadline, budget — instead of per-backend keywords.  See
docs/INFERENCE.md.

Registered backends
-------------------
===============  ========  ====================================================
name             kind      implementation
===============  ========  ====================================================
``brute-force``  exact     2ⁿ assignment enumeration (small polynomials only)
``exact``        exact     decision-DNNF circuit (AND, independent OR, decision)
``bdd``          exact     first-occurrence-order ROBDD + weighted model count
``mc``           sampling  bitset-kernel Monte-Carlo
``parallel``     sampling  second name for ``mc`` (the same runner)
``karp-luby``    sampling  Karp–Luby union sampler (unbiased, value may be >1)
===============  ========  ====================================================
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import telemetry
from ..provenance.polynomial import Polynomial, ProbabilityMap
from ..resilience.budgets import activate_budget, active_meter
from .bdd import bdd_probability
from .circuit import exact_probability
from .exact import brute_force_probability
from .request import InferenceRequest

#: Largest literal count the brute-force oracle accepts through the
#: registry (kept below its own hard limit so audits stay fast).
BRUTE_FORCE_LITERAL_LIMIT = 20

#: A backend runner: (polynomial, probabilities, request) → reading.
BackendFn = Callable[[Polynomial, ProbabilityMap, InferenceRequest],
                     "BackendReading"]

#: Shared default request (immutable, so one instance serves everyone).
_DEFAULT_REQUEST = InferenceRequest()


class BackendReading:
    """One backend's answer: the value and (for sampling) its error.

    Satisfies the :class:`repro.inference.estimate.Estimate` protocol
    (``value`` / ``stderr`` / ``exact`` / ``interval()``).
    """

    __slots__ = ("backend", "value", "stderr", "exact")

    def __init__(self, backend: str, value: float,
                 stderr: Optional[float] = None,
                 exact: bool = True) -> None:
        self.backend = backend
        self.value = value
        self.stderr = stderr
        self.exact = exact

    @property
    def value_clamped(self) -> float:
        """The value clamped into [0, 1] (unbiased estimators can exceed 1)."""
        return min(1.0, max(0.0, self.value))

    @property
    def answer(self) -> float:
        """The reading as a probability answer: an exact value as is, a
        sampled one clamped into [0, 1].  The one rule every caller that
        turns a reading into an answer uses."""
        return self.value if self.exact else self.value_clamped

    def interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Estimate-protocol interval: degenerate for exact readings,
        a normal-approximation CI for sampling ones."""
        if self.stderr is None:
            return (self.value, self.value)
        spread = z * self.stderr
        return (max(0.0, self.value - spread),
                min(1.0, self.value + spread))

    def to_dict(self) -> dict:
        document: Dict[str, object] = {
            "backend": self.backend,
            "value": self.value,
            "exact": self.exact,
        }
        if self.stderr is not None:
            document["stderr"] = self.stderr
        return document

    def __repr__(self) -> str:
        if self.exact:
            return "BackendReading(%s, %.12f)" % (self.backend, self.value)
        return "BackendReading(%s, %.6f ± %.6f)" % (
            self.backend, self.value, self.stderr or 0.0)


class InferenceBackend:
    """One registered way to compute P[λ], with a uniform signature."""

    __slots__ = ("name", "kind", "description", "_fn", "_supports",
                 "_metric_handles")

    KIND_EXACT = "exact"
    KIND_SAMPLING = "sampling"

    def __init__(self, name: str, kind: str, fn: BackendFn,
                 supports: Optional[Callable[[Polynomial], bool]] = None,
                 description: str = "") -> None:
        if kind not in (self.KIND_EXACT, self.KIND_SAMPLING):
            raise ValueError(
                "Backend kind must be 'exact' or 'sampling': %r" % kind)
        self.name = name
        self.kind = kind
        self.description = description
        self._fn = fn
        self._supports = supports
        # (runtime, handles) pair; rebuilt when telemetry.configure swaps
        # the runtime object (identity check — see _bound_metrics).
        self._metric_handles: Tuple[object, object] = (None, None)

    @property
    def deterministic(self) -> bool:
        """Does the result depend only on (polynomial, probabilities)?"""
        return self.kind == self.KIND_EXACT

    def supports(self, polynomial: Polynomial) -> bool:
        """Can this backend evaluate the given polynomial?"""
        if self._supports is None:
            return True
        return self._supports(polynomial)

    def _bound_metrics(self, rt: "telemetry.TelemetryRuntime"):
        """Per-backend bound metric handles, cached per runtime.

        The registry's metrics used to be re-looked-up (name → metric →
        label-key validation → lock) on every single backend call; bound
        handles make the hot path one cached attribute read plus the
        series increment.
        """
        cached_rt, handles = self._metric_handles
        if cached_rt is rt:
            return handles
        handles = (
            rt.metrics.histogram(
                "p3_infer_seconds",
                help="Inference latency per backend call",
                labelnames=("backend",)).labels(backend=self.name),
            rt.metrics.counter(
                "p3_infer_calls_total", help="Backend invocations",
                labelnames=("backend",)).labels(backend=self.name),
            rt.metrics.counter(
                "p3_infer_samples_total",
                help="Monte-Carlo samples drawn, by backend",
                labelnames=("backend",)).labels(backend=self.name),
        )
        self._metric_handles = (rt, handles)
        return handles

    def run(self, polynomial: Polynomial, probabilities: ProbabilityMap,
            request: Optional[InferenceRequest] = None) -> BackendReading:
        """Evaluate P[λ] and return a :class:`BackendReading`.

        ``request`` is the one typed parameter object all backends share
        (:class:`~repro.inference.request.InferenceRequest`); ``None``
        means the defaults.

        With telemetry enabled, every call produces an ``infer.backend``
        span (backend name, polynomial size, sample budget, value, and —
        for sampling backends — standard error) and feeds the
        per-backend ``p3_infer_seconds`` latency histogram plus the
        ``p3_infer_calls_total`` / ``p3_infer_samples_total`` counters.
        """
        if request is None:
            request = _DEFAULT_REQUEST

        if request.budget is not None and active_meter() is None:
            scope = activate_budget(request.budget)
        else:
            scope = contextlib.nullcontext()

        rt = telemetry.runtime()
        if not rt.enabled:
            with scope:
                return self._fn(polynomial, probabilities, request)
        sampling = self.kind == self.KIND_SAMPLING
        with rt.tracer.span("infer.backend", backend=self.name,
                            kind=self.kind,
                            monomials=len(polynomial)) as span:
            started = time.perf_counter()
            with scope:
                reading = self._fn(polynomial, probabilities, request)
            elapsed = time.perf_counter() - started
            span.set_attribute("value", reading.value)
            if sampling:
                span.set_attribute("samples", request.samples)
                if reading.stderr is not None:
                    span.set_attribute("stderr", reading.stderr)
        latency, calls, drawn = self._bound_metrics(rt)
        latency.observe(elapsed)
        calls.inc()
        if sampling:
            drawn.inc(request.samples)
        return reading

    def __repr__(self) -> str:
        return "InferenceBackend(%r, %s)" % (self.name, self.kind)


_REGISTRY: Dict[str, InferenceBackend] = {}


def register_backend(backend: InferenceBackend,
                     replace: bool = False) -> InferenceBackend:
    """Add a backend to the registry (``replace=True`` to overwrite)."""
    if backend.name in _REGISTRY and not replace:
        raise ValueError("Backend %r is already registered" % backend.name)
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> InferenceBackend:
    """Look a backend up by name; raises ``ValueError`` when unknown."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            "Unknown probability method %r (expected one of %s)"
            % (name, ", ".join(backend_names())))
    return backend


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def exact_backend_names() -> Tuple[str, ...]:
    """Names of the registered exact backends, sorted."""
    return tuple(sorted(
        name for name, backend in _REGISTRY.items()
        if backend.kind == InferenceBackend.KIND_EXACT))


def sampling_backend_names() -> Tuple[str, ...]:
    """Names of the registered sampling backends, sorted."""
    return tuple(sorted(
        name for name, backend in _REGISTRY.items()
        if backend.kind == InferenceBackend.KIND_SAMPLING))


def available_backends(polynomial: Optional[Polynomial] = None,
                       names: Optional[List[str]] = None
                       ) -> List[InferenceBackend]:
    """Backends (optionally a named subset) applicable to ``polynomial``."""
    selected = [get_backend(name) for name in names] if names is not None \
        else [_REGISTRY[name] for name in backend_names()]
    if polynomial is None:
        return selected
    return [backend for backend in selected if backend.supports(polynomial)]


def is_deterministic(name: str) -> bool:
    """Is ``name`` a registered backend whose result ignores samples/seed?

    Unknown names answer ``False`` (the conservative choice for cache-key
    construction: unrecognised methods keep their sampling parameters).
    """
    backend = _REGISTRY.get(name)
    return backend is not None and backend.deterministic


@contextlib.contextmanager
def override_backend(name: str, fn: BackendFn) -> Iterator[InferenceBackend]:
    """Temporarily replace a backend's implementation.

    Exists for fault injection: the audit harness's own test suite swaps a
    known bug in (e.g. the historical Karp–Luby clamp) and asserts the
    differential oracle catches it.  The original backend is restored on
    exit no matter what.  ``fn`` follows the request convention
    ``(polynomial, probabilities, request)``.
    """
    original = get_backend(name)
    replacement = InferenceBackend(
        name, original.kind, fn, supports=original._supports,
        description="override of %s" % name)
    _REGISTRY[name] = replacement
    try:
        yield replacement
    finally:
        _REGISTRY[name] = original


# -- built-in backends ---------------------------------------------------------

def _run_brute_force(polynomial: Polynomial, probabilities: ProbabilityMap,
                     request: InferenceRequest) -> BackendReading:
    return BackendReading(
        "brute-force", brute_force_probability(polynomial, probabilities))


def _run_bdd(polynomial: Polynomial, probabilities: ProbabilityMap,
             request: InferenceRequest) -> BackendReading:
    return BackendReading(
        "bdd", bdd_probability(polynomial, probabilities))


def _run_exact(polynomial: Polynomial, probabilities: ProbabilityMap,
               request: InferenceRequest) -> BackendReading:
    return BackendReading(
        "exact", exact_probability(polynomial, probabilities))


def _run_mc(polynomial: Polynomial, probabilities: ProbabilityMap,
            request: InferenceRequest) -> BackendReading:
    from .kernel import kernel_probability  # lazy: the kernel loads NumPy
    estimate = kernel_probability(
        polynomial, probabilities, samples=request.samples,
        seed=request.seed, deadline=request.deadline)
    return BackendReading(
        "mc", estimate.value, stderr=estimate.standard_error, exact=False)


def _run_karp_luby(polynomial: Polynomial, probabilities: ProbabilityMap,
                   request: InferenceRequest) -> BackendReading:
    from .kernel import kernel_karp_luby  # lazy: the kernel loads NumPy
    estimate = kernel_karp_luby(
        polynomial, probabilities, samples=request.samples,
        seed=request.seed, deadline=request.deadline)
    return BackendReading(
        "karp-luby", estimate.value, stderr=estimate.standard_error,
        exact=False)


def _small_enough_for_brute_force(polynomial: Polynomial) -> bool:
    return len(polynomial.literals()) <= BRUTE_FORCE_LITERAL_LIMIT


register_backend(InferenceBackend(
    "brute-force", InferenceBackend.KIND_EXACT, _run_brute_force,
    supports=_small_enough_for_brute_force,
    description="2^n assignment enumeration (test oracle)"))
register_backend(InferenceBackend(
    "bdd", InferenceBackend.KIND_EXACT, _run_bdd,
    description="ROBDD compile + weighted model count"))
register_backend(InferenceBackend(
    "exact", InferenceBackend.KIND_EXACT, _run_exact,
    description="decision-DNNF circuit compile + one forward pass"))
register_backend(InferenceBackend(
    "mc", InferenceBackend.KIND_SAMPLING, _run_mc,
    description="bitset-kernel Monte-Carlo"))
register_backend(InferenceBackend(
    "parallel", InferenceBackend.KIND_SAMPLING, _run_mc,
    description="bitset-kernel Monte-Carlo (second name for mc)"))
register_backend(InferenceBackend(
    "karp-luby", InferenceBackend.KIND_SAMPLING, _run_karp_luby,
    description="Karp-Luby union sampler (unbiased)"))
