"""Probability backends for provenance polynomials.

Six interchangeable methods, all registered in
:mod:`repro.inference.registry` and all callable through one typed
parameter object (:class:`~repro.inference.request.InferenceRequest`):

===============  ==============================================  ==========
method           implementation                                  result
===============  ==============================================  ==========
``exact``        decision-DNNF circuit, one forward pass         exact float
``bdd``          first-occurrence-order ROBDD + weighted count   exact float
``brute-force``  2ⁿ enumeration (small polynomials; oracle)      exact float
``mc``           bitset-kernel Monte-Carlo                       estimate
``parallel``     second name for ``mc`` (the same runner)        estimate
``karp-luby``    Karp–Luby union sampler [14]                    estimate
===============  ==============================================  ==========

All sampling backends share the bitset-packed kernel
(:mod:`repro.inference.kernel`), which is imported — with NumPy — only
when a sampling backend first runs: the sample matrix is drawn per literal
at once, packed into ``uint64`` words, and every monomial is one packed
mask comparison over the batch, with :class:`CompiledPolynomial` as the
single compiled evaluation path.

:func:`probability` is the uniform front door used by the query layer; it
dispatches through the registry, which the differential audit harness
(:mod:`repro.audit`) also uses to cross-check every backend against every
other.  Every backend result satisfies the :class:`Estimate` protocol
(``value`` / ``stderr`` / ``exact`` / ``interval()``), so callers no
longer switch on result types.  See docs/INFERENCE.md.
"""

from __future__ import annotations

import importlib
from typing import Optional

from ..provenance.polynomial import Polynomial, ProbabilityMap
from .bdd import BDD, ONE, ZERO, bdd_probability, from_polynomial
from .bounded import BoundedResult, bounded_probability
from .circuit import Circuit, exact_gradient
from .estimate import Estimate, ExactEstimate
from .exact import (
    ExactLimitError,
    brute_force_probability,
    exact_probability,
    monomial_probabilities,
)
from .registry import (
    BackendReading,
    InferenceBackend,
    available_backends,
    backend_names,
    exact_backend_names,
    get_backend,
    is_deterministic,
    register_backend,
    sampling_backend_names,
)
from .request import InferenceRequest

#: Names re-exported from the sampling modules, which import NumPy.  They
#: resolve on first access (PEP 562), so a process that never samples —
#: an ``exact`` or ``bdd`` query, or ``import repro.cli`` — never loads
#: NumPy.
_LAZY = {
    "karp_luby_probability": "karp_luby",
    "union_bound": "karp_luby",
    "CompiledPolynomial": "kernel",
    "kernel_karp_luby": "kernel",
    "kernel_probability": "kernel",
    "parallel_conditioned_pair": "kernel",
    "MonteCarloEstimate": "montecarlo",
    "adaptive_probability": "montecarlo",
    "conditioned_probability": "montecarlo",
    "monte_carlo_probability": "montecarlo",
    "sample_assignment": "montecarlo",
    "sequential_probability": "montecarlo",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


#: Methods accepted by :func:`probability` (the registered backend names).
METHODS = backend_names()


def probability(polynomial: Polynomial, probabilities: ProbabilityMap,
                method: str = "exact",
                samples: int = 10000,
                seed: Optional[int] = None,
                request: Optional[InferenceRequest] = None) -> float:
    """Compute or estimate P[λ] with the chosen backend; returns a float.

    Dispatches through the backend registry.  Sampling backends return
    their clamped value (the unbiased Karp–Luby estimate can exceed 1,
    but this front door promises a probability); they also discard the
    error information — call the specific estimator directly, or
    :meth:`InferenceBackend.run`, when the standard error matters.

    Pass ``request`` to control the deadline or budget; the plain
    ``samples`` / ``seed`` keywords cover the common case (this
    convenience front door builds the request itself).
    """
    backend = get_backend(method)
    if request is None:
        request = InferenceRequest(samples=samples, seed=seed)
    return backend.run(polynomial, probabilities, request).answer


__all__ = [
    "BDD",
    "BackendReading",
    "BoundedResult",
    "Circuit",
    "CompiledPolynomial",
    "Estimate",
    "ExactEstimate",
    "ExactLimitError",
    "InferenceBackend",
    "InferenceRequest",
    "METHODS",
    "MonteCarloEstimate",
    "ONE",
    "ZERO",
    "adaptive_probability",
    "available_backends",
    "backend_names",
    "bdd_probability",
    "bounded_probability",
    "brute_force_probability",
    "conditioned_probability",
    "exact_backend_names",
    "exact_gradient",
    "exact_probability",
    "from_polynomial",
    "get_backend",
    "is_deterministic",
    "karp_luby_probability",
    "kernel_karp_luby",
    "kernel_probability",
    "monomial_probabilities",
    "monte_carlo_probability",
    "parallel_conditioned_pair",
    "probability",
    "register_backend",
    "sample_assignment",
    "sampling_backend_names",
    "sequential_probability",
    "union_bound",
]
