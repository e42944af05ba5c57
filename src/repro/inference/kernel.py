"""The bitset-packed NumPy sampling kernel shared by every MC backend.

Table 8 of the paper frames DNF sampling as embarrassingly parallel; this
module is the single compiled evaluation path behind the ``mc`` (alias
``parallel``) and ``karp-luby`` backends, the derivation query, and the
``parallel`` influence method (:func:`parallel_conditioned_pair`).  The
design replaces the earlier BLAS membership-matrix evaluation with
word-packed bitsets:

- the whole sample matrix is drawn per literal at once
  (``Generator.random`` releases the GIL while filling);
- each row of Booleans is packed into ``ceil(vars/64)`` little-endian
  ``uint64`` words (:meth:`CompiledPolynomial.pack_rows`);
- a monomial is one packed mask, satisfied by a row exactly when
  ``row & mask == mask`` across all words — a handful of GIL-releasing
  ufunc passes per monomial over the whole batch, with no BLAS (and so
  no OpenBLAS thread-pool oversubscription when the batch executor fans
  out on top).

Sampling is **chunked**: a fixed ``DEFAULT_CHUNK``-row window bounds the
transient matrix, lets the ambient resource budget
(:mod:`repro.resilience.budgets`) cap the working set, and gives the
estimators a natural place to honor an absolute deadline by truncating
the draw (the estimate reports the samples actually drawn).  Because a
NumPy ``Generator`` stream is consumed sequentially, chunked plain-MC
draws are bit-identical to one monolithic draw — chunk size never
changes results.

A seeded budget larger than one shard is split into fixed-size shards
seeded via ``SeedSequence.spawn``.  The shard layout depends only on
``samples``, so a given ``(samples, seed)`` always produces the same
estimate; shards run on a shared daemon thread pool and achieve real
concurrency because both the RNG fill and the packed-mask ufuncs
release the GIL.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import InferenceConfigurationError
from ..provenance.polynomial import (
    Literal,
    Monomial,
    Polynomial,
    ProbabilityMap,
)
from ..resilience.budgets import active_meter
from .montecarlo import MonteCarloEstimate

__all__ = [
    "CompiledPolynomial",
    "kernel_probability",
    "kernel_karp_luby",
    "parallel_conditioned_pair",
    "DEFAULT_CHUNK",
    "SHARD_SIZE",
]

#: Rows drawn per sampling chunk: bounds the transient sample matrix
#: (64k rows × vars bools) while keeping the per-chunk ufunc cost large
#: enough to amortize Python overhead.
DEFAULT_CHUNK = 65536

#: Rows per pool shard.  The shard layout is a function of the sample
#: budget only, so estimates never depend on how the shards are scheduled.
SHARD_SIZE = 16384

_BITS = np.uint64(64)
_ONE = np.uint64(1)


class CompiledPolynomial:
    """A DNF compiled to packed ``uint64`` monomial masks.

    Compilation is one-time per polynomial; the compiled form is
    evaluated repeatedly (influence queries evaluate the same polynomial
    under many conditionings, batch estimators chunk over it).

    Monomials are held in *canonical order* — sorted by (width, literal
    indices) — shared by every kernel estimator; the Karp–Luby
    first-satisfier rule and :meth:`satisfaction_matrix` columns both
    refer to this order.
    """

    def __init__(self, polynomial: Polynomial) -> None:
        self.polynomial = polynomial
        self.literals: List[Literal] = sorted(polynomial.literals())
        self._index: Dict[Literal, int] = {
            literal: i for i, literal in enumerate(self.literals)
        }
        #: Words per packed row (0 for the variable-free polynomial).
        self.words = (len(self.literals) + 63) // 64
        # Canonical order: width first (cheap monomials short-circuit the
        # OR most often), literal indices as the tie-break so the order
        # is stable and independent of input ordering.
        decorated = []
        for monomial in polynomial.monomials:
            indices = np.fromiter(
                (self._index[lit] for lit in monomial.literals),
                dtype=np.intp, count=len(monomial))
            indices.sort()
            decorated.append((indices.size, tuple(indices), indices,
                              monomial))
        decorated.sort(key=lambda entry: (entry[0], entry[1]))
        #: Monomials as sorted literal-index arrays, canonical order.
        self.monomials: List[np.ndarray] = [e[2] for e in decorated]
        #: The Monomial objects in canonical order.
        self.monomial_order: List[Monomial] = [e[3] for e in decorated]
        self._columns: Dict[Monomial, int] = {
            monomial: column
            for column, monomial in enumerate(self.monomial_order)
        }
        self._has_empty_monomial = any(
            m.size == 0 for m in self.monomials)
        # One packed mask row per monomial.  An empty monomial's mask is
        # all-zero, which `row & 0 == 0` satisfies on every row — the
        # always-true semantics fall out of the representation.
        meter = active_meter()
        mask_bytes = len(self.monomials) * self.words * 8
        if meter is not None:
            # Budget metering lives in the kernel: the mask matrix is the
            # piece of compiled state that scales as monomials × words,
            # so it is checked *before* allocation.
            meter.check_compiled_bytes(mask_bytes)
        self.masks = np.zeros((len(self.monomials), self.words),
                              dtype=np.uint64)
        for column, indices in enumerate(self.monomials):
            if indices.size == 0:
                continue
            words = indices // 64
            bits = (indices % 64).astype(np.uint64)
            np.bitwise_or.at(self.masks[column], words, _ONE << bits)

    # -- structure ---------------------------------------------------------------

    @property
    def variable_count(self) -> int:
        return len(self.literals)

    def index_of(self, literal: Literal) -> int:
        return self._index[literal]

    @functools.cached_property
    def member_matrix(self) -> np.ndarray:
        """Monomials as rows of literal indices, canonical order.

        Rows are padded to the widest monomial with ``variable_count``,
        an extra literal the caller treats as always true.
        """
        widest = max((m.size for m in self.monomials), default=0)
        members = np.full((len(self.monomials), max(1, widest)),
                          self.variable_count, dtype=np.intp)
        for row, indices in enumerate(self.monomials):
            members[row, :indices.size] = indices
        return members

    def monomial_column(self, monomial: Monomial) -> int:
        """The canonical-order column index of ``monomial``."""
        return self._columns[monomial]

    def probability_vector(self, probabilities: ProbabilityMap) -> np.ndarray:
        return np.array(
            [probabilities[lit] for lit in self.literals], dtype=np.float64)

    def monomial_weights(self, probabilities: ProbabilityMap) -> np.ndarray:
        """P[mⱼ] per monomial, canonical order (the Karp–Luby weights)."""
        vector = self.probability_vector(probabilities)
        return np.array(
            [float(np.prod(vector[indices])) if indices.size else 1.0
             for indices in self.monomials], dtype=np.float64)

    # -- sampling & evaluation ----------------------------------------------------

    def sample_matrix(self, probabilities: ProbabilityMap, samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Draw a (samples × variables) Boolean matrix of literal truths."""
        prob_vector = self.probability_vector(probabilities)
        return rng.random((samples, len(self.literals))) < prob_vector

    def pack_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Pack Boolean rows into (rows × words) little-endian ``uint64``."""
        matrix = np.ascontiguousarray(matrix, dtype=bool)
        rows = matrix.shape[0]
        if self.words == 0:
            return np.zeros((rows, 0), dtype=np.uint64)
        packed_bytes = np.packbits(matrix, axis=1, bitorder="little")
        want = self.words * 8
        if packed_bytes.shape[1] != want:
            padded = np.zeros((rows, want), dtype=np.uint8)
            padded[:, :packed_bytes.shape[1]] = packed_bytes
            packed_bytes = padded
        return np.ascontiguousarray(packed_bytes).view(np.uint64)

    def evaluate_packed(self, packed: np.ndarray) -> np.ndarray:
        """Row-wise DNF truth over packed rows (Boolean vector)."""
        rows = packed.shape[0]
        if self._has_empty_monomial:
            return np.ones(rows, dtype=bool)
        if not self.monomials:
            return np.zeros(rows, dtype=bool)
        satisfied = np.zeros(rows, dtype=bool)
        for mask in self.masks:
            # Shortest monomials first (canonical order): they satisfy
            # most often, so the all-satisfied early exit fires soonest.
            np.logical_or(
                satisfied,
                ((packed & mask) == mask).all(axis=1),
                out=satisfied)
            if satisfied.all():
                break
        return satisfied

    def evaluate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Evaluate the DNF row-wise: Boolean vector of length ``rows``."""
        matrix = np.asarray(matrix)
        if self._has_empty_monomial:
            return np.ones(matrix.shape[0], dtype=bool)
        if not self.monomials:
            return np.zeros(matrix.shape[0], dtype=bool)
        return self.evaluate_packed(self.pack_rows(matrix))

    def satisfaction_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Per-monomial satisfaction: (rows × monomials) Booleans.

        Columns follow canonical order (:attr:`monomial_order`, see
        :meth:`monomial_column`).  Empty monomials yield all-True
        columns.  Used by the Karp–Luby first-satisfier rule and the
        derivation query's incremental removal loop.
        """
        packed = self.pack_rows(np.asarray(matrix))
        return self.satisfaction_packed(packed)

    def satisfaction_packed(self, packed: np.ndarray) -> np.ndarray:
        out = np.empty((packed.shape[0], len(self.monomials)), dtype=bool)
        for column, mask in enumerate(self.masks):
            out[:, column] = ((packed & mask) == mask).all(axis=1)
        return out

    def __repr__(self) -> str:
        return "CompiledPolynomial(%d monomials, %d vars, %d words)" % (
            len(self.monomials), len(self.literals), self.words)


# -- shared shard pool ------------------------------------------------------------

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    """A process-wide daemon pool for sample shards.

    Shared so per-call pool construction stays off the hot path; sized to
    the machine.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=min(8, os.cpu_count() or 2),
                thread_name_prefix="p3-kernel")
        return _POOL


# -- estimators -------------------------------------------------------------------

def _chunk_rows(compiled: CompiledPolynomial, samples: int) -> int:
    """Plain-MC chunk size bounded by the ambient compiled-bytes budget.

    The transient per-chunk state is the Boolean matrix plus its packed
    form; the budget's ``max_compiled_bytes`` caps it (a polynomial too
    wide for even a one-row chunk trips the budget error).  Shrinking the
    chunk is safe *only* for estimators that consume their Generator
    stream sequentially (plain MC draws one contiguous stream, so chunked
    draws are bit-identical to a monolithic draw); stream layouts that
    depend on the chunk boundary must use :func:`_kl_chunk_rows` instead.
    """
    chunk = min(DEFAULT_CHUNK, samples)
    meter = active_meter()
    if meter is not None and meter.budget.max_compiled_bytes is not None:
        cap = meter.budget.max_compiled_bytes
        row_bytes = max(1, compiled.variable_count + compiled.words * 8)
        bounded = cap // row_bytes
        if bounded < 1:
            meter.check_compiled_bytes(row_bytes)  # raises BudgetExceeded
        chunk = max(1, min(chunk, bounded))
    return chunk


def _kl_chunk_rows(compiled: CompiledPolynomial, samples: int) -> int:
    """Karp–Luby chunk size: a pure function of the sample budget.

    The KL shard consumes its Generator stream twice per chunk (the
    monomial choice, then the assignment matrix), so the chunk boundary
    is part of the ``(samples, seed)`` reproducibility contract: letting
    the ambient resource budget shrink the chunk would make identical
    ``(samples, seed)`` requests return *different* estimates under
    different ``max_compiled_bytes`` settings.  The layout is therefore
    fixed at ``min(DEFAULT_CHUNK, samples)``; when that chunk's transient
    matrix cannot fit the budget, the typed budget error is raised
    instead of silently adapting the layout.
    """
    chunk = min(DEFAULT_CHUNK, samples)
    meter = active_meter()
    if meter is not None and meter.budget.max_compiled_bytes is not None:
        row_bytes = max(1, compiled.variable_count + compiled.words * 8)
        if chunk * row_bytes > meter.budget.max_compiled_bytes:
            meter.check_compiled_bytes(chunk * row_bytes)  # raises
    return chunk


def _degenerate(polynomial: Polynomial,
                samples: int) -> Optional[MonteCarloEstimate]:
    if samples <= 0:
        raise InferenceConfigurationError("samples must be positive")
    if polynomial.is_zero:
        return MonteCarloEstimate(0.0, samples, 0)
    if polynomial.is_one:
        return MonteCarloEstimate(1.0, samples, samples)
    return None


def _run_shards(samples: int, seed: Optional[int],
                shard: Callable[[int, np.random.Generator, bool],
                                Tuple[int, int]]) -> Tuple[int, int]:
    """Split ``samples`` into :data:`SHARD_SIZE` shards on the shared pool.

    Shard ``i`` draws from ``SeedSequence(seed).spawn(n)[i]``; ``shard``
    is called as ``shard(size, rng, first)`` and returns (hits, drawn),
    which are summed.  Integer sums do not depend on the order the pool
    finishes the shards in, so the result is a function of
    ``(samples, seed)`` alone.
    """
    sizes = [SHARD_SIZE] * (samples // SHARD_SIZE)
    if samples % SHARD_SIZE:
        sizes.append(samples % SHARD_SIZE)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    results = list(_shared_pool().map(
        lambda index: shard(sizes[index],
                            np.random.default_rng(streams[index]),
                            index == 0),
        range(len(sizes))))
    return (sum(hits for hits, _ in results),
            sum(drawn for _, drawn in results))


def _mc_shard(compiled: CompiledPolynomial, prob_vector: np.ndarray,
              samples: int, rng: np.random.Generator,
              deadline: Optional[float], chunk: int,
              first: bool) -> Tuple[int, int]:
    """Draw up to ``samples`` rows; returns (hits, drawn).

    Honors the absolute deadline between chunks; the ``first`` shard
    always draws at least one chunk so an estimate is never empty.
    """
    hits = 0
    drawn = 0
    while drawn < samples:
        if deadline is not None and not (first and drawn == 0) \
                and time.monotonic() >= deadline:
            break
        step = min(chunk, samples - drawn)
        matrix = rng.random((step, prob_vector.size)) < prob_vector
        hits += int(compiled.evaluate_matrix(matrix).sum())
        drawn += step
    return hits, drawn


def kernel_probability(polynomial: Polynomial,
                       probabilities: ProbabilityMap,
                       samples: int = 10000,
                       seed: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None,
                       compiled: Optional[CompiledPolynomial] = None,
                       deadline: Optional[float] = None
                       ) -> MonteCarloEstimate:
    """Vectorized Monte-Carlo estimate of P[λ] over the packed kernel.

    With an explicit ``rng`` (or ``samples <= SHARD_SIZE``) the draw is
    one sequential Generator stream — chunked internally, but
    bit-identical to a monolithic draw.  Larger seeded budgets are split
    into :data:`SHARD_SIZE` shards seeded by
    ``SeedSequence(seed).spawn`` and run on the shared pool; the shard
    layout depends only on ``samples``, so a given ``(samples, seed)``
    always produces the identical estimate.  A ``deadline`` truncates
    the draw; the estimate's ``samples`` reports the rows actually drawn.
    """
    shortcut = _degenerate(polynomial, samples)
    if shortcut is not None:
        return shortcut
    if compiled is None:
        compiled = CompiledPolynomial(polynomial)
    prob_vector = compiled.probability_vector(probabilities)
    chunk = _chunk_rows(compiled, samples)

    if rng is not None or samples <= SHARD_SIZE:
        if rng is None:
            rng = np.random.default_rng(seed)
        hits, drawn = _mc_shard(compiled, prob_vector, samples, rng,
                                deadline, chunk, first=True)
        return MonteCarloEstimate(hits / drawn, drawn, hits)

    hits, drawn = _run_shards(
        samples, seed,
        lambda size, shard_rng, first: _mc_shard(
            compiled, prob_vector, size, shard_rng, deadline, chunk,
            first))
    return MonteCarloEstimate(hits / drawn, drawn, hits)


def _kl_shard(compiled: CompiledPolynomial, prob_vector: np.ndarray,
              weights: np.ndarray, total_weight: float, samples: int,
              rng: np.random.Generator, deadline: Optional[float],
              chunk: int, first: bool) -> Tuple[int, int]:
    """One Karp–Luby shard; returns (hits, drawn).

    Unlike the plain-MC shard this consumes the stream twice per chunk
    (monomial choice, then the assignment matrix), so a given seed's
    results are a function of the chunk size; the chunk is therefore
    fixed by :func:`_kl_chunk_rows` — a pure function of the sample
    budget, never of the ambient resource budget — so identical
    ``(samples, seed)`` requests are reproducible across budgets.
    """
    normalized = weights / total_weight
    columns = len(compiled.monomials)
    hits = 0
    drawn = 0
    while drawn < samples:
        if deadline is not None and not (first and drawn == 0) \
                and time.monotonic() >= deadline:
            break
        step = min(chunk, samples - drawn)
        chosen = rng.choice(columns, size=step, p=normalized)
        matrix = rng.random((step, prob_vector.size)) < prob_vector
        packed = compiled.pack_rows(matrix)
        # Force the chosen monomial's literals true directly in the
        # packed domain: OR-ing its mask in is the conditioning step.
        packed |= compiled.masks[chosen]
        # First satisfier in canonical order: walk monomials from the
        # last canonical column down, overwriting, so the smallest
        # satisfied column wins.
        first_sat = np.full(step, columns, dtype=np.int64)
        for column in range(columns - 1, -1, -1):
            mask = compiled.masks[column]
            sat = ((packed & mask) == mask).all(axis=1)
            first_sat[sat] = column
        hits += int((first_sat == chosen).sum())
        drawn += step
    return hits, drawn


def kernel_karp_luby(polynomial: Polynomial,
                     probabilities: ProbabilityMap,
                     samples: int = 10000,
                     seed: Optional[int] = None,
                     rng: Optional[np.random.Generator] = None,
                     compiled: Optional[CompiledPolynomial] = None,
                     deadline: Optional[float] = None
                     ) -> MonteCarloEstimate:
    """Vectorized Karp–Luby estimate over the packed kernel.

    Same sharding and deadline semantics as :func:`kernel_probability`;
    the returned estimate's ``scale`` is the union weight W = Σⱼ P[mⱼ]
    and its ``value`` is deliberately unclamped (see
    :mod:`repro.inference.karp_luby`).

    **Reproducibility contract:** the stream layout (shards and chunks)
    is a function of ``samples`` alone.  In particular the ambient
    resource budget never reshapes the chunking — identical
    ``(samples, seed)`` requests return the identical estimate under
    every ``max_compiled_bytes`` setting, or raise
    :class:`~repro.core.errors.BudgetExceededError` when the fixed
    chunk's working set cannot fit the budget.
    """
    shortcut = _degenerate(polynomial, samples)
    if shortcut is not None:
        return shortcut
    if compiled is None:
        compiled = CompiledPolynomial(polynomial)
    prob_vector = compiled.probability_vector(probabilities)
    weights = compiled.monomial_weights(probabilities)
    total_weight = float(weights.sum())
    if total_weight == 0.0:
        return MonteCarloEstimate(0.0, samples, 0)
    chunk = _kl_chunk_rows(compiled, samples)

    if rng is not None or samples <= SHARD_SIZE:
        if rng is None:
            rng = np.random.default_rng(seed)
        hits, drawn = _kl_shard(
            compiled, prob_vector, weights, total_weight, samples, rng,
            deadline, chunk, first=True)
        return MonteCarloEstimate((hits / drawn) * total_weight, drawn,
                                  hits, scale=total_weight)

    hits, drawn = _run_shards(
        samples, seed,
        lambda size, shard_rng, first: _kl_shard(
            compiled, prob_vector, weights, total_weight, size, shard_rng,
            deadline, chunk, first))
    return MonteCarloEstimate((hits / drawn) * total_weight, drawn, hits,
                              scale=total_weight)


# -- conditioned pairs (influence) ------------------------------------------------

#: Target transient bytes of one chunk of the conditioned pair: the
#: float draw, its Boolean matrix, and two (monomials × words) bitsets.
CONDITIONED_CHUNK_BYTES = 1 << 21


def parallel_conditioned_pair(polynomial: Polynomial,
                              probabilities: ProbabilityMap,
                              literal: Literal,
                              samples: int = 10000,
                              seed: Optional[int] = None,
                              rng: Optional[np.random.Generator] = None,
                              compiled: Optional[CompiledPolynomial] = None
                              ) -> tuple:
    """Estimate (P[λ|x=1], P[λ|x=0]) with common random numbers.

    Both estimates come from one shared sample matrix (the difference is
    the literal's influence, Definition 4.1, with far lower variance
    than independent sampling) and from one per-monomial satisfaction
    pass over it, with the literal's column forced to 1: a row satisfies
    λ|x=1 when any monomial holds, and λ|x=0 when any monomial *not
    containing* the literal holds.

    The pass packs the matrix sample-major — one bitset over the rows
    per literal — so a monomial's truth on 64 rows at once is the AND of
    its literals' words.  Rows are drawn in chunks of about
    :data:`CONDITIONED_CHUNK_BYTES` of transient; the Generator stream is
    consumed as by one monolithic draw, so the counts do not depend on
    the chunking.
    """
    if samples <= 0:
        raise InferenceConfigurationError("samples must be positive")
    if compiled is None:
        compiled = CompiledPolynomial(polynomial)
    if rng is None:
        rng = np.random.default_rng(seed)
    prob_vector = compiled.probability_vector(probabilities)
    variables = prob_vector.size
    column = compiled.index_of(literal)
    members = compiled.member_matrix
    containing = (members == column).any(axis=1)
    # Monomials without the literal first, so each side is a slice.
    members = members[np.argsort(containing, kind="stable")]
    split = len(members) - int(containing.sum())
    word_bytes = 64 * 9 * variables + 16 * len(members)
    chunk = 64 * max(1, CONDITIONED_CHUNK_BYTES // word_bytes)

    hits_true = hits_false = drawn = 0
    while drawn < samples:
        step = min(chunk, samples - drawn)
        # Column ``variables`` is the always-true padding literal.
        rows = np.ones((step, variables + 1), dtype=bool)
        np.less(rng.random((step, variables)), prob_vector,
                out=rows[:, :variables])
        rows[:, column] = True
        bits = _sample_major(rows)
        satisfied = bits[members[:, 0]]
        for position in range(1, members.shape[1]):
            satisfied &= bits[members[:, position]]
        without = np.bitwise_or.reduce(satisfied[:split], axis=0)
        hits_false += _popcount(without)
        hits_true += _popcount(
            without | np.bitwise_or.reduce(satisfied[split:], axis=0))
        drawn += step

    return (
        MonteCarloEstimate(hits_true / samples, samples, hits_true),
        MonteCarloEstimate(hits_false / samples, samples, hits_false),
    )


def _sample_major(rows: np.ndarray) -> np.ndarray:
    """Column v of ``rows`` as row v of ``uint64`` words, 64 rows a word.

    Bits past the last row are 0, so every monomial is false there.
    """
    packed = np.packbits(rows, axis=0, bitorder="little")
    words = -(-rows.shape[0] // 64)
    bits = np.zeros((rows.shape[1], words * 8), dtype=np.uint8)
    bits[:, :packed.shape[0]] = packed.T
    return bits.view(np.uint64)


def _popcount(words: np.ndarray) -> int:
    return int(np.unpackbits(words.view(np.uint8)).sum())
