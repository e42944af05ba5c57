"""Vectorized ("parallel") Monte-Carlo estimation — the Table 8 backend.

Table 8 of the paper contrasts sequential Monte-Carlo with a GPU
implementation (4× GTX 1080 Ti) and reports a ~10× speedup, observing
that DNF sampling is embarrassingly parallel.  We do not have GPUs, so —
per the substitution policy in DESIGN.md — this backend exploits the same
parallelism on the CPU through the shared bitset-packed sampling kernel
(:mod:`repro.inference.kernel`): the whole sample matrix is drawn at
once, rows are packed into ``uint64`` words, and every monomial is one
packed-mask comparison over the batch.  :class:`CompiledPolynomial` (the
kernel's compiled form, re-exported here) is the single compiled
evaluation path all Monte-Carlo backends share.

The estimator is sampling-equivalent to the sequential baseline (same
Bernoulli model), so results agree within Monte-Carlo error.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..provenance.polynomial import Literal, Polynomial, ProbabilityMap
from .kernel import CompiledPolynomial, kernel_probability
from .montecarlo import MonteCarloEstimate

__all__ = [
    "CompiledPolynomial",
    "parallel_probability",
    "parallel_conditioned_pair",
]


def parallel_probability(polynomial: Polynomial,
                         probabilities: ProbabilityMap,
                         samples: int = 10000,
                         seed: Optional[int] = None,
                         rng: Optional[np.random.Generator] = None,
                         compiled: Optional[CompiledPolynomial] = None,
                         workers: int = 1,
                         deadline: Optional[float] = None
                         ) -> MonteCarloEstimate:
    """Vectorized estimate of P[λ] — the Table 8 "parallel" backend.

    ``workers > 1`` additionally shards the sample budget across the
    kernel's thread pool (the RNG fill and packed-mask ufuncs release
    the GIL); the shard layout depends only on ``samples``, so results
    are identical for every worker count.
    """
    return kernel_probability(
        polynomial, probabilities, samples=samples, seed=seed, rng=rng,
        compiled=compiled, workers=workers, deadline=deadline)


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
