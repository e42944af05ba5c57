"""Provenance polynomials: monotone Boolean DNF over tuple and rule literals.

Section 3.3 of the paper adopts provenance polynomials as the algebraic
provenance representation.  A polynomial is a sum (``+``, alternative
derivations) of monomials; a monomial is a product (``·``, conjunctive use)
of literals; a literal is either a base tuple or a rule, each an independent
Boolean random variable with a probability of being true.

The representation here is canonical-by-construction: monomials are literal
*sets* (idempotent product), polynomials are monomial *sets* (idempotent
sum), and the absorption law ``a + a·b = a`` is applied on every operation.
Absorption is exactly what makes the paper's cycle-elimination argument
(Equations 6-13) go through, so keeping polynomials absorbed at all times
is a correctness requirement, not an optimisation.

How absorption runs.  Each call numbers the literals it meets in a local
dict (no table outlives the call, and monomials carry no mask), so a
monomial is an int mask and ``k ⊆ m`` is ``k & m == k``:

- construction and ``*`` sort the masks by size and keep a candidate only
  when no kept mask is a subset of it;
- ``+`` and the cofactor of ``restrict`` join two sets that are each
  absorbed already: a monomial on both sides survives, and every other one
  is tested against the other side only;
- ``times_literal(l)`` returns the polynomial itself when ``l`` is in every
  monomial, and skips absorption when ``l`` is in none, since
  ``m1 ∪ {l} ⊆ m2 ∪ {l}`` iff ``m1 ⊆ m2`` for monomials without ``l``;
- a single monomial (``of``, ``from_literal``, ``one()``) and a subset of
  an absorbed set skip absorption altogether.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Tuple,
)


class Literal:
    """A Boolean provenance variable: a base tuple or a rule.

    Literals are interned by ``(kind, key)``; ``key`` is the canonical
    rendering of the base tuple (e.g. ``trust(1,2)``) or the rule label
    (e.g. ``r3``).
    """

    __slots__ = ("kind", "key", "_hash")

    KIND_TUPLE = "tuple"
    KIND_RULE = "rule"

    def __init__(self, kind: str, key: str) -> None:
        if kind not in (self.KIND_TUPLE, self.KIND_RULE):
            raise ValueError("Literal kind must be 'tuple' or 'rule': %r" % kind)
        if not key:
            raise ValueError("Literal key must be non-empty")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash((kind, key)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def __reduce__(self) -> tuple:
        # Default slot-state unpickling calls __setattr__, which immutable
        # classes forbid; rebuilding through the constructor keeps
        # literals picklable (the process-isolation workers ship
        # polynomials and probability maps over a pipe).
        return (Literal, (self.kind, self.key))

    @property
    def is_tuple(self) -> bool:
        return self.kind == self.KIND_TUPLE

    @property
    def is_rule(self) -> bool:
        return self.kind == self.KIND_RULE

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other.kind == self.kind
            and other.key == self.key
        )

    def __lt__(self, other: "Literal") -> bool:
        return (self.kind, self.key) < (other.kind, other.key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Literal(%r, %r)" % (self.kind, self.key)

    def __str__(self) -> str:
        return self.key


def tuple_literal(key: str) -> Literal:
    """Literal for a base tuple, keyed by its canonical atom rendering."""
    return Literal(Literal.KIND_TUPLE, key)


def rule_literal(label: str) -> Literal:
    """Literal for a rule, keyed by its label."""
    return Literal(Literal.KIND_RULE, label)


#: Maps each literal to its probability of being true.
ProbabilityMap = Mapping[Literal, float]


class Monomial:
    """A conjunction of literals — one derivation of the queried tuple."""

    __slots__ = ("literals", "_hash")

    def __init__(self, literals: Iterable[Literal] = ()) -> None:
        literals = frozenset(literals)
        for literal in literals:
            if not isinstance(literal, Literal):
                raise TypeError("Monomial members must be Literals: %r" % (literal,))
        object.__setattr__(self, "literals", literals)
        object.__setattr__(self, "_hash", hash(literals))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Monomial is immutable")

    def __reduce__(self) -> tuple:
        return (Monomial, (tuple(self.literals),))

    @property
    def is_empty(self) -> bool:
        """The empty monomial is the constant TRUE."""
        return not self.literals

    def union(self, other: "Monomial") -> "Monomial":
        """Product of two monomials (conjunction; idempotent)."""
        return Monomial(self.literals | other.literals)

    def contains(self, literal: Literal) -> bool:
        return literal in self.literals

    def without(self, literal: Literal) -> "Monomial":
        return Monomial(self.literals - {literal})

    def subsumes(self, other: "Monomial") -> bool:
        """True when this monomial absorbs ``other`` (self ⊆ other)."""
        return self.literals <= other.literals

    def probability(self, probabilities: ProbabilityMap) -> float:
        """Probability all literals are true (they are mutually independent)."""
        result = 1.0
        for literal in self.literals:
            result *= probabilities[literal]
        return result

    def evaluate(self, assignment: Mapping[Literal, bool]) -> bool:
        return all(assignment[literal] for literal in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and other.literals == self.literals

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Monomial(%s)" % sorted(map(str, self.literals))

    def __str__(self) -> str:
        if self.is_empty:
            return "1"
        return "·".join(str(lit) for lit in sorted(self.literals))


def _number(monomials: Iterable[Monomial], bits: Dict[Literal, int]
            ) -> List[Tuple[int, int, Monomial]]:
    """``(size, mask, monomial)`` for each monomial, as an int mask over
    ``bits``; a literal new to ``bits`` takes the next free bit."""
    numbered = []
    for monomial in monomials:
        mask = 0
        for literal in monomial.literals:
            bit = bits.get(literal)
            if bit is None:
                bit = bits[literal] = 1 << len(bits)
            mask |= bit
        numbered.append((len(monomial.literals), mask, monomial))
    return numbered


def _subsumed(mask: int, masks: List[int]) -> bool:
    """True when some mask in ``masks`` is a subset of ``mask``."""
    for kept in masks:
        if kept & mask == kept:
            return True
    return False


def _absorb(monomials: FrozenSet[Monomial]) -> FrozenSet[Monomial]:
    """Apply the absorption law: drop monomials subsumed by a smaller one.

    Literals are numbered for this call only, so ``k ⊆ m`` is the int
    test ``k & m == k``; in size order a candidate is tested against the
    monomials already kept.
    """
    if len(monomials) < 2:
        return monomials
    numbered = _number(monomials, {})
    numbered.sort(key=itemgetter(0))
    kept_masks: List[int] = []
    kept = []
    for _size, mask, monomial in numbered:
        if not _subsumed(mask, kept_masks):
            kept_masks.append(mask)
            kept.append(monomial)
    if len(kept) == len(numbered):
        return monomials
    return frozenset(kept)


def _union(left: FrozenSet[Monomial],
           right: FrozenSet[Monomial]) -> FrozenSet[Monomial]:
    """Absorbed ``left ∪ right`` of two sets that are each absorbed.

    A monomial on both sides survives, and one side's monomials cannot
    absorb each other, so each monomial on one side only is tested
    against the other side only.
    """
    only_left = left - right
    only_right = right - left
    if not only_right:
        return left
    if not only_left:
        return right
    bits: Dict[Literal, int] = {}
    numbered_left = _number(only_left, bits)
    numbered_right = _number(only_right, bits)
    left_masks = [mask for _size, mask, _monomial in numbered_left]
    right_masks = [mask for _size, mask, _monomial in numbered_right]
    dropped = [monomial for _size, mask, monomial in numbered_left
               if _subsumed(mask, right_masks)]
    dropped += [monomial for _size, mask, monomial in numbered_right
                if _subsumed(mask, left_masks)]
    union = left | right
    return union.difference(dropped) if dropped else union


class Polynomial:
    """A monotone DNF formula: a set of monomials, absorbed on construction.

    ``Polynomial.zero()`` is FALSE (no derivations), ``Polynomial.one()`` is
    TRUE (the empty derivation).  Operators:

    >>> a, b = tuple_literal("a"), tuple_literal("b")
    >>> poly = Polynomial.of([a]) + Polynomial.of([a, b])
    >>> str(poly)   # absorption: a + a·b = a
    'a'
    """

    __slots__ = ("monomials", "_hash")

    def __init__(self, monomials: Iterable[Monomial] = ()) -> None:
        absorbed = _absorb(frozenset(monomials))
        object.__setattr__(self, "monomials", absorbed)
        object.__setattr__(self, "_hash", hash(absorbed))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self) -> tuple:
        return (Polynomial, (tuple(self.monomials),))

    @classmethod
    def _absorbed(cls, monomials: FrozenSet[Monomial]) -> "Polynomial":
        """Wrap a monomial set that is absorbed already, without a check."""
        polynomial = object.__new__(cls)
        object.__setattr__(polynomial, "monomials", monomials)
        object.__setattr__(polynomial, "_hash", hash(monomials))
        return polynomial

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        """FALSE: the polynomial with no derivations (one shared instance)."""
        return ZERO

    @staticmethod
    def one() -> "Polynomial":
        """TRUE: the polynomial containing only the empty derivation (one
        shared instance)."""
        return ONE

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "Polynomial":
        """Single-monomial polynomial from a collection of literals."""
        return cls((Monomial(literals),))

    @classmethod
    def from_literal(cls, literal: Literal) -> "Polynomial":
        return cls.of((literal,))

    @classmethod
    def from_monomials(cls, groups: Iterable[Iterable[Literal]]) -> "Polynomial":
        return cls(Monomial(group) for group in groups)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def is_one(self) -> bool:
        return len(self.monomials) == 1 and next(iter(self.monomials)).is_empty

    def literals(self) -> FrozenSet[Literal]:
        """All distinct literals appearing in the polynomial."""
        result: set = set()
        for monomial in self.monomials:
            result.update(monomial.literals)
        return frozenset(result)

    def tuple_literals(self) -> FrozenSet[Literal]:
        return frozenset(lit for lit in self.literals() if lit.is_tuple)

    def rule_literals(self) -> FrozenSet[Literal]:
        return frozenset(lit for lit in self.literals() if lit.is_rule)

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Union of alternative derivations."""
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return Polynomial._absorbed(_union(self.monomials, other.monomials))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Conjunctive combination (cross-product of monomials)."""
        if self.is_zero or other.is_zero:
            return ZERO
        if self.is_one:
            return other
        if other.is_one:
            return self
        return Polynomial(
            left.union(right)
            for left in self.monomials
            for right in other.monomials
        )

    def _split(self, literal: Literal
               ) -> Tuple[List[Monomial], List[Monomial]]:
        """The monomials that contain ``literal``, and those that do not."""
        having: List[Monomial] = []
        lacking: List[Monomial] = []
        for monomial in self.monomials:
            if literal in monomial.literals:
                having.append(monomial)
            else:
                lacking.append(monomial)
        return having, lacking

    def times_literal(self, literal: Literal) -> "Polynomial":
        """Multiply every monomial by one literal.

        ``m1 ∪ {l} ⊆ m2 ∪ {l}`` iff ``m1 ⊆ m2`` for monomials without
        ``l``, so those stay absorbed among themselves; only the monomials
        that already hold ``l`` can absorb them.
        """
        having, lacking = self._split(literal)
        if not lacking:
            return self
        extended = frozenset(
            Monomial(monomial.literals | {literal}) for monomial in lacking)
        if not having:
            return Polynomial._absorbed(extended)
        return Polynomial._absorbed(_union(frozenset(having), extended))

    def restrict(self, literal: Literal, value: bool) -> "Polynomial":
        """Condition the polynomial on ``literal = value`` (Shannon cofactor)."""
        having, lacking = self._split(literal)
        if not having:
            return self
        if not value:
            return Polynomial._absorbed(frozenset(lacking))
        reduced = frozenset(monomial.without(literal) for monomial in having)
        return Polynomial._absorbed(_union(frozenset(lacking), reduced))

    def without_monomials(self, dropped: Iterable[Monomial]) -> "Polynomial":
        return Polynomial._absorbed(self.monomials.difference(dropped))

    def evaluate(self, assignment: Mapping[Literal, bool]) -> bool:
        """Truth value under a complete assignment of its literals."""
        return any(monomial.evaluate(assignment) for monomial in self.monomials)

    def monomials_by_probability(
            self, probabilities: ProbabilityMap,
            descending: bool = True) -> Tuple[Tuple[Monomial, float], ...]:
        """Monomials paired with their (independent-product) probabilities."""
        scored = [
            (monomial, monomial.probability(probabilities))
            for monomial in self.monomials
        ]
        scored.sort(key=lambda pair: (-pair[1], str(pair[0]))
                    if descending else (pair[1], str(pair[0])))
        return tuple(scored)

    # -- dunder ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and other.monomials == self.monomials

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Polynomial(<%d monomials, %d literals>)" % (
            len(self.monomials), len(self.literals()),
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = sorted(str(monomial) for monomial in self.monomials)
        return " + ".join(parts)


#: The two constants, built once: polynomials are immutable, so every
#: ``zero()``/``one()`` call can share them.
ZERO = Polynomial(())
ONE = Polynomial((Monomial(()),))
