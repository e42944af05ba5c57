"""Why-not provenance: explain why a tuple was NOT derived.

The paper's debugging story (Section 5.1) works forward from derived
tuples; the complementary question — "why is ``know("Mary","Ben")`` *not*
in the result?" — needs a different mechanism, because absent tuples have
no derivations to show.  This module implements rule-level why-not
analysis in the style of Huang et al.'s provenance for non-answers:

For every rule whose head unifies with the missing tuple, search for the
body instantiation that comes *closest* to firing — maximising the number
of satisfied subgoals — and report what still fails: the missing body
atoms (with the bindings accumulated from the satisfied prefix) and any
violated comparison guards.  The result tells the user exactly which base
tuple to add, or which guard blocks the derivation.

The search is exact but bounded (``max_nodes``): it explores partial
matches best-first by number of satisfied subgoals, so the top explanation
is found early even when the full space is large.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.ast import Program, Rule
from ..datalog.builtins import Comparison
from ..datalog.arena import ModelView
from ..datalog.terms import Atom, Substitution, unify_atom
from .result import QueryResult, register_result


class WhyNotSearchExhausted(RuntimeError):
    """Raised when the bounded search gives up before finishing a rule."""


class FailedGuard:
    """A comparison guard that evaluated to false under the bindings."""

    __slots__ = ("guard", "rendering")

    def __init__(self, guard: Comparison, subst: Substitution) -> None:
        self.guard = guard
        left = subst.get(guard.left, guard.left)  # type: ignore[arg-type]
        right = subst.get(guard.right, guard.right)  # type: ignore[arg-type]
        self.rendering = "%s%s%s" % (left, guard.op, right)

    @classmethod
    def from_rendering(cls, rendering: str) -> "FailedGuard":
        """Rebuild from a serialised rendering (no Comparison object)."""
        instance = cls.__new__(cls)
        instance.guard = None  # type: ignore[assignment]
        instance.rendering = rendering
        return instance

    def __repr__(self) -> str:
        return "FailedGuard(%s)" % self.rendering

    def __str__(self) -> str:
        return self.rendering


class WhyNotCandidate:
    """One near-miss: a rule instantiation and what it still lacks."""

    __slots__ = ("rule_label", "satisfied", "missing", "failed_guards")

    def __init__(self, rule_label: str, satisfied: Sequence[str],
                 missing: Sequence[str],
                 failed_guards: Sequence[FailedGuard]) -> None:
        self.rule_label = rule_label
        self.satisfied = tuple(satisfied)
        self.missing = tuple(missing)
        self.failed_guards = tuple(failed_guards)

    @property
    def repair_size(self) -> int:
        """How many things must change for this rule to fire."""
        return len(self.missing) + len(self.failed_guards)

    def __repr__(self) -> str:
        return ("WhyNotCandidate(%s: %d satisfied, missing=%s, guards=%s)"
                % (self.rule_label, len(self.satisfied),
                   list(self.missing),
                   [str(g) for g in self.failed_guards]))


@register_result
class WhyNotReport(QueryResult):
    """All near-miss explanations for one missing tuple, best first."""

    query_type = "why_not"

    def __init__(self, tuple_key: str, derivable: bool,
                 candidates: Sequence[WhyNotCandidate]) -> None:
        self.tuple_key = tuple_key
        self.derivable = derivable
        self.candidates = tuple(sorted(
            candidates, key=lambda c: (c.repair_size, c.rule_label)))

    @property
    def best(self) -> Optional[WhyNotCandidate]:
        return self.candidates[0] if self.candidates else None

    def to_text(self) -> str:
        if self.derivable:
            return ("%s IS derivable — use an Explanation Query instead"
                    % self.tuple_key)
        lines = ["Why not %s?" % self.tuple_key]
        if not self.candidates:
            lines.append("  no rule head matches this tuple")
        for candidate in self.candidates:
            lines.append("  rule %s almost fires:" % candidate.rule_label)
            for key in candidate.satisfied:
                lines.append("    have    %s" % key)
            for key in candidate.missing:
                lines.append("    MISSING %s" % key)
            for guard in candidate.failed_guards:
                lines.append("    BLOCKED by guard %s" % guard)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "tuple": self.tuple_key,
            "derivable": self.derivable,
            "candidates": [
                {"rule": candidate.rule_label,
                 "satisfied": list(candidate.satisfied),
                 "missing": list(candidate.missing),
                 "failed_guards": [str(guard)
                                   for guard in candidate.failed_guards]}
                for candidate in self.candidates
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WhyNotReport":
        candidates = [
            WhyNotCandidate(
                entry["rule"], entry["satisfied"], entry["missing"],
                [FailedGuard.from_rendering(text)
                 for text in entry["failed_guards"]])
            for entry in payload["candidates"]
        ]
        return cls(payload["tuple"], payload["derivable"], candidates)

    def summary(self) -> str:
        if self.derivable:
            return "%s IS derivable" % self.tuple_key
        best = self.best
        if best is None:
            return "%s: no rule head matches" % self.tuple_key
        return "%s: closest rule %s needs %d repair(s)" % (
            self.tuple_key, best.rule_label, best.repair_size)

    def __repr__(self) -> str:
        return "WhyNotReport(%s, %d candidates)" % (
            self.tuple_key, len(self.candidates))


def why_not(program: Program, database: ModelView, target: Atom,
            max_nodes: int = 50000,
            per_rule_candidates: int = 3) -> WhyNotReport:
    """Explain why ``target`` (a ground atom) is absent from the model.

    Returns a :class:`WhyNotReport` with up to ``per_rule_candidates``
    near-misses per rule, ranked by repair size.  If the tuple is in fact
    present, the report says so and carries no candidates.
    """
    if not target.is_ground:
        raise ValueError("why_not requires a ground atom: %s" % target)
    if target in database:
        return WhyNotReport(str(target), True, ())

    candidates: List[WhyNotCandidate] = []
    for rule in program.rules:
        head_subst = unify_atom(rule.head, target)
        if head_subst is None:
            continue
        candidates.extend(_near_misses(
            rule, head_subst, database, max_nodes, per_rule_candidates))
    return WhyNotReport(str(target), False, candidates)


def _near_misses(rule: Rule, head_subst: Substitution, database: ModelView,
                 max_nodes: int,
                 keep: int) -> List[WhyNotCandidate]:
    """Best-first search over partial body instantiations of one rule.

    State: (position, substitution, satisfied keys, missing renderings).
    At each body atom we either match it against the database (extending
    the substitution) or declare it missing and move on; states with fewer
    misses are expanded first, so the closest instantiations surface
    before the budget runs out.
    """
    counter = itertools.count()
    heap: List[Tuple[Tuple[int, int], int, int, Substitution,
                     Tuple[str, ...], Tuple[str, ...]]] = []

    def push(position: int, subst: Substitution,
             satisfied: Tuple[str, ...], missing: Tuple[str, ...]) -> None:
        heapq.heappush(heap, (
            (len(missing), -len(satisfied)), next(counter),
            position, subst, satisfied, missing,
        ))

    push(0, dict(head_subst), (), ())
    results: List[WhyNotCandidate] = []
    expanded = 0

    while heap and len(results) < keep:
        expanded += 1
        if expanded > max_nodes:
            break
        _, _, position, subst, satisfied, missing = heapq.heappop(heap)

        if position == len(rule.body):
            failed = _failed_guards(rule, subst)
            if missing or failed:
                results.append(WhyNotCandidate(
                    rule.label or "?", satisfied, missing, failed))
            # A complete match with no misses and no failed guards would
            # mean the tuple IS derivable through this rule; the caller
            # already checked presence, so that can only happen when the
            # database was evaluated with limits. Report it as zero-repair.
            if not missing and not failed:
                results.append(WhyNotCandidate(
                    rule.label or "?", satisfied, (), ()))
            continue

        pattern = rule.body[position]
        matched_any = False
        for atom, extended in database.match_atoms(pattern, subst):
            matched_any = True
            push(position + 1, extended, satisfied + (str(atom),), missing)
        # The "this subgoal is missing" branch — always available, but
        # costed so fully-matched branches win.
        rendering = str(pattern.substitute(subst))
        push(position + 1, subst, satisfied, missing + (rendering,))
        if not matched_any and not heap:
            break

    # Deduplicate identical candidates and keep only this rule's closest
    # near-misses (anything needing more repairs is noise).
    unique: Dict[Tuple, WhyNotCandidate] = {}
    for candidate in results:
        key = (candidate.missing, tuple(map(str, candidate.failed_guards)),
               candidate.satisfied)
        unique.setdefault(key, candidate)
    deduped = list(unique.values())
    if not deduped:
        return []
    best = min(candidate.repair_size for candidate in deduped)
    return [c for c in deduped if c.repair_size == best][:keep]


def _failed_guards(rule: Rule, subst: Substitution) -> List[FailedGuard]:
    failed = []
    for guard in rule.constraints:
        try:
            holds = guard.evaluate(subst)
        except Exception:
            continue  # unbound (a missing subgoal owned the variable)
        if not holds:
            failed.append(FailedGuard(guard, subst))
    return failed
