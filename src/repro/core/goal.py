"""Goal-directed querying: magic-set grounding behind a friendly facade.

:func:`goal_directed_query` answers one query pattern without computing
the whole least model.  It runs :func:`repro.ground.relevance.ground_goal`
— the one magic-set path, shared with the ``grounding='query'`` planner —
which evaluates the magic-transformed program over the term arena and
hands back the relevant provenance subgraph already in *original*
relation names and rule labels.  The answers, polynomials, and
probabilities are therefore interchangeable with those of a full
:class:`~repro.core.system.P3` evaluation (tested so).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..datalog.ast import Program
from ..datalog.terms import Atom, atom as make_atom
from ..inference import probability as compute_probability
from ..provenance.extraction import extract_polynomial
from ..provenance.polynomial import Polynomial
from .config import P3Config

if TYPE_CHECKING:
    from ..ground.relevance import GroundedGoal


class GoalDirectedResult:
    """Answers to one goal-directed query, in original-relation terms."""

    def __init__(self, goal: "GroundedGoal", config: P3Config) -> None:
        self._goal = goal
        self._probabilities = goal.graph.probability_map()
        self.firing_count: int = goal.stats["firings"]
        self._config = config
        self._polynomials: Dict[str, Polynomial] = {}

    def answers(self) -> List[str]:
        """Ground tuples matching the query pattern, as original keys.

        The grounded model also holds auxiliary demanded tuples
        (sub-demands of the recursion); only tuples unifying with the
        original query pattern are answers.
        """
        return sorted(set(self._goal.answers))

    @property
    def graph(self):
        """The provenance graph, in original terms.

        This is a subgraph of what full evaluation would have produced —
        restricted to derivations relevant to the query — so extraction,
        hop limits, and literals behave identically on it.
        """
        return self._goal.graph

    def polynomial_of(self, original_key: str) -> Polynomial:
        """Provenance polynomial over original rule labels and tuple keys."""
        cached = self._polynomials.get(original_key)
        if cached is not None:
            return cached
        if original_key not in self.graph:
            raise KeyError(
                "Tuple %r was not derived by the goal-directed evaluation"
                % original_key)
        polynomial = extract_polynomial(
            self.graph, original_key,
            hop_limit=self._config.hop_limit,
            max_monomials=self._config.max_monomials)
        self._polynomials[original_key] = polynomial
        return polynomial

    def probability_of(self, original_key: str,
                       method: Optional[str] = None) -> float:
        """Success probability of one answer."""
        return compute_probability(
            self.polynomial_of(original_key), self._probabilities,
            method=method or self._config.probability_method,
            samples=self._config.samples, seed=self._config.seed)

    def __repr__(self) -> str:
        return "GoalDirectedResult(%s, %d answers, %d firings)" % (
            self._goal.magic.query_relation, len(self.answers()),
            self.firing_count)


def goal_directed_query(program: Program, relation: str, *values: object,
                        pattern: Optional[Atom] = None,
                        config: Optional[P3Config] = None
                        ) -> GoalDirectedResult:
    """Ground the program for one goal and wrap the answers.

    Use positional ``values`` for a fully-ground query, or pass a
    ``pattern`` atom containing variables for partially-bound queries
    (e.g. ``Atom("trustPath", (Constant(1), Variable("X")))``).
    """
    # Imported on use, so ``import repro`` (every CLI start) does not
    # load the grounding subsystem.
    from ..ground.relevance import ground_goal
    config = config or P3Config()
    if pattern is None:
        pattern = make_atom(relation, *values)  # type: ignore[arg-type]
    goal = ground_goal(program, pattern, max_rounds=config.max_rounds,
                       max_tuples=config.max_tuples)
    return GoalDirectedResult(goal, config)
