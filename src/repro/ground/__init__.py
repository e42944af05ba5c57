"""Query-directed grounding: magic sets over an interned-term arena.

The subsystem behind ``P3Config(grounding='query'|'auto')``:

- :mod:`repro.ground.relevance` — :func:`ground_goal`, the magic-fused
  grounder emitting only the query-relevant provenance subgraph; it runs
  the shared fixpoint (:mod:`repro.datalog.fixpoint`) over the interned
  fact store (:mod:`repro.datalog.arena`, re-exported here).
- :mod:`repro.ground.planner` — the per-system planner P3 evaluates
  through, with coverage tracking and the query→full fallback ladder.
"""

from ..datalog.arena import FactStore, RelationTable, TermArena
from .planner import AUTO_FACT_THRESHOLD, RUNGS, GroundingPlanner
from .relevance import GroundedGoal, ground_goal

__all__ = [
    "AUTO_FACT_THRESHOLD",
    "FactStore",
    "GroundedGoal",
    "GroundingPlanner",
    "RelationTable",
    "RUNGS",
    "TermArena",
    "ground_goal",
]
