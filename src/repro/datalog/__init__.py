"""Datalog/ProbLog substrate: terms, AST, parser, store, and engine."""

from .arena import ModelView
from .ast import ClauseError, Fact, Program, Rule
from .builtins import Comparison, UnboundComparisonError
from .engine import Engine, EvaluationError, EvaluationResult, evaluate
from .parser import ParseError, parse_clause, parse_file, parse_program
from .stratification import (
    StratificationError,
    check_negation_determinism,
    deterministic_relations,
    rule_strata,
    stratify,
    validate_program,
)
from .rewrite import (
    PROV_RELATION,
    RULE_RELATION,
    CompiledRule,
    FiringTable,
    RewriteError,
    compile_program,
)
from .terms import Atom, Constant, Substitution, Term, Variable, atom, unify_atom

__all__ = [
    "Atom",
    "ClauseError",
    "Comparison",
    "CompiledRule",
    "Constant",
    "Engine",
    "EvaluationError",
    "EvaluationResult",
    "Fact",
    "FiringTable",
    "ModelView",
    "ParseError",
    "Program",
    "PROV_RELATION",
    "RewriteError",
    "Rule",
    "RULE_RELATION",
    "StratificationError",
    "Substitution",
    "Term",
    "UnboundComparisonError",
    "Variable",
    "atom",
    "compile_program",
    "evaluate",
    "parse_clause",
    "parse_file",
    "parse_program",
    "unify_atom",
    "check_negation_determinism",
    "deterministic_relations",
    "rule_strata",
    "stratify",
    "validate_program",
]
