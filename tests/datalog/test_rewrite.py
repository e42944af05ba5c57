"""Unit tests for the ExSPAN-style rule rewrite."""

from types import SimpleNamespace

import pytest

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_clause, parse_program
from repro.datalog.rewrite import (
    CompiledRule,
    FiringTable,
    RewriteError,
    compile_program,
)
from repro.provenance.graph import ProvenanceGraph, RuleExecution, add_firings


class TestGuardScheduling:
    def test_guard_at_earliest_binding_position(self):
        rule = parse_clause(
            "r1 1.0: q(X,Z) :- p(X,Y), s(Y,Z), X!=Y, X!=Z.")
        compiled = CompiledRule(rule)
        # X!=Y bound after first body atom; X!=Z only after the second.
        assert [str(g) for g in compiled.guard_schedule[0]] == ["X!=Y"]
        assert [str(g) for g in compiled.guard_schedule[1]] == ["X!=Z"]

    def test_constant_guard_scheduled_first(self):
        rule = parse_clause('r1 1.0: q(X) :- p(X), X != "a".')
        compiled = CompiledRule(rule)
        assert len(compiled.guard_schedule[0]) == 1

    def test_no_guards(self):
        rule = parse_clause("r1 1.0: q(X) :- p(X).")
        compiled = CompiledRule(rule)
        assert compiled.guard_schedule == [[]]


class TestExecutionId:
    """``RuleExecution.exec_id``: the one rule-execution id format."""

    def test_deterministic(self):
        body = ("p(1)", "q(2)")
        assert (RuleExecution("r1", "d(1)", body, 0.5).exec_id
                == RuleExecution("r1", "d(1)", body, 0.5).exec_id)

    def test_embeds_label_and_body(self):
        exec_id = RuleExecution("r7", "d(1)", ("p(1)",), 0.5).exec_id
        assert exec_id == "r7[p(1)]"

    def test_body_order_matters(self):
        forward = RuleExecution("r1", "d(1)", ("p(1)", "q(2)"), 0.5)
        backward = RuleExecution("r1", "d(1)", ("q(2)", "p(1)"), 0.5)
        assert forward.exec_id != backward.exec_id


def fired(source, head, body):
    """A firing table holding one firing of the rule ``source``."""
    table = FiringTable()
    table.append(SimpleNamespace(rule=parse_clause(source)), head, body)
    return table


class TestCaptureAtoms:
    """One packed firing stands for the paper's three-way rewrite: a
    ``prov`` row and one ``rule`` row per distinct body tuple."""

    def test_three_way_rewrite_shape(self):
        table = fired("r1 0.8: q(X) :- p(X), s(X).", 2, (0, 1))
        # One prov row plus one rule row per body atom.
        assert len(table) == 1
        assert table.row_count() == 1 + 2

    def test_prov_row_contents(self):
        engine = Engine(parse_program("p(1). r1 0.8: q(X) :- p(X)."))
        engine.run()
        graph = ProvenanceGraph()
        add_firings(graph, engine)
        [execution] = graph.executions()
        assert execution.head == "q(1)"
        assert execution.probability == 0.8
        assert execution.exec_id == "r1[p(1)]"

    def test_rule_row_contents(self):
        table = fired("r1 0.8: q(X) :- p(X), s(X), p(X).", 2, (0, 1, 0))
        # Body gids keep source order; a repeated tuple is one rule row.
        assert list(table.body(0)) == [0, 1, 0]
        assert table.row_count() == 1 + 2


class TestCompileProgram:
    def test_compiles_all_rules(self):
        program = parse_program("""
            p(1).
            r1 1.0: q(X) :- p(X).
            r2 1.0: s(X) :- q(X).
        """)
        compiled = compile_program(program)
        assert [c.label for c in compiled] == ["r1", "r2"]

    def test_rejects_reserved_relations(self):
        program = parse_program("prov_(1,2,3).")
        with pytest.raises(RewriteError):
            compile_program(program)

    def test_rejects_reserved_in_rule(self):
        program = parse_program("p(1). r1 1.0: rule_(X,X,X) :- p(X).")
        with pytest.raises(RewriteError):
            compile_program(program)
