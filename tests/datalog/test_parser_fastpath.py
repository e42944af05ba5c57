"""Differential tests: the fact-line fast path against the full parser.

``parse_program`` and ``parse_facts`` read ground-fact lines straight
into ``Fact`` objects and hand every other line to the recursive-descent
parser.  Whatever the source, the result must be the one the full parser
alone gives: the same program (facts, rules, labels, directives and the
next auto-label), or the same exception with the same message, line and
column.
"""

import random

import pytest

from repro.data import generate_network
from repro.datalog.ast import Fact, Program, Rule
from repro.datalog.parser import (
    _parse_fact_clauses,
    _Parser,
    _tokenize,
    parse_facts,
    parse_program,
)
from repro.datalog.terms import Atom


def _outcome(parse, source):
    """``("ok", value)`` or ``("error", type, message, line, column)``."""
    try:
        return ("ok", parse(source))
    except Exception as exc:  # noqa: BLE001 - any error must match exactly
        return ("error", type(exc), str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))


def _program_view(program):
    fact_probe = Fact(Atom("probe_fact", ()))
    rule_probe = Rule(Atom("probe_rule", ()), [Atom("probe_fact", ())])
    program.add(fact_probe)
    program.add(rule_probe)
    return (
        [(fact, type(fact.probability)) for fact in program.facts],
        program.rules,
        sorted(program._labels),
        program.queries,
        program.evidence,
        fact_probe.label,
        rule_probe.label,
    )


def _full_program(source):
    return _Parser(_tokenize(source)).parse_into(Program())


def assert_same_program(source):
    fast = _outcome(parse_program, source)
    full = _outcome(_full_program, source)
    if fast[0] == "ok" and full[0] == "ok":
        assert _program_view(fast[1]) == _program_view(full[1]), source
    else:
        assert fast == full, source


def assert_same_facts(source):
    fast = _outcome(parse_facts, source)
    full = _outcome(_parse_fact_clauses, source)
    if fast[0] == "ok" and full[0] == "ok":
        assert [(fact, type(fact.probability)) for fact in fast[1]] == \
            [(fact, type(fact.probability)) for fact in full[1]], source
    else:
        assert fast == full, source


def check(source):
    assert_same_program(source)
    assert_same_facts(source)


HAND_PICKED = {
    "labelled": "t1 0.5: edge(1,2).\nt2 0.25: edge(2,3).\n",
    "unlabelled": "edge(1,2).\nt1 0.5: edge(2,3).\nedge(3,4).\n",
    "double_colon": "0.3::edge(1,2).\nt7 0.5: edge(2,3).\n",
    "probability_only": "0.3: edge(1,2).\nt7 0.5: edge(2,3).\n",
    "auto_label_collision": "edge(1,2).\nt1 0.5: edge(2,3).\n",
    "auto_label_skips_taken": "t1 0.5: edge(2,3).\nedge(1,2).\nedge(5,6).\n",
    "identifiers": "t1 0.5: likes(alice, bob_2).\nt2 1: color(redX).\n",
    "spacing": "  t1   0.5 :  edge( 1 ,\t2 ) .  \n\tt2\t0.5:edge(3,4).\t\n",
    "exponent": "t1 5e-1: edge(1,2).\nt2 1E0: edge(1,3).\nt3 .5: edge(1,4).\n",
    "glued_label": "t10.5: edge(1,2).\n",
    "leading_zeros": "t1 0.5: edge(007, 0).\n",
    "uppercase_label": "T1 0.5: edge(1,2).\n_x 0.5: edge(1,3).\n",
    "uppercase_relation": "t1 0.5: Edge(1,2).\n",
    "negative": "t1 0.5: weight(1,-7).\nt2 0.5: weight(1,7).\n",
    "float_arg": "t1 0.5: score(1,0.75).\nt2 0.5: score(1,2).\n",
    "quoted_commas": 't1 0.5: note("a,b", 1).\nt2 0.5: note(c, 2).\n',
    "quoted_escapes": 't1 0.5: note("say \\"hi\\", ok").\nt2 0.5: x(1).\n',
    "single_quotes": "t1 0.5: name('Bob').\nt2 0.5: name(bob).\n",
    "non_ground": "t1 0.5: edge(X,2).\nt2 0.5: edge(1,2).\n",
    "underscore_arg": "t1 0.5: edge(_a,2).\n",
    "nullary_parens": "t1 0.5: rain().\nt2 0.5: edge(1,2).\n",
    "nullary_bare": "t1 0.5: rain.\nrain2.\nt2 0.5: edge(1,2).\n",
    "percent_comment": "t1 0.5: edge(1,2). % trailing\nt2 0.5: edge(2,3).\n",
    "hash_comment": "t1 0.5: edge(1,2). # c\n# whole line\nt2 0.5: e(1).\n",
    "slash_comment": "t1 0.5: edge(1,2). // c\nt2 0.5: edge(2,3).\n",
    "crlf": "t1 0.5: edge(1,2).\r\nt2 0.5: edge(2,3).\r\n",
    "crlf_error": "t1 0.5: edge(1,2).\r\nt2 1.5: edge(2,3).\r\n",
    "bare_cr_inside": "t1 0.5:\redge(1,2).\n",
    "tabs": "t1\t0.5:\tedge(1,\t2).\n",
    "two_clauses": "t1 0.5: edge(1,2). t2 0.5: edge(2,3).\nt3 0.5: e(1).\n",
    "multi_line_rule": ("t1 0.5: edge(1,2).\nr1 0.8: path(X,Y) :-\n"
                        "    edge(X,Y).\nt2 0.5: edge(2,3).\n"),
    "directives": ("t1 0.5: edge(1,2).\nquery(edge(1,2)).\n"
                   "evidence(edge(1,2), false).\nt2 0.5: edge(2,3).\n"
                   "query(path(X,Y)).\nevidence(edge(2,3)).\n"),
    "relation_named_query": "t1 0.5: query(1,2).\nquery(1,2).\n",
    "label_named_query": "query 0.5: edge(1,2).\n",
    "duplicate_label": "t1 0.5: edge(1,2).\nt1 0.5: edge(2,3).\n",
    "duplicate_label_far": ("t1 0.5: edge(1,2).\nr1 1.0: p(X) :- edge(X,Y).\n"
                            "t2 0.5: e(1).\nr1 0.5: q(X) :- edge(X,Y).\n"),
    "reserved_prefix": "t1 0.5: edge(1,2).\nt2 0.5: m_edge(1,2).\n",
    "reserved_in_rule": "t1 0.5: e(1).\nr1 1.0: m_p(X) :- e(X).\n",
    "probability_above_one": "t1 0.5: edge(1,2).\nt2 1.5: edge(2,3).\n",
    "probability_above_one_unlabelled": "t1 0.5: e(1).\n1.5::edge(2,3).\n",
    "dcolon_labelled": "t1 0.5:: edge(1,2).\n",
    "implies_after_prob": "t1 0.5:- edge(1,2).\n",
    "open_rule_body": ("r1 0.5: p(X) :- edge(X,Y),\n"
                       "t1 0.5: edge(1,2).\nt2 0.5: edge(2,3).\n"),
    "open_rule_head": "r1 0.5: p(X) :-\nt1 0.5: edge(1,2).\n",
    "multi_line_string": ('t1 0.5: note("abc\nt2 0.5: edge(1,2).\ndef").\n'
                          "t3 0.5: edge(3,4).\n"),
    "multi_line_string_single": ("t1 0.5: note('abc\nt2 0.5: edge(1,2).\n')."
                                 "\nt3 0.5: edge(3,4).\n"),
    "unterminated_string": 't1 0.5: edge(1,2).\nt2 0.5: note("abc).\n',
    "bad_character": "t1 0.5: edge(1,2).\nt2 0.5: edge(1,2) @\n",
    "missing_dot": "t1 0.5: edge(1,2)\nt2 0.5: edge(2,3).\n",
    "trailing_garbage": "t1 0.5: edge(1,2).5\n",
    "blank_lines": "\n\nt1 0.5: edge(1,2).\n\n\n   \nt2 0.5: edge(2,3).\n\n",
    "no_trailing_newline": "t1 0.5: edge(1,2).\nt2 0.5: edge(2,3).",
    "empty": "",
    "rule_only": "r1 1.0: path(X,Y) :- edge(X,Y), X != Y.\n",
    "negation": ("t1 0.5: e(1,2).\nr1 1.0: p(X) :- e(X,Y), not q(Y).\n"
                 "t2 0.5: q(2).\n"),
}


@pytest.mark.parametrize("name", sorted(HAND_PICKED))
def test_hand_picked(name):
    check(HAND_PICKED[name])


def test_fast_facts_keep_their_labels_and_unlabelled_stay_none():
    facts = parse_facts("t9 0.5: edge(1,2).\nedge(2,3).\n0.2::edge(3,4).\n")
    assert [fact.label for fact in facts] == ["t9", None, None]


def test_parse_facts_rejects_rules_and_directives_at_their_position():
    with pytest.raises(ValueError) as caught:
        parse_facts("t1 0.5: edge(1,2).\nr1 1.0: p(X) :- edge(X,Y).\n")
    assert (caught.value.line, caught.value.column) == (2, 1)
    with pytest.raises(ValueError) as caught:
        parse_facts("t1 0.5: edge(1,2).\n  query(edge(1,2)).\n")
    assert (caught.value.line, caught.value.column) == (2, 3)


# -- seeded generated sources ------------------------------------------------

def _ground_arg(rng):
    return rng.choice([
        str(rng.randint(0, 40)), rng.choice(["a", "bob", "x_1", "nY"]),
        '"s,t"', "'q'", "-3", "2.5", '"e\\"x"', '"%% a"'])


def _space(rng):
    return rng.choice(["", "", " ", "\t", "  "])


class _Generator:
    """Seeded program text, ground-fact lines most of the time.

    A *clean* source has unique labels, in-range probabilities and
    well-formed clauses, so it parses; otherwise about one line in five
    is drawn from a pool of malformed or colliding ones.
    """

    def __init__(self, seed, facts_only):
        self.rng = random.Random(seed)
        self.facts_only = facts_only
        self.clean = self.rng.random() < 0.5
        self.labels = []
        self.rules = 0

    def label(self):
        rng = self.rng
        if not self.clean and self.labels and rng.random() < 0.1:
            return rng.choice(self.labels)  # a duplicate
        # Small t<n> labels also collide with the auto-labels of
        # unlabelled facts; clean sources use a label space of their own.
        label = ("t%d" % rng.randint(1, 60) if not self.clean
                 else "f%d" % (len(self.labels) + 1))
        self.labels.append(label)
        return label

    def probability(self):
        choices = ["0.5", "1", "0.25", "1.0", ".75", "1e-1", "0.9"]
        if not self.clean:
            choices.append("1.5")
        return self.rng.choice(choices)

    def fact_line(self):
        rng = self.rng
        values = [str(rng.randint(0, 40)),
                  rng.choice(["a", "bob", "x_1", "nY"])]
        args = ("," + _space(rng)).join(
            rng.choice(values) for _ in range(rng.randint(1, 3)))
        relation = rng.choice(["edge", "trust", "likes", "query"])
        return "%s%s %s%s:%s%s(%s)%s." % (
            _space(rng), self.label(), _space(rng), self.probability(),
            _space(rng), relation, args, _space(rng))

    def other_line(self):
        rng = self.rng
        kind = rng.random()
        if kind < 0.25:
            return "edge(%s)." % ",".join(
                _ground_arg(rng) for _ in range(rng.randint(0, 3)))
        if kind < 0.35:
            return "%s::edge(%s)." % (self.probability(), _ground_arg(rng))
        if kind < 0.45:
            return "%s %s: rain." % (self.label(), self.probability())
        if kind < 0.55:
            return ""
        if kind < 0.65:
            return "%s %s: edge(1,2). %% a comment" % (
                self.label(), self.probability())
        if kind < 0.75:
            return 'edge("line one\n%s 0.5: edge(1,2).\n").' % self.label()
        if kind < 0.85:
            return "%s 0.5: edge(1,2). %s 0.5: edge(2,3)." % (
                self.label(), self.label())
        if self.facts_only:
            return "edge(%s,%s)." % (_ground_arg(rng), _ground_arg(rng))
        self.rules += 1
        return rng.choice([
            "r%d 0.8: path(X,Y) :- edge(X,Y)." % self.rules,
            "r%d 0.5: path(X,Z) :-\n    edge(X,Y), path(Y,Z), X != Z."
            % self.rules,
            "query(path(1,X)).",
            "evidence(edge(1,2), %s)." % rng.choice(["true", "false"]),
        ])

    def broken_line(self):
        rng = self.rng
        return rng.choice([
            "r9 0.5: path(X,Z) :- edge(X,Y),",
            "m_edge(1,2).",
            "%s 0.5: m_edge(1,2)." % self.label(),
            "%s 0.5: edge(X,2)." % self.label(),
            "%s 0.5:: edge(1,2)." % self.label(),
            "%s 0.5: edge(1,2) @" % self.label(),
            '%s 0.5: note("open' % self.label(),
            '").',
            "),",
            "evidence(edge(1,2), maybe).",
            "r9 0.5: path(X,Z) :- edge(X,Y).",
        ])

    def source(self):
        rng = self.rng
        lines = []
        for _ in range(rng.randint(1, 30)):
            draw = rng.random()
            if draw < 0.6:
                line = self.fact_line()
            elif self.clean or draw < 0.8:
                line = self.other_line()
            else:
                line = self.broken_line()
            lines.append(line + rng.choice(["\n", "\n", "\n", "\r\n"]))
        return "".join(lines)


def _source(seed, facts_only=False):
    return _Generator(seed, facts_only).source()


@pytest.mark.parametrize("seed", range(300))
def test_generated_program(seed):
    assert_same_program(_source(seed))


@pytest.mark.parametrize("seed", range(300))
def test_generated_facts(seed):
    assert_same_facts(_source(seed, facts_only=True))


def test_generated_sources_take_both_routes():
    """The generator must exercise successes and errors of both kinds."""
    programs = [_outcome(parse_program, _source(seed)) for seed in range(300)]
    facts = [_outcome(parse_facts, _source(seed, facts_only=True))
             for seed in range(300)]
    for outcomes in (programs, facts):
        kinds = [outcome[0] for outcome in outcomes]
        assert kinds.count("ok") >= 30 and kinds.count("error") >= 30


def test_section_6_2_sample_program():
    sample = generate_network().sample_nodes_edges(150, 150, seed=2)
    source = str(sample.to_program())
    assert len(parse_program(source).facts) == 150
    check(source)
