"""Parser for the ProbLog-like surface syntax of Figure 1.

Accepted clause forms (all terminated by ``.``):

    r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1!=P2.
    t4 0.4: like("Steve","Veggies").
    0.8::know(P1,P2) :- live(P1,C).     % classic ProbLog label-free form
    edge(1,2).                          % plain Datalog (probability 1.0)

Identifiers starting with an upper-case letter (or ``_``) are variables;
everything else (quoted strings, numbers, lower-case identifiers) is a
constant.  Comments run from ``%``, ``#``, or ``//`` to end of line.

The grammar has one definition, the tokenizer and recursive-descent
parser below.  In front of it, :func:`parse_program` and
:func:`parse_facts` read a line that is exactly one labelled ground fact
with integer or lower-case arguments (the bulk of a large edge list)
straight into a :class:`Fact`; every other line goes, in source order,
to the parser, and any error on that route re-parses the whole source
with the parser alone, which raises it with its usual line and column.
"""

from __future__ import annotations

import gc
import re
import sys
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.errors import DepthLimitError
from .ast import Fact, Program, Rule
from .builtins import Comparison
from .terms import Atom, Constant, Term, Variable


class ParseError(ValueError):
    """Raised on malformed program text, with line/column context."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


#: Relation-name prefix reserved for magic-set demand predicates
#: (:data:`repro.datalog.magic.MAGIC_PREFIX`).  Kept as a literal here so
#: the parser does not depend on the transform module.
RESERVED_RELATION_PREFIX = "m_"


class ReservedNameError(ParseError):
    """A clause used a relation name reserved for magic-set bookkeeping.

    ``m_``-prefixed relations are the demand predicates the magic-set
    transform (:mod:`repro.datalog.magic`) generates; a user program that
    defines one would collide with the rewrite and silently corrupt
    goal-directed provenance.  Rejected at parse time so the error points
    at the offending clause instead of surfacing mid-transform.
    """

    def __init__(self, name: str, line: int, column: int) -> None:
        super().__init__(
            "relation name %r is reserved: names starting with %r are "
            "magic-set demand predicates (rename the relation, e.g. %r)"
            % (name, RESERVED_RELATION_PREFIX,
               "my_" + name[len(RESERVED_RELATION_PREFIX):]),
            line, column)
        self.name = name


_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"%[^\n]*|#[^\n]*|//[^\n]*"),
    ("IMPLIES", r":-"),
    ("DCOLON", r"::"),
    ("NAF", r"\\\+"),
    ("NUMBER", r"\d+\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?|\.\d+"),
    ("STRING", r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\''),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("CMP", r"!=|==|<=|>=|<|>"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("COLON", r":"),
    ("DOT", r"\."),
    ("MINUS", r"-"),
]

_TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % pair for pair in _TOKEN_SPEC))

#: A line holding exactly one ground fact, ``label prob: rel(c1,...,cn).``,
#: each argument an integer or a lower-case identifier.  Its pieces are the
#: tokenizer's IDENT and NUMBER patterns (ASCII digits only), so a matching
#: line tokenizes to just the clause :func:`_read_lines` builds from it.
_FACT_ARG = r"[ \t]*(?:[0-9]+|[a-z][A-Za-z0-9_]*)[ \t]*"
_FACT_LINE = re.compile(
    r"[ \t]*([A-Za-z_][A-Za-z0-9_]*)[ \t]+"
    r"([0-9]+\.[0-9]+(?:[eE][-+]?[0-9]+)?|[0-9]+(?:[eE][-+]?[0-9]+)?"
    r"|\.[0-9]+)[ \t]*:[ \t]*([a-z][A-Za-z0-9_]*)"
    r"\((%s(?:,%s)*)\)[ \t]*\.[ \t\r]*" % (_FACT_ARG, _FACT_ARG)).fullmatch


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return "_Token(%r, %r, %d, %d)" % (self.kind, self.text, self.line, self.column)


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(
                "unexpected character %r" % source[pos], line, pos - line_start + 1
            )
        kind = match.lastgroup or ""
        text = match.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, text, line, match.start() - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> _Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (what, token.text or "end of input"),
                token.line, token.column,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # -- grammar ----------------------------------------------------------

    def parse_into(self, program: Program) -> Program:
        while self._peek().kind != "EOF":
            if not self._try_parse_directive(program):
                program.add(self._parse_clause())
        return program

    def _try_parse_directive(self, program: Program) -> bool:
        """Parse a ``query(atom).`` or ``evidence(atom[, truth]).`` directive.

        Directives are recognised by the shape ``query(`` / ``evidence(``
        followed by a nested atom; a plain relation named ``query`` (e.g.
        ``query(1,2).``) is left to normal clause parsing.
        """
        token = self._peek()
        is_directive = (
            token.kind == "IDENT"
            and token.text in ("query", "evidence")
            and self._peek(1).kind == "LPAREN"
            and self._peek(2).kind == "IDENT"
            and self._peek(3).kind == "LPAREN"
        )
        if not is_directive:
            return False
        name = self._advance().text
        self._expect("LPAREN", "'('")
        inner = self._parse_atom()
        if name == "query":
            self._expect("RPAREN", "')'")
            self._expect("DOT", "'.'")
            program.add_query(inner)
            return True
        observed = True
        if self._peek().kind == "COMMA":
            self._advance()
            truth_token = self._expect("IDENT", "'true' or 'false'")
            if truth_token.text == "true":
                observed = True
            elif truth_token.text == "false":
                observed = False
            else:
                raise ParseError(
                    "evidence truth value must be 'true' or 'false', "
                    "found %r" % truth_token.text,
                    truth_token.line, truth_token.column)
        self._expect("RPAREN", "')'")
        self._expect("DOT", "'.'")
        if not inner.is_ground:
            raise self._error("evidence atoms must be ground: %s" % inner)
        program.add_evidence(inner, observed)
        return True

    def _parse_clause(self) -> Union[Fact, Rule]:
        label, probability = self._parse_clause_prefix()
        head = self._parse_atom()
        if self._peek().kind == "IMPLIES":
            self._advance()
            body, constraints, negations = self._parse_body()
            self._expect("DOT", "'.'")
            try:
                return Rule(head, body, constraints, probability, label,
                            negations)
            except ValueError as exc:
                raise self._error(str(exc))
        self._expect("DOT", "'.'")
        try:
            return Fact(head, probability, label)
        except ValueError as exc:
            raise self._error(str(exc))

    def _parse_clause_prefix(self) -> Tuple[Optional[str], float]:
        """Parse the optional ``label prob:`` or ``prob::`` clause prefix."""
        token = self._peek()
        # Form: IDENT NUMBER ':'  (labelled, e.g. "r1 0.8:")
        if (token.kind == "IDENT" and self._peek(1).kind == "NUMBER"
                and self._peek(2).kind == "COLON"):
            label = self._advance().text
            probability = float(self._advance().text)
            self._advance()  # COLON
            return label, probability
        # Form: NUMBER '::'  (classic ProbLog, e.g. "0.8::")
        if token.kind == "NUMBER" and self._peek(1).kind == "DCOLON":
            probability = float(self._advance().text)
            self._advance()  # DCOLON
            return None, probability
        # Form: NUMBER ':'  (probability without label)
        if token.kind == "NUMBER" and self._peek(1).kind == "COLON":
            probability = float(self._advance().text)
            self._advance()  # COLON
            return None, probability
        return None, 1.0

    def _parse_body(self) -> Tuple[List[Atom], List[Comparison], List[Atom]]:
        atoms: List[Atom] = []
        constraints: List[Comparison] = []
        negations: List[Atom] = []
        while True:
            negated, item = self._parse_body_item()
            if negated:
                negations.append(item)  # type: ignore[arg-type]
            elif isinstance(item, Atom):
                atoms.append(item)
            else:
                constraints.append(item)
            if self._peek().kind == "COMMA":
                self._advance()
                continue
            break
        return atoms, constraints, negations

    def _parse_body_item(self) -> Tuple[bool, Union[Atom, Comparison]]:
        # A body item is an atom (IDENT '(' ...), a negated atom
        # ('not p(...)' or '\+ p(...)'), or a comparison between two terms
        # (e.g. P1 != P2, X < 3).
        token = self._peek()
        if token.kind == "NAF":
            self._advance()
            return True, self._parse_atom()
        if (token.kind == "IDENT" and token.text == "not"
                and self._peek(1).kind == "IDENT"
                and self._peek(2).kind == "LPAREN"):
            self._advance()
            return True, self._parse_atom()
        if token.kind == "IDENT" and self._peek(1).kind == "LPAREN":
            return False, self._parse_atom()
        left = self._parse_term()
        cmp_token = self._peek()
        if cmp_token.kind != "CMP":
            raise self._error(
                "expected comparison operator after term %s" % left
            )
        self._advance()
        right = self._parse_term()
        return False, Comparison(cmp_token.text, left, right)

    def _parse_atom(self) -> Atom:
        name_token = self._expect("IDENT", "relation name")
        if name_token.text.startswith(RESERVED_RELATION_PREFIX):
            raise ReservedNameError(
                name_token.text, name_token.line, name_token.column)
        args: List[Term] = []
        if self._peek().kind == "LPAREN":
            self._advance()
            if self._peek().kind != "RPAREN":
                args.append(self._parse_term())
                while self._peek().kind == "COMMA":
                    self._advance()
                    args.append(self._parse_term())
            self._expect("RPAREN", "')'")
        return Atom(name_token.text, args)

    def _parse_term(self) -> Term:
        token = self._peek()
        if token.kind == "STRING":
            self._advance()
            return Constant(_unquote(token.text))
        if token.kind == "NUMBER":
            self._advance()
            return Constant(_parse_number(token.text))
        if token.kind == "MINUS":
            self._advance()
            number = self._expect("NUMBER", "number after '-'")
            value = _parse_number(number.text)
            return Constant(-value)
        if token.kind == "IDENT":
            self._advance()
            if token.text[0].isupper() or token.text[0] == "_":
                return Variable(token.text)
            return Constant(token.text)
        raise self._error("expected a term, found %r" % (token.text or "end of input"))


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\")


def _parse_number(text: str) -> Union[int, float]:
    if re.fullmatch(r"\d+", text):
        return int(text)
    return float(text)


def _read_lines(source: str, add_fact: Callable[[Fact], None],
                parse_rest: Callable[[str], None]) -> None:
    """Read ``source`` in source order: each ground-fact line
    (:data:`_FACT_LINE`) becomes a :class:`Fact` passed to ``add_fact``,
    and each run of other lines is passed to ``parse_rest`` (the full
    parser).

    A run that parses on its own ends at a clause boundary, so the fact
    line after it starts a clause in the whole source too.  Any error
    here (a run that does not parse, a bad probability, a duplicate
    label: a ``ValueError``, or a ``RecursionError`` on deep input)
    propagates; callers then re-parse the whole source with the full
    parser, which owns every result and error.

    The cyclic garbage collector is paused meanwhile: the route builds
    only acyclic objects (facts, atoms, constants, tokens), so a
    collection here frees nothing and only rescans the growing program.
    A one-shot query on the 35,592-fact network runs three full
    collections instead of five.
    """
    constants: Dict[str, Constant] = {}
    pending: List[str] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for line in source.split("\n"):
            match = _FACT_LINE(line)
            if match is None or match.group(3).startswith(
                    RESERVED_RELATION_PREFIX):
                pending.append(line)
                continue
            if pending:
                parse_rest("\n".join(pending))
                pending = []
            label, probability, relation, args = match.groups()
            terms = []
            for text in args.split(","):
                term = constants.get(text)
                if term is None:
                    value = text.strip(" \t")
                    term = constants[text] = Constant(
                        int(value) if value[0].isdigit() else value)
                terms.append(term)
            add_fact(Fact(Atom(relation, terms), float(probability), label))
        if pending:
            parse_rest("\n".join(pending))
    finally:
        if collecting:
            gc.enable()


def parse_program(source: str) -> Program:
    """Parse ProbLog program text into a :class:`Program`.

    >>> program = parse_program('t1 0.5: edge(1,2).  r1 1.0: path(X,Y) :- edge(X,Y).')
    >>> len(program.facts), len(program.rules)
    (1, 1)

    Pathologically deep input that exhausts the interpreter stack raises
    a typed :class:`~repro.core.errors.DepthLimitError` instead of a bare
    ``RecursionError``, so callers (and service workers) fail the parse,
    not the process.
    """
    program = Program()
    try:
        _read_lines(source, program.add,
                    lambda text: _Parser(_tokenize(text)).parse_into(program))
        return program
    except (ValueError, RecursionError):
        pass  # the full parser below gives the result or the error
    try:
        return _Parser(_tokenize(source)).parse_into(Program())
    except RecursionError as exc:
        raise _depth_error("program parsing", exc) from exc


def _depth_error(phase: str, exc: RecursionError) -> RecursionError:
    """Convert a bare RecursionError into the typed depth-limit error."""
    if isinstance(exc, DepthLimitError):
        return exc
    return DepthLimitError(
        phase, sys.getrecursionlimit(),
        detail="input nests deeper than the interpreter stack")


def parse_facts(source: str) -> List[Fact]:
    """Parse a sequence of fact clauses, rejecting rules and directives.

    Unlike :func:`parse_program`, unlabelled facts keep ``label=None`` —
    no throwaway :class:`Program` assigns counter labels that could
    collide with a live program's.  This is the entry point for live
    updates (``P3.add_facts``), where the receiving program labels the
    new facts itself.
    """
    facts: List[Fact] = []
    try:
        _read_lines(source, facts.append,
                    lambda text: facts.extend(_parse_fact_clauses(text)))
        return facts
    except (ValueError, RecursionError):
        pass  # the full parser below gives the result or the error
    return _parse_fact_clauses(source)


def _parse_fact_clauses(source: str) -> List[Fact]:
    """:func:`parse_facts` on the full parser alone."""
    parser = _Parser(_tokenize(source))
    sink = Program()
    facts: List[Fact] = []
    try:
        while parser._peek().kind != "EOF":
            token = parser._peek()
            if parser._try_parse_directive(sink):
                raise ParseError(
                    "expected a fact clause, found a query/evidence "
                    "directive", token.line, token.column)
            clause = parser._parse_clause()
            if not isinstance(clause, Fact):
                raise ParseError(
                    "expected a fact clause, found a rule for %s"
                    % clause.head, token.line, token.column)
            facts.append(clause)
    except RecursionError as exc:
        raise _depth_error("fact parsing", exc) from exc
    return facts


def parse_clause(source: str) -> Union[Fact, Rule]:
    """Parse a single clause; raises :class:`ParseError` on trailing input."""
    parser = _Parser(_tokenize(source))
    clause = parser._parse_clause()
    trailing = parser._peek()
    if trailing.kind != "EOF":
        raise ParseError(
            "unexpected input after clause: %r" % trailing.text,
            trailing.line, trailing.column,
        )
    return clause


def parse_atom(source: str) -> Atom:
    """Parse a single (possibly non-ground) atom, e.g. ``know("Ben",X)``."""
    parser = _Parser(_tokenize(source))
    atom = parser._parse_atom()
    trailing = parser._peek()
    if trailing.kind not in ("EOF", "DOT"):
        raise ParseError(
            "unexpected input after atom: %r" % trailing.text,
            trailing.line, trailing.column,
        )
    return atom


def parse_file(path: str) -> Program:
    """Parse a ProbLog program from a file path."""
    with open(path) as handle:
        return parse_program(handle.read())
