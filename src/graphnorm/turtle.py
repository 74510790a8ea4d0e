"""Turtle subset parser and canonical serializer.

Supported input syntax:

  * ``@prefix p: <iri> .`` directives (a repeated prefix rebinds; last wins)
  * absolute IRIs in angle brackets and prefixed names
  * the keyword ``a`` for rdf:type in predicate position
  * ``;`` and ``,`` abbreviations
  * string literals with optional ``^^<datatype>`` (or prefixed datatype)
    or ``@lang`` suffix, and bare integer/decimal numbers
  * blank nodes written ``_:label`` only
  * ``#`` comments

Everything else is rejected with a positioned error: relative IRIs,
variables in data, ``[]`` property lists, collections, ``@base``.

Serialization is canonical: one triple per line in full N-Triples form,
lines sorted in canonical order, LF endings. Parsing a serialization
yields the original graph.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import Graph
from .lex import (
    AT,
    BLANK,
    COMMA,
    DECIMAL,
    DOT,
    DTMARK,
    EOF,
    INTEGER,
    IRIREF,
    KW_A,
    LBRACE,
    LBRACKET,
    PNAME,
    SEMI,
    STRING,
    VAR,
    Token,
    tokenize,
)
from .terms import (
    IRI,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Literal,
    Triple,
    is_absolute_iri,
)


class _TokenCursor:
    def __init__(self, tokens: list[Token], source: str | None):
        self._tokens = tokens
        self._pos = 0
        self.source = source

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {what}, got {tok.value!r}", tok)
        return tok

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, tok.line, tok.col, self.source)


class _TurtleParser:
    def __init__(self, text: str, source: str | None):
        self.cur = _TokenCursor(tokenize(text, source), source)
        self.prefixes: dict[str, str] = {}
        # One IRI per distinct string, so each is validated once per parse.
        self._iris: dict[str, IRI] = {RDF_TYPE.value: RDF_TYPE}

    def parse(self) -> Graph:
        triples: set[Triple] = set()
        while True:
            tok = self.cur.peek()
            if tok.kind == EOF:
                break
            if tok.kind == AT:
                self._directive()
            else:
                self._triples_statement(triples)
        return Graph(triples)

    def _directive(self) -> None:
        tok = self.cur.next()
        if tok.value != "prefix":
            raise self.cur.error(f"unsupported directive '@{tok.value}'", tok)
        name = self.cur.expect(PNAME, "a prefix name ending in ':'")
        prefix, _, local = name.value.partition(":")
        if local:
            raise self.cur.error("prefix declarations take a bare 'name:' form", name)
        iri = self.cur.expect(IRIREF, "an IRI")
        if not is_absolute_iri(iri.value):
            raise self.cur.error(f"relative IRI not allowed: <{iri.value}>", iri)
        self.cur.expect(DOT, "'.'")
        self.prefixes[prefix] = iri.value

    def _triples_statement(self, triples: set[Triple]) -> None:
        subject = self._term("subject")
        while True:
            predicate = self._term("predicate")
            while True:
                obj = self._term("object")
                triples.add(Triple(subject, predicate, obj))
                if self.cur.peek().kind == COMMA:
                    self.cur.next()
                    continue
                break
            tok = self.cur.next()
            if tok.kind == SEMI:
                if self.cur.peek().kind == DOT:
                    self.cur.next()
                    return
                continue
            if tok.kind == DOT:
                return
            raise self.cur.error(f"expected ';' or '.', got {tok.value!r}", tok)

    def _iri_token(self, tok: Token) -> IRI:
        if tok.kind == IRIREF:
            value = tok.value
        else:
            prefix, _, local = tok.value.partition(":")
            if prefix not in self.prefixes:
                raise self.cur.error(f"undeclared prefix '{prefix}:'", tok)
            value = self.prefixes[prefix] + local
        iri = self._iris.get(value)
        if iri is None:
            if tok.kind == IRIREF and not is_absolute_iri(value):
                raise self.cur.error(f"relative IRI not allowed: <{value}>", tok)
            try:
                iri = self._iris[value] = IRI(value)
            except ValueError as exc:
                raise self.cur.error(str(exc), tok) from None
        return iri

    def _term(self, position: str):
        tok = self.cur.next()
        if tok.kind in (IRIREF, PNAME):
            return self._iri_token(tok)
        if tok.kind == KW_A:
            if position != "predicate":
                raise self.cur.error("'a' is only valid in predicate position", tok)
            return RDF_TYPE
        if tok.kind == BLANK:
            if position == "predicate":
                raise self.cur.error("a blank node cannot be a predicate", tok)
            return BlankNode(tok.value)
        if tok.kind == VAR:
            raise self.cur.error(f"variable ?{tok.value} is not allowed in graph data", tok)
        if tok.kind in (STRING, INTEGER, DECIMAL):
            if position != "object":
                raise self.cur.error(f"a literal cannot be a {position}", tok)
            return self._literal(tok)
        if tok.kind == LBRACKET:
            raise self.cur.error("blank node property lists are not supported", tok)
        if tok.kind == LBRACE:
            raise self.cur.error("graph data cannot contain rule braces", tok)
        raise self.cur.error(f"expected a {position} term, got {tok.value!r}", tok)

    def _literal(self, tok: Token) -> Literal:
        if tok.kind == INTEGER:
            return Literal(tok.value, datatype=XSD_INTEGER)
        if tok.kind == DECIMAL:
            return Literal(tok.value, datatype=XSD_DECIMAL)
        nxt = self.cur.peek()
        datatype = language = None
        if nxt.kind == AT:
            self.cur.next()
            language = nxt.value
        elif nxt.kind == DTMARK:
            self.cur.next()
            dt = self.cur.next()
            if dt.kind not in (IRIREF, PNAME):
                raise self.cur.error("expected a datatype IRI after '^^'", dt)
            datatype = self._iri_token(dt).value
        try:
            return Literal(tok.value, datatype=datatype, language=language)
        except ValueError as exc:
            raise self.cur.error(str(exc), tok) from None


def parse_turtle(text: str, source: str | None = None) -> Graph:
    """Parse Turtle subset text into a Graph.

    Raises ParseError with a 1-based line/column on any syntax problem,
    including relative IRIs and variables appearing in data.
    """
    return _TurtleParser(text, source).parse()


def serialize_turtle(graph: Graph) -> str:
    """Render a graph one sorted N-Triples line at a time.

    Each triple is rendered once; sorting the lines gives the canonical
    order (see ``graphnorm.terms``).
    """
    return "".join(sorted([t.ntriples() + "\n" for t in graph.triples]))
