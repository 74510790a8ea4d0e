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

from .graph import Graph
from .lex import (
    BLANK,
    DECIMAL,
    INTEGER,
    IRIREF,
    PNAME,
    STRING,
    VAR,
    Reader,
    kind,
    value,
)
from .terms import (
    IRI,
    RDF_TYPE,
    BlankNode,
    _Ids,
    _Terms,
    is_absolute_iri,
)


class _TurtleParser(Reader):
    def __init__(self, text: str, source: str | None):
        super().__init__(text, source)
        # Tokens to their term ids as a subject or object (ids) or as a
        # predicate, and to datatype IRIs. A rebound prefix clears all three.
        self.iris: dict[str, IRI] = {}
        self.ids: dict[str, int] = {}
        self.predicates: dict[str, int] = {}

    def parse(self, terms: _Terms) -> set[_Ids]:
        """The triples of the text, as ids of the terms interned in terms."""
        toks, ids, predicates, term = self.toks, self.ids, self.predicates, self._term
        triples: set[_Ids] = set()
        add = triples.add
        i = 0
        while tok := toks[i]:
            subject = ids.get(tok)
            if subject is None:
                if tok[0] == "@":
                    i = self._directive(i)
                    continue
                subject = ids[tok] = terms.intern(term(i, "subject"))
            i += 1
            while True:
                predicate = predicates.get(toks[i])
                if predicate is None:
                    predicate = predicates[toks[i]] = terms.intern(term(i, "predicate"))
                i += 1
                while True:
                    obj = ids.get(toks[i])
                    if obj is None and kind(toks[i]) in (STRING, INTEGER, DECIMAL):
                        literal, i = self._literal(i)
                        obj = terms.intern(literal)
                    else:
                        if obj is None:
                            obj = ids[toks[i]] = terms.intern(term(i, "object"))
                        i += 1
                    add((subject, predicate, obj))
                    tok = toks[i]
                    i += 1
                    if tok != ",":
                        break
                if tok == ".":
                    break
                if tok != ";":
                    raise self.error(f"expected ';' or '.', got {value(tok)!r}", i - 1)
                if toks[i] == ".":
                    i += 1
                    break
        return triples

    def _directive(self, i: int) -> int:
        """Reader's directive, refusing a relative prefix IRI; a rebound
        prefix clears the caches."""
        declared = len(self.prefixes)
        end = super()._directive(i)
        iri = self.toks[i + 2][1:-1]
        if not is_absolute_iri(iri):
            raise self.error(f"relative IRI not allowed: <{iri}>", i + 2)
        if len(self.prefixes) == declared:
            for cache in (self.iris, self.ids, self.predicates):
                cache.clear()
        return end

    def _iri(self, i: int) -> IRI:
        """Reader's IRI, cached per token: a literal's datatype. _term
        resolves without it, as parse caches the term ids it interns."""
        tok = self.toks[i]
        iri = self.iris.get(tok)
        if iri is None:
            iri = self.iris[tok] = super()._iri(i)
        return iri

    def _term(self, i: int, position: str):
        """The subject, predicate or non-literal object at token i."""
        tok = self.toks[i]
        k = kind(tok)
        if k in (IRIREF, PNAME):
            return super()._iri(i)
        if k == "a":
            if position != "predicate":
                raise self.error("'a' is only valid in predicate position", i)
            return RDF_TYPE
        if k == BLANK:
            if position == "predicate":
                raise self.error("a blank node cannot be a predicate", i)
            return BlankNode(tok[2:])
        if k == VAR:
            raise self.error(f"variable {tok} is not allowed in graph data", i)
        if k in (STRING, INTEGER, DECIMAL):
            raise self.error(f"a literal cannot be a {position}", i)
        if k == "[":
            raise self.error("blank node property lists are not supported", i)
        if k == "{":
            raise self.error("graph data cannot contain rule braces", i)
        article = "an" if position == "object" else "a"
        raise self.error(f"expected {article} {position} term, got {value(tok)!r}", i)


def parse_turtle(text: str, source: str | None = None) -> Graph:
    """Parse Turtle subset text into term ids in a fresh dictionary, and
    decode them into a Graph.

    Raises ParseError with a 1-based line/column on any syntax problem,
    including relative IRIs and variables appearing in data.
    """
    terms = _Terms()
    triples = _TurtleParser(text, source).parse(terms)
    return Graph(map(terms.decode, triples))


def serialize_turtle(graph: Graph) -> str:
    """Render a graph one sorted N-Triples line at a time.

    Each triple is rendered once; sorting the lines gives the canonical
    order (see ``graphnorm.terms``).
    """
    return "".join(sorted([t.ntriples() + "\n" for t in graph.triples]))
