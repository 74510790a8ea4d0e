"""Horn rules over triple patterns.

Rules are written in an N3-style syntax::

    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    { ?s ?p ?o . ?p rdfs:domain ?c } => { ?s a ?c } .
    { ?x :links_to ?y } <=> { ?y :linked_from ?x } .

``=>`` yields one rule; ``<=>`` yields the forward and the reversed rule.
A rule value is one this syntax can write, whether parsed or built in
code: TriplePattern holds only IRIs, literals and variables, refusing a
blank node, and Rule holds a tuple of TriplePatterns on each side and
refuses a head variable its body does not bind, so forward application of
a rule to ground facts always produces ground triples, and format_rules
output always reads back.

compile_schema turns a recognized RDFS/OWL fragment (domain, range,
subClassOf, subPropertyOf, inverseOf, symmetric and transitive property
declarations) into the equivalent rules. Anything else in the schema
namespaces is skipped with a warning.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import UnsafeRuleError
from .graph import Graph
from .lex import (
    BLANK,
    DECIMAL,
    INTEGER,
    STRING,
    VAR,
    kind,
    value,
)
from .terms import (
    IRI,
    OWL_NS,
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    BlankNode,
    Literal,
    Term,
    Variable,
    _Frozen,
    _set,
)
from .turtle import _TurtleParser

RDFS_DOMAIN = IRI(RDFS_NS + "domain")
RDFS_RANGE = IRI(RDFS_NS + "range")
RDFS_SUBCLASSOF = IRI(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTYOF = IRI(RDFS_NS + "subPropertyOf")
OWL_INVERSEOF = IRI(OWL_NS + "inverseOf")
OWL_SYMMETRIC = IRI(OWL_NS + "SymmetricProperty")
OWL_TRANSITIVE = IRI(OWL_NS + "TransitiveProperty")
OWL_IMPORTS = IRI(OWL_NS + "imports")

# Declarations and annotations that carry no rule content; skipping them
# silently keeps the warning channel for genuinely unhandled constructs.
_SILENT_PREDICATES = {
    IRI(RDFS_NS + "label"),
    IRI(RDFS_NS + "comment"),
    IRI(RDFS_NS + "seeAlso"),
    IRI(RDFS_NS + "isDefinedBy"),
    OWL_IMPORTS,
}
_SILENT_TYPES = {
    IRI(RDFS_NS + "Class"),
    IRI(RDF_NS + "Property"),
    IRI(OWL_NS + "Class"),
    IRI(OWL_NS + "Ontology"),
    IRI(OWL_NS + "ObjectProperty"),
    IRI(OWL_NS + "DatatypeProperty"),
    IRI(OWL_NS + "AnnotationProperty"),
}


class TriplePattern(_Frozen):
    __slots__ = _fields = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term) -> None:
        terms = (subject, predicate, object)
        if any(isinstance(term, BlankNode) for term in terms):
            raise ValueError("a rule pattern cannot hold a blank node")
        for term in terms:
            if not isinstance(term, (IRI, Literal, Variable)):
                raise TypeError(f"rule patterns hold IRI, Literal or Variable values, got {term!r}")
        if isinstance(subject, Literal):
            raise ValueError("a literal cannot be a pattern subject")
        if not isinstance(predicate, (IRI, Variable)):
            raise ValueError("a pattern predicate must be an IRI or a variable")
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)
        _set(self, "_hash", hash(terms))

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def text(self) -> str:
        return " ".join(
            t.text() if isinstance(t, Variable) else t.ntriples() for t in self.terms()
        )


class Rule(_Frozen):
    __slots__ = _fields = ("body", "head", "label")

    def __init__(self, body: Iterable[TriplePattern], head: Iterable[TriplePattern],
                 label: str | None = None) -> None:
        body, head = tuple(body), tuple(head)
        for pattern in body + head:
            if not isinstance(pattern, TriplePattern):
                raise TypeError(f"rules hold TriplePattern values, got {pattern!r}")
        if not body or not head:
            raise ValueError("rules need a non-empty body and head")
        bound = {t for p in body for t in p.terms()}
        unbound = {t for p in head for t in p.terms() if isinstance(t, Variable)} - bound
        if unbound:
            names = ", ".join(sorted(v.text() for v in unbound))
            raise UnsafeRuleError(f"head variables not bound in body: {names}")
        _set(self, "body", body)
        _set(self, "head", head)
        _set(self, "label", label)
        _set(self, "_hash", hash((body, head)))

    def _key(self) -> tuple:
        return (self.body, self.head)  # the label is not part of a rule's identity

    def text(self) -> str:
        body = " . ".join(p.text() for p in self.body)
        head = " . ".join(p.text() for p in self.head)
        return f"{{ {body} }} => {{ {head} }} ."


class RuleSet(_Frozen):
    """An ordered, duplicate-free collection of rules. Two rule sets are
    equal when they hold the same rules, in whatever order."""

    __slots__ = _fields = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()):
        unique = dict.fromkeys(rules)
        for rule in unique:
            if not isinstance(rule, Rule):
                raise TypeError(f"rule sets hold Rule values, got {rule!r}")
        _set(self, "rules", tuple(unique))
        _set(self, "_hash", hash(frozenset(unique)))

    def _key(self) -> frozenset[Rule]:
        return frozenset(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __or__(self, other: "RuleSet") -> "RuleSet":
        """The rules of both, in first-seen order."""
        return RuleSet(self.rules + other.rules)

    def __repr__(self) -> str:
        return f"RuleSet({len(self.rules)} rules)"


EMPTY_RULESET = RuleSet()


class _RuleParser(_TurtleParser):
    """Reads a pattern term as the data parser reads a term, except for
    variables and blank nodes."""

    def parse_rules(self) -> RuleSet:
        toks = self.toks
        rules: list[Rule] = []
        i = 0
        while toks[i]:
            tok = toks[i]
            if tok[0] == "@":
                i = self._directive(i)
                continue
            if tok != "{":
                raise self.error(f"expected '{{' to open a rule body, got {value(tok)!r}", i)
            body, i = self._pattern_block(i, "body")
            arrow = i
            if toks[arrow] not in ("=>", "<=>"):
                raise self.error(f"expected '=>' or '<=>', got {value(toks[arrow])!r}", arrow)
            head, i = self._pattern_block(i + 1, "head")
            self.want(i, ".", "'.'")
            self._emit(rules, body, head, arrow)
            if toks[arrow] == "<=>":
                self._emit(rules, head, body, arrow)
            i += 1
        return RuleSet(rules)

    def _emit(self, rules, body, head, arrow: int) -> None:
        label = f"r{len(rules) + 1}"
        try:
            rules.append(Rule(body, head, label))
        except UnsafeRuleError as exc:
            raise self._unsafe(f"unsafe rule {label}: {exc}", arrow) from None

    def _pattern_block(self, i: int, side: str) -> tuple[list[TriplePattern], int]:
        toks = self.toks
        self.want(i, "{", "'{'")
        i += 1
        patterns: list[TriplePattern] = []
        while toks[i] != "}":
            s = self._pattern_term(i, "subject", side)
            p = self._pattern_term(i + 1, "predicate", side)
            o, i = self._pattern_object(i + 2, side)
            patterns.append(TriplePattern(s, p, o))
            if toks[i] == ".":
                i += 1
        if not patterns:
            raise self.error(f"a rule {side} needs at least one pattern", i + 1)
        return patterns, i + 1

    def _pattern_object(self, i: int, side: str) -> tuple[Term, int]:
        if kind(self.toks[i]) in (STRING, INTEGER, DECIMAL):
            return self._literal(i)
        return self._pattern_term(i, "object", side), i + 1

    def _pattern_term(self, i: int, position: str, side: str) -> Term:
        """A variable, or the data term at token i; no blank node or brace."""
        tok = self.toks[i]
        k = kind(tok)
        if k == VAR:
            return Variable(tok[1:])
        if k == BLANK:
            if side == "head":
                raise self._unsafe(f"blank node {tok} in rule head", i)
            raise self.error("blank nodes are not allowed in rule patterns", i)
        if k == "{":
            raise self.error(f"expected a pattern {position}, got '{{'", i)
        return self._term(i, position)

    def _unsafe(self, message: str, k: int) -> UnsafeRuleError:
        """An UnsafeRuleError placed at token k as a ParseError is placed."""
        return UnsafeRuleError(str(self.error(message, k)))


def parse_rules(text: str, source: str | None = None) -> RuleSet:
    """Parse rule text; raises ParseError or UnsafeRuleError, either placed
    at ``source:line:col``. Names follow the patterns in ``graphnorm.terms``:
    a variable is '?', a letter or '_', then letters, digits, '_' or '-'."""
    return _RuleParser(text, source).parse_rules()


def format_rules(ruleset: RuleSet) -> str:
    """Render rules one per line; parse_rules reads the output back."""
    return "".join(rule.text() + "\n" for rule in ruleset)


def _local(iri: IRI) -> str:
    value = iri.value
    for sep in ("#", "/"):
        if sep in value:
            value = value.rsplit(sep, 1)[1] or value
    return value or iri.value


_S, _O, _X, _Y, _Z = (Variable(n) for n in "soxyz")
_T = TriplePattern

# The RDFS/OWL fragment compile_schema recognizes. A schema triple (s, p, o)
# with IRIs s and o is looked up by (rdf:type, o) when p is rdf:type, else by
# p; its entry gives the rules over s and o as (label, named term, body
# atoms, head atom).
_FRAGMENT: dict[IRI | tuple[IRI, IRI], Callable[[IRI, IRI], tuple]] = {
    RDFS_DOMAIN: lambda s, o: (("domain", s, (_T(_S, s, _O),), _T(_S, RDF_TYPE, o)),),
    RDFS_RANGE: lambda s, o: (("range", s, (_T(_S, s, _O),), _T(_O, RDF_TYPE, o)),),
    RDFS_SUBCLASSOF: lambda s, o: (
        ("subClassOf", s, (_T(_X, RDF_TYPE, s),), _T(_X, RDF_TYPE, o)),),
    RDFS_SUBPROPERTYOF: lambda s, o: (("subPropertyOf", s, (_T(_S, s, _O),), _T(_S, o, _O)),),
    OWL_INVERSEOF: lambda s, o: (("inverseOf", s, (_T(_S, s, _O),), _T(_O, o, _S)),
                                 ("inverseOf", o, (_T(_S, o, _O),), _T(_O, s, _S))),
    (RDF_TYPE, OWL_SYMMETRIC): lambda s, o: (("symmetric", s, (_T(_S, s, _O),), _T(_O, s, _S)),),
    (RDF_TYPE, OWL_TRANSITIVE): lambda s, o: (
        ("transitive", s, (_T(_X, s, _Y), _T(_Y, s, _Z)), _T(_X, s, _Z)),),
}


def compile_schema(schema: Graph) -> RuleSet:
    """Compile recognized RDFS/OWL schema triples into rules.

    Unrecognized constructs in the rdf/rdfs/owl namespaces are skipped with
    a warning; triples outside those namespaces are ignored silently.
    """
    rules: list[Rule] = []
    for t in schema:
        s, p, o = t.subject, t.predicate, t.object
        entry = _FRAGMENT.get((p, o) if p == RDF_TYPE else p)
        if entry is not None and isinstance(s, IRI) and isinstance(o, IRI):
            for label, named, body, head in entry(s, o):
                rules.append(Rule(body, (head,), f"{label}({_local(named)})"))
            continue
        if p in _SILENT_PREDICATES:
            continue
        if p == RDF_TYPE and o in _SILENT_TYPES:
            continue
        schema_ns = (RDFS_NS, OWL_NS)
        if p.value.startswith(schema_ns) or (
            p == RDF_TYPE and isinstance(o, IRI) and o.value.startswith(schema_ns)
        ):
            # logging costs every process several milliseconds to import;
            # only a schema that needs the warning pays for it.
            import logging

            logging.getLogger(__name__).warning(
                "graphnorm: warning: ignoring unrecognized schema triple: %s", t.ntriples())
    return RuleSet(rules)
