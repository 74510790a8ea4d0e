import logging
import re

import pytest
from hypothesis import example, given, strategies as st

from graphnorm import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    ParseError,
    Rule,
    RuleSet,
    Triple,
    UnsafeRuleError,
    Variable,
    compile_schema,
    parse_rules,
    parse_turtle,
)
from graphnorm.rules import (
    EMPTY_RULESET,
    OWL_INVERSEOF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    _FRAGMENT,
    TriplePattern,
    format_rules,
)
from graphnorm.terms import RDF_TYPE, RDFS_NS, XSD_INTEGER

EX = "http://example.org/"


class TestParsing:
    def test_single_rule(self):
        rs = parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}q> ?x . }} .")
        (rule,) = rs
        assert rule.label == "r1"
        assert rule.body == (TriplePattern(Variable("x"), IRI(EX + "p"), Variable("y")),)
        assert rule.head == (TriplePattern(Variable("y"), IRI(EX + "q"), Variable("x")),)

    def test_prefixes_and_a(self):
        rs = parse_rules(
            f"@prefix ex: <{EX}> .\n"
            "{ ?x ex:p ?y . } => { ?x a ex:C . } .\n"
        )
        (rule,) = rs
        assert rule.head[0].predicate == RDF_TYPE
        assert rule.head[0].object == IRI(EX + "C")

    def test_multiple_patterns_without_trailing_dot(self):
        rs = parse_rules(f"{{ ?s ?p ?o . ?p <{EX}d> ?c }} => {{ ?s a ?c }} .")
        (rule,) = rs
        assert len(rule.body) == 2

    def test_labels_follow_emission_order(self):
        rs = parse_rules(
            f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}q> ?x . }} .\n"
            f"{{ ?x <{EX}r> ?y . }} => {{ ?x <{EX}s> ?y . }} .\n"
        )
        assert [r.label for r in rs] == ["r1", "r2"]

    def test_iff_yields_both_directions(self):
        rs = parse_rules(f"{{ ?x <{EX}p> ?y . }} <=> {{ ?y <{EX}q> ?x . }} .")
        rules = list(rs)
        assert [r.label for r in rules] == ["r1", "r2"]
        assert rules[0].body == rules[1].head
        assert rules[0].head == rules[1].body

    def test_ground_terms_and_literals_in_body(self):
        rs = parse_rules(f'{{ ?x <{EX}status> "active" . }} => {{ ?x a <{EX}Active> . }} .')
        (rule,) = rs
        assert rule.body[0].object.lexical == "active"

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_rules(f"{{ }} => {{ ?x a <{EX}C> . }} .")

    def test_missing_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_rules(f"{{ ?x <{EX}p> ?y . }} {{ ?y <{EX}q> ?x . }} .")


class TestSafety:
    def test_unbound_head_variable(self):
        with pytest.raises(UnsafeRuleError) as exc:
            parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?x <{EX}q> ?z . }} .")
        assert "?z" in str(exc.value)

    def test_blank_node_in_head(self):
        with pytest.raises(UnsafeRuleError):
            parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?x <{EX}q> _:b . }} .")

    def test_blank_node_in_body_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_rules(f"{{ _:b <{EX}p> ?y . }} => {{ ?y <{EX}q> ?y . }} .")

    def test_iff_checks_both_directions(self):
        # Safe left-to-right, unsafe in reverse: ?z appears only on the left.
        with pytest.raises(UnsafeRuleError):
            parse_rules(f"{{ ?x <{EX}p> ?z . }} <=> {{ ?x <{EX}q> ?x . }} .")

    @pytest.mark.parametrize("head, names", [
        ((Variable("x"), IRI(EX + "q"), Variable("z")), "?z"),
        ((Variable("z"), IRI(EX + "q"), Variable("w")), "?w, ?z"),
    ], ids=["one", "two"])
    def test_rule_refuses_an_unbound_head_variable(self, head, names):
        """A rule built in code is refused as a rule file is, when it is
        built: the engine never sees it."""
        with pytest.raises(UnsafeRuleError) as exc:
            Rule((TriplePattern(Variable("x"), IRI(EX + "p"), Variable("y")),),
                 (TriplePattern(*head),))
        assert str(exc.value) == f"head variables not bound in body: {names}"

    @pytest.mark.parametrize("position", ["subject", "predicate", "object"])
    def test_pattern_refuses_a_blank_node(self, position):
        terms = {"subject": Variable("x"), "predicate": IRI(EX + "p"), "object": Variable("y")}
        terms[position] = BlankNode("b")
        with pytest.raises(ValueError):
            TriplePattern(**terms)

    @pytest.mark.parametrize("text, message", [
        (f"{{ ?x <{EX}p> ?y . }} => {{ ?x <{EX}q> ?z . }} .",
         "r.n3:1:36: unsafe rule r1: head variables not bound in body: ?z"),
        (f"{{ ?x <{EX}p> ?z . }} <=> {{ ?x <{EX}q> ?x . }} .",
         "r.n3:1:36: unsafe rule r2: head variables not bound in body: ?z"),
        (f"{{ ?x <{EX}p> ?y }} => {{ ?z <{EX}q> ?w }} .",
         "r.n3:1:34: unsafe rule r1: head variables not bound in body: ?w, ?z"),
        (f"{{ ?x <{EX}p> ?y }} => {{ ?x <{EX}q> _:b }} .",
         "r.n3:1:65: blank node _:b in rule head"),
    ], ids=["forward", "reverse", "two-variables", "blank-head"])
    def test_an_unsafe_rule_is_placed_at_its_arrow_or_blank(self, text, message):
        with pytest.raises(UnsafeRuleError) as exc:
            parse_rules(text, "r.n3")
        assert str(exc.value) == message

    @pytest.mark.parametrize("side", ["body", "head"])
    def test_rule_refuses_an_empty_side(self, side):
        pattern = TriplePattern(Variable("x"), IRI(EX + "p"), Variable("y"))
        sides = {"body": (pattern,), "head": (pattern,), side: ()}
        with pytest.raises(ValueError) as exc:
            Rule(sides["body"], sides["head"])
        assert str(exc.value) == "rules need a non-empty body and head"

    @pytest.mark.parametrize("text, message", [
        (f"{{ {{ ?x <{EX}p> ?y }} }} => {{ ?x a ?y }} .",
         "r.n3:1:3: expected a pattern subject, got '{'"),
        (f"{{ ?x <{EX}p> {{ ?y }} }} => {{ ?x a ?y }} .",
         "r.n3:1:29: expected a pattern object, got '{'"),
    ], ids=["subject", "object"])
    def test_a_brace_inside_a_pattern_is_placed(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_rules(text, "r.n3")
        assert str(exc.value) == message

    def test_ground_head_is_safe(self):
        rs = parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ <{EX}s> a <{EX}Seen> . }} .")
        assert len(rs) == 1


class TestRuleSet:
    def test_deduplication_keeps_first(self):
        text = f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} ."
        rs = parse_rules(text + "\n" + text)
        assert len(rs) == 1

    def test_equality_ignores_order_and_labels(self):
        a = parse_rules(
            f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} .\n"
            f"{{ ?x <{EX}q> ?y . }} => {{ ?x <{EX}p> ?y . }} .\n"
        )
        b = parse_rules(
            f"{{ ?x <{EX}q> ?y . }} => {{ ?x <{EX}p> ?y . }} .\n"
            f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} .\n"
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_union(self):
        a = parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} .")
        b = parse_rules(f"{{ ?x <{EX}q> ?y . }} => {{ ?x <{EX}p> ?y . }} .")
        c = parse_rules(f"{{ ?x <{EX}r> ?y . }} => {{ ?x <{EX}q> ?y . }} .")
        assert len(a | b) == 2
        assert len(a | a) == 1
        # duplicate-free, in first-seen order
        assert (a | b | c).rules == (a | b | c | b | a).rules == a.rules + b.rules + c.rules
        assert ((b | c) | (a | b)).rules == b.rules + c.rules + a.rules
        # an empty operand leaves the other as it is
        ab = a | b
        for union in (EMPTY_RULESET | ab, ab | EMPTY_RULESET):
            assert union == ab and union.rules == ab.rules
        assert (EMPTY_RULESET | EMPTY_RULESET).rules == ()

    def test_refuses_what_is_no_rule(self):
        rule = parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} .").rules[0]
        for items in (["x", 1], [rule, "x"], [rule.body[0]], [rule.body]):
            with pytest.raises(TypeError, match="rule sets hold Rule values"):
                RuleSet(items)

    def test_format_round_trip(self):
        rs = parse_rules(
            f"@prefix ex: <{EX}> .\n"
            "{ ?s ?p ?o . ?p ex:domain ?c . } => { ?s a ?c . } .\n"
            '{ ?x ex:status "on" . } => { ?x a ex:Active . } .\n'
            "{ ?s-1 ex:p ?o- . } => { ?o- ex:q ?s-1 . } .\n"
        )
        assert Variable("o-") in rs.rules[2].head[0].terms()
        assert parse_rules(format_rules(rs)) == rs


# Pattern terms of every kind, and a Python string, which is no term;
# blank nodes, literals and strings are few, so that most drawn rules are
# built and read back, not refused.
_PATTERN_TERMS = st.sampled_from([
    Variable("x"), Variable("y"), Variable("z"), Variable("o-"),
    IRI(EX + "p"), IRI(EX + "q"), RDF_TYPE,
    Literal("1", datatype=XSD_INTEGER), Literal('a"b\n', language="en"),
    BlankNode("b"), "lit",
])
_PATTERN_TRIPLES = st.lists(st.tuples(_PATTERN_TERMS, _PATTERN_TERMS, _PATTERN_TERMS),
                            min_size=1, max_size=3)
# How a drawn side reaches Rule: as a tuple or a list of patterns, or as
# a tuple of the bare term triples, which are no patterns.
_SIDES = st.sampled_from(["tuple", "list", "bare"])


def _side(triples: list, form: str):
    if form == "bare":
        return tuple(triples)
    patterns = [TriplePattern(*t) for t in triples]
    return patterns if form == "list" else tuple(patterns)


@given(_PATTERN_TRIPLES, _PATTERN_TRIPLES, _SIDES)
@example([(Variable("x"), IRI(EX + "p"), Variable("y"))],
         [(Variable("y"), RDF_TYPE, Literal("1", datatype=XSD_INTEGER))], "tuple")
@example([(Variable("x"), IRI(EX + "p"), Variable("y"))],
         [(Variable("y"), RDF_TYPE, Variable("x"))], "list")
@example([(Variable("x"), IRI(EX + "p"), Variable("y"))],
         [(Variable("y"), RDF_TYPE, "lit")], "tuple")
@example([(Variable("x"), IRI(EX + "p"), Variable("y"))],
         [(Variable("y"), RDF_TYPE, Variable("x"))], "bare")
def test_a_rule_value_is_refused_or_reads_back(body, head, form):
    """Every Rule the library builds is one the rule language writes: a
    value that is no term or no pattern is refused with a TypeError, and a
    list of patterns is stored as a tuple."""
    try:
        rule = Rule(_side(body, form), _side(head, form))
    except TypeError:
        assert form == "bare" or "lit" in (term for t in body + head for term in t)
        return
    except (ValueError, UnsafeRuleError):
        return
    assert (type(rule.body), type(rule.head)) == (tuple, tuple)
    rules = RuleSet([rule])
    assert parse_rules(format_rules(rules)) == rules


def _iri(local: str) -> IRI:
    return IRI(EX + local)


# Every construct compile_schema knows, twice each and interleaved, then
# four triples it must not compile: a blank subject, a literal object, and
# rdf:type objects that name predicate constructs.
PINNED_SCHEMA = """\
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
ex:knows a owl:SymmetricProperty .
ex:Cat rdfs:subClassOf ex:Pet .
ex:hasPet rdfs:domain ex:Owner .
ex:partOf a owl:TransitiveProperty .
ex:owns owl:inverseOf ex:ownedBy .
ex:hasPet rdfs:range ex:Pet .
ex:hasCat rdfs:subPropertyOf ex:hasPet .
_:b rdfs:subClassOf ex:C .
ex:marriedTo a owl:SymmetricProperty .
ex:p rdfs:domain "x" .
ex:Pet rdfs:subClassOf ex:Animal .
ex:x rdf:type rdfs:domain .
ex:ancestorOf a owl:TransitiveProperty .
ex:owns rdfs:range ex:Thing .
ex:x rdf:type rdfs:subClassOf .
ex:hasPet rdfs:subPropertyOf ex:owns .
ex:parentOf owl:inverseOf ex:childOf .
ex:owns rdfs:domain ex:Agent .
"""

# format_rules of PINNED_SCHEMA, with ex: and a standing for the full IRIs.
PINNED_RULES = """\
{ ?x a ex:Cat } => { ?x a ex:Pet } .
{ ?x a ex:Pet } => { ?x a ex:Animal } .
{ ?x ex:ancestorOf ?y . ?y ex:ancestorOf ?z } => { ?x ex:ancestorOf ?z } .
{ ?s ex:hasCat ?o } => { ?s ex:hasPet ?o } .
{ ?s ex:hasPet ?o } => { ?s a ex:Owner } .
{ ?s ex:hasPet ?o } => { ?o a ex:Pet } .
{ ?s ex:hasPet ?o } => { ?s ex:owns ?o } .
{ ?s ex:knows ?o } => { ?o ex:knows ?s } .
{ ?s ex:marriedTo ?o } => { ?o ex:marriedTo ?s } .
{ ?s ex:owns ?o } => { ?s a ex:Agent } .
{ ?s ex:owns ?o } => { ?o a ex:Thing } .
{ ?s ex:owns ?o } => { ?o ex:ownedBy ?s } .
{ ?s ex:ownedBy ?o } => { ?o ex:owns ?s } .
{ ?s ex:parentOf ?o } => { ?o ex:childOf ?s } .
{ ?s ex:childOf ?o } => { ?o ex:parentOf ?s } .
{ ?x ex:partOf ?y . ?y ex:partOf ?z } => { ?x ex:partOf ?z } .
"""

PINNED_LABELS = [
    "subClassOf(Cat)", "subClassOf(Pet)", "transitive(ancestorOf)",
    "subPropertyOf(hasCat)", "domain(hasPet)", "range(hasPet)",
    "subPropertyOf(hasPet)", "symmetric(knows)", "symmetric(marriedTo)",
    "domain(owns)", "range(owns)", "inverseOf(owns)", "inverseOf(ownedBy)",
    "inverseOf(parentOf)", "inverseOf(childOf)", "transitive(partOf)",
]

_WARNING = "graphnorm: warning: ignoring unrecognized schema triple: "
PINNED_WARNINGS = [
    f'{_WARNING}<{EX}p> <{RDFS_NS}domain> "x" .',
    f"{_WARNING}<{EX}x> {RDF_TYPE.ntriples()} <{RDFS_NS}domain> .",
    f"{_WARNING}<{EX}x> {RDF_TYPE.ntriples()} <{RDFS_NS}subClassOf> .",
    f"{_WARNING}_:b <{RDFS_NS}subClassOf> <{EX}C> .",
]


class TestCompileSchema:
    def test_domain(self):
        rs = compile_schema(Graph([Triple(_iri("p"), RDFS_DOMAIN, _iri("C"))]))
        (rule,) = rs
        assert rule.label == "domain(p)"
        assert rule.body == (TriplePattern(Variable("s"), _iri("p"), Variable("o")),)
        assert rule.head == (TriplePattern(Variable("s"), RDF_TYPE, _iri("C")),)

    def test_range(self):
        rs = compile_schema(Graph([Triple(_iri("p"), RDFS_RANGE, _iri("C"))]))
        (rule,) = rs
        assert rule.head == (TriplePattern(Variable("o"), RDF_TYPE, _iri("C")),)

    def test_subclass(self):
        rs = compile_schema(Graph([Triple(_iri("A"), RDFS_SUBCLASSOF, _iri("B"))]))
        (rule,) = rs
        assert rule.body == (TriplePattern(Variable("x"), RDF_TYPE, _iri("A")),)
        assert rule.head == (TriplePattern(Variable("x"), RDF_TYPE, _iri("B")),)

    def test_subproperty(self):
        rs = compile_schema(Graph([Triple(_iri("p"), RDFS_SUBPROPERTYOF, _iri("q"))]))
        (rule,) = rs
        assert rule.head == (TriplePattern(Variable("s"), _iri("q"), Variable("o")),)

    def test_inverse_produces_both_directions(self):
        rs = compile_schema(Graph([Triple(_iri("p"), OWL_INVERSEOF, _iri("q"))]))
        heads = {rule.head[0].predicate for rule in rs}
        assert len(rs) == 2
        assert heads == {_iri("p"), _iri("q")}

    def test_symmetric(self):
        rs = compile_schema(Graph([Triple(_iri("p"), RDF_TYPE, OWL_SYMMETRIC)]))
        (rule,) = rs
        assert rule.body == (TriplePattern(Variable("s"), _iri("p"), Variable("o")),)
        assert rule.head == (TriplePattern(Variable("o"), _iri("p"), Variable("s")),)

    def test_transitive(self):
        rs = compile_schema(Graph([Triple(_iri("p"), RDF_TYPE, OWL_TRANSITIVE)]))
        (rule,) = rs
        assert len(rule.body) == 2

    def test_compiled_rules_are_safe(self):
        """One schema triple per fragment entry: each rule it compiles
        binds every head variable in its body."""
        schema = Graph(Triple(_iri("p"), *key) if isinstance(key, tuple)
                       else Triple(_iri("p"), key, _iri("q")) for key in _FRAGMENT)
        rules = compile_schema(schema)
        assert sorted(r.label for r in rules) == [
            "domain(p)", "inverseOf(p)", "inverseOf(q)", "range(p)", "subClassOf(p)",
            "subPropertyOf(p)", "symmetric(p)", "transitive(p)"]
        for rule in rules:
            body, head = ({t for p in side for t in p.terms() if isinstance(t, Variable)}
                          for side in (rule.body, rule.head))
            assert head <= body

    def test_unrecognized_schema_construct_warns(self, caplog):
        schema = Graph([Triple(_iri("p"), IRI(RDFS_NS + "subPropertyOfish"), _iri("q"))])
        with caplog.at_level(logging.WARNING, logger="graphnorm.rules"):
            rs = compile_schema(schema)
        assert rs == EMPTY_RULESET
        assert any("unrecognized schema triple" in r.message for r in caplog.records)

    def test_annotations_are_silent(self, caplog):
        schema = Graph([
            Triple(_iri("p"), IRI(RDFS_NS + "label"), _iri("ignored")),
            Triple(_iri("C"), RDF_TYPE, IRI("http://www.w3.org/2002/07/owl#Class")),
        ])
        with caplog.at_level(logging.WARNING, logger="graphnorm.rules"):
            compile_schema(schema)
        assert not caplog.records

    def test_plain_data_in_schema_is_silent(self, caplog):
        schema = Graph([Triple(_iri("a"), _iri("p"), _iri("b"))])
        with caplog.at_level(logging.WARNING, logger="graphnorm.rules"):
            rs = compile_schema(schema)
        assert rs == EMPTY_RULESET
        assert not caplog.records

    def test_empty_schema(self):
        assert compile_schema(Graph()) == EMPTY_RULESET

    def test_pinned_schema(self, caplog):
        """Rules, their order and labels, and the warnings, in full: the rule
        order follows the schema Graph's canonical iteration."""
        expected = re.sub(r"ex:(\w+)", rf"<{EX}\1>", PINNED_RULES).replace(
            " a ", f" {RDF_TYPE.ntriples()} ")
        with caplog.at_level(logging.WARNING, logger="graphnorm.rules"):
            rs = compile_schema(parse_turtle(PINNED_SCHEMA))
        assert format_rules(rs) == expected
        assert [r.label for r in rs] == PINNED_LABELS
        assert [r.getMessage() for r in caplog.records] == PINNED_WARNINGS
