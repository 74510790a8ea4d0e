import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphnorm import (
    EMPTY_GRAPH,
    EmptyGraphError,
    Graph,
    IRI,
    NamespaceDecl,
    Triple,
    canonical_ratio,
    closure,
    compute_stats,
    decimal_string,
    parse_rules,
    parse_turtle,
    reduce,
    serialize_counted_closure,
    serialize_turtle,
    StatsReport,
)
from graphnorm.rules import EMPTY_RULESET
from graphnorm.terms import BlankNode, Literal

from support import (all_candidates, minimum_subset, naive_closure, out_links,
                     prefix_prone_triples, random_instance, DATA_NS, EXT_NS, PRED_NS, CLASS_NS)

EX = "http://example.org/"


def t(s: str, p: str, o: str) -> Triple:
    return Triple(IRI(EX + s), IRI(EX + p), IRI(EX + o))


SYM = parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} .")


class TestNamespaceDecl:
    def test_owns(self):
        ns = NamespaceDecl(("http://example.org/", "http://data.example/"))
        assert ns.owns("http://example.org/a")
        assert ns.owns("http://data.example/x/y")
        assert not ns.owns("http://elsewhere.example/a")

    def test_requires_absolute(self):
        with pytest.raises(ValueError):
            NamespaceDecl(("not-absolute",))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            NamespaceDecl(())

    def test_rejects_nested_prefixes(self):
        with pytest.raises(ValueError):
            NamespaceDecl(("http://example.org/", "http://example.org/sub/"))


class TestRedundancy:
    def test_zero_without_rules(self):
        assert compute_stats(Graph([t("a", "p", "b")]), EMPTY_RULESET).redundancy == 0

    def test_half(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "a")])
        assert compute_stats(g, SYM).redundancy == Fraction(1, 2)

    def test_exact_fraction(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "a"), t("a", "q", "b")])
        assert compute_stats(g, SYM).redundancy == Fraction(1, 3)

    def test_empty_graph_is_undefined(self):
        with pytest.raises(EmptyGraphError):
            compute_stats(EMPTY_GRAPH, EMPTY_RULESET)


class TestCountedClosure:
    def test_aux_supports_but_is_not_counted(self):
        data = parse_turtle(f"<{EX}bob> <{EX}knows> <{EX}alice> .")
        aux = parse_turtle(
            f"<{EX}knows> <http://www.w3.org/2000/01/rdf-schema#domain> <{EX}Person> ."
        )
        rules = parse_rules(
            "{ ?s ?p ?o . ?p <http://www.w3.org/2000/01/rdf-schema#domain> ?c . }"
            " => { ?s a ?c . } ."
        )
        closed = parse_turtle(serialize_counted_closure(data, rules, aux))
        assert len(closed) == 2  # the knows triple plus the derived type
        assert not (closed.triples & aux.triples)

    def test_aux_triples_already_published_stay_counted(self):
        shared = t("a", "p", "b")
        g = Graph([shared])
        assert parse_turtle(serialize_counted_closure(g, EMPTY_RULESET, Graph([shared]))) == g


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=10_000))
def test_counted_closure_text_matches_graph_definition(seed):
    """The text rendered from the interned closure is the serialization of
    the Graph-level definition, for aux that overlaps the data, aux that
    does not, and rules that may derive nothing."""
    rng = random.Random(seed)
    graph, rules, universe = random_instance(rng, literals=True, rich=True)
    if rng.random() < 0.25:
        rules = EMPTY_RULESET
    aux = {x for x in graph if rng.random() < 0.3}
    aux.update(rng.sample(all_candidates(universe), rng.randint(0, 4)))
    aux = Graph(aux)
    expected = serialize_turtle(closure(graph | aux, rules).graph - (aux - graph))
    assert serialize_counted_closure(graph, rules, aux) == expected


@given(st.lists(prefix_prone_triples(), max_size=30))
def test_rendering_one_subject_at_a_time_keeps_the_line_order(triples):
    """The interned text is laid out per subject; subjects whose renderings
    are proper prefixes of each other (_:a and _:ab) must still come out in
    the order of the whole lines."""
    graph = Graph(triples)
    assert serialize_counted_closure(graph, EMPTY_RULESET) == serialize_turtle(graph)


class TestOutLinks:
    """With no rules the closure is the graph, so density plus is the
    share of the graph's triples that are out-links."""

    NS = NamespaceDecl((DATA_NS,))

    def density(self, g: Graph) -> Fraction:
        return compute_stats(g, EMPTY_RULESET, namespaces=self.NS).out_link_density_plus

    def test_external_iri_object_is_an_out_link(self):
        g = Graph([Triple(IRI(DATA_NS + "a"), IRI(PRED_NS + "p"), IRI(EXT_NS + "x"))])
        assert self.density(g) == 1

    def test_internal_object_is_not(self):
        g = Graph([Triple(IRI(DATA_NS + "a"), IRI(PRED_NS + "p"), IRI(DATA_NS + "b"))])
        assert self.density(g) == 0

    def test_external_subject_is_not(self):
        g = Graph([Triple(IRI(EXT_NS + "a"), IRI(PRED_NS + "p"), IRI(EXT_NS + "x"))])
        assert self.density(g) == 0

    def test_literals_and_blanks_never_count(self):
        g = Graph([
            Triple(IRI(DATA_NS + "a"), IRI(PRED_NS + "p"), Literal("x")),
            Triple(IRI(DATA_NS + "a"), IRI(PRED_NS + "p"), BlankNode("b")),
            Triple(BlankNode("b"), IRI(PRED_NS + "p"), IRI(EXT_NS + "x")),
        ])
        assert self.density(g) == 0


class TestDensity:
    def test_plus_and_minus_differ(self):
        ns = NamespaceDecl((EX,))
        ext = IRI("http://elsewhere.example/x")
        g = Graph([
            t("a", "p", "b"),
            t("b", "p", "a"),
            Triple(IRI(EX + "a"), IRI(EX + "q"), ext),
        ])
        # closure = the same 3 triples (symmetry closes nothing new);
        # minimization drops one of the symmetric pair.
        report = compute_stats(g, SYM, EMPTY_GRAPH, ns)
        assert report.out_link_density_plus == Fraction(1, 3)
        assert report.out_link_density_minus == Fraction(1, 2)

    def test_empty_input_is_undefined(self):
        with pytest.raises(EmptyGraphError):
            compute_stats(EMPTY_GRAPH, EMPTY_RULESET, EMPTY_GRAPH, NamespaceDecl((EX,)))


class TestComputeStats:
    def test_full_report(self):
        ns = NamespaceDecl((EX,))
        ext = IRI("http://elsewhere.example/x")
        g = Graph([
            t("a", "p", "b"),
            t("b", "p", "a"),
            Triple(IRI(EX + "a"), IRI(EX + "q"), ext),
        ])
        report = compute_stats(g, SYM, namespaces=ns)
        assert report.published_cardinality == 3
        assert report.closure_cardinality == 3
        assert report.minimal_cardinality == 2
        assert report.redundancy == Fraction(1, 3)
        assert report.out_link_density_plus == Fraction(1, 3)
        assert report.out_link_density_minus == Fraction(1, 2)

    def test_densities_omitted_without_namespaces(self):
        report = compute_stats(Graph([t("a", "p", "b")]), EMPTY_RULESET)
        assert report.out_link_density_plus is None
        assert report.out_link_density_minus is None

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            compute_stats(EMPTY_GRAPH, EMPTY_RULESET)

    def test_minimization_emptied_by_aux_rejected_with_namespaces(self):
        shared = t("a", "p", "b")
        with pytest.raises(EmptyGraphError):
            compute_stats(Graph([shared]), EMPTY_RULESET, Graph([shared]),
                          NamespaceDecl((EX,)))

    # ex:p transitive; each graph is written as "s o" pairs of ex:p edges.
    TRANSITIVE = parse_rules(f"{{ ?x <{EX}p> ?y . ?y <{EX}p> ?z . }} => {{ ?x <{EX}p> ?z . }} .")

    @pytest.mark.parametrize("edges, minimal, smallest", [
        ("a b, a c, a d, c a, c d, d c", 4, 4),
        ("a b, a d, a c, d a, d c, c d", 5, 4),  # the same graph, c and d swapped
        ("a b, a c, b a, b c, c a, c b", 4, 3),  # a b, b c, c a
    ])
    def test_minimal_graph_is_irreducible_not_smallest(self, edges, minimal, smallest):
        """Triples are dropped greedily in canonical order: no survivor can
        go, but a smaller subset may have the same closure."""
        g = Graph(t(s, "p", o) for s, o in map(str.split, edges.split(", ")))
        assert compute_stats(g, self.TRANSITIVE).minimal_cardinality == minimal
        kept = reduce(g, self.TRANSITIVE)
        full = closure(g, self.TRANSITIVE).graph
        assert closure(kept, self.TRANSITIVE).graph == full
        for survivor in kept:
            assert closure(kept.discard(survivor), self.TRANSITIVE).graph != full
        assert len(minimum_subset(g, self.TRANSITIVE)) == smallest


class TestCanonicalRatio:
    def test_exact_values_pass_through(self):
        assert canonical_ratio(Fraction(1, 2)) == Fraction(1, 2)
        assert canonical_ratio(Fraction(0)) == 0

    def test_rounding_to_six_places(self):
        assert canonical_ratio(Fraction(1, 3)) == Fraction(333333, 10**6)
        assert canonical_ratio(Fraction(2, 3)) == Fraction(666667, 10**6)

    def test_half_rounds_to_even(self):
        assert canonical_ratio(Fraction(1, 2 * 10**6)) == 0
        assert canonical_ratio(Fraction(3, 2 * 10**6)) == Fraction(2, 10**6)


class TestDecimalString:
    @pytest.mark.parametrize("value,text", [
        (Fraction(0), "0.0"),
        (Fraction(1), "1.0"),
        (Fraction(1, 2), "0.5"),
        (Fraction(1, 4), "0.25"),
        (Fraction(1, 3), "0.333333"),
        (Fraction(2, 3), "0.666667"),
        (Fraction(3, 11), "0.272727"),
        (Fraction(1, 10**6), "0.000001"),
    ])
    def test_rendering(self, value, text):
        assert decimal_string(value) == text

    def test_round_trips_through_fraction(self):
        for num in range(0, 12):
            value = Fraction(num, 12)
            assert canonical_ratio(Fraction(decimal_string(value))) == canonical_ratio(value)


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10_000))
def test_statistic_invariants_hold(seed):
    """The report is the Graph-level definition of each statistic, for aux
    that overlaps the data and aux that does not, with and without
    namespaces: the counted closure from the naive oracle, the minimal
    graph from reduce, out-links from the reference filter."""
    rng = random.Random(seed)
    graph, rules, universe = random_instance(rng, external=True, literals=True, rich=True)
    aux = {x for x in graph if rng.random() < 0.3}
    aux.update(rng.sample(all_candidates(universe), rng.randint(0, 4)))
    aux = Graph(aux)
    closed = Graph(naive_closure(graph | aux, rules)) - (aux - graph)
    minimal = reduce(graph, rules, aux)
    counted_lines = serialize_counted_closure(graph, rules, aux).count("\n")
    ns = NamespaceDecl((DATA_NS, PRED_NS, CLASS_NS))
    for namespaces in (None, ns):
        if namespaces is not None and not minimal:
            with pytest.raises(EmptyGraphError):
                compute_stats(graph, rules, aux, namespaces)
            continue
        report = compute_stats(graph, rules, aux, namespaces)
        plus = minus = None
        if namespaces is not None:
            plus = Fraction(len(out_links(closed, namespaces)), len(closed))
            minus = Fraction(len(out_links(minimal, namespaces)), len(minimal))
        assert report == StatsReport(len(graph), len(closed), len(minimal),
                                     Fraction(1) - Fraction(len(minimal), len(graph)),
                                     plus, minus)
        assert report.closure_cardinality == counted_lines
        assert report.minimal_cardinality <= report.published_cardinality
        assert report.published_cardinality <= report.closure_cardinality
        assert 0 <= report.redundancy <= 1
        if namespaces is not None:
            assert 0 <= report.out_link_density_plus <= 1
            assert 0 <= report.out_link_density_minus <= 1
