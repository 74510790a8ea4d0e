import pytest

from graphnorm import EMPTY_GRAPH, Graph, IRI, Triple, skolemize
from graphnorm.terms import BlankNode


def t(s: str, p: str, o: str) -> Triple:
    ns = "http://e.org/"
    return Triple(IRI(ns + s), IRI(ns + p), IRI(ns + o))


class TestGraph:
    def test_set_semantics(self):
        g = Graph([t("a", "p", "b"), t("a", "p", "b")])
        assert len(g) == 1
        assert g == Graph([t("a", "p", "b")])
        assert hash(g) == hash(Graph([t("a", "p", "b")]))

    def test_canonical_iteration_order(self):
        g = Graph([t("c", "p", "x"), t("a", "p", "x"), t("b", "p", "x")])
        subjects = [triple.subject.value for triple in g]
        assert subjects == sorted(subjects)

    def test_operators(self):
        g = Graph([t("a", "p", "b"), t("c", "p", "d")])
        h = Graph([t("c", "p", "d"), t("e", "p", "f")])
        assert g | h == Graph([t("a", "p", "b"), t("c", "p", "d"), t("e", "p", "f")])
        assert g - h == Graph([t("a", "p", "b")])
        assert g & h == Graph([t("c", "p", "d")])

    def test_add_discard_are_persistent(self):
        g = EMPTY_GRAPH
        g2 = g.add(t("a", "p", "b"))
        assert len(g) == 0 and len(g2) == 1
        assert len(g2.discard(t("a", "p", "b"))) == 0
        assert len(g2) == 1

    def test_contains_and_bool(self):
        g = Graph([t("a", "p", "b")])
        assert t("a", "p", "b") in g
        assert t("a", "p", "c") not in g
        assert g and not EMPTY_GRAPH

    def test_rejects_non_triples(self):
        with pytest.raises(TypeError):
            Graph(["not a triple"])


class TestSkolemize:
    def test_blank_nodes_become_scoped_iris(self):
        g = Graph([Triple(BlankNode("b1"), IRI("http://e.org/p"), BlankNode("b2"))])
        out = skolemize(g, "http://data.example/set1")
        (triple,) = out
        assert triple.subject == IRI("http://data.example/set1/.well-known/genid/b1")
        assert triple.object == IRI("http://data.example/set1/.well-known/genid/b2")

    def test_same_label_same_iri(self):
        g = Graph([
            Triple(BlankNode("b"), IRI("http://e.org/p"), IRI("http://e.org/x")),
            Triple(BlankNode("b"), IRI("http://e.org/q"), IRI("http://e.org/y")),
        ])
        out = skolemize(g, "http://data.example/s/")
        assert len({triple.subject for triple in out}) == 1

    def test_ground_graph_passes_through(self):
        g = Graph([t("a", "p", "b")])
        assert skolemize(g, "http://data.example/s") == g

    def test_scope_must_be_absolute(self):
        with pytest.raises(ValueError):
            skolemize(EMPTY_GRAPH, "not-absolute")
