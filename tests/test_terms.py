import pytest

from graphnorm import IRI, BlankNode, Literal, Triple, Variable
from graphnorm.terms import RDF_TYPE, is_absolute_iri


class TestIRI:
    def test_accepts_absolute(self):
        assert IRI("http://example.org/a").value == "http://example.org/a"
        assert IRI("urn:uuid:1234").ntriples() == "<urn:uuid:1234>"

    @pytest.mark.parametrize("bad", ["relative/path", "/abs/path", "", "no scheme", "#frag"])
    def test_rejects_relative(self, bad):
        with pytest.raises(ValueError):
            IRI(bad)

    @pytest.mark.parametrize(
        "bad", ["http://e.org/a b", "http://e.org/<x>", "http://e.org/a\nb", "http://e.org/\ud800"])
    def test_rejects_forbidden_characters(self, bad):
        with pytest.raises(ValueError):
            IRI(bad)

    def test_is_absolute_iri(self):
        assert is_absolute_iri("mailto:x@example.org")
        assert not is_absolute_iri("example.org/x")


class TestBlankNode:
    def test_label_and_rendering(self):
        assert BlankNode("b1").ntriples() == "_:b1"

    @pytest.mark.parametrize("bad", ["", "-lead", "has space"])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            BlankNode(bad)


class TestLiteral:
    def test_plain(self):
        assert Literal("hello").ntriples() == '"hello"'

    def test_language_tagged(self):
        assert Literal("hello", language="en-GB").ntriples() == '"hello"@en-GB'

    def test_typed(self):
        lit = Literal("12", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert lit.ntriples() == '"12"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_datatype_and_language_are_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype="http://e.org/dt", language="en")

    def test_datatype_must_be_absolute(self):
        with pytest.raises(ValueError):
            Literal("x", datatype="integer")

    def test_bad_language_tag(self):
        with pytest.raises(ValueError):
            Literal("x", language="e n")

    def test_rejects_lone_surrogate(self):
        # no UTF-8 form, so it could not be written or ordered bytewise
        with pytest.raises(ValueError):
            Literal("a\udfffb")

    def test_escaping(self):
        assert Literal('say "hi"\n').ntriples() == '"say \\"hi\\"\\n"'

    def test_exact_syntax_inequality(self):
        # "1" as integer and "01" as integer stay distinct: no value normalization.
        a = Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer")
        b = Literal("01", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert a != b


class TestTriple:
    def test_rendering(self):
        t = Triple(IRI("http://e.org/s"), RDF_TYPE, Literal("x"))
        assert t.ntriples() == '<http://e.org/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "x" .'

    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            Triple(Literal("x"), RDF_TYPE, IRI("http://e.org/o"))

    def test_blank_predicate_rejected(self):
        with pytest.raises(ValueError):
            Triple(IRI("http://e.org/s"), BlankNode("b"), IRI("http://e.org/o"))

    def test_variable_positions_rejected(self):
        with pytest.raises(ValueError):
            Triple(Variable("s"), RDF_TYPE, IRI("http://e.org/o"))
        with pytest.raises(ValueError):
            Triple(IRI("http://e.org/s"), RDF_TYPE, Variable("o"))

    def test_sort_key_is_bytewise_on_rendering(self):
        a = Triple(IRI("http://e.org/a"), IRI("http://e.org/p"), IRI("http://e.org/o"))
        b = Triple(IRI("http://e.org/b"), IRI("http://e.org/p"), IRI("http://e.org/o"))
        assert a.sort_key() < b.sort_key()
        # Same subject: predicate decides; blank nodes ('_') sort after IRIs ('<').
        c = Triple(BlankNode("x"), IRI("http://e.org/p"), IRI("http://e.org/o"))
        assert b.sort_key() < c.sort_key()
