import pytest
from hypothesis import given, strategies as st

from graphnorm import IRI, BlankNode, Literal, Triple, Variable
from graphnorm.terms import RDF_TYPE, XSD_INTEGER, is_absolute_iri
from support import sort_key


class TestIRI:
    def test_accepts_absolute(self):
        assert IRI("http://example.org/a").value == "http://example.org/a"
        assert IRI("urn:uuid:1234").ntriples() == "<urn:uuid:1234>"

    @pytest.mark.parametrize("bad", ["relative/path", "/abs/path", "", "no scheme", "#frag"])
    def test_rejects_relative(self, bad):
        with pytest.raises(ValueError):
            IRI(bad)

    @pytest.mark.parametrize("bad", [
        "http://e.org/a b", "http://e.org/<x>", "http://e.org/a\nb", "http://e.org/\ud800",
        "http://e.org/a\udfffb", "http://e.org/\u00e9\ud800", "http://e.org/\u65e5\udc00/x",
        "http://e.org/\u00e9 x",
    ])
    def test_rejects_forbidden_characters(self, bad):
        with pytest.raises(ValueError) as raised:
            IRI(bad)
        assert str(raised.value) == f"IRI contains a forbidden character: {bad!r}"

    def test_accepts_characters_beyond_ascii(self):
        assert IRI("http://e.org/\u00e9/\u65e5\U0001f600").value == (
            "http://e.org/\u00e9/\u65e5\U0001f600")

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

    @pytest.mark.parametrize("bad", ["a\udfffb", "\ud800", "\u00e9\ud800", "\u65e5\udc00\u8a9e"])
    def test_a_lone_surrogate_is_refused_after_any_text(self, bad):
        with pytest.raises(ValueError) as raised:
            Literal(bad)
        assert str(raised.value) == f"literal contains a lone surrogate: {bad!r}"

    def test_accepts_characters_beyond_ascii(self):
        assert Literal("\u00e9\u65e5\U0001f600").lexical == "\u00e9\u65e5\U0001f600"

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
        assert sort_key(a) < sort_key(b)
        # Same subject: predicate decides; blank nodes ('_') sort after IRIs ('<').
        c = Triple(BlankNode("x"), IRI("http://e.org/p"), IRI("http://e.org/o"))
        assert sort_key(b) < sort_key(c)


# A three-letter alphabet makes equal values drawn independently common.
TEXT = st.text(alphabet="ab1", min_size=1, max_size=3)
IRIS = st.builds(lambda s: IRI("urn:" + s), TEXT)
BLANKS = st.builds(BlankNode, TEXT)
LITERALS = st.one_of(
    st.builds(Literal, TEXT),
    st.builds(lambda s, lang: Literal(s, language=lang), TEXT, st.sampled_from(["en", "en-GB"])),
    st.builds(lambda s, dt: Literal(s, datatype=dt), TEXT, st.sampled_from([XSD_INTEGER, "urn:a"])),
)
GROUND_TERMS = st.one_of(IRIS, BLANKS, LITERALS)
TRIPLES = st.builds(Triple, st.one_of(IRIS, BLANKS), IRIS, GROUND_TERMS)


def kind_and_fields(term):
    if isinstance(term, IRI):
        return ("IRI", term.value)
    if isinstance(term, BlankNode):
        return ("BlankNode", term.label)
    if isinstance(term, Literal):
        return ("Literal", term.lexical, term.datatype, term.language)
    return ("Triple", *(kind_and_fields(t) for t in (term.subject, term.predicate, term.object)))


def dataclass_repr(term):
    if isinstance(term, IRI):
        return f"IRI(value={term.value!r})"
    if isinstance(term, BlankNode):
        return f"BlankNode(label={term.label!r})"
    if isinstance(term, Literal):
        return (f"Literal(lexical={term.lexical!r}, datatype={term.datatype!r}, "
                f"language={term.language!r})")
    return (f"Triple(subject={dataclass_repr(term.subject)}, "
            f"predicate={dataclass_repr(term.predicate)}, object={dataclass_repr(term.object)})")


class TestValueSemantics:
    @given(st.one_of(GROUND_TERMS, TRIPLES), st.one_of(GROUND_TERMS, TRIPLES))
    def test_equal_exactly_when_kind_and_fields_agree(self, a, b):
        same = kind_and_fields(a) == kind_and_fields(b)
        assert (a == b) is same
        assert (a != b) is not same
        if same:
            assert hash(a) == hash(b)

    @given(TEXT)
    def test_kinds_built_from_the_same_text_differ(self, text):
        terms = [
            IRI("urn:" + text), Literal("urn:" + text),
            BlankNode(text), Literal(text),
            Literal(text, language="en"), Literal(text, datatype=XSD_INTEGER),
        ]
        for i, a in enumerate(terms):
            for j, b in enumerate(terms):
                assert (a == b) is (i == j)

    @given(st.one_of(GROUND_TERMS, TRIPLES))
    def test_fields_cannot_be_assigned_or_added(self, value):
        field = kind_and_fields(value)[0]
        for name in {"IRI": ("value",), "BlankNode": ("label",),
                     "Literal": ("lexical", "datatype", "language"),
                     "Triple": ("subject", "predicate", "object")}[field] + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    @given(st.one_of(GROUND_TERMS, TRIPLES))
    def test_repr_has_the_dataclass_form(self, value):
        assert repr(value) == dataclass_repr(value)

    def test_variable_value_semantics(self):
        assert Variable("x") == Variable("x") and hash(Variable("x")) == hash(Variable("x"))
        assert Variable("x") != Variable("y")
        assert repr(Variable("x")) == "Variable(name='x')"
        with pytest.raises(AttributeError):
            Variable("x").name = "y"
