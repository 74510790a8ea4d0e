import random
import re
import string
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from graphnorm import Graph, IRI, Literal, ParseError, Triple, Variable, parse_turtle, serialize_turtle
from graphnorm import lex
from graphnorm.lex import tokenize
from graphnorm.terms import (RDF_NS, BlankNode, RDF_TYPE, XSD_DECIMAL, XSD_INTEGER, XSD_NS,
                             _BLANK_LABEL, _LANG_TAG, _VARIABLE_NAME, _Terms)
from graphnorm.turtle import _TurtleParser
from support import (CLASS_NS, DATA_NS, EXT_NS, FUZZ_TOKENS, PRED_NS, prefix_prone_triples,
                     random_instance, sort_key)

EX = "http://example.org/"


def one(text: str) -> Triple:
    (triple,) = parse_turtle(text)
    return triple


class TestBasics:
    def test_full_iris(self):
        t = one("<http://e.org/s> <http://e.org/p> <http://e.org/o> .")
        assert t == Triple(IRI("http://e.org/s"), IRI("http://e.org/p"), IRI("http://e.org/o"))

    def test_prefixed_names(self):
        g = parse_turtle(f"@prefix ex: <{EX}> . ex:s ex:p ex:o .")
        assert Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o")) in g

    def test_redeclared_prefix_last_wins(self):
        g = parse_turtle(
            "@prefix ex: <http://one.org/> .\n"
            "ex:a ex:p ex:b .\n"
            "@prefix ex: <http://two.org/> .\n"
            "ex:a ex:p ex:b .\n"
        )
        subjects = {t.subject.value for t in g}
        assert subjects == {"http://one.org/a", "http://two.org/a"}

    def test_a_keyword(self):
        t = one(f"<{EX}s> a <{EX}C> .")
        assert t.predicate == RDF_TYPE

    def test_semicolon_and_comma(self):
        g = parse_turtle(
            f"@prefix ex: <{EX}> .\n"
            "ex:s ex:p ex:a, ex:b ;\n"
            "     ex:q ex:c .\n"
        )
        assert len(g) == 3

    def test_trailing_semicolon_before_dot(self):
        g = parse_turtle(f"@prefix ex: <{EX}> . ex:s ex:p ex:o ; .")
        assert len(g) == 1

    def test_blank_nodes(self):
        t = one(f"_:x <{EX}p> _:y .")
        assert t.subject == BlankNode("x") and t.object == BlankNode("y")

    def test_comments_ignored(self):
        g = parse_turtle(f"# leading\n<{EX}s> <{EX}p> <{EX}o> . # trailing\n")
        assert len(g) == 1


class TestLiterals:
    def test_plain_string(self):
        assert one(f'<{EX}s> <{EX}p> "v" .').object == Literal("v")

    def test_language_tag(self):
        assert one(f'<{EX}s> <{EX}p> "v"@en-GB .').object == Literal("v", language="en-GB")

    def test_datatype(self):
        t = one(f'<{EX}s> <{EX}p> "1"^^<{XSD_INTEGER}> .')
        assert t.object == Literal("1", datatype=XSD_INTEGER)

    def test_datatype_prefixed(self):
        t = one(
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            f'<{EX}s> <{EX}p> "1"^^xsd:integer .'
        )
        assert t.object == Literal("1", datatype=XSD_INTEGER)

    def test_bare_integer(self):
        assert one(f"<{EX}s> <{EX}p> 42 .").object == Literal("42", datatype=XSD_INTEGER)

    def test_bare_negative_integer(self):
        assert one(f"<{EX}s> <{EX}p> -7 .").object == Literal("-7", datatype=XSD_INTEGER)

    def test_bare_decimal(self):
        assert one(f"<{EX}s> <{EX}p> 0.25 .").object == Literal("0.25", datatype=XSD_DECIMAL)

    def test_string_escapes(self):
        t = one(f'<{EX}s> <{EX}p> "a\\"b\\n\\u0041" .')
        assert t.object == Literal('a"b\nA')

    def test_rebound_datatype_prefix_reads_the_new_datatype(self):
        g = parse_turtle(f'@prefix dt: <{EX}a/> .\n<{EX}s> <{EX}p> "1"^^dt:t .\n'
                         f'@prefix dt: <{EX}b/> .\n<{EX}s> <{EX}p> "1"^^dt:t .\n')
        assert {x.object for x in g} == {Literal("1", datatype=f"{EX}a/t"),
                                         Literal("1", datatype=f"{EX}b/t")}


class TestErrors:
    def expect_error(self, text: str, fragment: str, line: int | None = None):
        with pytest.raises(ParseError) as exc:
            parse_turtle(text, source="in.ttl")
        assert fragment in str(exc.value)
        assert exc.value.source == "in.ttl"
        if line is not None:
            assert exc.value.line == line

    def test_relative_iri(self):
        self.expect_error("<s> <http://e.org/p> <http://e.org/o> .", "relative", line=1)

    def test_undeclared_prefix(self):
        self.expect_error("ex:s ex:p ex:o .", "undeclared prefix 'ex:'")

    def test_variable_in_data(self):
        self.expect_error(f"?s <{EX}p> <{EX}o> .", "variable ?s is not allowed in graph data")

    def test_literal_subject(self):
        self.expect_error(f'"v" <{EX}p> <{EX}o> .', "literal")

    def test_literal_predicate(self):
        self.expect_error(f'<{EX}s> "p" <{EX}o> .', "literal")

    def test_blank_predicate(self):
        self.expect_error(f"<{EX}s> _:p <{EX}o> .", "predicate")

    def test_missing_dot(self):
        self.expect_error(f"<{EX}s> <{EX}p> <{EX}o>", "expected")

    def test_unterminated_string(self):
        self.expect_error(f'<{EX}s> <{EX}p> "open .', "unterminated")

    def test_unterminated_iri(self):
        self.expect_error("<http://e.org/unclosed", "unterminated")

    def test_base_directive_rejected(self):
        self.expect_error(f"@base <{EX}> .", "@base")

    def test_anonymous_bracket_rejected(self):
        self.expect_error(f"[] <{EX}p> <{EX}o> .", "property lists are not supported")

    def test_graph_braces_rejected(self):
        self.expect_error(f"{{ <{EX}s> <{EX}p> <{EX}o> . }}", "braces")

    def test_error_position_is_precise(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("\n\n  bad:s <http://e.org/p> <http://e.org/o> .")
        assert exc.value.line == 3
        assert exc.value.column == 3


S_P = "<http://e.org/s> <http://e.org/p> "

# Each rejected input with its exact message, line and column.
POSITIONED_ERRORS = [
    # inside <...>: the first character not allowed decides
    ("<http://e.org/a{b> <http://e.org/p> <http://e.org/o> .",
     "forbidden character '{' in IRI reference", 1, 16),
    ('<http://e.org/s> <http://e.org/a"b> <http://e.org/o> .',
     "forbidden character '\"' in IRI reference", 1, 33),
    (S_P + "<http://e.org/a b> .", "forbidden character ' ' in IRI reference", 1, 50),
    ("\n  <http://e.org/a|b> <http://e.org/p> <http://e.org/o> .",
     "forbidden character '|' in IRI reference", 2, 18),
    (S_P + "<http://e.org/a\\u0041> .", "forbidden character '\\\\' in IRI reference", 1, 50),
    (S_P + "<http://e.org/a\nb> .", "unterminated IRI reference", 1, 35),
    (S_P + "<http://e.org/o", "unterminated IRI reference", 1, 35),
    (S_P + "<", "unterminated IRI reference", 1, 35),
    ("<=> <http://e.org/p> <http://e.org/o> .", "expected a subject term, got '<=>'", 1, 1),
    (S_P + "<http://e.org/a\tb> .",
     "IRI contains a forbidden character: 'http://e.org/a\\tb'", 1, 35),
    # signs and digits that start no number
    (S_P + "+.x .", "unexpected character '+'", 1, 35),
    (S_P + "-. .", "unexpected character '-'", 1, 35),
    (S_P + "\u00b2 .", "unexpected character '\u00b2'", 1, 35),
    (S_P + "<http://e.org/o> .\u00b2", "unexpected character '\u00b2'", 1, 53),
    # escapes that name no Unicode scalar value
    (S_P + '"\\uD800" .', "\\uD800 is not a Unicode scalar value", 1, 36),
    (S_P + '"\\U00110000" .', "\\U00110000 is not a Unicode scalar value", 1, 36),
    # an unknown escape is quoted, so a backslash before a newline stays on one line
    (S_P + '"a\\q" .', "unknown escape sequence '\\\\q'", 1, 37),
    (S_P + '"a\\\nb" .', "unknown escape sequence '\\\\\\n'", 1, 37),
    # words joined by dots are matched as one run, then reported token by token
    (S_P + "a.b.c .", "unexpected token 'b'", 1, 37),
    (S_P + "a.-a.a .", "unexpected character '-'", 1, 37),
    (S_P + "a.5a.b .", "unexpected token 'b'", 1, 40),
    ("\n" + S_P + "x_1.a-b..c .", "unexpected token 'x_1'", 2, 35),
    ("<http://e.org/s> a.a.a <http://e.org/o> .", "expected an object term, got '.'", 1, 19),
    # escapes cut short or malformed
    (S_P + '"x\\uZZZZ" .', "invalid \\u escape", 1, 37),
    (S_P + '"x\\', "unterminated escape sequence", 1, 37),
    # prefix declarations
    ("@prefix ex:y <http://e.org/> .", "prefix declarations take a bare 'name:' form", 1, 9),
    ("@prefix e: <rel/> .", "relative IRI not allowed: <rel/>", 1, 12),
    # literals
    (S_P + '"x"^^"y" .', "expected a datatype IRI after '^^'", 1, 40),
    (S_P + '"x\ud800" .', "literal contains a lone surrogate: 'x\\ud800'", 1, 35),
]


@pytest.mark.parametrize("text, message, line, col", POSITIONED_ERRORS)
def test_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_turtle(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, col)


def test_a_dotted_run_before_a_colon_is_a_prefix():
    graph = parse_turtle(f"@prefix a.b: <{EX}> . a.b:s a.b:p a.b:o.a.b .")
    assert list(graph) == [Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o.a.b"))]


_NAMED_TERMS = {"?": Variable, "_:": BlankNode, "@": lambda tag: Literal("x", language=tag)}


@given(st.sampled_from(sorted(_NAMED_TERMS)), st.text("aZ_09-.:\u00e9", max_size=6))
@example("?", "o-")
@example("@", "en-GB-1")
def test_the_lexer_takes_a_name_whole_exactly_when_its_term_accepts_it(sigil, name):
    """'?name', '_:label' and '@tag' are one token exactly when Variable,
    BlankNode and Literal(language=...) accept the name."""
    try:
        whole = tokenize(sigil + name) == [sigil + name, ""]
    except ParseError:
        whole = False
    try:
        _NAMED_TERMS[sigil](name)
        accepted = True
    except ValueError:
        accepted = False
    assert whole == accepted


# _TOKEN as it was before the prefixed-name alternatives moved to the front,
# kept as the reference the reordered pattern must agree with.
_REFERENCE_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*("
    + "|".join([
        "<=>", "<" + lex._IRI_BODY + ">", lex._STRING_HEAD + '"', "@" + _LANG_TAG, r"\^\^",
        "=>", r"\?" + _VARIABLE_NAME, "_:" + _BLANK_LABEL, "_:",
        r"[+-]?(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)", r"[.;,{}\[\]]",
        r"[A-Za-z_][A-Za-z0-9_\-]*\.[0-9.\-]*[A-Za-z_][A-Za-z0-9_.\-]*(?![A-Za-z0-9_.\-:])",
        r"(?:[A-Za-z_][A-Za-z0-9_.\-]*)?:(?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?",
        r"[A-Za-z_][A-Za-z0-9_\-]*", r"(?s:.)", r"\Z",
    ])
    + ")"
)
_LEX_PIECES = st.one_of(
    st.text('_:.<>="@^?#-+' + string.ascii_letters + string.digits + " \t\r\n", max_size=4),
    st.sampled_from(FUZZ_TOKENS),
)


@given(st.lists(_LEX_PIECES, max_size=30).map("".join))
@example("_:a_:b ex:a.b.c _:.a.b: a.b:c :_ _a:b")
def test_the_reordered_token_pattern_splits_text_as_the_reference_does(text):
    assert lex._TOKEN.findall(text) == _REFERENCE_TOKEN.findall(text)


class TestSerialization:
    def test_canonical_lines(self):
        g = parse_turtle(
            f"@prefix ex: <{EX}> .\n"
            "ex:b ex:p ex:o .\n"
            "ex:a ex:p ex:o .\n"
        )
        assert serialize_turtle(g) == (
            f"<{EX}a> <{EX}p> <{EX}o> .\n"
            f"<{EX}b> <{EX}p> <{EX}o> .\n"
        )

    def test_empty_graph(self):
        assert serialize_turtle(Graph()) == ""

    def test_round_trip(self):
        text = (
            f"@prefix ex: <{EX}> .\n"
            'ex:s ex:p "v"@en ;\n'
            "     ex:q 12 ;\n"
            "     a ex:C .\n"
            "_:b ex:r 0.5 .\n"
        )
        g = parse_turtle(text)
        assert parse_turtle(serialize_turtle(g)) == g


# Term strategies are built once, here, not inside a composite on every
# draw: rebuilding them per triple made generation slow enough to fail the
# too_slow health check on a busy host.
_IRIS = st.builds(
    lambda s: IRI("http://t.org/" + s),
    st.text(alphabet="abcdefg0123456789", min_size=1, max_size=6),
)
# Labels [A-Za-z0-9][A-Za-z0-9_]{0,5}, drawn without a regex strategy,
# whose generation was slow enough to fail the too_slow health check.
_ALNUM = string.ascii_letters + string.digits
_BLANKS = st.builds(
    lambda first, rest: BlankNode(first + rest),
    st.sampled_from(_ALNUM),
    st.text(alphabet=_ALNUM + "_", max_size=5),
)
_LITERALS = st.one_of(
    st.builds(Literal, st.text(max_size=12)),
    st.builds(lambda s: Literal(s, language="en"), st.text(max_size=8)),
    st.builds(lambda s: Literal(s, datatype=XSD_INTEGER), st.text(max_size=8)),
)
_GROUND_TRIPLES = st.builds(
    Triple, st.one_of(_IRIS, _BLANKS), _IRIS, st.one_of(_IRIS, _BLANKS, _LITERALS))


@given(st.lists(_GROUND_TRIPLES, max_size=20))
def test_serialize_parse_round_trip_any_graph(triples):
    g = Graph(triples)
    assert parse_turtle(serialize_turtle(g)) == g


@given(st.lists(_GROUND_TRIPLES, max_size=20))
def test_serialization_is_deterministic(triples):
    assert serialize_turtle(Graph(triples)) == serialize_turtle(Graph(reversed(triples)))


@given(st.lists(prefix_prone_triples(), max_size=30))
def test_canonical_order_is_sort_key_order(triples):
    expected = sorted(set(triples), key=sort_key)
    graph = Graph(triples)
    assert list(graph) == expected
    assert serialize_turtle(graph) == "".join(t.ntriples() + "\n" for t in expected)



# ---------------------------------------------------------------- term ids

_NS_A, _NS_B = "http://a.example/", "http://b.example/"
_NODES = [IRI(ns + name) for ns in (_NS_A, _NS_B) for name in ("s", "o")] + [
    BlankNode("x"), BlankNode("y")]
_PREDICATES = [IRI(_NS_A + "p"), IRI(_NS_B + "p"), RDF_TYPE]
_OBJECTS = _NODES + [Literal("1", datatype=XSD_INTEGER), Literal("2", datatype=XSD_INTEGER),
                     Literal("1"), Literal("1", language="en")]


def _spell(term, bound: str, rng: random.Random) -> str:
    """One of the ways to write term while the prefix ex: is bound to the
    namespace bound: prefixed or full IRIs, 'a', bare or typed integers."""
    if term == RDF_TYPE:
        return rng.choice(["a", term.ntriples()])
    if isinstance(term, IRI) and term.value.startswith(bound) and rng.random() < 0.6:
        return "ex:" + term.value[len(bound):]
    if isinstance(term, Literal) and term.datatype == XSD_INTEGER:
        return rng.choice([term.lexical, f'"{term.lexical}"^^xsd:integer', term.ntriples()])
    return term.ntriples()


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32))
def test_parsed_ids_decode_to_the_parsed_graph(seed):
    """Each term gets one id however it is spelled, and a rebound prefix
    resolves afresh: the parser's id triples decode to parse_turtle's
    Graph, which is the drawn one, and there are as many as it has."""
    rng = random.Random(seed)
    bound = rng.choice([_NS_A, _NS_B])
    lines = [f"@prefix xsd: <{XSD_NS}> .", f"@prefix ex: <{bound}> ."]
    expected = set()
    for _ in range(rng.randint(1, 30)):
        if rng.random() < 0.15:
            bound = rng.choice([_NS_A, _NS_B])
            lines.append(f"@prefix ex: <{bound}> .")
        s, p = rng.choice(_NODES), rng.choice(_PREDICATES)
        objects = [rng.choice(_OBJECTS) for _ in range(rng.randint(1, 3))]
        expected.update(Triple(s, p, o) for o in objects)
        lines.append(f"{_spell(s, bound, rng)} {_spell(p, bound, rng)} "
                     + " , ".join(_spell(o, bound, rng) for o in objects) + " .")
    text = "\n".join(lines)
    terms = _Terms()
    ids = _TurtleParser(text, None).parse(terms)
    graph = parse_turtle(text)
    assert Graph(map(terms.decode, ids)) == graph == Graph(expected)
    assert len(ids) == len(graph)
    assert len(set(terms.terms)) == len(terms.terms)

# ---------------------------------------------------------------- the scanner

_SKIP_LINES = "  \t# a comment # with more # signs <\"{\r\n\n\t  # \\ ^ |\n"
_SKIP_RUN = _SKIP_LINES * ((1 << 20) // len(_SKIP_LINES) + 1)  # just over 1 MiB
_TRIPLE = "<http://e.org/s> <http://e.org/p> <http://e.org/o> ."
_LONG = 200_000


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset, counted by splitting lines."""
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


@pytest.mark.parametrize("text, error", [
    (_SKIP_RUN + _TRIPLE, None),
    (_SKIP_RUN + "|", ("unexpected character '|'", *_line_col(_SKIP_RUN, len(_SKIP_RUN)))),
    (f"<http://e.org/{'i' * _LONG}> <http://e.org/p> <http://e.org/o> .", None),
    (S_P + '"' + "s" * _LONG + '" .', None),
    (f"@prefix ex: <{EX}> . ex:{'n' * _LONG} ex:p ex:o .", None),
    # Dotted words: 'a.' 20k and 100k times, 40k and 200k characters.
    (S_P + "a." * 20_000, ("'a' is only valid in predicate position", 1, len(S_P) + 1)),
    (S_P + "a." * (_LONG // 2), ("'a' is only valid in predicate position", 1, len(S_P) + 1)),
], ids=["skip-run", "skip-run-then-bad-character", "long-iri", "long-string", "long-name",
        "dotted-words-40k", "dotted-words-200k"])
def test_scanning_is_linear_in_long_runs(text, error):
    """A pattern that backtracks over a long run takes quadratic time or
    worse; each of these inputs takes milliseconds when it does not."""
    start = time.perf_counter()
    if error is None:
        assert len(parse_turtle(text)) == 1
    else:
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == error
    assert time.perf_counter() - start < 10


_NAMESPACES = {"d": DATA_NS, "p": PRED_NS, "c": CLASS_NS, "x": EXT_NS, "rdf": RDF_NS, "xsd": XSD_NS}
_BREAKS = [" ", "\n  ", "\r\n\t", " # a comment, with . ; and \"\n  ", "\n# a line of its own\n"]
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _write_literal(literal: Literal, rng: random.Random) -> str:
    chars = []
    for ch in literal.lexical:
        if ch in _ESCAPES:
            chars.append(_ESCAPES[ch])
        elif rng.random() < 0.2:
            chars.append(f"\\u{ord(ch):04X}" if ord(ch) <= 0xFFFF else f"\\U{ord(ch):08X}")
        else:
            chars.append(ch)
    text = '"' + "".join(chars) + '"'
    if literal.language is not None:
        return f"{text}@{literal.language}"
    if literal.datatype == XSD_INTEGER and rng.random() < 0.5:
        return text + rng.choice(["^^xsd:integer", f"^^<{XSD_INTEGER}>"])
    if literal.datatype is not None:
        return f"{text}^^<{literal.datatype}>"
    return text


def _write_term(term, names: dict[str, str], rng: random.Random, predicate: bool = False) -> str:
    if isinstance(term, Literal):
        return _write_literal(term, rng)
    if isinstance(term, BlankNode):
        return term.ntriples()
    if predicate and term == RDF_TYPE and rng.random() < 0.5:
        return "a"
    for prefix, ns in names.items():
        local = term.value[len(ns):]
        if term.value.startswith(ns) and re.fullmatch(r"[A-Za-z0-9_]*", local) and rng.random() < 0.8:
            return f"{prefix}:{local}"
    return term.ntriples()


def _write_turtle(graph: Graph, rng: random.Random, *, plain: bool = False) -> str:
    """Turtle for a graph, with ';' and ',' groupings and CRLF line ends.
    Unless plain, also with prefixed names (one prefix rebound halfway),
    escapes and comments."""
    breaks = _BREAKS[:3] if plain else _BREAKS
    names = {} if plain else dict(_NAMESPACES)
    out = [f"@prefix {p}: <{ns}> .\n" for p, ns in names.items()]
    triples = list(graph)
    rng.shuffle(triples)
    half = len(triples) // 2
    for part, rebind in ((triples[:half], not plain), (triples[half:], False)):
        groups: dict = {}
        for t in part:
            groups.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
        for subject, predicates in groups.items():
            items = [
                _write_term(p, names, rng, predicate=True) + " "
                + f",{rng.choice(breaks)}".join(_write_term(o, names, rng) for o in objects)
                for p, objects in predicates.items()
            ]
            tail = rng.choice([" .", " ; .", f"{rng.choice(breaks)}."])
            out.append(_write_term(subject, names, rng) + rng.choice(breaks)
                       + f" ;{rng.choice(breaks)}".join(items) + tail + rng.choice(["\n", "\r\n"]))
        if rebind:
            names["d"] = PRED_NS
            out.append(f"@prefix d: <{PRED_NS}> .\n")
    return "".join(out)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32))
def test_written_turtle_parses_back_to_the_graph(seed):
    rng = random.Random(seed)
    graph, _, _ = random_instance(rng, max_triples=20, literals=True, rich=True)
    assert parse_turtle(_write_turtle(graph, rng)) == graph


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from("|`\\"), st.data())
def test_a_forbidden_character_is_reported_where_it_was_inserted(seed, char, data):
    """Outside strings, comments and names, these characters are an error
    wherever they stand: inside an IRI reference or between tokens. (In a
    prefixed name or '@prefix' they would leave a bad word before them.)"""
    rng = random.Random(seed)
    graph, _, _ = random_instance(rng, max_triples=8)
    text = _write_turtle(graph, rng, plain=True)
    offset = data.draw(st.integers(0, len(text)))
    with pytest.raises(ParseError) as exc:
        parse_turtle(text[:offset] + char + text[offset:])
    assert exc.value.message in (f"unexpected character {char!r}",
                                 f"forbidden character {char!r} in IRI reference")
    assert (exc.value.line, exc.value.column) == _line_col(text, offset)


_SYNTAX_ERRORS = [
    "<http://e.org/s> <http://e.org/p> .",
    "ex:s <http://e.org/p> <http://e.org/o> .",
    '<http://e.org/s> "p" <http://e.org/o> .',
    "[] <http://e.org/p> <http://e.org/o> .",
    "@base <http://e.org/> .",
    "<s> <http://e.org/p> <http://e.org/o> .",
    "<http://e.org/s> <http://e.org/p> <http://e.org/o> <http://e.org/o> .",
]
_LEXICAL_ERRORS = ["|", "`", "²", "^", "=", "?", "@", "_:", '"open', "+", "bad", "\\"]


@given(st.sampled_from(_SYNTAX_ERRORS), st.sampled_from(_LEXICAL_ERRORS), st.integers(0, 4))
def test_a_lexical_error_is_reported_before_an_earlier_syntax_error(syntax, lexical, at):
    """The lexer checks the whole text before the parser reads it, so
    a bad token on line 3 wins over the syntax error on line 1."""
    tokens = ["<http://e.org/s>", "<http://e.org/p>", "<http://e.org/o>", "."]
    before = " ".join(tokens[:at])
    line3 = " ".join(tokens[:at] + [lexical] + tokens[at:])
    with pytest.raises(ParseError) as exc:
        parse_turtle(f"{syntax}\n{_TRIPLE}\n{line3}\n")
    assert (exc.value.line, exc.value.column) == (3, len(before) + (1 if before else 0) + 1)
