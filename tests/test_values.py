"""Every value type beyond terms follows the one value protocol of
terms._Frozen: its fields cannot be assigned or added, equal values have
equal hashes however they were built, and a pickle round trip gives an
equal value with the same hash."""

import pickle

import pytest
from hypothesis import given, strategies as st

from graphnorm import (
    IRI,
    ClosureResult,
    FileResolver,
    Graph,
    Literal,
    NamespaceDecl,
    NormalisationSpec,
    Rule,
    RuleSet,
    RuleSource,
    Triple,
    TriplePattern,
    Variable,
)

# A two-letter alphabet makes equal values drawn independently common.
TEXT = st.text(alphabet="ab", min_size=1, max_size=2)
IRIS = st.builds(lambda s: IRI("urn:" + s), TEXT)
NODES = st.one_of(IRIS, st.builds(Variable, TEXT))
PATTERNS = st.builds(TriplePattern, NODES, NODES, st.one_of(NODES, st.builds(Literal, TEXT)))
TRIPLES = st.builds(Triple, IRIS, IRIS, st.one_of(IRIS, st.builds(Literal, TEXT)))
LABELS = st.none() | TEXT


@st.composite
def rules(draw):
    """A rule whose head patterns are body patterns, so it is safe."""
    body = draw(st.lists(PATTERNS, min_size=1, max_size=2))
    return Rule(body, draw(st.lists(st.sampled_from(body), min_size=1, max_size=2)), draw(LABELS))


RULE_LISTS = st.lists(rules(), max_size=4)
SOURCES = st.builds(RuleSource, st.sampled_from(["n3", "dlogic", "rif"]), TEXT)
SPEC_PARTS = st.one_of(
    st.just(("none", [])),
    st.tuples(st.sampled_from(["closure", "mini_rdf"]), st.lists(SOURCES, max_size=2)),
)
GRAPH_TWINS = st.lists(TRIPLES, max_size=5).map(
    lambda ts: (Graph(ts), Graph(t for t in reversed(ts + ts))))

# For each value type, pairs of equal values built apart, each by a route
# its constructor accepts.
TWINS = {
    "TriplePattern": PATTERNS.map(lambda p: (p, TriplePattern(*p.terms()))),
    "Rule": st.tuples(rules(), LABELS).map(
        lambda t: (t[0], Rule(list(t[0].body), iter(t[0].head), t[1]))),
    "RuleSet": RULE_LISTS.flatmap(lambda rs: st.permutations(rs).map(
        lambda p: (RuleSet(rs), RuleSet(p + rs)))),
    "Graph": GRAPH_TWINS,
    "RuleSource": SOURCES.map(lambda s: (s, RuleSource(s.format, s.locator))),
    "NormalisationSpec": SPEC_PARTS.map(
        lambda t: (NormalisationSpec(t[0], t[1]), NormalisationSpec(t[0], tuple(t[1])))),
    "NamespaceDecl": st.lists(TEXT, min_size=1, max_size=3, unique=True).map(
        lambda ts: [f"urn:{t}/" for t in ts]).map(
        lambda ps: (NamespaceDecl(ps), NamespaceDecl(tuple(ps)))),
    "FileResolver": TEXT.map(lambda d: (FileResolver(d), FileResolver(d))),
    "ClosureResult": st.tuples(GRAPH_TWINS, st.integers(0, 3), st.integers(0, 3)).map(
        lambda t: (ClosureResult(t[0][0], t[1], t[2]), ClosureResult(t[0][1], t[1], t[2]))),
}
ANY_TWINS = st.one_of(*TWINS.values())
SAME_KIND_PAIRS = st.sampled_from(sorted(TWINS)).flatmap(
    lambda kind: st.tuples(TWINS[kind], TWINS[kind]))


@given(ANY_TWINS)
def test_equal_values_have_equal_hashes(twins):
    a, b = twins
    assert a == b and not a != b
    assert hash(a) == hash(b)


@given(SAME_KIND_PAIRS)
def test_values_are_equal_exactly_when_their_keys_are(pairs):
    (a, _), (_, b) = pairs
    assert (a == b) is (a._key() == b._key())


@given(ANY_TWINS)
def test_fields_cannot_be_assigned_or_added(twins):
    value = twins[0]
    for name in value._fields + ("_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@given(ANY_TWINS)
def test_a_pickle_round_trip_gives_an_equal_value_with_the_same_hash(twins):
    value = twins[0]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)


@pytest.mark.parametrize("build, twin", [
    (lambda: NamespaceDecl(["http://x/"]), lambda: NamespaceDecl(("http://x/",))),
    (lambda: NormalisationSpec("mini_rdf", [RuleSource("n3", "r.n3")]),
     lambda: NormalisationSpec("mini_rdf", (RuleSource("n3", "r.n3"),))),
])
def test_a_list_argument_builds_the_tuple_built_value(build, twin):
    value = build()
    assert value == twin() and hash(value) == hash(twin())
    assert type(getattr(value, value._fields[-1])) is tuple
