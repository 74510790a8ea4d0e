"""Shared test helpers: an independent closure oracle and random instances.

The oracle is a deliberately naive fixpoint: every rule is matched against
every combination of facts on every pass, with no indexes, no deltas and
no goal direction, so it shares no code path with the engine under test.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from hypothesis import strategies as st

from graphnorm import BlankNode, Graph, IRI, Literal, Triple, Variable, compile_schema
from graphnorm.rules import (
    OWL_INVERSEOF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
)
from graphnorm.terms import RDF_TYPE, XSD_INTEGER

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


# Tokens of every grammar the readers share, and characters that start none.
FUZZ_TOKENS = ["-", "?o-", "?", "_:", "_:b", "@en", "@prefix", "@base", "<rel>",
               "<http://e.org/x>", "<file:x>", "ex:", "ex:y", ":", "a", "{", "}", "[",
               "]", "=>", "<=>", "^^", ".", ";", ",", '"x"', '"\\q"', "1", "-2.5",
               "#", "\n", "\u00e9", "\\", "gn:rif", "gn:Closure", "rdf:value"]


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def cli_env(hash_seed: str) -> dict[str, str]:
    """A minimal environment for a `python -m graphnorm` child process.

    Only the hash seed varies between calls. `src/` is the only entry on
    PYTHONPATH, so the child imports this checkout's graphnorm even where
    another copy of the package is installed.
    """
    return {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}


def _match_pattern(pattern, triple, binding):
    extended = dict(binding)
    pairs = (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    )
    for want, got in pairs:
        if isinstance(want, Variable):
            if want.name in extended:
                if extended[want.name] != got:
                    return None
            else:
                extended[want.name] = got
        elif want != got:
            return None
    return extended


def _all_bindings(atoms, facts, binding):
    if not atoms:
        yield binding
        return
    for fact in facts:
        extended = _match_pattern(atoms[0], fact, binding)
        if extended is not None:
            yield from _all_bindings(atoms[1:], facts, extended)


def _ground(term, binding):
    if isinstance(term, Variable):
        return binding[term.name]
    return term


def rule_heads(facts: frozenset[Triple], rules) -> set[Triple]:
    """The head triple of every rule instance whose body lies in facts:
    one full pass, matching every body against every combination of facts."""
    heads = set()
    for rule in rules:
        for binding in _all_bindings(tuple(rule.body), facts, {}):
            for atom in rule.head:
                s = _ground(atom.subject, binding)
                p = _ground(atom.predicate, binding)
                o = _ground(atom.object, binding)
                try:
                    heads.add(Triple(s, p, o))
                except ValueError:
                    continue
    return heads


def naive_closure(graph: Graph, rules) -> frozenset[Triple]:
    """Brute-force closure by repeated full passes until nothing new appears."""
    facts = set(graph.triples)
    while True:
        fresh = rule_heads(frozenset(facts), rules) - facts
        if not fresh:
            return frozenset(facts)
        facts |= fresh


def minimum_subset(graph: Graph, rules) -> Graph:
    """A smallest subset of graph with the same naive closure, by brute
    force over subsets in order of size: the exact minimum that reduce's
    greedy elimination is measured against. A subset has graph's closure
    iff its closure holds all of graph. Closure is monotone, so a triple
    that the rest of graph does not entail lies in every such subset;
    only the other triples are searched. Exponential in their number:
    for graphs of about 12 triples."""
    needed = [t for t in graph if t not in naive_closure(graph.discard(t), rules)]
    optional = [t for t in graph if t not in needed]
    for k in range(len(optional) + 1):
        for extra in itertools.combinations(optional, k):
            subset = Graph(needed + list(extra))
            if graph.triples <= naive_closure(subset, rules):
                return subset
    raise AssertionError("graph itself has graph's closure")


DATA_NS = "http://inst.test/d/"
EXT_NS = "http://other.test/d/"
PRED_NS = "http://inst.test/p/"
CLASS_NS = "http://inst.test/c/"

SCHEMA_KINDS = ("domain", "range", "inverse", "symmetric", "transitive", "subclass")


def random_instance(rng: random.Random, *, min_triples: int = 1, max_triples: int = 12,
                    min_nodes: int = 2, max_nodes: int = 6, max_rules: int = 4,
                    kinds: tuple[str, ...] = SCHEMA_KINDS, external: bool = False,
                    literals: bool = False, rich: bool = False):
    """A random (graph, compiled ruleset) pair over a small constant universe.

    The graph holds at least min_triples distinct triples, so min_nodes
    must leave room for them. Schema triples are drawn from kinds. rich
    adds blank nodes, and literals with a language tag or characters
    that N-Triples escapes.
    Returns (graph, rules, universe) where universe is the candidate term
    vocabulary: (subjects, predicates, objects).
    """
    nodes = [IRI(DATA_NS + f"n{i}") for i in range(rng.randint(min_nodes, max_nodes))]
    preds = [IRI(PRED_NS + f"p{i}") for i in range(rng.randint(1, 2))]
    classes = [IRI(CLASS_NS + f"C{i}") for i in range(1, 3)]
    objects: list = list(nodes)
    if external:
        objects.append(IRI(EXT_NS + "x0"))
    if literals:
        objects.append(Literal("twelve"))
        objects.append(Literal("12", datatype="http://www.w3.org/2001/XMLSchema#integer"))
    if rich:
        nodes.extend(BlankNode(f"b{i}") for i in range(2))
        objects.extend(nodes[-2:])
        objects.append(Literal('say "hi"\n\\ \t\r', language="en"))
        objects.append(Literal("\u00e9t\u00e9", language="fr-CA"))

    def draw() -> Triple:
        if rng.random() < 0.3:
            return Triple(rng.choice(nodes), RDF_TYPE, rng.choice(classes))
        return Triple(rng.choice(nodes), rng.choice(preds), rng.choice(objects))

    triples = {draw() for _ in range(rng.randint(min_triples, max_triples))}
    while len(triples) < min_triples:
        triples.add(draw())
    graph = Graph(triples)

    schema = set()
    for _ in range(rng.randint(0, max_rules)):
        kind = rng.choice(kinds)
        if kind == "domain":
            schema.add(Triple(rng.choice(preds), RDFS_DOMAIN, rng.choice(classes)))
        elif kind == "range":
            schema.add(Triple(rng.choice(preds), RDFS_RANGE, rng.choice(classes)))
        elif kind == "inverse":
            schema.add(Triple(rng.choice(preds), OWL_INVERSEOF, rng.choice(preds)))
        elif kind == "symmetric":
            schema.add(Triple(rng.choice(preds), RDF_TYPE, OWL_SYMMETRIC))
        elif kind == "transitive":
            schema.add(Triple(rng.choice(preds), RDF_TYPE, OWL_TRANSITIVE))
        else:
            schema.add(Triple(rng.choice(classes), RDFS_SUBCLASSOF, rng.choice(classes)))
    rules = compile_schema(Graph(schema))

    subjects = tuple(nodes)
    predicates = tuple(preds) + (RDF_TYPE,)
    all_objects = tuple(objects) + tuple(classes)
    return graph, rules, (subjects, predicates, all_objects)


def sort_key(t: Triple) -> tuple[bytes, bytes, bytes]:
    """The reference canonical order: bytewise on the UTF-8 N-Triples
    rendering of subject, then predicate, then object."""
    return (
        t.subject.ntriples().encode("utf-8"),
        t.predicate.ntriples().encode("utf-8"),
        t.object.ntriples().encode("utf-8"),
    )


@st.composite
def prefix_prone_triples(draw):
    """Triples whose terms often render as proper prefixes of each other:
    shared IRI prefixes, blank labels a/ab, a literal beside its @en,
    @en-US and ^^xsd:integer forms, and control characters, non-ASCII and
    astral characters inside literals and IRIs."""
    iri = st.builds(lambda s: IRI("http://t.org/" + s),
                    st.text(alphabet="ab/-\u00e9\uffff\U0001F600", max_size=3))
    blank = st.sampled_from(["a", "ab", "a-b", "b"]).map(BlankNode)
    literal = st.builds(
        lambda lexical, suffix: Literal(lexical, **suffix),
        st.text(alphabet='a\x00\x01\x1f "\\\n\u00e9\uffff\U0001F600', max_size=3),
        st.sampled_from([{}, {"language": "en"}, {"language": "en-US"}, {"datatype": XSD_INTEGER}]),
    )
    return Triple(draw(st.one_of(iri, blank)), draw(iri), draw(st.one_of(iri, blank, literal)))


def out_links(graph: Graph, namespaces) -> Graph:
    """Triples pointing from a dataset subject to any external IRI: the
    Graph-level reference for the out-link densities.

    Literal and blank objects are never out-links, nor are blank subjects.
    """
    selected: list[Triple] = []
    for t in graph.triples:
        if not isinstance(t.subject, IRI) or not namespaces.owns(t.subject.value):
            continue
        if isinstance(t.object, IRI) and not namespaces.owns(t.object.value):
            selected.append(t)
    return Graph(selected)


def all_candidates(universe):
    subjects, predicates, objects = universe
    return [
        Triple(s, p, o)
        for s in subjects
        for p in predicates
        for o in objects
    ]


def random_diff_instance(rng: random.Random):
    """A random (base graph, rules, insertions, deletions) update scenario."""
    graph, rules, universe = random_instance(rng, max_triples=10)
    base = list(graph)
    deletions = {t for t in base if rng.random() < 0.25}
    subjects, predicates, objects = universe
    insertions = set()
    for _ in range(rng.randint(0, 4)):
        t = Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        if t not in graph.triples:
            insertions.add(t)
    return graph, rules, Graph(insertions), Graph(deletions)
