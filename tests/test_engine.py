import gc
import hashlib
import itertools
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphnorm import (
    EMPTY_GRAPH,
    Graph,
    IRI,
    Literal,
    Triple,
    closure,
    compile_schema,
    parse_rules,
    parse_turtle,
    reduce,
    serialize_turtle,
)
from graphnorm.engine import _KEYS, _Materialization, _Prover, _Store, materialize
from graphnorm.rules import (
    EMPTY_RULESET, OWL_SYMMETRIC, OWL_TRANSITIVE, RDFS_DOMAIN, RDFS_SUBCLASSOF,
)
from graphnorm.terms import RDF_TYPE, _Terms

from support import (
    SCHEMA_KINDS, all_candidates, cli_env, minimum_subset, naive_closure, random_instance,
    rule_heads, sort_key,
)

EX = "http://example.org/"


def t(s: str, p: str, o: str) -> Triple:
    return Triple(IRI(EX + s), IRI(EX + p), IRI(EX + o))


def sym(p: str):
    return compile_schema(Graph([Triple(IRI(EX + p), RDF_TYPE, OWL_SYMMETRIC)]))


def trans(p: str):
    return compile_schema(Graph([Triple(IRI(EX + p), RDF_TYPE, OWL_TRANSITIVE)]))


class TestClosure:
    def test_empty_ruleset_is_identity(self):
        g = Graph([t("a", "p", "b")])
        result = closure(g, EMPTY_RULESET)
        assert result.graph == g
        assert result.derived_count == 0
        assert result.rounds == 0

    def test_transitive_chain(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "c"), t("c", "p", "d")])
        result = closure(g, trans("p"))
        assert result.graph.triples == g.triples | {
            t("a", "p", "c"), t("a", "p", "d"), t("b", "p", "d"),
        }
        assert result.derived_count == 3
        assert result.rounds == 2  # a-c and b-d first, then a-d

    def test_symmetric_plus_transitive_saturates(self):
        g = Graph([t("a", "p", "b")])
        rules = sym("p") | trans("p")
        result = closure(g, rules)
        assert result.graph.triples == {
            t("a", "p", "b"), t("b", "p", "a"), t("a", "p", "a"), t("b", "p", "b"),
        }

    def test_multi_pattern_body_joins_across_rounds(self):
        rules = parse_rules(
            f"{{ ?s ?p ?o . ?p <{EX}d> ?c . }} => {{ ?s a ?c . }} .\n"
            f"{{ ?x a <{EX}C> . }} => {{ ?x <{EX}q> ?x . }} .\n"
        )
        g = Graph([t("a", "p", "b"), t("p", "d", "C"), t("q", "d", "D")])
        result = closure(g, rules)
        # a:C from the first rule; then (a q a) from the second; then a:D from
        # the first again, because q itself has a declared domain-ish triple.
        assert t("a", "q", "a") in result.graph
        assert Triple(IRI(EX + "a"), RDF_TYPE, IRI(EX + "C")) in result.graph
        assert Triple(IRI(EX + "a"), RDF_TYPE, IRI(EX + "D")) in result.graph
        assert result.rounds == 3

    def test_literal_head_instantiations_are_skipped(self):
        # Inverting a triple with a literal object would put the literal in
        # subject position; that instantiation must be dropped, not crash.
        rules = parse_rules(f"{{ ?x <{EX}p> ?y . }} => {{ ?y <{EX}p> ?x . }} .")
        g = parse_turtle(f'<{EX}a> <{EX}p> "twelve" .')
        result = closure(g, rules)
        assert result.graph == g

    def test_derived_count_excludes_existing_triples(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "a")])
        result = closure(g, sym("p"))
        assert result.derived_count == 0

    def test_graph_is_the_same_on_every_read(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "c")])
        first, second = closure(g, trans("p")), closure(g, trans("p"))
        assert first.graph is first.graph
        assert first.graph == second.graph
        assert first == second and hash(first) == hash(second)
        assert first != closure(g, EMPTY_RULESET)

    def test_repr_shows_graph_and_counts(self):
        result = closure(Graph([t("a", "p", "b"), t("b", "p", "c")]), trans("p"))
        assert repr(result) == (
            "ClosureResult(graph=Graph(3 triples), derived_count=1, rounds=1)")

    def test_result_is_a_plain_value_that_keeps_no_materialization_alive(self):
        result = closure(Graph([t("a", "p", "b"), t("b", "p", "c")]), trans("p"))
        assert not any(isinstance(x, _Materialization) for x in gc.get_referents(result))
        assert pickle.loads(pickle.dumps(result)) == result


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_closure_matches_naive_oracle(seed):
    rng = random.Random(seed)
    graph, rules, _ = random_instance(rng, literals=True)
    assert closure(graph, rules).graph.triples == naive_closure(graph, rules)


def chain(k: int):
    """Classes C0 .. C(k-1) and the rules of C0 subClassOf C1 ... C(k-1)."""
    classes = [IRI(EX + f"C{i}") for i in range(k)]
    schema = Graph(Triple(a, RDFS_SUBCLASSOF, b) for a, b in zip(classes, classes[1:]))
    return classes, compile_schema(schema)


@pytest.mark.parametrize("k", [1, 2, 60])
def test_chain_closure_takes_one_round_per_link(k):
    classes, rules = chain(k)
    g = Graph(Triple(IRI(EX + f"x{j}"), RDF_TYPE, classes[0]) for j in range(3))
    result = closure(g, rules)
    assert result.rounds == k - 1
    assert result.derived_count == 3 * (k - 1)


def test_every_dispatch_path_matches_naive_oracle():
    # The chain's atoms are filed under (rdf:type, class), the symmetric
    # rule's under its predicate, and the domain and mirror rules' first
    # atoms see every triple; derivations pass from one kind to the next,
    # and the mirror of the literal-object triple is an invalid head,
    # skipped. Backward, the mirror rule's head has a variable predicate,
    # so only the catch-all head bucket can prove (e r d) redundant.
    classes, rules = chain(60)
    rules = rules | parse_rules(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "{ ?s ?p ?o . ?p rdfs:domain ?c . } => { ?s a ?c . } .\n"
        f"{{ ?s ?p ?o . ?p <{EX}mirror> ?r . }} => {{ ?o ?r ?s . }} .\n"
        f"{{ ?x <{EX}q> ?y . }} => {{ ?y <{EX}q> ?x . }} .\n"
    )
    graph = Graph([
        Triple(IRI(EX + "a"), RDF_TYPE, classes[0]),
        Triple(IRI(EX + "q"), RDFS_DOMAIN, classes[30]),
        t("a", "q", "b"),
        t("p", "mirror", "r"),
        t("d", "p", "e"),
        t("e", "r", "d"),
        Triple(IRI(EX + "c"), IRI(EX + "q"), Literal("twelve")),
    ])
    closed = naive_closure(graph, rules)
    assert closure(graph, rules).graph.triples == closed
    assert Triple(IRI(EX + "b"), RDF_TYPE, classes[59]) in closed
    assert Triple(IRI(EX + "c"), RDF_TYPE, classes[59]) in closed
    minimal = reduce(graph, rules)
    assert minimal == graph.discard(t("e", "r", "d"))
    assert naive_closure(minimal, rules) == closed


def _assert_irreducible(graph: Graph, rules, closed: set) -> None:
    """reduce keeps a subset of graph with the closure closed, and none of
    the kept triples follows from the others."""
    minimal = reduce(graph, rules)
    assert minimal.triples <= graph.triples
    assert naive_closure(minimal, rules) == closed
    for kept in minimal:
        assert kept not in naive_closure(minimal.discard(kept), rules), kept


# One graph for every join shape: a p-cycle, q triples with a literal and
# a blank object, a q self-loop, and dom triples whose subjects are the
# predicates p and q.
_SHAPES_GRAPH = parse_turtle(
    f"@prefix : <{EX}> .\n"
    ":a :p :b . :b :p :c . :c :p :a . :c :p _:k . _:k :q :a .\n"
    ':b :q :a . :b :q :d . :c :q "l" . :d :q :d . :a :q _:k .\n'
    ":p :dom :C . :q :dom :D .\n"
)


# Each case is one rule, named by the shape of the atom it is about:
# either one of the other atoms a body atom is joined with, or a body atom
# as the batch sees it. Rounds and derived counts are pinned too, so that
# a plan that derives late or twice is caught as well as a wrong closure.
@pytest.mark.parametrize("rule,rounds,derived", [
    pytest.param("{ ?x :p ?y . ?y :q ?z . } => { ?x :q ?z . }", 2, 8, id="bound-subject"),
    pytest.param("{ ?x :p ?y . ?z :q ?y . } => { ?z :p ?x . }", 1, 2, id="bound-object"),
    pytest.param("{ ?x :p ?y . ?y :q ?x . } => { ?y :p ?x . }", 1, 1, id="both-bound"),
    pytest.param("{ :a :p ?y . ?y :q :d . } => { :a :r ?y . }", 1, 1,
                 id="both-bound-by-constants"),
    pytest.param("{ ?x :p ?y . ?z :q ?w . } => { ?w :r ?x . }", 1, 9, id="neither-bound"),
    pytest.param("{ ?x :p ?y . :b :q ?z . } => { ?z :r ?x . }", 1, 6,
                 id="constant-subject-in-other-atom"),
    pytest.param("{ ?x ?p ?y . ?y ?p ?z . } => { ?x ?p ?z . }", 2, 11,
                 id="variable-predicate-bound-by-seed"),
    pytest.param("{ ?p :dom ?c . ?s ?p ?o . } => { ?s :type ?c . }", 1, 8,
                 id="variable-predicate-bound-by-constant-atom"),
    pytest.param("{ ?x :p ?y . ?z ?r ?w . } => { ?x :r ?w . }", 1, 24,
                 id="variable-predicate-nothing-bound"),
    pytest.param("{ ?x :p ?y . ?z :q ?z . } => { ?x :r ?z . }", 1, 3,
                 id="repeated-new-variable"),
    pytest.param("{ ?x :p ?y . ?y :p ?z . ?z :q ?w . } => { ?x :q ?w . }", 2, 8,
                 id="three-atom-body"),
    pytest.param("{ :a :p ?y . ?y :p ?z . } => { :a :p ?z . }", 2, 3, id="constant-subject"),
    pytest.param("{ ?x ?p :a . ?x :q ?y . } => { ?y ?p :a . }", 1, 2,
                 id="constant-object-under-variable-predicate"),
    pytest.param("{ ?x :q ?x . } => { ?x :r ?x . }", 1, 1, id="repeated-variable-in-seed"),
    pytest.param("{ ?x :p ?y . ?y :q ?z . } => { ?x ?z ?y . }", 1, 3,
                 id="object-moved-to-predicate"),
])
def test_join_shapes_match_naive_oracle(rule, rounds, derived):
    rules = parse_rules(f"@prefix : <{EX}> .\n{rule} .\n")
    result = closure(_SHAPES_GRAPH, rules)
    assert result.graph.triples == naive_closure(_SHAPES_GRAPH, rules)
    assert (result.rounds, result.derived_count) == (rounds, derived)
    # Backward, the same rule is compiled from its head atom: reduce proves
    # through the same shape.
    _assert_irreducible(_SHAPES_GRAPH, rules, result.graph.triples)


# The store's model: after any interleaving of single adds, bulk adds and
# removes, every lookup equals a filter of its triple set. Each step's
# lookups build the indexes they need lazily (per predicate, or over all
# triples), so later steps must maintain indexes built at any earlier one.
# A single add is an update of one triple, as the prover's re-add is.
_STORE_IDS = st.integers(min_value=0, max_value=2)
_STORE_TRIPLES = st.tuples(_STORE_IDS, _STORE_IDS, _STORE_IDS)
_STORE_STEPS = st.lists(st.tuples(st.one_of(
    st.tuples(st.just("add"), _STORE_TRIPLES),
    st.tuples(st.just("update"), st.sets(_STORE_TRIPLES, max_size=6)),
    st.tuples(st.just("remove"), _STORE_TRIPLES),
    st.none(),
), _STORE_TRIPLES), max_size=25)


def _check_lookups(store: _Store, probe) -> None:
    """Each mask of placed positions, looked up with _compile's keys: over
    all triples on every placed position (a whole triple is a membership
    test instead), and under a placed predicate on its subject and object,
    or on the predicate itself if neither is placed."""
    for mask in range(8):
        placed = tuple(k for k in range(3) if mask >> k & 1)
        expected = {t for t in store.triples if all(t[k] == probe[k] for k in placed)}
        lookups = [(placed, None)] if mask != 7 else []
        if 1 in placed:
            lookups.append((tuple(k for k in placed if k != 1) or (1,), probe[1]))
        for ks, q in lookups:
            key = _KEYS[ks]
            assert set(store._index(key, q).get(key(probe), ())) == expected, (ks, q, probe)


@settings(deadline=None, max_examples=300)
@given(st.sets(_STORE_TRIPLES, max_size=8), _STORE_STEPS)
def test_store_lookups_match_a_filter_of_its_triples(initial, steps):
    store = _Store(set(initial))  # the store owns and mutates its set
    model = set(initial)
    for mutation, probe in steps:
        if mutation is not None:
            op, arg = mutation
            if op == "add":
                store.update((arg,))
                model.add(arg)
            elif op == "update":
                store.update(arg)
                model |= arg
            else:
                store.remove(arg)
                model.discard(arg)
        assert store.triples == model
        _check_lookups(store, probe)
    for probe in itertools.product(range(3), repeat=3):
        _check_lookups(store, probe)


# Random safe rules of the shapes compile_schema never emits: repeated
# variables, constant subjects, variable predicates beside constant
# objects, heads that move an object (possibly a literal) into subject
# position, two-triple heads and bodies of two or three atoms.
_NODES = [f"<{EX}n{i}>" for i in range(3)]
_PREDS = [f"<{EX}p{i}>" for i in range(2)]
_LITERALS = ['"lit"']
_VARS = ["?x", "?y", "?z"]


@st.composite
def _safe_rule(draw) -> str:
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        s = draw(st.sampled_from(_VARS + _NODES))
        p = draw(st.sampled_from(_VARS + _PREDS))
        o = draw(st.sampled_from(_VARS + _NODES + _LITERALS))
        body.append((s, p, o))
    bound = sorted({x for atom in body for x in atom if x.startswith("?")})
    head = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        s = draw(st.sampled_from(bound + _NODES))
        p = draw(st.sampled_from(bound + _PREDS))
        o = draw(st.sampled_from(bound + _NODES + _LITERALS))
        head.append((s, p, o))
    body_text = " ".join(f"{s} {p} {o} ." for s, p, o in body)
    head_text = " ".join(f"{s} {p} {o} ." for s, p, o in head)
    return f"{{ {body_text} }} => {{ {head_text} }} ."


_GRAPH_TRIPLES = st.sets(st.tuples(
    st.sampled_from(_NODES), st.sampled_from(_PREDS),
    st.sampled_from(_NODES + _LITERALS)), min_size=1, max_size=6)


@settings(deadline=None, max_examples=150)
@given(st.lists(_safe_rule(), min_size=1, max_size=2), _GRAPH_TRIPLES)
def test_rule_shapes_outside_the_schema_fragment_match_naive_oracle(rules_text, triples):
    rules = parse_rules("\n".join(rules_text))
    graph = parse_turtle("".join(f"{s} {p} {o} .\n" for s, p, o in triples))
    closed = naive_closure(graph, rules)
    assert closure(graph, rules).graph.triples == closed
    _assert_irreducible(graph, rules, closed)


def test_closure_at_scale_matches_reachability():
    """About 3k triples: a 300-class subClassOf chain and a transitive
    forest, checked against a walk up the chain and BFS reachability."""
    rng = random.Random(5)
    k = 300
    classes, rules = chain(k)
    part_of = IRI(EX + "partOf")
    rules = rules | trans("partOf")
    # Carriers typed at C0 walk the whole chain; one at C150 walks half.
    carriers = [(Triple(IRI(EX + f"x{j}"), RDF_TYPE, classes[0]), 0) for j in range(4)]
    carriers.append((Triple(IRI(EX + "x4"), RDF_TYPE, classes[150]), 150))
    # A forest of depth at most 6: each node points at a parent one level up.
    depth = {0: 0}
    levels: list[list[int]] = [[0]] + [[] for _ in range(6)]
    parent: dict[int, int] = {}
    for n in range(1, 2700):
        level = 0 if rng.random() < 0.02 else rng.randint(1, 6)
        if level == 0 or not levels[level - 1]:
            level = 0  # a new root
        else:
            parent[n] = rng.choice(levels[level - 1])
        depth[n] = level
        levels[level].append(n)

    def node(n: int) -> IRI:
        return IRI(EX + f"f{n}")

    edges = [Triple(node(a), part_of, node(b)) for a, b in parent.items()]
    graph = Graph([t for t, _ in carriers] + edges)
    assert 2500 <= len(graph) <= 3500

    expected = set(graph.triples)
    for typed, start in carriers:
        expected.update(Triple(typed.subject, RDF_TYPE, c) for c in classes[start + 1:])
    children: dict[int, list[int]] = {}
    for a, b in parent.items():
        children.setdefault(b, []).append(a)
    for root in depth:
        # Every node below another in its tree reaches it by partOf: BFS
        # from each node over child links finds them.
        seen, queue = set(), [root]
        for n in queue:
            for c in children.get(n, ()):
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        expected.update(Triple(node(c), part_of, node(root)) for c in seen)

    result = closure(graph, rules)
    assert result.graph.triples == expected
    assert result.derived_count == len(expected) - len(graph)
    # Each carrier gains the classes above its own; each forest node, one
    # partOf triple per ancestor, of which the edge to its parent is given.
    assert result.derived_count == (
        4 * (k - 1) + (k - 1 - 150) + sum(depth.values()) - len(edges))
    # The chain takes one round per link. A tree has one path between two
    # nodes, and a round joins it from two halves at most as long as the
    # paths already derived, so paths of up to six edges take three rounds.
    assert max(depth.values()) == 6
    assert result.rounds == k - 1
    assert closure(Graph(edges), trans("partOf")).rounds == 3


class TestBackchain:
    """Goal queries: whether one ground triple is entailed, answered by
    membership in the closure."""

    def test_stored_triple(self):
        g = Graph([t("a", "p", "b")])
        assert t("a", "p", "b") in closure(g, EMPTY_RULESET).graph

    def test_absent_triple(self):
        g = Graph([t("a", "p", "b")])
        assert t("b", "p", "a") not in closure(g, EMPTY_RULESET).graph

    def test_one_step_derivation(self):
        g = Graph([t("a", "p", "b")])
        assert t("b", "p", "a") in closure(g, sym("p")).graph

    def test_cycle_terminates(self):
        g = Graph([t("a", "p", "b")])
        assert t("a", "p", "c") not in closure(g, sym("p")).graph

    def test_needs_intermediate_goal_outside_store(self):
        # b p b holds only via the derived (not stored) b p a:
        # a p b  =sym=>  b p a, then b p a + a p b  =trans=>  b p b.
        g = Graph([t("a", "p", "b")])
        closed = closure(g, sym("p") | trans("p")).graph
        assert t("b", "p", "b") in closed
        assert t("a", "p", "a") in closed
        assert t("a", "q", "a") not in closed

    def test_subclass_chain(self):
        schema = Graph([
            Triple(IRI(EX + "A"), RDFS_SUBCLASSOF, IRI(EX + "B")),
            Triple(IRI(EX + "B"), RDFS_SUBCLASSOF, IRI(EX + "C")),
        ])
        rules = compile_schema(schema)
        g = Graph([Triple(IRI(EX + "x"), RDF_TYPE, IRI(EX + "A"))])
        closed = closure(g, rules).graph
        assert Triple(IRI(EX + "x"), RDF_TYPE, IRI(EX + "C")) in closed
        assert Triple(IRI(EX + "y"), RDF_TYPE, IRI(EX + "C")) not in closed

    def test_repeated_queries_are_consistent(self):
        g = Graph([t("a", "p", "b")])
        rules = sym("p")
        goal = t("b", "p", "a")
        assert all(goal in closure(g, rules).graph for _ in range(5))
        missing = t("c", "p", "a")
        assert not any(missing in closure(g, rules).graph for _ in range(5))


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_backchain_agrees_with_oracle_everywhere(seed):
    rng = random.Random(seed)
    graph, rules, universe = random_instance(rng, max_triples=8, max_nodes=4)
    closed = naive_closure(graph, rules)
    entailed = closure(graph, rules).graph
    for goal in all_candidates(universe):
        assert (goal in entailed) == (goal in closed), goal.ntriples()


class TestReduce:
    def test_empty_ruleset_is_identity(self):
        g = Graph([t("a", "p", "b"), t("c", "p", "d")])
        assert reduce(g, EMPTY_RULESET) == g

    def test_symmetric_pair_keeps_one(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "a")])
        result = reduce(g, sym("p"))
        # Canonical order tests (a p b) first; it goes, the mirror stays.
        assert result == Graph([t("b", "p", "a")])

    def test_result_is_deterministic(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "a")])
        rules = sym("p")
        assert len({reduce(g, rules) for _ in range(10)}) == 1

    def test_transitive_shortcut_removed(self):
        g = Graph([t("a", "p", "b"), t("b", "p", "c"), t("a", "p", "c")])
        assert reduce(g, trans("p")) == Graph([t("a", "p", "b"), t("b", "p", "c")])

    def test_constant_atom_between_variable_atoms(self):
        # A proof of a r c returns to the constant middle atom once b p c
        # fails; it must move past it, not match it again.
        rules = parse_rules(f"@prefix ex: <{EX}> .\n"
                            "{ ?x ex:p ?y . ex:a ex:q ex:b . ?y ex:p ?z } => { ?x ex:r ?z } .")
        g = Graph([t("a", "p", "b"), t("a", "q", "b"), t("a", "r", "c")])
        assert reduce(g, rules) == g
        assert reduce(g.add(t("b", "p", "c")), rules) == g.add(t("b", "p", "c")).discard(
            t("a", "r", "c"))

    def test_closure_is_preserved(self):
        g = Graph([
            t("a", "p", "b"), t("b", "p", "c"), t("a", "p", "c"), t("c", "p", "a"),
        ])
        rules = trans("p") | sym("p")
        minimal = reduce(g, rules)
        assert minimal.triples <= g.triples
        assert closure(minimal, rules).graph == closure(g, rules).graph

    def test_aux_supports_but_never_appears(self):
        data = parse_turtle(
            f"@prefix ex: <{EX}> .\n"
            "ex:bob a ex:Person .\n"
            "ex:bob ex:knows ex:alice .\n"
        )
        aux = parse_turtle(
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            f"@prefix ex: <{EX}> .\n"
            "ex:knows rdfs:domain ex:Person .\n"
        )
        rules = parse_rules(
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "{ ?s ?p ?o . ?p rdfs:domain ?c . } => { ?s a ?c . } .\n"
        )
        minimal = reduce(data, rules, aux)
        assert minimal == Graph([t("bob", "knows", "alice")])
        assert not (minimal.triples & aux.triples)

    def test_aux_members_inside_data_are_dropped(self):
        shared = t("p", "d", "C")
        g = Graph([t("a", "p", "b"), shared])
        aux = Graph([shared])
        assert reduce(g, EMPTY_RULESET, aux) == Graph([t("a", "p", "b")])

    def test_reduce_can_empty_a_graph_fully_covered_by_aux(self):
        shared = t("a", "p", "b")
        assert reduce(Graph([shared]), EMPTY_RULESET, Graph([shared])) == EMPTY_GRAPH


@pytest.mark.parametrize("seed", range(20))
def test_minimize_visits_the_candidates_in_canonical_order(seed):
    """Under no rules minimize drops nothing, so its kept ids are its
    candidates in the order it tries them: the input minus aux, sorted by
    rendered terms (language tags, datatypes and blank labels included),
    whatever term ids the hash seed hands out."""
    rng = random.Random(seed)
    graph, _, _ = random_instance(rng, min_triples=10, max_triples=30, literals=True, rich=True)
    other, _, _ = random_instance(rng, literals=True, rich=True)
    aux = Graph(x for x in graph if rng.random() < 0.3) | other
    m = materialize(graph, EMPTY_RULESET, aux)
    kept = [m.terms.decode(x) for x in m.minimize()]
    assert kept == list(graph - aux) == sorted((graph - aux).triples, key=sort_key)


def test_a_materialization_made_not_to_be_minimized_refuses_to_minimize():
    """Without derivable, minimize would keep every candidate unproved: it
    raises instead, and the closure is the same either way."""
    graph = Graph([t("a", "p", "b"), t("b", "p", "c"), t("a", "p", "c")])
    terms = _Terms()
    m = _Materialization(terms, terms.encode(graph), trans("p"), EMPTY_GRAPH, minimizes=False)
    assert m.derivable is None
    with pytest.raises(RuntimeError, match="minimizes=False"):
        m.minimize()
    made = materialize(graph, trans("p"))
    assert made.derivable == made.terms.encode(Graph([t("a", "p", "c")]))
    assert {m.terms.decode(x) for x in m.store.triples} == closure(graph, trans("p")).graph.triples


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_reduce_preserves_closure_and_shrinks(seed):
    rng = random.Random(seed)
    graph, rules, _ = random_instance(rng)
    minimal = reduce(graph, rules)
    assert minimal.triples <= graph.triples
    assert naive_closure(minimal, rules) == naive_closure(graph, rules)
    # No kept triple is derivable from the others: the result is irreducible.
    for triple in minimal:
        rest = minimal.discard(triple)
        assert triple not in naive_closure(rest, rules)


# Small, dense instances: on these, greedy elimination sometimes keeps more
# than the smallest subset with the same closure (test_stats.py pins three
# transitive graphs where it does).
@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10_000))
def test_reduce_is_irreducible_and_never_below_the_exact_minimum(seed):
    rng = random.Random(seed)
    graph, rules, _ = random_instance(rng, min_triples=8, max_triples=12, max_nodes=4,
                                      max_rules=6)
    closed = naive_closure(graph, rules)
    exact = minimum_subset(graph, rules)
    assert exact.triples <= graph.triples
    assert naive_closure(exact, rules) == closed
    _assert_irreducible(graph, rules, closed)
    assert len(reduce(graph, rules)) >= len(exact)


# The naive oracle joins every pair of facts for a transitive rule, which
# at these sizes takes minutes per instance; the 200-triple transitive
# test below checks minimality with a reachability oracle instead.
_NON_TRANSITIVE = tuple(kind for kind in SCHEMA_KINDS if kind != "transitive")


@pytest.mark.parametrize("seed", range(6))
def test_reduce_is_minimal_on_graphs_of_100_to_300_triples(seed):
    rng = random.Random(seed)
    graph, rules, universe = random_instance(
        rng, min_triples=100, max_triples=300, min_nodes=30, max_nodes=40,
        kinds=_NON_TRANSITIVE)
    aux = Graph(rng.sample(all_candidates(universe), len(graph) // 10))
    minimal = reduce(graph, rules, aux)
    assert minimal.triples <= graph.triples - aux.triples
    assert naive_closure(minimal | aux, rules) == naive_closure(graph | aux, rules)
    for triple in minimal:
        rest = minimal.discard(triple) | aux
        assert triple not in naive_closure(rest, rules), triple.ntriples()


@pytest.mark.parametrize("seed", range(20))
def test_reduce_keeps_what_greedy_naive_elimination_keeps(seed):
    """Which triples survive, not only that none follows from the rest:
    reduce equals the greedy elimination that walks graph - aux in the
    reference order and drops each triple that the naive closure of the
    triples still kept, plus aux, contains."""
    rng = random.Random(seed)
    graph, rules, universe = random_instance(
        rng, min_triples=30, max_triples=80, min_nodes=20, max_nodes=30, max_rules=6,
        kinds=_NON_TRANSITIVE, literals=True)
    aux = Graph(rng.sample(all_candidates(universe), 8)) | Graph(
        x for x in graph if rng.random() < 0.1)
    assert reduce(graph, rules, aux) == _greedy_naive_elimination(graph, rules, aux)


def _greedy_naive_elimination(graph: Graph, rules, aux: Graph) -> Graph:
    """Walk graph - aux in the reference order and drop each triple that
    the naive closure of the triples still kept, plus aux, contains."""
    kept = set((graph - aux).triples)
    for triple in sorted(kept, key=sort_key):
        kept.remove(triple)
        if triple not in naive_closure(Graph(kept) | aux, rules):
            kept.add(triple)
    return Graph(kept)


def _minimize_counting_proofs(monkeypatch, graph: Graph, rules, aux: Graph):
    """minimize's survivors and the goals it asked _Prover.prove about,
    both decoded."""
    goals = []
    prove = _Prover.prove

    def counting(self, goal):
        goals.append(goal)
        return prove(self, goal)

    monkeypatch.setattr(_Prover, "prove", counting)
    m = materialize(graph, rules, aux)
    kept = Graph(map(m.terms.decode, m.minimize()))
    return kept, [m.terms.decode(g) for g in goals]


def test_candidates_no_rule_instance_derives_are_kept_unproved(monkeypatch):
    """x a A, y a B and c r d have no one-step derivation in the closure,
    so minimize keeps them without a proof; x a B, a q b and b q a do."""
    schema = Graph([Triple(IRI(EX + "A"), RDFS_SUBCLASSOF, IRI(EX + "B")),
                    Triple(IRI(EX + "q"), RDF_TYPE, OWL_SYMMETRIC)])
    typed = [Triple(IRI(EX + x), RDF_TYPE, IRI(EX + c)) for x, c in ("xA", "xB", "yB")]
    graph = Graph([*typed, t("a", "q", "b"), t("b", "q", "a"), t("c", "r", "d")])
    rules = compile_schema(schema)
    kept, goals = _minimize_counting_proofs(monkeypatch, graph, rules, EMPTY_GRAPH)
    assert goals == [t("a", "q", "b"), t("b", "q", "a"), typed[1]]  # canonical order
    assert kept == _greedy_naive_elimination(graph, rules, EMPTY_GRAPH) == graph.discard(
        typed[1]).discard(t("a", "q", "b"))


@pytest.mark.parametrize("seed", range(20))
def test_minimize_proves_exactly_the_candidates_a_rule_instance_derives(monkeypatch, seed):
    """The goals minimize proves are the candidates that head some rule
    instance whose body lies in the naive closure, each once; the rest
    are kept unproved, and the survivors are the greedy naive ones."""
    rng = random.Random(seed)
    graph, rules, universe = random_instance(rng, min_triples=10, max_triples=25, max_rules=6,
                                             literals=True)
    aux = Graph(rng.sample(all_candidates(universe), 4))
    kept, goals = _minimize_counting_proofs(monkeypatch, graph, rules, aux)
    heads = rule_heads(naive_closure(graph | aux, rules), rules)
    assert len(goals) == len(set(goals))
    assert set(goals) == (graph - aux).triples & heads
    assert kept == _greedy_naive_elimination(graph, rules, aux)


def test_a_stored_instance_after_a_cyclic_one_proves_the_goal():
    """a r b's first instance waits on a q b, which waits on a r b itself;
    only the third rule's instance, whose body a s b is stored, proves it."""
    rules = parse_rules(f"@prefix ex: <{EX}> .\n"
                        "{ ?x ex:q ?y } => { ?x ex:r ?y } .\n"
                        "{ ?x ex:r ?y } => { ?x ex:q ?y } .\n"
                        "{ ?x ex:s ?y } => { ?x ex:r ?y } .\n")
    graph = Graph([t("a", "r", "b"), t("a", "s", "b")])
    kept = reduce(graph, rules)
    assert kept == Graph([t("a", "s", "b")])
    assert kept == _greedy_naive_elimination(graph, rules, EMPTY_GRAPH)


def _reaches(successors: dict, start, goal, skip=None) -> bool:
    """Whether a path of edges other than skip leads from start to goal."""
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for nxt in successors.get(node, ()):
            if (node, nxt) == skip:
                continue
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _assert_transitive_reduction(graph: Graph, minimal: Graph, p: IRI) -> None:
    """With p's transitivity the only rule, minimal keeps every triple of
    another predicate, still joins the ends of every p triple of graph,
    and keeps no p triple that its other p triples join."""
    assert minimal.triples <= graph.triples
    assert {x for x in graph if x.predicate != p} <= minimal.triples
    successors: dict = {}
    for x in minimal:
        if x.predicate == p:
            successors.setdefault(x.subject, []).append(x.object)
    for x in graph:
        if x.predicate == p:
            assert _reaches(successors, x.subject, x.object), x.ntriples()
    for a, ends in successors.items():
        for b in ends:
            assert not _reaches(successors, a, b, skip=(a, b)), (a, b)


def _random_triples(rng: random.Random, n: int, nodes: int, predicates: str) -> Graph:
    triples = set()
    while len(triples) < n:
        a, b = rng.sample(range(nodes), 2)
        triples.add(t(f"n{a}", rng.choice(predicates), f"n{b}"))
    return Graph(triples)


def test_transitive_reduce_on_200_triples_over_60_nodes():
    graph = _random_triples(random.Random(3), 200, 60, "pqr")
    rules = trans("p")
    minimal = reduce(graph, rules)
    closed = naive_closure(graph, rules)
    assert closure(graph, rules).graph.triples == closed
    assert naive_closure(minimal, rules) == closed
    # Only p has a rule, so every q and r triple stays, and a p triple is
    # redundant exactly when the other kept p triples still join its ends.
    p = IRI(EX + "p")
    _assert_transitive_reduction(graph, minimal, p)
    assert (sum(1 for x in minimal if x.predicate == p)
            < sum(1 for x in graph if x.predicate == p))


def _sparse_forest(rng: random.Random) -> Graph:
    """1000 p triples over 700 nodes: a random forest of depth at most
    5 whose edges point at parents, shortcuts from nodes to their further
    ancestors, and 50 edges between random nodes, which can close cycles."""
    parent: dict[int, int] = {}
    depth = {0: 0}
    for n in range(1, 700):
        a = rng.randrange(n)
        if depth[a] < 5 and rng.random() > 0.02:
            parent[n], depth[n] = a, depth[a] + 1
        else:
            depth[n] = 0
    edges = set(parent.items())
    while len(edges) < 950:
        n = m = rng.randrange(700)
        ancestors = []
        while m in parent:
            m = parent[m]
            ancestors.append(m)
        if ancestors:
            edges.add((n, rng.choice(ancestors)))
    while len(edges) < 1000:
        edges.add(tuple(rng.sample(range(700), 2)))
    return Graph([t(f"n{a}", "p", f"n{b}") for a, b in edges])


# The naive oracle would take one closure per kept triple to check
# minimality here, so these graphs are checked by reachability alone.
@pytest.mark.parametrize("graph", [
    _random_triples(random.Random(3), 200, 60, "pq"),
    _sparse_forest(random.Random(1)),
], ids=["dense_200_triples_two_predicates", "sparse_1000_triples"])
def test_transitive_reduce_is_minimal_by_reachability(graph):
    minimal = reduce(graph, trans("p"))
    _assert_transitive_reduction(graph, minimal, IRI(EX + "p"))


# Which triples survive, not only that they are minimal: candidates are
# visited in canonical order, so the survivors follow from the graph alone,
# whatever the hash seed or the order in which the prover searches.
@pytest.mark.parametrize("graph, kept, digest", [
    (_random_triples(random.Random(3), 200, 60, "pq"), 163,
     "1c8a32da19bebf35e6707ebee7dd388845b339876f2f36f077a506ebec9f0c7d"),
    (_sparse_forest(random.Random(1)), 635,
     "cc858a45923cbcc1ea2b4a007af4d912843d3a9bcf9b3555abb9e43a61fb94ef"),
], ids=["dense_200_triples_two_predicates", "sparse_1000_triples"])
def test_transitive_reduce_keeps_the_pinned_survivors(graph, kept, digest):
    minimal = reduce(graph, trans("p"))
    assert len(minimal) == kept
    assert hashlib.sha256(serialize_turtle(minimal).encode()).hexdigest() == digest


# Counts the rule heads the prover dispatches in one library reduce of the
# data in argv[1] under the schema in argv[2]; prints it and the survivors.
_COUNT_DISPATCHES = """
import sys
from graphnorm import compile_schema, engine, parse_turtle, reduce
calls = 0
dispatched = engine._dispatched
def counted(index, t):
    global calls
    calls += 1
    return dispatched(index, t)
engine._dispatched = counted
kept = reduce(parse_turtle(sys.argv[1]), compile_schema(parse_turtle(sys.argv[2])))
print(calls, len(kept))
"""


def test_library_reduce_does_the_same_work_under_every_hash_seed():
    """reduce encodes its Graph in canonical order, so the term ids, the
    store's order and with them the prover's whole search, not only the
    survivors, are the same whatever the hash seed."""
    argv = [sys.executable, "-c", _COUNT_DISPATCHES,
            serialize_turtle(_random_triples(random.Random(3), 200, 60, "pq")),
            f"<{EX}p> a <http://www.w3.org/2002/07/owl#TransitiveProperty> ."]
    counts = {seed: subprocess.run(argv, capture_output=True, text=True, check=True,
                                   env=cli_env(seed)).stdout for seed in ("0", "1", "987")}
    assert counts == dict.fromkeys(("0", "1", "987"), "35947 163\n")


_PERSON_DATA = parse_turtle(f"@prefix ex: <{EX}> .\nex:bob ex:knows ex:alice .\n")
_PERSON_AUX = parse_turtle(
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    f"@prefix ex: <{EX}> .\n"
    "ex:knows rdfs:domain ex:Person .\n"
)
_C1_UNDER_C2 = compile_schema(
    Graph([Triple(IRI(EX + "C1"), RDFS_SUBCLASSOF, IRI(EX + "C2"))]))
_N_C1 = Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "C1"))
_N_C2 = Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "C2"))


# Updated graphs and their minimal graphs: each full graph is the result of
# a diff, and reducing it gives the same survivors whatever came before.
@pytest.mark.parametrize("full, rules, aux, expected", [
    # The inserted a p b is redundant next to b p a.
    (Graph([t("b", "p", "a"), t("a", "p", "b")]), sym("p"), EMPTY_GRAPH,
     Graph([t("b", "p", "a")])),
    # The inserted subclass statement makes the superclass one redundant.
    (Graph([_N_C2, _N_C1]), _C1_UNDER_C2, EMPTY_GRAPH, Graph([_N_C1])),
    # Deleting b p a, the survivor of {a p b, b p a}, leaves a p b.
    (Graph([t("a", "p", "b")]), sym("p"), EMPTY_GRAPH, Graph([t("a", "p", "b")])),
    # An empty diff keeps the previous result.
    (Graph([t("a", "p", "b"), t("b", "p", "a")]), sym("p"), EMPTY_GRAPH,
     Graph([t("b", "p", "a")])),
    # The inserted type statement is derivable through aux's domain.
    (_PERSON_DATA.add(Triple(IRI(EX + "bob"), RDF_TYPE, IRI(EX + "Person"))),
     compile_schema(_PERSON_AUX), _PERSON_AUX, _PERSON_DATA),
], ids=["pure_insertion_redundant", "surviving_insertion_makes_old_survivor_redundant",
        "deletion_of_support", "empty_diff_keeps_previous_result", "aux_threads_through"])
def test_reduce_of_an_updated_graph(full, rules, aux, expected):
    assert reduce(full, rules, aux) == expected


def test_reduce_of_a_9000_class_chain_leaves_the_recursion_limit_alone():
    # x0..x2 are typed C0, C4500 and C9000: the proofs of the last two
    # types walk 4500 and 9000 subClassOf steps.
    classes, rules = chain(9001)
    graph = Graph([Triple(IRI(EX + f"x{j}"), RDF_TYPE, classes[k])
                   for k in (0, 4500, 9000) for j in range(3)])
    limit = sys.getrecursionlimit()
    assert reduce(graph, rules) == Graph([x for x in graph if x.object == classes[0]])
    assert sys.getrecursionlimit() == limit


def test_reduce_with_a_400_atom_rule_body_leaves_the_recursion_limit_alone():
    # The head's only instance is the whole 400-edge path: _ground walks
    # it 400 body atoms deep.
    n = 400
    body = " . ".join(f"?x{i} <{EX}p{i}> ?x{i + 1}" for i in range(n))
    rules = parse_rules(f"{{ {body} }} => {{ ?x0 <{EX}q> ?x{n} }} .")
    path = [t(f"x{i}", f"p{i}", f"x{i + 1}") for i in range(n)]
    limit = sys.getrecursionlimit()
    assert reduce(Graph([*path, t("x0", "q", f"x{n}")]), rules) == Graph(path)
    assert sys.getrecursionlimit() == limit
