"""Forward chaining, goal-directed proving, and graph minimization.

closure() saturates a graph under safe rules with semi-naive iteration:
each round only considers rule instantiations that touch a triple derived
in the previous round.

backchain() answers whether one ground triple is entailed by looking it
up in the closure, which is computed once per (graph, rules) pair.

reduce() is the redundancy eliminator: walk the graph in canonical order
and drop every triple the remaining triples still entail. Auxiliary
triples (typically schema) support the proofs but are never candidates
and never part of the result.

Each of those decisions is a backward proof over the shrinking working
store, grounded in the materialization M = closure(graph | aux). The
rules are monotone and the working store is always a subset of
graph | aux, so every triple provable from it already lies in M: a goal
outside M fails at once, and the candidate groundings of a body atom are
the triples of M that match it, not every combination of terms. Body
atoms are solved left-to-right, first against the stored triples and
then against the derivable ones in M. An ancestor set cuts cyclic goals.

Failure caching is the delicate part. A goal that failed only because a
branch was cut on some ancestor might still be provable in another
context, so each failure is tagged with the set of goals whose cuts it
depended on. Failures with no dependencies are definitive and cached
permanently; dependent failures are memoized only for the current run,
which bounds every run to one expansion per goal. A run that neither
proves the query nor proves any new subgoal is quiescent, and for
monotone rules quiescence makes the failure final: any derivable goal
would have to have a minimal-height derivation whose body atoms were all
either found or themselves visited-and-failed at smaller height.

Permanent failure entries stay valid across the candidate tests of one
reduce() pass: the tested graph only ever shrinks, except for the one
triple under test, and any failure that depended on that triple's absence
was cut on it (the candidate is the root of its own proof, hence always
on the path) and therefore never cached permanently.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import EMPTY_GRAPH, Diff, Graph
from .rules import Rule, RuleSet, TriplePattern
from .terms import IRI, BlankNode, GroundTerm, Literal, Term, Triple, Variable

# Proof depth is bounded by the number of distinct ground goals, which can
# exceed the default interpreter recursion limit on chain-heavy graphs.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

_Binding = dict[str, GroundTerm]
_EMPTY_CUTS: frozenset[Triple] = frozenset()


class IndexedStore:
    """Mutable triple set with lookup by any bound subset of positions."""

    __slots__ = ("_all", "_s", "_p", "_o", "_sp", "_po", "_so")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._all: set[Triple] = set()
        self._s: dict = defaultdict(set)
        self._p: dict = defaultdict(set)
        self._o: dict = defaultdict(set)
        self._sp: dict = defaultdict(set)
        self._po: dict = defaultdict(set)
        self._so: dict = defaultdict(set)
        for t in triples:
            self.add(t)

    def add(self, t: Triple) -> None:
        if t in self._all:
            return
        self._all.add(t)
        self._s[t.subject].add(t)
        self._p[t.predicate].add(t)
        self._o[t.object].add(t)
        self._sp[(t.subject, t.predicate)].add(t)
        self._po[(t.predicate, t.object)].add(t)
        self._so[(t.subject, t.object)].add(t)

    def remove(self, t: Triple) -> None:
        if t not in self._all:
            return
        self._all.remove(t)
        self._s[t.subject].discard(t)
        self._p[t.predicate].discard(t)
        self._o[t.object].discard(t)
        self._sp[(t.subject, t.predicate)].discard(t)
        self._po[(t.predicate, t.object)].discard(t)
        self._so[(t.subject, t.object)].discard(t)

    def __contains__(self, t: Triple) -> bool:
        return t in self._all

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._all)

    def match(self, s, p, o) -> Iterable[Triple]:
        # Callers must not mutate the store while consuming a match.
        if s is not None and p is not None and o is not None:
            t = Triple(s, p, o)
            return (t,) if t in self._all else ()
        if s is not None and p is not None:
            return self._sp.get((s, p), ())
        if p is not None and o is not None:
            return self._po.get((p, o), ())
        if s is not None and o is not None:
            return self._so.get((s, o), ())
        if s is not None:
            return self._s.get(s, ())
        if p is not None:
            return self._p.get(p, ())
        if o is not None:
            return self._o.get(o, ())
        return self._all


def _subst(term: Term, binding: _Binding):
    if isinstance(term, Variable):
        return binding.get(term.name, term)
    return term


def _query_part(term):
    return None if isinstance(term, Variable) else term


def _match_atom(store: IndexedStore, atom: TriplePattern, binding: _Binding) -> Iterator[_Binding]:
    s = _subst(atom.subject, binding)
    p = _subst(atom.predicate, binding)
    o = _subst(atom.object, binding)
    if isinstance(s, Literal) or isinstance(p, (Literal, BlankNode)):
        return
    pattern = (s, p, o)
    for t in store.match(_query_part(s), _query_part(p), _query_part(o)):
        found = (t.subject, t.predicate, t.object)
        extended = binding
        ok = True
        for want, got in zip(pattern, found):
            if isinstance(want, Variable):
                bound = extended.get(want.name)
                if bound is None:
                    if extended is binding:
                        extended = dict(binding)
                    extended[want.name] = got
                elif bound != got:
                    ok = False
                    break
            elif want != got:
                ok = False
                break
        if ok:
            yield extended


def _instantiate_head(atom: TriplePattern, binding: _Binding) -> Triple | None:
    s = _subst(atom.subject, binding)
    p = _subst(atom.predicate, binding)
    o = _subst(atom.object, binding)
    # Safe rules ground every head variable; an instantiation can still be
    # positionally invalid (literal subject, non-IRI predicate) and is skipped.
    if not isinstance(s, (IRI, BlankNode)) or not isinstance(p, IRI):
        return None
    if not isinstance(o, (IRI, BlankNode, Literal)):
        return None
    return Triple(s, p, o)


@dataclass(frozen=True)
class ClosureResult:
    graph: Graph
    derived_count: int
    rounds: int


def closure(graph: Graph, rules: RuleSet) -> ClosureResult:
    """Saturate the graph under the rules (semi-naive, to fixpoint)."""
    rule_list = tuple(rules)
    store = IndexedStore(graph.triples)
    delta: IndexedStore = store
    rounds = 0
    derived = 0
    while len(delta):
        produced: set[Triple] = set()
        for rule in rule_list:
            body = rule.body
            for i in range(len(body)):
                for seed in _match_atom(delta, body[i], {}):
                    bindings = [seed]
                    for j, other in enumerate(body):
                        if j == i or not bindings:
                            continue
                        bindings = [
                            b2 for b in bindings for b2 in _match_atom(store, other, b)
                        ]
                    for b in bindings:
                        for head_atom in rule.head:
                            t = _instantiate_head(head_atom, b)
                            if t is not None:
                                produced.add(t)
        new = {t for t in produced if t not in store}
        if not new:
            break
        rounds += 1
        derived += len(new)
        for t in new:
            store.add(t)
        delta = IndexedStore(new)
    return ClosureResult(Graph(store), derived, rounds)


def _match_head(atom: TriplePattern, goal: Triple) -> _Binding | None:
    binding: _Binding = {}
    for want, got in zip(atom.terms(), (goal.subject, goal.predicate, goal.object)):
        if isinstance(want, Variable):
            bound = binding.get(want.name)
            if bound is None:
                binding[want.name] = got
            elif bound != got:
                return None
        elif want != got:
            return None
    return binding


def _head_index(rules: RuleSet) -> dict:
    index: dict = defaultdict(list)
    for rule in rules:
        for atom in rule.head:
            key = atom.predicate if isinstance(atom.predicate, IRI) else None
            index[key].append((atom, rule.body))
    return dict(index)


class _Prover:
    """One minimization pass over a working store that only shrinks.

    closed must contain the closure of the initial working store; since
    the store only shrinks, every proof stays grounded in it.
    """

    def __init__(self, working: Graph, rules: RuleSet, closed: Graph):
        self._store = IndexedStore(working.triples)
        self._heads = _head_index(rules)
        self._closed = IndexedStore(closed.triples)
        self._proved: set[Triple] = set()
        self._failed: set[Triple] = set()
        self._run_memo: dict[Triple, frozenset[Triple]] = {}

    def drop_entailed(self, candidates: Iterable[Triple], kept: set[Triple],
                      aux: Graph) -> bool:
        """Drop from kept each candidate the rest of the store entails.

        Candidates not in kept are skipped, and those in aux are dropped
        without a proof. Returns whether any tested candidate was kept.
        """
        any_kept = False
        for t in candidates:
            if t not in kept:
                continue
            if t in aux:
                kept.discard(t)
                continue
            self._store.remove(t)
            if self.prove(t):
                kept.discard(t)
            else:
                self._store.add(t)
                any_kept = True
        return any_kept

    def prove(self, goal: Triple) -> bool:
        # Proved goals hold only for the store as it is during this call.
        self._proved = set()
        while True:
            self._run_memo = {}
            proved_before = len(self._proved)
            ok, cuts = self._prove(goal, set())
            if ok:
                return True
            if not cuts:
                return False
            if len(self._proved) == proved_before:
                # Quiescent run: nothing new became provable, so the
                # cut-dependent failures cannot resolve any further.
                return False

    def _candidates(self, goal: Triple):
        yield from self._heads.get(goal.predicate, ())
        yield from self._heads.get(None, ())

    def _prove(self, goal: Triple, path: set[Triple]) -> tuple[bool, frozenset[Triple]]:
        if goal in self._store:
            return True, _EMPTY_CUTS
        if goal not in self._closed:
            return False, _EMPTY_CUTS
        if goal in self._proved:
            return True, _EMPTY_CUTS
        if goal in self._failed:
            return False, _EMPTY_CUTS
        memo = self._run_memo.get(goal)
        if memo is not None:
            return False, memo
        if goal in path:
            return False, frozenset((goal,))
        path.add(goal)
        cuts: set[Triple] = set()
        for atom, body in self._candidates(goal):
            binding = _match_head(atom, goal)
            if binding is None:
                continue
            ok, c = self._solve(body, 0, binding, path)
            if ok:
                path.remove(goal)
                self._proved.add(goal)
                return True, _EMPTY_CUTS
            cuts |= c
        path.remove(goal)
        cuts.discard(goal)
        if not cuts:
            # No branch was cut on any open goal, so every consulted failure
            # was itself definitive: the failure holds in any context.
            self._failed.add(goal)
            return False, _EMPTY_CUTS
        frozen = frozenset(cuts)
        self._run_memo[goal] = frozen
        return False, frozen

    def _solve(self, atoms: tuple[TriplePattern, ...], i: int, binding: _Binding,
               path: set[Triple]) -> tuple[bool, frozenset[Triple]]:
        if i == len(atoms):
            return True, _EMPTY_CUTS
        atom = atoms[i]
        cuts: set[Triple] = set()
        for extended in _match_atom(self._store, atom, binding):
            ok, c = self._solve(atoms, i + 1, extended, path)
            if ok:
                return True, _EMPTY_CUTS
            cuts |= c
        ok, c = self._solve_derived(atom, atoms, i, binding, path)
        if ok:
            return True, _EMPTY_CUTS
        cuts |= c
        return False, frozenset(cuts) if cuts else _EMPTY_CUTS

    def _solve_derived(self, atom, atoms, i, binding, path) -> tuple[bool, frozenset[Triple]]:
        cuts: set[Triple] = set()
        for extended in _match_atom(self._closed, atom, binding):
            goal = Triple(_subst(atom.subject, extended), _subst(atom.predicate, extended),
                          _subst(atom.object, extended))
            if goal in self._store:
                continue  # stored matches were already tried
            ok, c = self._prove(goal, path)
            if not ok:
                cuts |= c
                continue
            ok2, c2 = self._solve(atoms, i + 1, extended, path)
            if ok2:
                return True, _EMPTY_CUTS
            cuts |= c2
        return False, frozenset(cuts) if cuts else _EMPTY_CUTS


_closure_cache: "weakref.WeakKeyDictionary[Graph, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary()
)


def backchain(graph: Graph, rules: RuleSet, goal: Triple) -> bool:
    """True iff the goal is in the closure of the graph under the rules.

    The closure is materialized on the first query and kept per (graph,
    rules) pair: both are immutable, so later queries on the same pair are
    set lookups. The cache holds both keys weakly.
    """
    by_rules = _closure_cache.setdefault(graph, weakref.WeakKeyDictionary())
    closed = by_rules.get(rules)
    if closed is None:
        closed = closure(graph, rules).graph
        by_rules[rules] = closed
    return goal in closed


def reduce(graph: Graph, rules: RuleSet, aux: Graph = EMPTY_GRAPH, *,
           closed: Graph | None = None) -> Graph:
    """Drop every triple that the remaining triples still entail.

    Candidates are visited in canonical order, so the result is
    deterministic. Each is dropped iff the other triples still kept, with
    aux, entail it; the proofs are grounded in closed, the closure of
    graph | aux, which is computed here unless the caller already has it.
    aux triples back the proofs but are never candidates; the result is
    always a subset of the input graph, and its closure (taken together
    with aux) equals the input's.
    """
    working = graph | aux
    if closed is None:
        closed = closure(working, rules).graph
    kept = set(graph.triples)
    _Prover(working, rules, closed).drop_entailed(graph, kept, aux)
    return Graph(kept)


@dataclass(frozen=True)
class IncrementalResult:
    graph: Graph
    used_fallback: bool


def incremental_reduce(prev_min: Graph, diff: Diff, rules: RuleSet,
                       aux: Graph = EMPTY_GRAPH, *, full: Graph) -> IncrementalResult:
    """Update a previous minimization for a diff without re-reducing everything.

    Deletions are dropped from the previous minimal graph, insertions are
    tested as removal candidates, and if any insertion survives, the prior
    survivors are retested too (a new triple can make an old one redundant).
    The shortcut is unsound when a deletion removes support for a triple the
    previous minimization elided, so the result's closure is compared
    against the full graph's closure; on mismatch, the full graph is
    reduced from scratch and the fallback is flagged.
    """
    intermediate = prev_min - diff.deletions
    joined = intermediate | diff.insertions
    # Every drop is entailed by what stays, so the candidate's closure is
    # the closure of joined | aux, the materialization the proofs use.
    closed = closure(joined | aux, rules).graph
    kept = set(joined.triples)
    prover = _Prover(joined | aux, rules, closed)
    if prover.drop_entailed(diff.insertions, kept, aux):
        prover.drop_entailed(intermediate, kept, aux)
    full_closed = closure(full | aux, rules).graph
    if closed == full_closed:
        return IncrementalResult(Graph(kept), False)
    return IncrementalResult(reduce(full, rules, aux, closed=full_closed), True)
