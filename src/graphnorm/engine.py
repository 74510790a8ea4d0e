"""Forward chaining, goal-directed proving, and graph minimization.

The engine works on interned triples. Each materialization encodes every
ground term it meets as a dense int, once, and holds triples as (s, p, o)
int tuples in one store, _Store, whose indexes are built on first use,
per predicate for lookups that bind it, so adding a triple touches no
index of another predicate. Rules are compiled against the same
dictionary: constants become term ids and variables negative ints.
closure() decodes nothing: ClosureResult.graph decodes the derived
triples into Triple values on its first read, beside the input's own
Triple objects, and the closure command renders its text from the store,
each distinct term once (_Materialization.render), without ever building
Triples. Ids are handed out in set-iteration order, which varies with the
hash seed, so nothing observable may depend on them: Graph iteration and
render() sort by the rendered terms.

closure() saturates a graph under safe rules with semi-naive iteration:
each round only considers rule instantiations that touch a triple derived
in the previous round. The delta is grouped by predicate (and object,
where an atom has both constant), and each body atom is applied once to
the batch its constants select; atoms with a variable predicate see the
whole delta. A one-atom body that matches its whole batch is a
projection: each head triple is picked out of the matched triple and the
rule's constants. Other atoms are unified with each triple of the batch
and the rest of the body is joined against the store. A round's new
triples enter the store in one bulk add.

reduce() is the redundancy eliminator: walk the graph in canonical order
and drop every triple the remaining triples still entail. Auxiliary
triples (typically schema) support the proofs but are never candidates
and never part of the result.

Each of those decisions is a backward proof over the shrinking working
store, grounded in the materialization M = closure(graph | aux), whose
store and dictionary the prover shares rather than indexing M again. The
rules are monotone and the working store is always a subset of
graph | aux, so every triple provable from it already lies in M: a goal
outside M fails at once, and the candidate groundings of a body atom are
the triples of M that match it, not every combination of terms. A goal
is tried only against the rule heads that can produce it, dispatched the
same way as the forward body atoms. Body atoms are solved left-to-right,
first against the stored triples and then against the derivable ones in
M. An ancestor set cuts cyclic goals. The proof recursion can go deeper
than the interpreter's default limit, so reduce() raises the limit while
it proves and restores it before it returns or raises; importing the
module changes no interpreter setting.

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
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator

from .graph import EMPTY_GRAPH, Graph
from .rules import RuleSet, TriplePattern
from .terms import IRI, BlankNode, GroundTerm, Triple, Variable, _Frozen, _set

# An interned triple (s, p, o) of term ids. In a compiled atom the same
# positions hold term ids for constants and negative ints for variables.
_Ids = tuple[int, int, int]
_Binding = dict[int, int]
_NO_BINDING: _Binding = {}  # never mutated: _unify copies before it writes
_EMPTY_CUTS: frozenset[_Ids] = frozenset()

_IRI, _BLANK, _LITERAL = 0, 1, 2


class _Terms:
    """Dictionary encoding of ground terms as dense ints."""

    __slots__ = ("ids", "terms", "kinds")

    def __init__(self) -> None:
        self.ids: dict[GroundTerm, int] = {}
        self.terms: list[GroundTerm] = []
        self.kinds = bytearray()

    def intern(self, term: GroundTerm) -> int:
        i = self.ids.get(term)
        if i is None:
            i = self.ids[term] = len(self.terms)
            self.terms.append(term)
            self.kinds.append(_IRI if isinstance(term, IRI)
                              else _BLANK if isinstance(term, BlankNode) else _LITERAL)
        return i

    def encode(self, t: Triple) -> _Ids:
        return (self.intern(t.subject), self.intern(t.predicate), self.intern(t.object))

    def decode(self, t: _Ids) -> Triple:
        terms = self.terms
        return Triple(terms[t[0]], terms[t[1]], terms[t[2]])

    def compile(self, atom: TriplePattern, variables: dict[str, int]) -> _Ids:
        """Term ids for constants; variable number k becomes -1 - k."""
        return tuple(-1 - variables.setdefault(x.name, len(variables))
                     if isinstance(x, Variable) else self.intern(x)
                     for x in atom.terms())


_S, _P, _O = itemgetter(0), itemgetter(1), itemgetter(2)
_SO = itemgetter(0, 2)
_NO_INDEXES: dict = {}  # never mutated


class _Store:
    """A mutable set of interned triples with lookup by bound positions.

    Indexes are kept per predicate: a lookup with a bound predicate uses
    indexes over that predicate's triples only, and one with a variable
    predicate those filed under None, over all triples. Each is built on
    the first lookup that needs it and maintained by every later add and
    remove. Callers must not mutate the store while consuming a match.
    """

    __slots__ = ("triples", "_indexes")

    def __init__(self, triples: Iterable[_Ids]):
        self.triples: set[_Ids] = set(triples)
        self._indexes: dict[int | None, dict[itemgetter, dict]] = {}

    def add(self, t: _Ids) -> None:
        self.update((t,))

    def update(self, triples: Collection[_Ids]) -> None:
        self.triples.update(triples)
        indexes = self._indexes
        if indexes:
            for t in triples:
                for p in (None, t[1]):
                    for key, index in indexes.get(p, _NO_INDEXES).items():
                        index.setdefault(key(t), set()).add(t)

    def remove(self, t: _Ids) -> None:
        if t in self.triples:
            self.triples.remove(t)
            for p in (None, t[1]):
                for key, index in self._indexes.get(p, _NO_INDEXES).items():
                    index[key(t)].discard(t)

    def _index(self, key: itemgetter, p: int | None = None) -> dict:
        indexes = self._indexes.get(p)
        if indexes is None:
            indexes = self._indexes[p] = {}
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = {}
            for t in self.triples:
                if p is None or t[1] == p:
                    index.setdefault(key(t), set()).add(t)
        return index

    def match(self, s: int | None, p: int | None, o: int | None) -> Iterable[_Ids]:
        if p is None:
            if s is None:
                if o is None:
                    return self.triples
                return self._index(_O).get(o, ())
            if o is None:
                return self._index(_S).get(s, ())
            return self._index(_SO).get((s, o), ())
        if s is None:
            if o is None:
                return self._index(_P, p).get(p, ())
            return self._index(_O, p).get(o, ())
        if o is None:
            return self._index(_S, p).get(s, ())
        t = (s, p, o)
        return (t,) if t in self.triples else ()


def _unify(atom: _Ids, t: _Ids, binding: _Binding) -> _Binding | None:
    """The binding extended so that atom matches t, or None."""
    extended = binding
    for want, got in zip(atom, t):
        if want >= 0:
            if want != got:
                return None
        else:
            bound = extended.get(want)
            if bound is None:
                if extended is binding:
                    extended = dict(binding)
                extended[want] = got
            elif bound != got:
                return None
    return extended


def _match(store: _Store, atom: _Ids, binding: _Binding) -> Iterator[tuple[_Ids, _Binding]]:
    """Each triple of the store that atom matches under binding, with the
    binding extended by the match."""
    s, p, o = (x if x >= 0 else binding.get(x) for x in atom)
    for t in store.match(s, p, o):
        extended = _unify(atom, t, binding)
        if extended is not None:
            yield t, extended


def _dispatch_key(atom: _Ids) -> int | tuple[int, int] | None:
    """Where an atom is filed for dispatch: its constant (predicate, object),
    else its constant predicate, else None for atoms that see every triple."""
    _, p, o = atom
    if p < 0:
        return None
    return (p, o) if o >= 0 else p


def _dispatched(index: dict, t: _Ids) -> list:
    """The entries filed under the keys a triple can match."""
    return index.get(t[1], []) + index.get(t[1:], []) + index.get(None, [])


# Applies one body atom to the batch of a round's delta that its dispatch
# key selects, adding the head instantiations to the given set.
_Plan = Callable[[Collection[_Ids], set[_Ids]], None]


def _group(triples: Iterable[_Ids], key: itemgetter) -> dict[int, list[_Ids]]:
    groups: dict[int, list[_Ids]] = {}
    for t in triples:
        groups.setdefault(key(t), []).append(t)
    return groups


def _projection(atom: _Ids, head: tuple[_Ids, ...], kinds: bytearray) -> _Plan | None:
    """A one-atom body as a projection, or None where its batch may hold
    triples it does not match: with a constant subject, a repeated
    variable, or a constant object under a variable predicate."""
    s, p, o = atom
    variables = [x for x in atom if x < 0]
    if s >= 0 or len(set(variables)) != len(variables) or (p < 0 and o >= 0):
        return None
    constants = tuple(dict.fromkeys(x for h in head for x in h if x >= 0))
    where = {x: i for i, x in enumerate(atom) if x < 0}
    where.update((c, 3 + i) for i, c in enumerate(constants))
    picks = []
    for h in head:
        # Only a term moved into subject or predicate position can be invalid.
        checked = (h[0] < 0 and where[h[0]] != 0) or (h[1] < 0 and where[h[1]] != 1)
        picks.append((itemgetter(*(where[x] for x in h)), checked))

    def plan(batch: Collection[_Ids], produced: set[_Ids]) -> None:
        rows = [t + constants for t in batch] if constants else batch
        for pick, checked in picks:
            if checked:
                produced.update(h for h in map(pick, rows)
                                if kinds[h[0]] != _LITERAL and kinds[h[1]] == _IRI)
            else:
                produced.update(map(pick, rows))
    return plan


def _join(atom: _Ids, rest: tuple[_Ids, ...], head: tuple[_Ids, ...], store: _Store,
          kinds: bytearray) -> _Plan:
    """Unify atom with each triple of the batch and join the rest of the
    body against the store. Safe rules ground every head variable, but an
    instantiation can still be positionally invalid (literal subject,
    non-IRI predicate); it is skipped."""
    def plan(batch: Collection[_Ids], produced: set[_Ids]) -> None:
        for t in batch:
            seed = _unify(atom, t, _NO_BINDING)
            if seed is None:
                continue
            bindings = [seed]
            for other in rest:
                bindings = [b2 for b in bindings for _, b2 in _match(store, other, b)]
            for b in bindings:
                for h in head:
                    s, p, o = (x if x >= 0 else b[x] for x in h)
                    if kinds[s] != _LITERAL and kinds[p] == _IRI:
                        produced.add((s, p, o))
    return plan


class _Materialization:
    """A graph and rules interned in one dictionary: the compiled rules,
    the encoded input triples, and the store, which holds the whole
    closure once saturate() has run."""

    __slots__ = ("terms", "rules", "base", "store")

    def __init__(self, graph: Graph, rules: RuleSet):
        self.terms = terms = _Terms()
        self.rules: list[tuple[tuple[_Ids, ...], tuple[_Ids, ...]]] = []
        for rule in rules:
            variables: dict[str, int] = {}
            body = tuple(terms.compile(atom, variables) for atom in rule.body)
            head = tuple(terms.compile(atom, variables) for atom in rule.head)
            self.rules.append((body, head))
        self.base = [terms.encode(t) for t in graph.triples]
        self.store = _Store(self.base)

    def saturate(self) -> tuple[list[_Ids], int]:
        """Run the rules to fixpoint; returns the derived triples and rounds."""
        store, kinds = self.store, self.terms.kinds
        plans: dict[int | tuple[int, int] | None, list[_Plan]] = {}
        for body, head in self.rules:
            for i, atom in enumerate(body):
                plan = ((len(body) == 1 and _projection(atom, head, kinds))
                        or _join(atom, body[:i] + body[i + 1:], head, store, kinds))
                plans.setdefault(_dispatch_key(atom), []).append(plan)
        # The predicates whose batches are split again by object.
        split = {key[0] for key in plans if isinstance(key, tuple)}
        derived: list[_Ids] = []
        rounds = 0
        delta: Collection[_Ids] = self.base
        while True:
            produced: set[_Ids] = set()
            for p, batch in _group(delta, _P).items():
                for plan in plans.get(p, ()):
                    plan(batch, produced)
                if p in split:
                    for o, sub in _group(batch, _O).items():
                        for plan in plans.get((p, o), ()):
                            plan(sub, produced)
            for plan in plans.get(None, ()):
                plan(delta, produced)
            produced -= store.triples
            if not produced:
                return derived, rounds
            rounds += 1
            derived.extend(produced)
            store.update(produced)
            delta = produced

    def render(self, without: Graph) -> str:
        """The store minus the input triples in without, as the text
        serialize_turtle gives for their Graph: each line is the
        Triple.ntriples() of its terms' own renderings, and the lines are
        sorted the same way."""
        ids = self.terms.ids
        dropped = {(ids[t.subject], ids[t.predicate], ids[t.object]) for t in without.triples}
        texts = [term.ntriples() for term in self.terms.terms]
        return "".join(sorted([f"{texts[s]} {texts[p]} {texts[o]} .\n"
                               for s, p, o in self.store.triples - dropped]))


class ClosureResult(_Frozen):
    # _materialization, the interned closure for the prover (reduce(...,
    # closed=result)) and for render(), stays out of equality and repr.
    # graph is decoded from it on first read and kept.
    __slots__ = ("_input", "_derived", "_graph", "derived_count", "rounds",
                 "_materialization")
    _fields = ("graph", "derived_count", "rounds")

    def __init__(self, graph: Graph, derived: list[_Ids], rounds: int,
                 _materialization: _Materialization) -> None:
        _set(self, "_input", graph)
        _set(self, "_derived", derived)
        _set(self, "_graph", None)
        _set(self, "derived_count", len(derived))
        _set(self, "rounds", rounds)
        _set(self, "_materialization", _materialization)

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            decode = self._materialization.terms.decode
            _set(self, "_graph", Graph(self._input.triples.union(map(decode, self._derived))))
        return self._graph


def closure(graph: Graph, rules: RuleSet) -> ClosureResult:
    """Saturate the graph under the rules (semi-naive, to fixpoint)."""
    m = _Materialization(graph, rules)
    derived, rounds = m.saturate()
    return ClosureResult(graph, derived, rounds, m)


class _Prover:
    """Backward proofs over a working store that only shrinks.

    The working store starts as the input of the materialization, whose
    closure therefore contains every triple the store can ever prove.
    """

    def __init__(self, m: _Materialization):
        self.store = _Store(m.base)
        self._closed = m.store
        self._heads: dict = {}
        for body, head in m.rules:
            for atom in head:
                self._heads.setdefault(_dispatch_key(atom), []).append((atom, body))
        self._proved: set[_Ids] = set()
        self._failed: set[_Ids] = set()
        self._run_memo: dict[_Ids, frozenset[_Ids]] = {}

    def prove(self, goal: _Ids) -> bool:
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

    def _prove(self, goal: _Ids, path: set[_Ids]) -> tuple[bool, frozenset[_Ids]]:
        if goal in self.store.triples:
            return True, _EMPTY_CUTS
        if goal not in self._closed.triples:
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
        cuts: set[_Ids] = set()
        for atom, body in _dispatched(self._heads, goal):
            binding = _unify(atom, goal, _NO_BINDING)
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

    def _solve(self, atoms: tuple[_Ids, ...], i: int, binding: _Binding,
               path: set[_Ids]) -> tuple[bool, frozenset[_Ids]]:
        if i == len(atoms):
            return True, _EMPTY_CUTS
        atom = atoms[i]
        cuts: set[_Ids] = set()
        for _, extended in _match(self.store, atom, binding):
            ok, c = self._solve(atoms, i + 1, extended, path)
            if ok:
                return True, _EMPTY_CUTS
            cuts |= c
        ok, c = self._solve_derived(atom, atoms, i, binding, path)
        if ok:
            return True, _EMPTY_CUTS
        cuts |= c
        return False, frozenset(cuts) if cuts else _EMPTY_CUTS

    def _solve_derived(self, atom, atoms, i, binding, path) -> tuple[bool, frozenset[_Ids]]:
        cuts: set[_Ids] = set()
        for goal, extended in _match(self._closed, atom, binding):
            if goal in self.store.triples:
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


def reduce(graph: Graph, rules: RuleSet, aux: Graph = EMPTY_GRAPH, *,
           closed: ClosureResult | None = None) -> Graph:
    """Drop every triple that the remaining triples still entail.

    Candidates are visited in canonical order, so the result is
    deterministic. Each is dropped iff the other triples still kept, with
    aux, entail it; the proofs are grounded in closed, which must be
    closure(graph | aux, rules) and is computed here unless the caller
    already has it. aux triples back the proofs but are never candidates;
    the result is always a subset of the input graph, and its closure
    (taken together with aux) equals the input's.
    """
    if closed is None:
        closed = closure(graph | aux, rules)
    m = closed._materialization
    prover = _Prover(m)
    kept: list[Triple] = []
    # Proof depth is bounded by the number of distinct ground goals, which
    # can exceed the default recursion limit on chain-heavy graphs.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        for t in graph:
            if t in aux:
                continue
            goal = m.terms.encode(t)
            prover.store.remove(goal)
            if not prover.prove(goal):
                prover.store.add(goal)
                kept.append(t)
    finally:
        sys.setrecursionlimit(limit)
    return Graph(kept)
