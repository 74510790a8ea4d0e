"""Forward chaining, goal-directed proving, and graph minimization.

The engine works on (s, p, o) tuples of term ids from one dictionary,
terms._Terms, into which the CLI parses its data and the library encodes
its Graphs. They live in one store, _Store, indexed on first use per
predicate for lookups that bind it, so adding a triple touches no index
of another predicate; atoms with a variable predicate look up indexes
over all triples. Rules compile against the same dictionary:
constants become term ids, variables negative ints. Only what a library
function returns is decoded; the statistics count ids and the commands
render them (render, each distinct term once and one subject at a time).
Ids follow first occurrence: in the text the CLI parses, or in a Graph's
canonical order (_Terms.encode), then in the rules and the aux Graph.
So neither the ids nor the order in which the store iterates follows the
hash seed.

closure() saturates a graph under safe rules with semi-naive iteration:
each round only considers rule instantiations that touch a triple derived
in the previous round. The delta is grouped by predicate (and object,
where an atom has both constant), and each body atom is applied once to
the batch its constants select; atoms with a variable predicate see the
whole delta. One compiler (_compile) lays a rule out from a seed atom as
rows of matched triples end to end: the seed's triple comes first, and
each other atom is a step that extends the row by one index lookup. It
has two executors. Forward, each body atom is a seed, and its plan
(_plan) takes a batch's rows through the steps set at a time; a one-atom
body is the plan with no steps, a projection. A round's new triples
enter the store in one bulk add.

reduce() is the redundancy eliminator: minimize walks the input's ids in
canonical order and drops every triple the remaining ones still entail.
Auxiliary triples (typically schema) support the proofs but are never
candidates and never part of the result; reduce decodes what is kept.
Semi-naive evaluation fires every rule instance over the closure M once,
so saturation also records which data triples some instance derives,
where a minimize will follow. A candidate that none derives has no
one-step derivation in M, so no subset of the input entails it: it is
kept without a proof.

Each of those decisions is a proof over the shrinking working store,
grounded in the materialization M, the closure of graph and aux, whose
store and dictionary the prover shares rather than indexing M again. The rules are
monotone and the working store is always a subset of graph | aux, so
every triple it entails lies in M. Entailment is then the least fixpoint
over the ground rule instances whose body atoms all lie in M, as for
propositional Horn clauses (Dowling and Gallier, 1984): a goal holds if
it is stored or if some instance with that head has every body atom
stored or proved. The prover explores that fixpoint from the candidate,
keeping an explicit stack, so neither proof depth nor body length
reaches the interpreter's recursion limit. A goal is tried only against
the rule heads that can produce it, dispatched the same way as the
forward body atoms. Backward, each head atom is a seed: the goal seeds
the row, and a grounding walks the steps depth first, one lazy match
iterator per step, each matching its atom against the stored triples
first and then against the rest of M. A grounding stops at its first
atom that is neither stored nor proved: it watches that atom, which is
explored in turn, and resumes from its row once the atom is proved. The
candidate holds as soon as it is proved and fails once nothing is left
to explore. Each candidate's search starts afresh: only the working
store carries over to the next.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator

from .graph import EMPTY_GRAPH, Graph
from .rules import RuleSet
from .terms import _IRI, _LITERAL, _Frozen, _Ids, _set, _Terms

# A compiled atom holds term ids for constants and negative ints for
# variables; a compiled rule's row, term ids where _compile lays them out.
_Row = tuple[int, ...]
# One body atom's lookup: (key, predicate, row key, checks), see _compile.
_Step = tuple[itemgetter | None, int | None, itemgetter, list[tuple[int, int]]]

# The index keys, one per tuple of triple positions, shared because the
# store files its indexes by key object. () is a single bucket: t[:0].
_KEYS = {ks: itemgetter(*ks) if ks else itemgetter(slice(0))
         for ks in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}
_S, _P, _O = _KEYS[(0,)], _KEYS[(1,)], _KEYS[(2,)]
_NO_INDEXES: dict = {}  # never mutated


class _Store:
    """A mutable set of interned triples, the set it is given and owns: in
    through update, out through remove, looked up through _index. Indexes
    are kept per predicate, and under None over all triples; each is built
    on the first lookup that needs it and maintained by every later update
    and remove. Callers must not mutate the store while iterating a bucket.
    """

    __slots__ = ("triples", "_indexes")

    def __init__(self, triples: set[_Ids]):
        self.triples = triples
        self._indexes: dict[int | None, dict[itemgetter, dict]] = {}

    def update(self, triples: Collection[_Ids]) -> None:
        """Add triples in bulk: each indexed predicate filters them once."""
        self.triples.update(triples)
        for p, indexes in self._indexes.items():
            mine = triples if p is None else [t for t in triples if t[1] == p]
            for key, index in indexes.items():
                for t in mine:
                    index.setdefault(key(t), set()).add(t)

    def remove(self, t: _Ids) -> None:
        if t in self.triples:
            self.triples.remove(t)
            for p in (None, t[1]):
                for key, index in self._indexes.get(p, _NO_INDEXES).items():
                    index[key(t)].discard(t)

    def _index(self, key: itemgetter, p: int | None) -> dict:
        indexes = self._indexes.get(p) or self._indexes.setdefault(p, {})
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = {}
            for t in self.triples:
                if p is None or t[1] == p:
                    index.setdefault(key(t), set()).add(t)
        return index


def _dispatch_key(atom: _Ids) -> int | tuple[int, int] | None:
    """Where an atom is filed for dispatch: its constant (predicate, object),
    else its constant predicate, else None for atoms that see every triple."""
    _, p, o = atom
    return None if p < 0 else (p, o) if o >= 0 else p


def _dispatched(index: dict, t: _Ids) -> list:
    """The entries filed under the keys a triple can match."""
    return index.get(t[1], []) + index.get(t[1:], []) + index.get(None, [])


_Plan = Callable[[Collection[_Ids], set[_Ids]], None]


def _group(triples: Iterable[_Ids], key: itemgetter) -> dict[int, list[_Ids]]:
    groups: defaultdict[int, list[_Ids]] = defaultdict(list)
    for t in triples:
        groups[key(t)].append(t)
    return groups


def _compile(seed: _Ids, others: tuple[_Ids, ...], outs: tuple[_Ids, ...],
             kinds: bytearray) -> tuple[tuple[int, ...], list[tuple[int, int]], list[_Step], list]:
    """A rule laid out from seed, an atom filed by _dispatch_key: a row is
    the seed triple, the constants the dispatch key does not fix, and one
    matched triple per other atom, so each term has a fixed position.
    Returns the constants, the seed's checks, one step per other atom and
    one pick per out atom. A step whose atom is placed whole is a
    membership test, any other one lookup, store._index(key, q).get(
    row_key(row), ()): q is the atom's predicate, None if a variable, and
    key the _KEYS entry for the placed positions less a constant q's own,
    unless q is all that is placed. Only equalities that neither the dispatch key nor a lookup ensures are
    checked. A pick is one itemgetter over the row, flagged where it
    moves a term into subject or predicate position that it may not hold."""
    _, p, o = seed
    where = {p: 1, o: 2} if p >= 0 and o >= 0 else {p: 1} if p >= 0 else {}
    constants = tuple(dict.fromkeys(x for atom in (seed, *others, *outs) for x in atom
                                    if x >= 0 and x not in where))
    where.update((c, 3 + k) for k, c in enumerate(constants))

    def place(atom: _Ids, n: int, at: list[int | None]) -> list[tuple[int, int]]:
        """Place the unkeyed terms at n..n+2; returns the pairs to compare."""
        return [(n + k, where[x]) for k, x in enumerate(atom)
                if at[k] is None and where.setdefault(x, n + k) != n + k]

    seed_checks = place(seed, 0, [None] * 3)
    steps: list[_Step] = []
    first = n = 3 + len(constants)
    for atom in others:
        at = [where.get(x) for x in atom]
        q = atom[1] if atom[1] >= 0 else None
        placed = [k for k in range(3) if at[k] is not None]
        if len(placed) == 3:  # a membership test
            key, row_key = None, itemgetter(*at)
        else:  # q's index (all triples' if None) on the placed positions
            if q is not None and placed != [1]:  # q's index has only q there
                placed.remove(1)
            key = _KEYS[tuple(placed)]
            row_key = itemgetter(*(at[k] for k in placed)) if placed else key
        steps.append((key, q, row_key, place(atom, n, at)))
        n += 3
    subjects = {0, *range(first, n, 3), *(where[c] for c in constants if kinds[c] != _LITERAL)}
    predicates = {1, *range(first + 1, n, 3), *(where[c] for c in constants if kinds[c] == _IRI)}
    picks = [(itemgetter(*(where[x] for x in h)),
              where[h[0]] not in subjects or where[h[1]] not in predicates) for h in outs]
    return constants, seed_checks, steps, picks


def _plan(body: tuple[_Ids, ...], i: int, head: tuple[_Ids, ...], store: _Store,
          kinds: bytearray) -> _Plan:
    """Body atom i applied to its batch, set at a time: each step extends
    every row at once, with the store's index fetched once per batch."""
    constants, seed_checks, steps, picks = _compile(body[i], body[:i] + body[i + 1:], head, kinds)

    def valid(h: _Ids) -> bool:
        return kinds[h[0]] != _LITERAL and kinds[h[1]] == _IRI

    def plan(batch: Collection[_Ids], produced: set[_Ids]) -> None:
        rows = [t + constants for t in batch] if constants else batch
        for a, b in seed_checks:
            rows = [r for r in rows if r[a] == r[b]]
        for key, q, row_key, checks in steps:
            if key is None:
                triples = store.triples
                rows = [r + t for r in rows if (t := row_key(r)) in triples]
            else:
                get = store._index(key, q).get
                rows = [r + t for r in rows for t in get(row_key(r), ())]
            for a, b in checks:
                rows = [r for r in rows if r[a] == r[b]]
        for pick, checked in picks:
            heads = map(pick, rows)
            produced.update(filter(valid, heads) if checked else heads)
    return plan


def _rows(store: _Store, step: _Step, row: _Row) -> Iterator[_Row]:
    """The row extended by each triple of the store that the step
    matches, one at a time."""
    key, q, row_key, checks = step
    if key is None:  # places every term, so it has no checks
        t = row_key(row)
        return iter((row + t,) if t in store.triples else ())
    rows = map(row.__add__, store._index(key, q).get(row_key(row), ()))
    return (r for r in rows if all(r[a] == r[b] for a, b in checks)) if checks else rows


class _Materialization:
    """Input triples and rules interned in one dictionary, saturated: the
    compiled rules, the data and aux triples as term ids, the store, which
    owns their union and grows it into the closure, the rounds saturate()
    took, and the data triples that some rule instance over the closure
    derives, which only a materialization made to be minimized collects."""

    __slots__ = ("terms", "rules", "data", "aux", "store", "rounds", "derivable")

    def __init__(self, terms: _Terms, data: set[_Ids], rules: RuleSet, aux: Graph,
                 *, minimizes: bool = True):
        self.terms = terms
        self.rules: list[tuple[tuple[_Ids, ...], tuple[_Ids, ...]]] = []
        for rule in rules:
            variables: dict[str, int] = {}
            body = tuple(terms.compile(atom, variables) for atom in rule.body)
            head = tuple(terms.compile(atom, variables) for atom in rule.head)
            self.rules.append((body, head))
        self.data, self.aux = data, terms.encode(aux)
        self.store = _Store(data | self.aux)
        self.derivable: set[_Ids] | None = set() if minimizes else None
        self.rounds = self.saturate()

    def saturate(self) -> int:
        """Run the rules to fixpoint; returns the number of rounds. Every
        rule instance over M fires in some round, so the data triples a
        round produces, stored or not, are those with a one-step
        derivation in M: they are collected in derivable, unless it is None."""
        store, kinds, derivable = self.store, self.terms.kinds, self.derivable
        plans: dict[int | tuple[int, int] | None, list[_Plan]] = {}
        for body, head in self.rules:
            for i, atom in enumerate(body):
                plans.setdefault(_dispatch_key(atom), []).append(_plan(body, i, head, store, kinds))
        # The predicates whose batches are split again by object.
        split = {key[0] for key in plans if isinstance(key, tuple)}
        rounds = 0
        delta: Collection[_Ids] = store.triples  # not written until the round ends
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
            if derivable is not None:
                derivable |= produced & self.data
            produced -= store.triples
            if not produced:
                return rounds
            rounds += 1
            store.update(produced)
            delta = produced

    def counted(self) -> set[_Ids]:
        """The store minus the aux triples that are not data: the closure
        as the statistics count it."""
        return self.store.triples - (self.aux - self.data)

    def _line(self) -> Callable[[_Ids], str]:
        """An interned triple's line of serialize_turtle text, each distinct
        term rendered once; sorting by it gives Graph iteration's order,
        the order in which minimize tries its candidates."""
        texts = [term.ntriples() for term in self.terms.terms]
        return lambda t: f"{texts[t[0]]} {texts[t[1]]} {texts[t[2]]} .\n"

    def render(self, triples: Iterable[_Ids]) -> str:
        """Interned triples as the text serialize_turtle gives for their Graph,
        each distinct term rendered once. The triples are grouped by subject,
        the subjects ordered by their text and each one's "p o ." tails
        sorted. That is the order of the whole lines, because where one
        subject's text is a proper prefix of another's, the space after it
        sorts below every character that can continue a term (the argument
        is in graphnorm/terms.py)."""
        texts = [term.ntriples() for term in self.terms.terms]
        parts = []
        groups = _group(triples, _S)
        for s in sorted(groups, key=texts.__getitem__):
            # head + head.join(tails) puts the subject before each tail
            head = texts[s] + " "
            parts.append(head)
            parts.append(head.join(sorted([f"{texts[p]} {texts[o]} .\n" for _, p, o in groups[s]])))
        return "".join(parts)

    def minimize(self) -> list[_Ids]:
        """reduce's survivors, as term ids in canonical order: irreducible,
        but not always the smallest subset with the same closure. aux backs
        the proofs but is never a candidate. A candidate outside derivable
        is kept unproved: without a one-step derivation in M, nothing the
        working store holds can entail it."""
        derivable = self.derivable
        if derivable is None:
            raise RuntimeError("minimize() of a materialization made with minimizes=False")
        prover = _Prover(self)
        kept: list[_Ids] = []
        for goal in sorted(self.data - self.aux, key=self._line()):
            if goal not in derivable:
                kept.append(goal)
                continue
            prover.store.remove(goal)
            if not prover.prove(goal):
                prover.store.update((goal,))
                kept.append(goal)
        return kept


class ClosureResult(_Frozen):
    __slots__ = _fields = ("graph", "derived_count", "rounds")

    def __init__(self, graph: Graph, derived_count: int, rounds: int) -> None:
        _set(self, "graph", graph)
        _set(self, "derived_count", derived_count)
        _set(self, "rounds", rounds)
        _set(self, "_hash", hash((graph, derived_count, rounds)))


def closure(graph: Graph, rules: RuleSet) -> ClosureResult:
    """Saturate the graph under the rules (semi-naive, to fixpoint)."""
    terms = _Terms()
    m = _Materialization(terms, terms.encode(graph), rules, EMPTY_GRAPH, minimizes=False)
    derived = m.store.triples - m.data
    return ClosureResult(Graph(graph.triples.union(map(m.terms.decode, derived))),
                         len(derived), m.rounds)


def materialize(graph: Graph, rules: RuleSet, aux: Graph = EMPTY_GRAPH) -> _Materialization:
    """The materialization of graph, encoded in a fresh dictionary, and aux."""
    terms = _Terms()
    return _Materialization(terms, terms.encode(graph), rules, aux)


class _Prover:
    """Proofs over a working store that only shrinks.

    The working store starts as the input of the materialization, whose
    closure therefore contains every triple the store can ever prove.
    """

    def __init__(self, m: _Materialization):
        self.store = _Store(m.data | m.aux)
        self._closed = m.store
        # Each head atom's rule compiled with that atom as the seed.
        self._heads: dict = {}
        for body, head in m.rules:
            for atom in head:
                self._heads.setdefault(_dispatch_key(atom), []).append(
                    _compile(atom, body, (), m.terms.kinds))

    def _instances(self, atom: _Ids) -> list[tuple[list[_Step], int, _Row]]:
        """Each rule instance with atom as its head, as steps and the row
        the atom seeds, to be walked from step 0."""
        return [(steps, 0, row) for constants, checks, steps, _
                in _dispatched(self._heads, atom) for row in (atom + constants,)
                if all(row[a] == row[b] for a, b in checks)]

    def prove(self, goal: _Ids) -> bool:
        """Whether the working store entails goal, a triple of M outside it."""
        proved: set[_Ids] = set()
        # A watch is (head, steps, row, next step): a grounding of head
        # that resumes once the atom it is filed under is proved.
        watchers: dict[_Ids, list[tuple[_Ids, list[_Step], _Row, int]]] = {}
        explored: set[_Ids] = set()
        stack: list[tuple[_Ids, Iterator[_Ids | None]]] = []

        def explore(atom: _Ids) -> None:
            explored.add(atom)
            stack.append((atom, self._ground(atom, self._instances(atom), proved, watchers)))

        explore(goal)
        while stack:
            head, frame = stack[-1]
            atom = () if head in proved else next(frame, ())
            if atom is None:
                # An instance of head is complete: head holds, and so may
                # the instances that wait on it.
                heads = [head]
                while heads:
                    head = heads.pop()
                    if head == goal:
                        return True
                    if head not in proved:
                        proved.add(head)
                        for waiting, steps, row, i in watchers.pop(head, ()):
                            if i == len(steps):
                                heads.append(waiting)
                            elif waiting not in proved:
                                stack.append((waiting, self._ground(
                                    waiting, ((steps, i, row),), proved, watchers)))
            elif not atom:
                stack.pop()
            elif atom not in explored:
                explore(atom)
        return False

    def _ground(self, head: _Ids, instances: Iterable[tuple[list[_Step], int, _Row]],
                proved: set[_Ids], watchers: dict) -> Iterator[_Ids | None]:
        """Walk each instance's rows from its step on, depth first, with
        one match iterator per step: stored triples first, then the rest
        of M. A grounding stops at its first atom that is neither stored
        nor proved; it watches that atom, which is yielded to be explored.
        None is yielded when a grounding completes; prove then holds head
        proved (or returns) and never resumes this walk."""
        store, closed = self.store, self._closed
        stored = store.triples
        for steps, i, row in instances:
            last = len(steps) - 1
            positions = [(i, row, _rows(store, steps[i], row), False)]
            while positions:
                j, row, rows, derived = positions[-1]
                for r in rows:
                    if derived and (t := r[-3:]) not in proved:
                        if t not in stored:
                            watchers.setdefault(t, []).append((head, steps, r, j + 1))
                            yield t
                    elif j == last:
                        yield None
                    else:
                        positions.append((j + 1, r, _rows(store, steps[j + 1], r), False))
                        break
                else:
                    positions.pop()
                    if not derived:
                        positions.append((j, row, _rows(closed, steps[j], row), True))


def reduce(graph: Graph, rules: RuleSet, aux: Graph = EMPTY_GRAPH) -> Graph:
    """Drop every triple that the remaining triples still entail.

    Candidates are visited in canonical order, so the result is
    deterministic. Each is dropped iff the other triples still kept, with
    aux, entail it. aux triples back the proofs but are never candidates;
    the result is always a subset of the input graph, and its closure
    (taken together with aux) equals the input's. It is irreducible: no
    survivor can be dropped. It need not be the smallest such subset,
    and another candidate order may keep a different number of triples.
    """
    m = materialize(graph, rules, aux)
    return Graph(map(m.terms.decode, m.minimize()))
