"""Immutable graphs and skolemization.

A Graph is a duplicate-free set of ground triples with value semantics:
two graphs are equal when they hold the same triples, regardless of how
they were built. Iteration always follows the canonical order so that
serialization and minimization are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidValueError
from .terms import _BLANK, IRI, Triple, _Frozen, _Ids, _set, _Terms, is_absolute_iri


class Graph(_Frozen):
    """An immutable set of ground triples iterated in canonical order."""

    __slots__ = ("triples", "_sorted")
    _fields = ("triples",)

    def __init__(self, triples: Iterable[Triple] = ()):
        frozen = frozenset(triples)
        for t in frozen:
            if not isinstance(t, Triple):
                raise TypeError(f"graphs hold Triple values, got {t!r}")
        _set(self, "triples", frozen)
        _set(self, "_sorted", None)
        _set(self, "_hash", hash((frozen,)))

    def __len__(self) -> int:
        return len(self.triples)

    def __bool__(self) -> bool:
        return bool(self.triples)

    def __contains__(self, triple: object) -> bool:
        return triple in self.triples

    def __iter__(self) -> Iterator[Triple]:
        if self._sorted is None:
            # One rendering per triple; the lines sort in canonical order
            # (see graphnorm.terms).
            _set(self, "_sorted", tuple(sorted(self.triples, key=Triple.ntriples)))
        return iter(self._sorted)

    def __or__(self, other: "Graph") -> "Graph":
        return Graph(self.triples | other.triples)

    def __sub__(self, other: "Graph") -> "Graph":
        return Graph(self.triples - other.triples)

    def __and__(self, other: "Graph") -> "Graph":
        return Graph(self.triples & other.triples)

    def add(self, triple: Triple) -> "Graph":
        return Graph(self.triples | {triple})

    def discard(self, triple: Triple) -> "Graph":
        return Graph(self.triples - {triple})

    def __repr__(self) -> str:
        return f"Graph({len(self.triples)} triples)"


EMPTY_GRAPH = Graph()


def skolemize(graph: Graph, scope: str | IRI) -> Graph:
    """Replace every blank node with a scope-qualified genid IRI.

    The same label always maps to the same IRI, so the result is
    deterministic and graphs already free of blanks pass through unchanged.
    """
    terms = _Terms()
    return Graph(map(terms.decode, skolemize_ids(terms, terms.encode(graph), scope)))


def skolemize_ids(terms: _Terms, triples: set[_Ids], scope: str | IRI) -> set[_Ids]:
    """skolemize on triples of ids in terms, interning the genid IRIs."""
    scope_value = scope.value if isinstance(scope, IRI) else scope
    if not is_absolute_iri(scope_value):
        raise InvalidValueError(f"skolemization scope must be an absolute IRI: {scope_value!r}")
    prefix = scope_value.rstrip("/") + "/.well-known/genid/"
    try:
        new = [terms.intern(IRI(prefix + terms.terms[i].label)) if k == _BLANK else i
               for i, k in enumerate(terms.kinds[:])]
    except ValueError as exc:  # the scope holds a character no IRI may
        raise InvalidValueError(str(exc)) from None
    return {(new[s], p, new[o]) for s, p, o in triples}
