"""RDF terms and triples.

Terms come in four kinds: IRIs, blank nodes, literals, and variables.
Variables appear only in rule patterns; graphs hold ground triples, so the
Triple type enforces the usual positional restrictions (no literal subjects,
IRI predicates only).

Every ground term has a single N-Triples rendering, and triples order
byte-lexicographically by the rendered (subject, predicate, object). That
ordering is the canonical order used for serialization and for the
deterministic candidate order during graph minimization.

Sorting the rendered lines (Triple.ntriples) gives that order with one
rendering per triple; the tests hold it against the term-by-term
reference order (sort_key in tests/support.py).
Strings compare by code point, which is UTF-8 byte order for every
character that has a UTF-8 form, so IRIs and literals reject lone
surrogates. The two orders could differ only where one term's rendering
is a proper prefix of another's: in the line the shorter term is followed
by a space (0x20), while every character that can continue a term sorts
above it ('@', '^', '-', label characters), and no rendered IRI continues
past its closing '>', which cannot occur inside an IRI. For the same
reason the lines can be laid out one subject at a time, as the engine
renders them: subjects in the order of their renderings, then each
subject's sorted "predicate object ." tails.

Terms, triples and every other value type of the package (patterns,
rules, rule sets, graphs and the provenance records) are immutable
__slots__ objects that store their hash once, at construction (_Frozen).
Graphs, the parser and the engine's intern table hash every term and
triple many times, and recomputing the hash from the fields on each set or
dict operation cost more than the lookup itself.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .graph import Graph

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# Controls, space and the characters N-Triples forbids in an IRI.
_BAD_IRI_CHAR = re.compile(r'[\x00-\x20<>"{}|^`\\]')
# Lone surrogates have no UTF-8 form (see the module docstring). Only text
# that is not ASCII can hold one, so re's cache compiles this range, which
# costs about a millisecond, on the first such IRI or literal, not at import.
_SURROGATE = r"[\ud800-\udfff]"
# The name grammars, each defined once: the lexer builds its '?name',
# '_:label' and '@tag' tokens from these strings (see graphnorm.lex), and
# the constructors below check names against the same strings. A variable
# name continues with '-', as N3's quick variables do. No group captures:
# the lexer's findall returns its one group.
_VARIABLE_NAME = r"[A-Za-z_][A-Za-z0-9_\-]*"
_BLANK_LABEL = r"[A-Za-z0-9_][A-Za-z0-9_\-]*"
_LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_is_variable_name = re.compile(_VARIABLE_NAME).fullmatch
_is_blank_label = re.compile(_BLANK_LABEL).fullmatch
_is_lang_tag = re.compile(_LANG_TAG).fullmatch

# Fields are written once, in __init__, past the __setattr__ that refuses.
_set = object.__setattr__


def is_absolute_iri(value: str) -> bool:
    return bool(_SCHEME.match(value))


class _Frozen:
    """Base of the package's immutable value types.

    A subclass lists its constructor arguments in _fields and keeps them
    in __slots__. Its __init__ sets each field once with _set and ends by
    storing the hash of its _key() in _hash, so every value stores its
    hash once. Two values are equal when they have the same class, the
    same stored hash and equal _key(), the _fields unless a subclass
    leaves one out of equality. repr has the dataclass form, e.g.
    IRI(value='urn:x'), which error messages embed.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def _key(self) -> object:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return (self.__class__, tuple([getattr(self, f) for f in self._fields]))


class IRI(_Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str) -> None:
        if not is_absolute_iri(value):
            raise ValueError(f"relative IRI not allowed: {value!r}")
        if _BAD_IRI_CHAR.search(value) or not value.isascii() and re.search(_SURROGATE, value):
            raise ValueError(f"IRI contains a forbidden character: {value!r}")
        _set(self, "value", value)
        _set(self, "_hash", hash((value,)))

    def ntriples(self) -> str:
        return f"<{self.value}>"


class BlankNode(_Frozen):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str) -> None:
        if not _is_blank_label(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        _set(self, "label", label)
        _set(self, "_hash", hash((label,)))

    def ntriples(self) -> str:
        return f"_:{self.label}"


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


class Literal(_Frozen):
    __slots__ = _fields = ("lexical", "datatype", "language")

    def __init__(self, lexical: str, datatype: str | None = None,
                 language: str | None = None) -> None:
        if not lexical.isascii() and re.search(_SURROGATE, lexical):
            raise ValueError(f"literal contains a lone surrogate: {lexical!r}")
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")
        if datatype is not None and not is_absolute_iri(datatype):
            raise ValueError(f"literal datatype is not an absolute IRI: {datatype!r}")
        if language is not None and not _is_lang_tag(language):
            raise ValueError(f"invalid language tag: {language!r}")
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "language", language)
        _set(self, "_hash", hash((lexical, datatype, language)))

    def ntriples(self) -> str:
        text = f'"{_escape(self.lexical)}"'
        if self.language is not None:
            return f"{text}@{self.language}"
        if self.datatype is not None:
            return f"{text}^^<{self.datatype}>"
        return text


class Variable(_Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        if not _is_variable_name(name):
            raise ValueError(f"invalid variable name: {name!r}")
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def text(self) -> str:
        return f"?{self.name}"


Term = Union[IRI, BlankNode, Literal, Variable]
GroundTerm = Union[IRI, BlankNode, Literal]

RDF_TYPE = IRI(RDF_NS + "type")
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"


class Triple(_Frozen):
    __slots__ = _fields = ("subject", "predicate", "object")

    def __init__(self, subject: IRI | BlankNode, predicate: IRI,
                 object: IRI | BlankNode | Literal) -> None:
        if not isinstance(subject, (IRI, BlankNode)):
            raise ValueError(f"triple subject must be an IRI or blank node, got {subject!r}")
        if not isinstance(predicate, IRI):
            raise ValueError(f"triple predicate must be an IRI, got {predicate!r}")
        if not isinstance(object, (IRI, BlankNode, Literal)):
            raise ValueError(f"triple object must be an IRI, blank node or literal, got {object!r}")
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)
        _set(self, "_hash", hash((subject, predicate, object)))

    def ntriples(self) -> str:
        return f"{self.subject.ntriples()} {self.predicate.ntriples()} {self.object.ntriples()} ."


_IRI, _BLANK, _LITERAL = 0, 1, 2  # _Terms.kinds
# An interned triple (s, p, o) of term ids.
_Ids = tuple[int, int, int]


class _Terms:
    """Dictionary encoding of ground terms as dense ints, in the order they
    are first interned; the parser, the engine and the statistics share it."""

    __slots__ = ("ids", "terms", "kinds")

    def __init__(self) -> None:
        self.ids: dict[GroundTerm, int] = {}
        self.terms: list[GroundTerm] = []
        self.kinds = bytearray()

    def intern(self, term: GroundTerm) -> int:
        n = len(self.terms)
        i = self.ids.setdefault(term, n)
        if i == n:
            self.terms.append(term)
            self.kinds.append(_IRI if isinstance(term, IRI)
                              else _BLANK if isinstance(term, BlankNode) else _LITERAL)
        return i

    def encode(self, graph: Graph) -> set[_Ids]:
        """The triples of graph as ids, interned in its canonical order, so
        that neither the ids nor a set's order of them follows the hash seed.
        The one place a Graph becomes ids."""
        intern = self.intern
        return {(intern(t.subject), intern(t.predicate), intern(t.object)) for t in graph}

    def decode(self, t: _Ids) -> Triple:
        terms = self.terms
        return Triple(terms[t[0]], terms[t[1]], terms[t[2]])

    def compile(self, atom, variables: dict[str, int]) -> _Ids:
        """A TriplePattern's term ids; variable number k becomes -1 - k."""
        return tuple(-1 - variables.setdefault(x.name, len(variables))
                     if isinstance(x, Variable) else self.intern(x)
                     for x in atom.terms())
