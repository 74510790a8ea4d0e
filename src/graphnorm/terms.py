"""RDF terms and triples.

Terms come in four kinds: IRIs, blank nodes, literals, and variables.
Variables appear only in rule patterns; graphs hold ground triples, so the
Triple type enforces the usual positional restrictions (no literal subjects,
IRI predicates only).

Every ground term has a single N-Triples rendering, and triples order
byte-lexicographically by the rendered (subject, predicate, object). That
ordering is the canonical order used for serialization and for the
deterministic candidate order during graph minimization.

Triple.sort_key states that order; sorting the rendered lines
(Triple.ntriples) gives the same order with one rendering per triple.
Strings compare by code point, which is UTF-8 byte order for every
character that has a UTF-8 form, so IRIs and literals reject lone
surrogates. The two orders could differ only where one term's rendering
is a proper prefix of another's: in the line the shorter term is followed
by a space (0x20), while every character that can continue a term sorts
above it ('@', '^', '-', label characters), and no rendered IRI continues
past its closing '>', which cannot occur inside an IRI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# Controls, space, the characters N-Triples forbids in an IRI, and lone
# surrogates (no UTF-8 form; see the module docstring).
_BAD_IRI_CHAR = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')
_SURROGATE = re.compile(r"[\ud800-\udfff]")
_BLANK_LABEL = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_\-]*$")
_LANG_TAG = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")


def is_absolute_iri(value: str) -> bool:
    return bool(_SCHEME.match(value))


@dataclass(frozen=True)
class IRI:
    value: str

    def __post_init__(self) -> None:
        if not is_absolute_iri(self.value):
            raise ValueError(f"IRI is not absolute: {self.value!r}")
        if _BAD_IRI_CHAR.search(self.value):
            raise ValueError(f"IRI contains a forbidden character: {self.value!r}")

    def ntriples(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class BlankNode:
    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL.match(self.label):
            raise ValueError(f"invalid blank node label: {self.label!r}")

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


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if _SURROGATE.search(self.lexical):
            raise ValueError(f"literal contains a lone surrogate: {self.lexical!r}")
        if self.datatype is not None and self.language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")
        if self.datatype is not None and not is_absolute_iri(self.datatype):
            raise ValueError(f"literal datatype is not an absolute IRI: {self.datatype!r}")
        if self.language is not None and not _LANG_TAG.match(self.language):
            raise ValueError(f"invalid language tag: {self.language!r}")

    def ntriples(self) -> str:
        text = f'"{_escape(self.lexical)}"'
        if self.language is not None:
            return f"{text}@{self.language}"
        if self.datatype is not None:
            return f"{text}^^<{self.datatype}>"
        return text


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self) -> None:
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")

    def text(self) -> str:
        return f"?{self.name}"


Term = Union[IRI, BlankNode, Literal, Variable]
GroundTerm = Union[IRI, BlankNode, Literal]

RDF_TYPE = IRI(RDF_NS + "type")
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"


@dataclass(frozen=True)
class Triple:
    subject: IRI | BlankNode
    predicate: IRI
    object: IRI | BlankNode | Literal

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (IRI, BlankNode)):
            raise ValueError(f"triple subject must be an IRI or blank node, got {self.subject!r}")
        if not isinstance(self.predicate, IRI):
            raise ValueError(f"triple predicate must be an IRI, got {self.predicate!r}")
        if not isinstance(self.object, (IRI, BlankNode, Literal)):
            raise ValueError(f"triple object must be an IRI, blank node or literal, got {self.object!r}")

    def ntriples(self) -> str:
        return f"{self.subject.ntriples()} {self.predicate.ntriples()} {self.object.ntriples()} ."

    def sort_key(self) -> tuple[bytes, bytes, bytes]:
        return (
            self.subject.ntriples().encode("utf-8"),
            self.predicate.ntriples().encode("utf-8"),
            self.object.ntriples().encode("utf-8"),
        )
