"""Machine-readable descriptions of how each statistic was computed.

A description is Turtle built from the void/scovo vocabularies plus a
small statistics vocabulary (default base ``http://purl.org/gn#``): the
dataset is a ``void:Dataset`` whose ``void:statItem`` nodes each carry a
``scovo:dimension``, an ``rdf:value``, and, when the statistic depends on
rules, a ``gn:normalisation`` node pointing at the rule sources::

    <data.ttl> a void:Dataset ;
        void:statItem [
            scovo:dimension gn:redundancy ;
            rdf:value 0.5 ;
            gn:normalisation [
                a gn:MiniRDF ;
                gn:rules [ a gn:RuleSet ; gn:n3 <rules.n3> ; gn:dlogic <vocab.ttl> ]
            ]
        ] .

The writer emits bracketed anonymous nodes and relative locator
references; the reader here accepts them for this shape only (data
graphs go through the strict parser), and reads literals as data does,
so a datatype must be an absolute IRI; an rdf:value is a number when
typed xsd:integer or xsd:decimal in that type's lexical form. A
Description states its dataset, normalisation and namespaces once.
load_rules() fetches the n3 rules and the dlogic graphs, following
owl:imports to a fixpoint, and compiles the dlogic to rules; recompute()
is load_rules(), the dataset, and a recount with the dlogic as auxiliary
support. The CLI's describe loads through load_rules() from the
description's directory, as verify does. Locators resolve through an
injected resolver; only local files are supported, and RIF rule sources
are rejected as unsupported.
"""

from __future__ import annotations

import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple
from urllib.parse import urlsplit

from .engine import _Materialization
from .errors import GraphNormError, InvalidValueError, ResolverError, UnsupportedFeatureError
from .graph import Graph
from .lex import (
    BLANK,
    DECIMAL,
    INTEGER,
    IRIREF,
    PNAME,
    STRING,
    Reader,
    _TOKEN,
    kind,
    value,
)
from .rules import EMPTY_RULESET, OWL_IMPORTS, RuleSet, compile_schema, parse_rules
from .stats import (STAT_NAMES, NamespaceDecl, StatsReport, canonical_ratio, decimal_string,
                    stat_texts, stats_report)
from .terms import IRI, RDF_NS, XSD_DECIMAL, XSD_INTEGER, _SURROGATE, Triple, _Frozen, _set, _Terms
from .turtle import _TurtleParser, parse_turtle

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_GN_BASE = "http://purl.org/gn#"
VOID_NS = "http://rdfs.org/ns/void#"
SCOVO_NS = "http://purl.org/NET/scovo#"

_RDF_TYPE = RDF_NS + "type"
_RDF_VALUE = RDF_NS + "value"
_VOID_DATASET = VOID_NS + "Dataset"
_VOID_STAT_ITEM = VOID_NS + "statItem"
_SCOVO_DIMENSION = SCOVO_NS + "dimension"

_SOURCE_FORMATS = ("n3", "dlogic", "rif")
# The writer nests anonymous nodes three deep. The reader recurses once per
# level, so deeper nesting is refused long before the interpreter's limit.
_MAX_NESTING = 16
_KINDS = ("none", "closure", "mini_rdf")
# The lexical forms of xsd:integer and xsd:decimal; int() and Fraction() also
# read "3/4", "1e5", " 2 " and "1_0", and Fraction expands an exponent in full.
_XSD_INTEGER = re.compile(r"[+-]?[0-9]+")
_XSD_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


class RuleSource(_Frozen):
    __slots__ = _fields = ("format", "locator")

    def __init__(self, format: str, locator: str) -> None:
        if format not in _SOURCE_FORMATS:
            raise ValueError(f"unknown rule source format: {format!r}")
        _set(self, "format", format)
        _set(self, "locator", locator)
        _set(self, "_hash", hash((format, locator)))


class NormalisationSpec(_Frozen):
    __slots__ = _fields = ("kind", "rule_sources")

    def __init__(self, kind: str, rule_sources: Iterable[RuleSource] = ()) -> None:
        rule_sources = tuple(rule_sources)
        if kind not in _KINDS:
            raise ValueError(f"unknown normalisation kind: {kind!r}")
        if kind == "none" and rule_sources:
            raise ValueError("a 'none' normalisation cannot carry rule sources")
        _set(self, "kind", kind)
        _set(self, "rule_sources", rule_sources)
        _set(self, "_hash", hash((kind, rule_sources)))


class Description(NamedTuple):
    """The (dimension IRI, value) pairs a description states, in document
    order, repeats kept, with what every one of them was computed from."""

    dataset: str
    normalisation: NormalisationSpec
    stated: tuple[tuple[str, int | Fraction], ...]
    namespaces: NamespaceDecl | None = None


Resolver = Callable[[str], str]


class FileResolver(_Frozen):
    """Resolves plain paths and file: IRIs against a base directory."""

    __slots__ = _fields = ("base_dir",)

    def __init__(self, base_dir: str = ".") -> None:
        _set(self, "base_dir", base_dir)
        _set(self, "_hash", hash((base_dir,)))

    @staticmethod
    def reads(locator: str) -> bool:
        """Whether the locator names a local file: a path or a file: IRI."""
        try:
            scheme = urlsplit(locator).scheme
        except ValueError as exc:  # such as an unclosed '[' in the host
            raise ResolverError(f"cannot resolve {locator!r}: {exc}") from None
        return scheme == "file" or len(scheme) < 2

    def __call__(self, locator: str) -> str:
        if not self.reads(locator):
            raise ResolverError(f"only local file locators are supported: {locator!r}")
        split = urlsplit(locator)
        if split.scheme != "file":
            path = os.path.join(self.base_dir, locator)  # an absolute path is kept whole
        elif split.netloc.lower() not in ("", "localhost"):
            raise ResolverError(f"a file: locator must name this machine: {locator!r}")
        else:
            # urllib.request pulls in http.client, ssl and email: import it
            # only here, so that importing the package stays cheap.
            from urllib.request import url2pathname

            path = url2pathname(split.path)
            if not os.path.isabs(path):
                # 'file:d2.ttl' names no directory to be relative to.
                raise ResolverError(f"a file: locator needs an absolute path: {locator!r}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise ResolverError(f"cannot resolve {locator!r}: {exc}") from None


# A predicate and its object: text, or the pairs of an anonymous node.
_Pair = tuple[str, "str | list[_Pair]"]


def _render(pairs: list[_Pair], indent: str) -> str:
    """One pair per line at indent, joined by ' ;'; an anonymous node is a
    '[ … ]' block whose pairs sit one indent deeper."""
    return " ;\n".join(
        f"{indent}{p} [\n{_render(o, indent + '    ')}\n{indent}]" if isinstance(o, list)
        else f"{indent}{p} {o}" for p, o in pairs)


def emit_description(dataset: str, report: StatsReport, spec: NormalisationSpec,
                     *, namespaces: NamespaceDecl | None = None,
                     gn_base: str = DEFAULT_GN_BASE) -> str:
    """Render a deterministic description of the report.

    Stat items are sorted by dimension name; equal inputs produce
    byte-identical output. Raises InvalidValueError, a ValueError, for
    what no reader could recompute: densities without the namespace
    declaration, or an IRI that read_description cannot read back from
    between '<' and '>' or that holds a lone surrogate.
    """
    has_density = (report.out_link_density_plus is not None
                   or report.out_link_density_minus is not None)
    if has_density and namespaces is None:
        raise InvalidValueError("reports with out-link densities need the namespace declaration")
    for iri in (dataset, gn_base, *(src.locator for src in spec.rule_sources),
                *(namespaces.prefixes if namespaces is not None else ())):
        # Readable iff the lexer takes <iri> whole as one IRI reference
        # ('<=>' is a token of its own), and UTF-8 can write it.
        ref = f"<{iri}>"
        if (_TOKEN.match(ref)[1] != ref or kind(ref) != IRIREF
                or not iri.isascii() and re.search(_SURROGATE, iri)):
            raise InvalidValueError(f"cannot be written as an IRI reference: {iri!r}")

    normalisation: list[_Pair] = []
    if spec.kind != "none":
        refs = {fmt: ", ".join(f"<{src.locator}>" for src in spec.rule_sources
                               if src.format == fmt) for fmt in _SOURCE_FORMATS}
        rule_set = [("a", "gn:RuleSet"), *((f"gn:{fmt}", refs[fmt])
                                           for fmt in _SOURCE_FORMATS if refs[fmt])]
        node = [("a", "gn:MiniRDF" if spec.kind == "mini_rdf" else "gn:Closure"),
                ("gn:rules", rule_set)]
        if spec.kind == "mini_rdf":
            node.append(("gn:constraints", "[ a gn:ConstraintSet ]"))
        normalisation.append(("gn:normalisation", node))
    pairs: list[_Pair] = []
    if namespaces is not None:
        pairs.append(("gn:namespace", ", ".join(f"<{p}>" for p in namespaces.prefixes)))
    pairs.extend(("void:statItem", [("scovo:dimension", f"gn:{name}"), ("rdf:value", value),
                                    *normalisation])
                 for name, value in sorted(stat_texts(report)))
    header = "".join(f"@prefix {prefix}: <{iri}> .\n" for prefix, iri in (
        ("gn", gn_base), ("rdf", RDF_NS), ("scovo", SCOVO_NS), ("void", VOID_NS)))
    return f"{header}\n<{dataset}> a void:Dataset ;\n{_render(pairs, '    ')} .\n"


class _Ref(str):
    """An IRI reference as written, possibly relative.

    It compares equal to a plain string literal of the same text, so
    positions that need an IRI test the type (_iris)."""


class _DescriptionReader(Reader):
    depth = 0  # how deep the anonymous node being read is nested

    def read(self) -> dict[_Ref, dict[str, list]]:
        toks = self.toks
        subjects: dict[_Ref, dict[str, list]] = {}
        i = 0
        while toks[i]:
            if toks[i][0] == "@":
                i = self._directive(i)
                continue
            props = subjects.setdefault(self._subject(i), {})
            i = self._predicate_object_list(i + 1, props, closing=".")
        return subjects

    def _subject(self, i: int) -> _Ref:
        name = self._name(i)
        if name is None:
            raise self.error(f"expected a subject IRI, got {value(self.toks[i])!r}", i)
        return _Ref(name)

    def _name(self, i: int) -> str | None:
        """The IRI that token i writes, expanded; None if it is no IRI."""
        return self._iri_text(i) if kind(self.toks[i]) in (IRIREF, PNAME) else None

    def _predicate_object_list(self, i: int, props: dict[str, list], closing: str) -> int:
        """Read up to and including ``closing``; return the index after it."""
        toks = self.toks
        while True:
            predicate = _RDF_TYPE if toks[i] == "a" else self._name(i)
            if predicate is None:
                raise self.error(f"expected a predicate, got {value(toks[i])!r}", i)
            values = props.setdefault(predicate, [])
            i += 1
            while True:
                obj, i = self._object(i)
                values.append(obj)
                if toks[i] != ",":
                    break
                i += 1
            tok = toks[i]
            if tok == ";":
                if toks[i + 1] == closing:
                    return i + 2
                i += 1
                continue
            if tok == closing:
                return i + 1
            raise self.error(f"expected ';' or end of node, got {value(tok)!r}", i)

    def _object(self, i: int):
        """The object at token i and the index after it."""
        toks = self.toks
        tok = toks[i]
        k = kind(tok)
        if k in (IRIREF, PNAME):
            return _Ref(self._name(i)), i + 1
        if k in (STRING, INTEGER, DECIMAL):
            literal, end = self._literal(i)
            lexical = literal.lexical
            if literal.datatype == XSD_INTEGER and _XSD_INTEGER.fullmatch(lexical):
                return self._number(lexical, i, False), end
            if literal.datatype == XSD_DECIMAL and _XSD_DECIMAL.fullmatch(lexical):
                return self._number(lexical, i, True), end
            return lexical, end
        if k == "[":
            if self.depth == _MAX_NESTING:
                raise self.error(f"anonymous nodes nest more than {_MAX_NESTING} deep", i)
            props: dict[str, list] = {}
            if toks[i + 1] == "]":
                return props, i + 2
            self.depth += 1
            i = self._predicate_object_list(i + 1, props, closing="]")
            self.depth -= 1
            return props, i
        if k == BLANK:
            raise self.error("labeled blank nodes are not supported in descriptions", i)
        raise self.error(f"expected an object, got {value(tok)!r}", i)

    def _number(self, text: str, i: int, decimal: bool) -> int | Fraction:
        """The exact value of the number written at token i, which must also
        convert back to text, as a mismatch quotes it. fractions is imported
        on the first decimal read, as stats imports it on the first ratio."""
        try:
            if decimal:
                from fractions import Fraction

                number = Fraction(text)
            else:
                number = int(text)
            str(number)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"number has more than {sys.get_int_max_str_digits()} digits",
                             i) from None
        return number


def _one(values: list, what: str):
    if len(values) != 1:
        raise GraphNormError(f"description item needs exactly one {what}")
    return values[0]


def _iris(props: dict, predicate: str, what: str) -> list[_Ref]:
    """The values of a predicate, each of which must be an IRI reference:
    a literal with the same text is not one."""
    values = props.get(predicate, [])
    for v in values:
        if not isinstance(v, _Ref):
            raise GraphNormError(f"{what} must be an IRI, got {v!r}")
    return values


def _read_spec(props: dict, gn_base: str) -> NormalisationSpec:
    nodes = props.get(gn_base + "normalisation", [])
    if not nodes:
        return NormalisationSpec("none")
    if len(nodes) > 1:
        raise GraphNormError("description item carries more than one gn:normalisation")
    node = nodes[0]
    if not isinstance(node, dict):
        raise GraphNormError("gn:normalisation must be an anonymous node")
    types = _iris(node, _RDF_TYPE, "rdf:type")
    if gn_base + "MiniRDF" in types and gn_base + "Closure" in types:
        raise GraphNormError("gn:normalisation node is typed both gn:MiniRDF and gn:Closure")
    if gn_base + "MiniRDF" in types:
        kind = "mini_rdf"
    elif gn_base + "Closure" in types:
        kind = "closure"
    else:
        raise GraphNormError("gn:normalisation node carries no recognized kind")
    constraints = node.get(gn_base + "constraints")
    if constraints is not None:
        if kind == "closure":
            raise GraphNormError("a gn:Closure normalisation carries no gn:constraints")
        if (len(constraints) != 1 or not isinstance(constraints[0], dict)
                or gn_base + "ConstraintSet" not in _iris(constraints[0], _RDF_TYPE, "rdf:type")):
            raise GraphNormError("gn:constraints must be one anonymous node typed gn:ConstraintSet")
    sources: list[RuleSource] = []
    for rules_node in node.get(gn_base + "rules", []):
        if not isinstance(rules_node, dict):
            raise GraphNormError("gn:rules must be an anonymous node")
        for fmt in _SOURCE_FORMATS:
            for ref in _iris(rules_node, gn_base + fmt, "gn:" + fmt):
                sources.append(RuleSource(fmt, str(ref)))
    return NormalisationSpec(kind, sources)


def read_description(text: str, source: str | None = None,
                     *, gn_base: str = DEFAULT_GN_BASE) -> Description:
    """Parse a description; exactly one void:Dataset is expected."""
    from fractions import Fraction

    subjects = _DescriptionReader(text, source).read()
    datasets = [
        (subject, props)
        for subject, props in subjects.items()
        if _VOID_DATASET in _iris(props, _RDF_TYPE, "rdf:type")
    ]
    if len(datasets) != 1:
        raise GraphNormError(f"description must contain exactly one void:Dataset, found {len(datasets)}")
    dataset, props = datasets[0]
    if not props.get(_VOID_STAT_ITEM):
        raise GraphNormError("description states no statistic: its void:Dataset has no void:statItem")
    specs: set[NormalisationSpec] = set()
    stated: list[tuple[str, int | Fraction]] = []
    for item_node in props.get(_VOID_STAT_ITEM, []):
        if not isinstance(item_node, dict):
            raise GraphNormError("void:statItem must be an anonymous node")
        dimension = _one(_iris(item_node, _SCOVO_DIMENSION, "scovo:dimension"),
                         "scovo:dimension")
        value = _one(item_node.get(_RDF_VALUE, []), "rdf:value")
        if not isinstance(value, (int, Fraction)):
            raise GraphNormError(f"rdf:value must be numeric, got {value!r}")
        specs.add(_read_spec(item_node, gn_base))
        stated.append((str(dimension), value))
    if len(specs) > 1:
        raise GraphNormError("description carries inconsistent normalisation specs")
    prefixes = tuple(str(ref) for ref in _iris(props, gn_base + "namespace", "gn:namespace"))
    namespaces = None
    if prefixes:
        try:
            namespaces = NamespaceDecl(prefixes)
        except ValueError as exc:
            raise GraphNormError(f"{exc} in gn:namespace of {source or 'the description'}") from None
    return Description(str(dataset), specs.pop(), tuple(stated), namespaces)


def load_dlogic(sources: Iterable[str], resolver: Resolver) -> Graph:
    """Fetch and merge schema graphs, following owl:imports to a fixpoint.

    Each locator is fetched at most once, so import cycles terminate.
    """
    queue = list(sources)
    visited: set[str] = set()
    merged: set[Triple] = set()
    for locator in queue:  # grows as imports are found
        if locator in visited:
            continue
        visited.add(locator)
        graph = parse_turtle(resolver(locator), source=locator)
        merged |= graph.triples
        for t in graph:
            if t.predicate == OWL_IMPORTS and isinstance(t.object, IRI):
                queue.append(t.object.value)
    return Graph(merged)


def load_rules(spec: NormalisationSpec, resolver: Resolver) -> tuple[RuleSet, Graph]:
    """The n3 rules a spec names joined with the rules compiled from its
    dlogic graphs (owl:imports followed once each), and the dlogic graph
    itself as auxiliary support. RIF sources are unsupported."""
    if any(src.format == "rif" for src in spec.rule_sources):
        raise UnsupportedFeatureError("unsupported: RIF")
    rules = EMPTY_RULESET
    for src in spec.rule_sources:
        if src.format == "n3":
            rules = rules | parse_rules(resolver(src.locator), source=src.locator)
    aux = load_dlogic((s.locator for s in spec.rule_sources if s.format == "dlogic"), resolver)
    return rules | compile_schema(aux), aux


def recompute(description: Description, resolver: Resolver) -> StatsReport:
    """Re-run the statistics pipeline a parsed description points at:
    load_rules, then the dataset, fetched through the same resolver."""
    rules, aux = load_rules(description.normalisation, resolver)
    terms = _Terms()
    data = _TurtleParser(resolver(description.dataset), description.dataset).parse(terms)
    return stats_report(_Materialization(terms, data, rules, aux), description.namespaces)


def compare_description(description: Description, report: StatsReport,
                        *, gn_base: str = DEFAULT_GN_BASE) -> list[str]:
    """Describe every stated value that the recomputed report contradicts."""
    values = {gn_base + name: value for name, value in zip(STAT_NAMES, report)}
    texts = {gn_base + name: text for name, text in stat_texts(report)}
    mismatches: list[str] = []
    for dim, value in description.stated:
        if dim not in values:
            mismatches.append(f"unknown dimension {dim}")
        elif values[dim] is None:
            mismatches.append(f"{dim}: stated {value}, not recomputable")
        elif value != canonical_ratio(values[dim]):
            # A ratio quotes the stated value in canonical text too; a count
            # quotes it as read.
            stated = value
            if not isinstance(values[dim], int):
                stated = decimal_string(value)
            mismatches.append(f"{dim}: stated {stated}, recomputed {texts[dim]}")
    return mismatches
