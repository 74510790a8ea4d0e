"""Graph statistics: cardinalities, redundancy, and out-link densities.

All ratios are exact rationals (fractions.Fraction). For reports they are
rendered as decimals with at most six fractional digits, rounded half to
even; decimal_string and canonical_ratio implement that one rule so that
emission and verification agree exactly.

fractions pulls in decimal and numbers, which no minimize or closure
command uses, so each function that builds a ratio imports Fraction
itself; the package's import loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .engine import _Materialization, materialize
from .errors import EmptyGraphError, InvalidValueError
from .graph import EMPTY_GRAPH, Graph
from .rules import RuleSet
from .terms import IRI, _Frozen, _set, _Terms, is_absolute_iri

if TYPE_CHECKING:
    from fractions import Fraction


class NamespaceDecl(_Frozen):
    """The IRI prefixes a dataset considers its own."""

    __slots__ = _fields = ("prefixes",)

    def __init__(self, prefixes: Iterable[str]) -> None:
        prefixes = tuple(prefixes)
        if not prefixes:
            raise InvalidValueError("a namespace declaration needs at least one prefix")
        for p in prefixes:
            if not is_absolute_iri(p):
                raise InvalidValueError(f"namespace prefix is not an absolute IRI: {p!r}")
        for a in prefixes:
            for b in prefixes:
                if a != b and b.startswith(a):
                    raise InvalidValueError(f"nested namespace prefixes: {a!r} contains {b!r}")
        _set(self, "prefixes", prefixes)
        _set(self, "_hash", hash((prefixes,)))

    def owns(self, iri: str) -> bool:
        return any(iri.startswith(p) for p in self.prefixes)


class StatsReport(NamedTuple):
    published_cardinality: int
    closure_cardinality: int
    minimal_cardinality: int
    redundancy: Fraction
    out_link_density_plus: Fraction | None = None
    out_link_density_minus: Fraction | None = None


# The statistics' names in StatsReport field order: the rows of the CLI
# report and, under the gn: base, the dimension IRIs of descriptions.
STAT_NAMES = ("publishedTriples", "closureTriples", "minimalTriples",
              "redundancy", "outLinkDensityPlus", "outLinkDensityMinus")


def stat_texts(report: StatsReport) -> list[tuple[str, str]]:
    """(name, canonical text) of each value the report holds, in field
    order: counts as integers, ratios as decimal_string gives them."""
    return [(name, str(v) if isinstance(v, int) else decimal_string(v))
            for name, v in zip(STAT_NAMES, report) if v is not None]


def serialize_counted_closure(graph: Graph, rules: RuleSet, aux: Graph = EMPTY_GRAPH) -> str:
    """The closure as counted by the statistics, in serialize_turtle's text.

    Auxiliary triples support inference but belong to the count only where
    they overlap the published graph, keeping published <= closure. The
    text is rendered from the interned closure; no Triple is decoded.
    """
    terms = _Terms()
    m = _Materialization(terms, terms.encode(graph), rules, aux, minimizes=False)
    return m.render(m.counted())


def compute_stats(graph: Graph, rules: RuleSet, aux: Graph = EMPTY_GRAPH,
                  namespaces: NamespaceDecl | None = None) -> StatsReport:
    """All statistics from one materialization (stats_report)."""
    return stats_report(materialize(graph, rules, aux), namespaces)


def stats_report(m: _Materialization, namespaces: NamespaceDecl | None = None) -> StatsReport:
    """All statistics of a materialization, counted on term ids: its counted
    closure, and the kept ids of its minimize (reduce's survivors undecoded).
    The counted closure is the store less the aux triples that are not
    data, all of them in the store; it is counted, never built."""
    from fractions import Fraction

    if not m.data:
        raise EmptyGraphError("statistics are undefined for an empty graph")
    minimal = m.minimize()
    uncounted = m.aux - m.data
    closure = len(m.store.triples) - len(uncounted)
    plus = minus = None
    if namespaces is not None:
        if not minimal:
            raise EmptyGraphError("out-link density (minus) is undefined: minimized graph is empty")
        # Each term is classified once. An out-link points from an IRI the
        # namespaces own to an external IRI; blanks and literals never count.
        owned = [isinstance(x, IRI) and namespaces.owns(x.value) for x in m.terms.terms]
        external = [isinstance(x, IRI) and not own for x, own in zip(m.terms.terms, owned)]

        def out_links(triples) -> int:
            return sum(1 for s, _, o in triples if owned[s] and external[o])

        plus = Fraction(out_links(m.store.triples) - out_links(uncounted), closure)
        minus = Fraction(out_links(minimal), len(minimal))
    return StatsReport(
        published_cardinality=len(m.data),
        closure_cardinality=closure,
        minimal_cardinality=len(minimal),
        redundancy=Fraction(1) - Fraction(len(minimal), len(m.data)),
        out_link_density_plus=plus,
        out_link_density_minus=minus,
    )


_RATIO_PLACES = 6
_RATIO_SCALE = 10 ** _RATIO_PLACES


def canonical_ratio(value: Fraction) -> Fraction:
    """Round to six decimal places, half to even."""
    from fractions import Fraction

    return Fraction(round(value * _RATIO_SCALE), _RATIO_SCALE)


def decimal_string(value: Fraction) -> str:
    """Canonical decimal text for a ratio; always keeps one fractional digit."""
    scaled = round(value * _RATIO_SCALE)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, _RATIO_SCALE)
    digits = f"{frac:0{_RATIO_PLACES}d}".rstrip("0") or "0"
    return f"{sign}{whole}.{digits}"
