"""Provenance-qualified statistics over RDF graphs.

The package computes cardinality, closure cardinality, minimal-graph
cardinality, redundancy, and out-link densities for RDF graphs under
forward-chaining rules, and reads/writes machine-readable descriptions
that let anyone recompute and verify the published numbers.
"""

from .errors import (
    EmptyGraphError,
    GraphNormError,
    ParseError,
    ResolverError,
    UnsafeRuleError,
    UnsupportedFeatureError,
)
from .terms import IRI, BlankNode, Literal, Triple, Variable
from .graph import EMPTY_GRAPH, Graph, skolemize
from .turtle import parse_turtle, serialize_turtle
from .rules import (
    EMPTY_RULESET,
    Rule,
    RuleSet,
    TriplePattern,
    compile_schema,
    format_rules,
    parse_rules,
)
from .engine import ClosureResult, closure, reduce
from .stats import (
    NamespaceDecl,
    StatsReport,
    canonical_ratio,
    compute_stats,
    decimal_string,
    serialize_counted_closure,
)
from .provenance import (
    DEFAULT_GN_BASE,
    Description,
    FileResolver,
    NormalisationSpec,
    RuleSource,
    compare_description,
    emit_description,
    load_dlogic,
    load_rules,
    read_description,
    recompute,
)

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "ClosureResult",
    "DEFAULT_GN_BASE",
    "Description",
    "EMPTY_GRAPH",
    "EMPTY_RULESET",
    "EmptyGraphError",
    "FileResolver",
    "Graph",
    "GraphNormError",
    "IRI",
    "Literal",
    "NamespaceDecl",
    "NormalisationSpec",
    "ParseError",
    "ResolverError",
    "Rule",
    "RuleSet",
    "RuleSource",
    "StatsReport",
    "Triple",
    "TriplePattern",
    "UnsafeRuleError",
    "UnsupportedFeatureError",
    "Variable",
    "canonical_ratio",
    "closure",
    "compare_description",
    "compile_schema",
    "compute_stats",
    "decimal_string",
    "emit_description",
    "format_rules",
    "load_dlogic",
    "load_rules",
    "parse_rules",
    "parse_turtle",
    "read_description",
    "recompute",
    "reduce",
    "serialize_counted_closure",
    "serialize_turtle",
    "skolemize",
    "__version__",
]
