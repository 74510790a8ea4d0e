"""Deterministic synthetic inputs for the benchmark workloads.

Every input belongs to one family: 6 predicates, 8 classes and 50
external IRIs. Its schema gives each predicate an ``rdfs:domain`` and an
``rdfs:range``, declares one ``owl:inverseOf`` pair and a 7-step
``rdfs:subClassOf`` chain (20 schema triples, compiled to 21 rules).

The generator writes Turtle text itself and imports nothing from
graphnorm, so two versions of the program always receive byte-identical
inputs. All randomness comes from one ``random.Random`` per call, seeded
from the workload seed; sets serve only membership tests and nothing is
iterated in hash order, so a seed fixes every byte.
"""

from __future__ import annotations

import random

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
DATA = "http://example.org/data/"
VOCAB = "http://example.org/vocab/"
EXT = "http://external.example.net/"

RDF_TYPE = RDF + "type"
SUBCLASS = RDFS + "subClassOf"

PREDICATES = tuple(f"{VOCAB}p{i}" for i in range(6))
CLASSES = tuple(f"{VOCAB}C{i}" for i in range(8))
EXTERNALS = tuple(f"{EXT}x{i}" for i in range(50))
INVERSE_PAIR = (PREDICATES[4], PREDICATES[5])
TRANSITIVE = VOCAB + "partOf"
CHAIN_ROOT = VOCAB + "Rare"

_PREFIXES = (
    ("rdf", RDF), ("rdfs", RDFS), ("owl", OWL),
    ("d", DATA), ("v", VOCAB), ("x", EXT),
)

Triple = tuple[str, str, str]


def family_schema(chain: int = 0, transitive: bool = False) -> list[Triple]:
    """The family schema, optionally with a ``chain``-step subClassOf chain
    under ``CHAIN_ROOT`` and the transitive ``partOf`` property."""
    schema: list[Triple] = []
    for i, p in enumerate(PREDICATES):
        schema.append((p, RDFS + "domain", CLASSES[i]))
        schema.append((p, RDFS + "range", CLASSES[(i + 2) % len(CLASSES)]))
    schema.append((INVERSE_PAIR[0], OWL + "inverseOf", INVERSE_PAIR[1]))
    for lower, upper in zip(CLASSES, CLASSES[1:]):
        schema.append((lower, SUBCLASS, upper))
    if chain:
        levels = [CHAIN_ROOT] + [f"{VOCAB}K{i}" for i in range(1, chain + 1)]
        for lower, upper in zip(levels, levels[1:]):
            schema.append((lower, SUBCLASS, upper))
    if transitive:
        schema.append((TRANSITIVE, RDF_TYPE, OWL + "TransitiveProperty"))
    return schema


class FamilyGraph:
    """Draws distinct family triples; ``entities`` bounds the subject pool."""

    def __init__(self, rng: random.Random, entities: int):
        self._rng = rng
        self._entities = tuple(f"{DATA}e{i}" for i in range(entities))

    def triple(self) -> Triple:
        rng = self._rng
        s = rng.choice(self._entities)
        if rng.random() < 0.3:
            return (s, RDF_TYPE, rng.choice(CLASSES))
        p = rng.choice(PREDICATES)
        if rng.random() < 0.8:
            return (s, p, rng.choice(self._entities))
        return (s, p, rng.choice(EXTERNALS))

    def fill(self, triples: list[Triple], seen: set[Triple], n: int) -> None:
        """Append fresh triples until ``triples`` holds ``n``. A triple of the
        inverse pair is followed by its mirror a third of the time, so
        some inverse triples are redundant."""
        while len(triples) < n:
            t = self.triple()
            if t in seen:
                continue
            seen.add(t)
            triples.append(t)
            s, p, o = t
            if p in INVERSE_PAIR and o.startswith(DATA) and self._rng.random() < 0.33:
                mirror = (o, INVERSE_PAIR[1 - INVERSE_PAIR.index(p)], s)
                if mirror not in seen and len(triples) < n:
                    seen.add(mirror)
                    triples.append(mirror)


def family_graph(rng: random.Random, n: int) -> list[Triple]:
    triples: list[Triple] = []
    FamilyGraph(rng, max(20, n // 4)).fill(triples, set(), n)
    return triples


def forest(rng: random.Random, edges: int, depth: int) -> list[Triple]:
    """``edges`` partOf edges over fresh nodes, no path longer than ``depth``."""
    roots = max(1, edges // 5)
    levels = [0] * roots
    open_nodes = list(range(roots))
    triples: list[Triple] = []
    for child in range(roots, roots + edges):
        parent = open_nodes[rng.randrange(len(open_nodes))]
        levels.append(levels[parent] + 1)
        triples.append((f"{DATA}n{child}", TRANSITIVE, f"{DATA}n{parent}"))
        if levels[child] < depth:
            open_nodes.append(child)
    return triples


def turtle(triples: list[Triple]) -> str:
    """Turtle text with prefixed names, one triple per line."""

    def name(iri: str) -> str:
        if iri == RDF_TYPE:
            return "a"
        for prefix, ns in _PREFIXES:
            if iri.startswith(ns):
                return f"{prefix}:{iri[len(ns):]}"
        return f"<{iri}>"

    header = "".join(f"@prefix {prefix}: <{ns}> .\n" for prefix, ns in _PREFIXES)
    body = "".join(f"{name(s)} {name(p)} {name(o)} .\n" for s, p, o in triples)
    return header + body


def publish_verify(seed: int | str, n: int) -> dict:
    rng = random.Random(seed)
    return {"schema": family_schema(), "data": family_graph(rng, n)}


def closure_large(seed: int | str, n: int, chain: int, carriers: int,
                  forest_edges: int, forest_depth: int) -> dict:
    """A family graph of ``n`` triples in all: ``carriers`` entities typed
    with the class at the foot of the long chain, a transitive forest, and
    family triples for the rest."""
    rng = random.Random(seed)
    family = FamilyGraph(rng, max(20, n // 4))
    triples = forest(rng, forest_edges, forest_depth)
    seen = set(triples)
    while len(triples) < forest_edges + carriers:
        t = (family.triple()[0], RDF_TYPE, CHAIN_ROOT)
        if t not in seen:
            seen.add(t)
            triples.append(t)
    family.fill(triples, seen, n)
    return {"schema": family_schema(chain=chain, transitive=True), "data": triples}


def update(seed: int | str, n: int, small_diffs: int, last_diff: int) -> dict:
    """A family graph and a chain of diffs: ``small_diffs`` diffs of one
    insert and one delete, then one of ``last_diff`` of each. Inserts are
    fresh family triples; deletes are drawn from the current graph in
    sorted order."""
    rng = random.Random(seed)
    family = FamilyGraph(rng, max(20, n // 4))
    data: list[Triple] = []
    seen: set[Triple] = set()
    family.fill(data, seen, n)
    current = list(data)
    diffs = []
    for size in [1] * small_diffs + [last_diff]:
        ordered = sorted(current)
        deletes = [ordered[i] for i in sorted(rng.sample(range(len(ordered)), size))]
        gone = set(deletes)
        inserts: list[Triple] = []
        while len(inserts) < size:
            t = family.triple()
            if t not in seen:
                seen.add(t)
                inserts.append(t)
        current = [t for t in current if t not in gone] + inserts
        diffs.append({"insert": inserts, "delete": deletes, "full": list(current)})
    return {"schema": family_schema(), "data": data, "diffs": diffs}
