"""Closure oracle for the benchmark's output checks, independent of graphnorm.

It knows only the schema constructs the generator emits (``rdfs:domain``,
``rdfs:range``, ``rdfs:subClassOf``, ``owl:inverseOf`` and
``owl:TransitiveProperty``) and computes their closure in two phases:
property triples under inverse and transitive rules to a fixpoint, then
types from domains, ranges and asserted types, lifted along the
superclass relation. Property rules never read types and type rules
never produce property triples, so the two phases give the full closure.
"""

from __future__ import annotations

import re

from gen import OWL, RDF_TYPE, RDFS, SUBCLASS, Triple

_NT_LINE = re.compile(r"<([^>]*)> <([^>]*)> <([^>]*)> \.")


def parse_ntriples(text: str) -> set[Triple]:
    """Triples from the CLI's one-triple-per-line output (IRIs only)."""
    triples = set()
    for line in text.splitlines():
        match = _NT_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"unexpected output line: {line!r}")
        triples.add(match.groups())
    return triples


def _ancestors(supers: dict[str, list[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = [start]
    while stack:
        for upper in supers.get(stack.pop(), ()):
            if upper not in seen:
                seen.add(upper)
                stack.append(upper)
    return seen


def closure(triples, schema) -> set[Triple]:
    """The closure of ``triples`` together with ``schema``."""
    domain: dict[str, list[str]] = {}
    range_: dict[str, list[str]] = {}
    supers: dict[str, list[str]] = {}
    inverse: dict[str, list[str]] = {}
    transitive: set[str] = set()
    for s, p, o in schema:
        if p == RDFS + "domain":
            domain.setdefault(s, []).append(o)
        elif p == RDFS + "range":
            range_.setdefault(s, []).append(o)
        elif p == SUBCLASS:
            supers.setdefault(s, []).append(o)
        elif p == OWL + "inverseOf":
            inverse.setdefault(s, []).append(o)
            inverse.setdefault(o, []).append(s)
        elif p == RDF_TYPE and o == OWL + "TransitiveProperty":
            transitive.add(s)

    facts = set(triples) | set(schema)
    props = {t for t in facts if t[1] != RDF_TYPE}
    while True:
        new = {(o, q, s) for s, p, o in props for q in inverse.get(p, ())}
        for p in transitive:
            succ: dict[str, set[str]] = {}
            for s, q, o in props:
                if q == p:
                    succ.setdefault(s, set()).add(o)
            for s in succ:
                new.update((s, p, o) for o in _ancestors(succ, s))
        new -= props
        if not new:
            break
        props |= new

    types = {(s, o) for s, p, o in facts if p == RDF_TYPE}
    for s, p, o in props:
        types.update((s, c) for c in domain.get(p, ()))
        types.update((o, c) for c in range_.get(p, ()))
    lifted = {c: _ancestors(supers, c) for c in {c for _, c in types}}
    for x, c in list(types):
        types.update((x, d) for d in lifted[c])
    return props | {(x, RDF_TYPE, c) for x, c in types}
