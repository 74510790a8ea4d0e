"""A fixed amount of pure-Python work, the yardstick of the host's speed.

    python calibration.py

``run.py`` runs it as a process of its own before each graphnorm command
and after the last, and scales each command's time by it. Like a command,
it pays an interpreter start-up and then builds and probes sets and
dictionaries of IRI triples, so its wall time moves with the host's speed
as a command's does. It imports nothing from graphnorm and never changes
with the program under test.
"""

TERMS = tuple(f"http://example.org/data/e{i}" for i in range(4000))
PREDICATES = tuple(f"http://example.org/vocab/p{i}" for i in range(6))
ROUNDS = 4


def one_round() -> int:
    facts = set()
    by_subject: dict[str, list] = {}
    for i in range(20000):
        t = (TERMS[i * 7919 % 4000], PREDICATES[i % 6], TERMS[i * 104729 % 4000])
        facts.add(t)
        by_subject.setdefault(t[0], []).append(t)
    mirrored = sum(1 for s, p, o in facts if (o, p, s) in facts)
    return mirrored + len(by_subject)


if __name__ == "__main__":
    for _ in range(ROUNDS):
        one_round()
