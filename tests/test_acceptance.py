"""Acceptance gate: the end-to-end guarantees this package commits to.

Each test covers one numbered criterion and reports a single
``[acceptance] criterion N: PASS|FAIL`` line (echoed again in the
terminal summary). The criteria exercise the public API only, with
closure membership checked against the independent brute-force oracle
in ``support``.
"""

import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from graphnorm import (
    EMPTY_RULESET,
    NamespaceDecl,
    canonical_ratio,
    closure,
    compile_schema,
    compute_stats,
    format_rules,
    load_dlogic,
    parse_rules,
    parse_turtle,
    read_description,
    reduce,
    serialize_turtle,
)
from graphnorm.cli import main
from graphnorm.provenance import DEFAULT_GN_BASE, FileResolver

from support import (
    CLASS_NS,
    DATA_NS,
    FIXTURES,
    PRED_NS,
    all_candidates,
    cli_env,
    fixture_text,
    naive_closure,
    random_diff_instance,
    random_instance,
)

FOAF = "http://xmlns.com/foaf/0.1/"
PEOPLE = "http://example.org/people/"


@pytest.fixture
def criterion(request):
    """Context manager that records one PASS/FAIL line per criterion."""

    @contextmanager
    def _criterion(number: int):
        def note(passed: bool) -> None:
            line = f"[acceptance] criterion {number}: {'PASS' if passed else 'FAIL'}"
            print(line)
            lines = getattr(request.config, "acceptance_lines", None)
            if lines is None:
                lines = []
                request.config.acceptance_lines = lines
            lines.append(line)

        try:
            yield
        except BaseException:
            note(False)
            raise
        note(True)

    return _criterion


def _social_inputs():
    data = parse_turtle(fixture_text("social.ttl"))
    schema = parse_turtle(fixture_text("vocab.ttl"))
    rules = parse_rules(fixture_text("rules.n3"))
    return data, schema, rules


def test_worked_example_minimizes_to_the_two_knows_links(criterion):
    with criterion(1):
        started = time.monotonic()
        data, schema, rules = _social_inputs()
        minimal = reduce(data, rules, schema)
        report = compute_stats(data, rules, schema)
        elapsed = time.monotonic() - started

        expected = parse_turtle(
            f"<{PEOPLE}alice> <{FOAF}knows> <{PEOPLE}bob> .\n"
            f"<{PEOPLE}bob> <{FOAF}knows> <{PEOPLE}alice> .\n"
        )
        assert minimal == expected
        assert report.minimal_cardinality == 2
        assert report.redundancy == Fraction(1, 2)
        assert elapsed < 1.0


def test_minimal_graph_with_schema_restores_the_full_closure(criterion):
    with criterion(2):
        data, schema, rules = _social_inputs()
        minimal = reduce(data, rules, schema)
        restored = closure(minimal | schema, rules).graph
        assert restored == data | schema


def test_inverse_pair_reduces_to_one_stable_survivor(criterion):
    with criterion(3):
        survivors = set()
        for _ in range(100):
            graph = parse_turtle(fixture_text("links.ttl"))
            rules = parse_rules(fixture_text("links-rules.n3"))
            minimal = reduce(graph, rules)
            assert len(minimal) == 1
            survivors.add(next(iter(minimal)))
        assert len(survivors) == 1
        assert survivors.pop() in parse_turtle(fixture_text("links.ttl")).triples


def test_minimization_without_rules_is_identity_with_zero_redundancy(criterion):
    with criterion(4):
        for seed in range(20):
            graph, _, _ = random_instance(random.Random(seed))
            assert reduce(graph, EMPTY_RULESET) == graph
            report = compute_stats(graph, EMPTY_RULESET)
            assert report.redundancy == Fraction(0)
            assert report.minimal_cardinality == report.published_cardinality


def test_goal_directed_proof_matches_brute_force_membership(criterion):
    with criterion(5):
        started = time.monotonic()
        disagreements = 0
        for seed in range(1000):
            graph, rules, universe = random_instance(random.Random(seed))
            truth = naive_closure(graph, rules)
            entailed = closure(graph, rules).graph
            for candidate in all_candidates(universe):
                if (candidate in entailed) != (candidate in truth):
                    disagreements += 1
        elapsed = time.monotonic() - started
        assert disagreements == 0
        assert elapsed < 60.0


def test_incremental_minimization_preserves_closure_on_random_updates(
        criterion, tmp_path, capsys):
    with criterion(6):
        rules_path = tmp_path / "rules.n3"
        for seed in range(200):
            graph, rules, insertions, deletions = random_diff_instance(
                random.Random(seed))
            full = (graph - deletions) | insertions
            rules_path.write_text(format_rules(rules), encoding="utf-8")
            argv = ["diff-minimize", "--rules", str(rules_path)]
            for flag, g in (("--prev-min", reduce(graph, rules)), ("--full", full),
                            ("--insert", insertions), ("--delete", deletions)):
                path = tmp_path / f"{flag[2:]}.ttl"
                path.write_text(serialize_turtle(g), encoding="utf-8")
                argv += [flag, str(path)]
            code = main(argv)
            out, err = capsys.readouterr()
            assert code == 0, err
            assert out == serialize_turtle(reduce(full, rules))
            assert err == "fallback: false\n"
            assert closure(parse_turtle(out), rules).graph == closure(full, rules).graph


_DESCRIBE_SETS = [
    ("social.ttl", ["rules.n3"], ["vocab.ttl"], []),
    ("links.ttl", ["links-rules.n3"], [], []),
    ("mixed.ttl", [], ["mixed-vocab.ttl"], ["http://example.org/cat/"]),
    ("social.ttl", [], [], []),
]

_INT_DIMS = ("publishedTriples", "closureTriples", "minimalTriples")
_RATIO_DIMS = ("redundancy", "outLinkDensityPlus", "outLinkDensityMinus")


def _run_cli(args, cwd, hash_seed="0"):
    return subprocess.run(
        [sys.executable, "-m", "graphnorm", *args],
        cwd=cwd, capture_output=True,
        env=cli_env(hash_seed),
    )


def test_descriptions_verify_and_reemit_byte_identically(criterion, tmp_path):
    with criterion(7):
        for name in ("social.ttl", "vocab.ttl", "rules.n3", "links.ttl",
                     "links-rules.n3", "mixed.ttl", "mixed-vocab.ttl"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        resolver = FileResolver(str(tmp_path))

        for index, (data, rule_files, dlogic, namespaces) in enumerate(_DESCRIBE_SETS):
            args = ["describe", "--data", data]
            for path in rule_files:
                args += ["--rules", path]
            for path in dlogic:
                args += ["--dlogic", path]
            for ns in namespaces:
                args += ["--namespace", ns]

            first = _run_cli(args, tmp_path, hash_seed="1")
            second = _run_cli(args, tmp_path, hash_seed="99")
            assert first.returncode == 0, first.stderr
            assert first.stdout == second.stdout

            desc_path = tmp_path / f"desc{index}.ttl"
            desc_path.write_bytes(first.stdout)
            verified = _run_cli(["verify", desc_path.name], tmp_path)
            assert verified.returncode == 0, verified.stdout + verified.stderr

            # Independently recompute the report and demand exact matches.
            rules = EMPTY_RULESET
            for path in rule_files:
                rules = rules | parse_rules(resolver(path), source=path)
            aux = load_dlogic(dlogic, resolver)
            if aux:
                rules = rules | compile_schema(aux)
            decl = NamespaceDecl(tuple(namespaces)) if namespaces else None
            report = compute_stats(parse_turtle(resolver(data)), rules, aux, decl)

            stated = dict(read_description(first.stdout.decode("utf-8")).stated)
            expected = {
                DEFAULT_GN_BASE + "publishedTriples": report.published_cardinality,
                DEFAULT_GN_BASE + "closureTriples": report.closure_cardinality,
                DEFAULT_GN_BASE + "minimalTriples": report.minimal_cardinality,
                DEFAULT_GN_BASE + "redundancy": canonical_ratio(report.redundancy),
            }
            if decl is not None:
                expected[DEFAULT_GN_BASE + "outLinkDensityPlus"] = canonical_ratio(
                    report.out_link_density_plus)
                expected[DEFAULT_GN_BASE + "outLinkDensityMinus"] = canonical_ratio(
                    report.out_link_density_minus)
            assert stated == expected


def test_statistics_respect_cardinality_and_ratio_bounds(criterion):
    with criterion(8):
        decl = NamespaceDecl((DATA_NS, PRED_NS, CLASS_NS))
        for seed in range(100):
            graph, rules, _ = random_instance(
                random.Random(seed), external=True, literals=True)
            report = compute_stats(graph, rules, namespaces=decl)
            assert (report.minimal_cardinality
                    <= report.published_cardinality
                    <= report.closure_cardinality)
            for ratio in (report.redundancy, report.out_link_density_plus,
                          report.out_link_density_minus):
                assert Fraction(0) <= ratio <= Fraction(1)
