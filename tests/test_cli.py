import contextlib
import gc
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from graphnorm import (
    Graph,
    GraphNormError,
    IRI,
    NamespaceDecl,
    NormalisationSpec,
    RuleSource,
    StatsReport,
    Triple,
    closure,
    compile_schema,
    compute_stats,
    decimal_string,
    emit_description,
    format_rules,
    parse_turtle,
    serialize_counted_closure,
    serialize_turtle,
    skolemize,
)
from graphnorm import cli
from graphnorm.cli import main
from graphnorm.engine import _Materialization
from graphnorm.stats import stat_texts
from graphnorm.rules import OWL_INVERSEOF, OWL_TRANSITIVE, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASSOF
from graphnorm.terms import RDF_TYPE

from support import (CLASS_NS, DATA_NS, FIXTURES, FUZZ_TOKENS, PRED_NS, cli_env, fixture_text,
                     random_instance)

LINKS = "http://example.org/links/"
CHAIN = "http://example.org/chain/"
XSD = "http://www.w3.org/2001/XMLSchema#"

# Schema triples over random_instance's predicates and classes.
_P0, _P1 = IRI(PRED_NS + "p0"), IRI(PRED_NS + "p1")
_C1, _C2 = IRI(CLASS_NS + "C1"), IRI(CLASS_NS + "C2")
_SCHEMA = [Triple(_P0, RDFS_DOMAIN, _C1), Triple(_P1, RDFS_RANGE, _C2),
           Triple(_C1, RDFS_SUBCLASSOF, _C2), Triple(_P0, RDF_TYPE, OWL_TRANSITIVE),
           Triple(_P1, OWL_INVERSEOF, _P0)]


def _run_captured(argv):
    """Invoke the CLI in-process with its own capture, for tests that run
    it more than once per test call; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Copy the fixture files into a scratch directory and chdir there,
    so relative locators in emitted descriptions stay resolvable."""
    for name in ("social.ttl", "vocab.ttl", "rules.n3",
                 "links.ttl", "links-rules.n3", "mixed.ttl", "mixed-vocab.ttl"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestClosure:
    def test_adds_derived_triples(self, workdir, capsys):
        (workdir / "half.ttl").write_text(
            f"<{LINKS}a> <{LINKS}links_to> <{LINKS}b> .\n", encoding="utf-8")
        code, out, err = run(
            ["closure", "--data", "half.ttl", "--rules", "links-rules.n3"], capsys)
        assert code == 0 and err == ""
        assert out == (
            f"<{LINKS}a> <{LINKS}links_to> <{LINKS}b> .\n"
            f"<{LINKS}b> <{LINKS}linked_from> <{LINKS}a> .\n"
        )

    def test_schema_triples_support_but_are_not_counted(self, workdir, capsys):
        code, out, _ = run(
            ["closure", "--data", "social.ttl",
             "--rules", "rules.n3", "--dlogic", "vocab.ttl"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("rdfs" not in line for line in lines)

    def test_output_flag_writes_file(self, workdir, capsys):
        code, out, _ = run(
            ["closure", "--data", "social.ttl", "--output", "out.ttl"], capsys)
        assert code == 0 and out == ""
        assert len((workdir / "out.ttl").read_text(encoding="utf-8").splitlines()) == 4

    def test_base_flag_skolemizes_blank_nodes(self, workdir, capsys):
        (workdir / "anon.ttl").write_text(
            f"_:x <{LINKS}p> <{LINKS}o> .\n", encoding="utf-8")
        code, out, _ = run(
            ["closure", "--data", "anon.ttl", "--base", "http://example.org/g"],
            capsys)
        assert code == 0
        assert "_:" not in out
        assert "/.well-known/genid/" in out

    def test_base_skolemizes_as_the_library_does_beside_written_genid_iris(self, workdir, capsys):
        """_:x and the IRI it skolemizes to both occur in the data: closure
        and stats with --base count the skolemized graph, in which the two
        spellings of each triple are one."""
        base = "http://example.org/g"
        genid = f"<{base}/.well-known/genid/x>"
        text = (f"_:x <{LINKS}label> \"x\" .\n{genid} <{LINKS}label> \"x\" .\n"
                f"<{LINKS}a> <{LINKS}links_to> _:x , {genid} .\n"
                f"_:y <{LINKS}links_to> _:x .\n")
        vocab = (f"<{LINKS}links_to> <http://www.w3.org/2000/01/rdf-schema#range> "
                 f"<{LINKS}Page> .\n")
        (workdir / "anon.ttl").write_text(text, encoding="utf-8")
        (workdir / "anon-vocab.ttl").write_text(vocab, encoding="utf-8")
        graph = skolemize(parse_turtle(text), base)
        aux = parse_turtle(vocab)
        rules = compile_schema(aux)
        assert len(graph) == 3
        flags = ["--data", "anon.ttl", "--dlogic", "anon-vocab.ttl", "--base", base]
        code, out, _ = run(["closure", *flags], capsys)
        assert code == 0 and out == serialize_counted_closure(graph, rules, aux)
        code, out, _ = run(["stats", *flags, "--format", "tsv"], capsys)
        report = compute_stats(graph, rules, aux)
        assert code == 0 and report.published_cardinality == 3
        assert out == "".join(f"{name}\t{value}\n" for name, value in stat_texts(report))

    def test_schema_triple_also_in_data_is_printed(self, workdir, capsys):
        domain = ("<http://xmlns.com/foaf/0.1/knows> "
                  "<http://www.w3.org/2000/01/rdf-schema#domain> "
                  "<http://xmlns.com/foaf/0.1/Person> .")
        (workdir / "overlap.ttl").write_text(
            "<http://example.org/people/bob> <http://xmlns.com/foaf/0.1/knows> "
            f"<http://example.org/people/alice> .\n{domain}\n", encoding="utf-8")
        code, out, _ = run(
            ["closure", "--data", "overlap.ttl", "--dlogic", "vocab.ttl"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert domain in lines
        assert not any("rdf-schema#range" in line for line in lines)
        assert len(lines) == 4  # knows, domain, and both ends typed Person

    def test_output_matches_graph_definition(self, workdir, capsys):
        (workdir / "rich.ttl").write_text(
            f"_:x <{LINKS}links_to> _:y .\n"
            f'_:y <{LINKS}label> "a \\"quoted\\" tab\\t"@en-GB .\n'
            f"<{LINKS}a> <{LINKS}links_to> _:x .\n"
            f"<{LINKS}a> <{LINKS}size> 12 .\n"
            f'<{LINKS}a> <{LINKS}note> "caf\u00e9"^^<{LINKS}text> .\n',
            encoding="utf-8")
        (workdir / "rich-vocab.ttl").write_text(
            f"<{LINKS}links_to> <http://www.w3.org/2000/01/rdf-schema#range> <{LINKS}Page> .\n"
            f"<{LINKS}label> <http://www.w3.org/2000/01/rdf-schema#domain> <{LINKS}Page> .\n",
            encoding="utf-8")
        base = "http://example.org/g"
        code, _, _ = run(["closure", "--data", "rich.ttl", "--dlogic", "rich-vocab.ttl",
                          "--base", base, "--output", "out.ttl"], capsys)
        assert code == 0
        graph = skolemize(parse_turtle((workdir / "rich.ttl").read_text(encoding="utf-8")), base)
        aux = parse_turtle((workdir / "rich-vocab.ttl").read_text(encoding="utf-8"))
        expected = closure(graph | aux, compile_schema(aux)).graph - (aux - graph)
        assert len(expected) == 7  # five published, both blanks typed Page
        assert (workdir / "out.ttl").read_bytes() == serialize_turtle(expected).encode("utf-8")


class TestMinimize:
    def test_drops_rederivable_triples(self, workdir, capsys):
        code, out, _ = run(
            ["minimize", "--data", "social.ttl",
             "--rules", "rules.n3", "--dlogic", "vocab.ttl"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all("knows" in line for line in lines)

    def test_no_rules_is_identity(self, workdir, capsys):
        code, out, _ = run(["minimize", "--data", "social.ttl"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4


@pytest.mark.parametrize("command, collects", [("closure", False), ("minimize", True),
                                               ("stats", True)])
def test_only_a_command_that_minimizes_collects_derivable(workdir, capsys, monkeypatch,
                                                          command, collects):
    made = []
    saturate = _Materialization.saturate

    def recording(self):
        made.append(self.derivable is not None)
        return saturate(self)

    monkeypatch.setattr(_Materialization, "saturate", recording)
    code, _, _ = run([command, "--data", "social.ttl", "--dlogic", "vocab.ttl"], capsys)
    assert (code, made) == (0, [collects])


class TestStats:
    def test_table_format(self, workdir, capsys):
        code, out, _ = run(
            ["stats", "--data", "social.ttl",
             "--rules", "rules.n3", "--dlogic", "vocab.ttl"], capsys)
        assert code == 0
        assert "publishedTriples  4" in out
        assert "closureTriples    4" in out
        assert "minimalTriples    2" in out
        assert "redundancy        0.5" in out

    def test_tsv_format_matches_library_report(self, workdir, capsys):
        code, out, _ = run(
            ["stats", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl",
             "--namespace", "http://example.org/cat/", "--format", "tsv"], capsys)
        assert code == 0
        graph = parse_turtle((workdir / "mixed.ttl").read_text(encoding="utf-8"))
        aux = parse_turtle((workdir / "mixed-vocab.ttl").read_text(encoding="utf-8"))
        report = compute_stats(graph, compile_schema(aux), aux,
                               NamespaceDecl(("http://example.org/cat/",)))
        expected = (
            f"publishedTriples\t{report.published_cardinality}\n"
            f"closureTriples\t{report.closure_cardinality}\n"
            f"minimalTriples\t{report.minimal_cardinality}\n"
            f"redundancy\t{decimal_string(report.redundancy)}\n"
            f"outLinkDensityPlus\t{decimal_string(report.out_link_density_plus)}\n"
            f"outLinkDensityMinus\t{decimal_string(report.out_link_density_minus)}\n"
        )
        assert out == expected
        assert report.published_cardinality == 11
        assert report.closure_cardinality == 13
        assert report.minimal_cardinality == 8

    def test_table_and_tsv_with_densities(self, workdir, capsys):
        args = ["stats", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl",
                "--namespace", "http://example.org/cat/"]
        code, out, err = run(args, capsys)
        assert code == 0 and err == ""
        assert out == (
            "publishedTriples     11\n"
            "closureTriples       13\n"
            "minimalTriples       8\n"
            "redundancy           0.272727\n"
            "outLinkDensityPlus   0.153846\n"
            "outLinkDensityMinus  0.25\n"
        )
        code, out, err = run(args + ["--format", "tsv"], capsys)
        assert code == 0 and err == ""
        assert out == (
            "publishedTriples\t11\n"
            "closureTriples\t13\n"
            "minimalTriples\t8\n"
            "redundancy\t0.272727\n"
            "outLinkDensityPlus\t0.153846\n"
            "outLinkDensityMinus\t0.25\n"
        )

    def test_turtle_format_uses_dataset_locator(self, workdir, capsys):
        code, out, _ = run(
            ["stats", "--data", "social.ttl", "--format", "turtle",
             "--dataset", "http://example.org/datasets/social"], capsys)
        assert code == 0
        assert "<http://example.org/datasets/social> a void:Dataset ;" in out

    def test_densities_absent_without_namespace(self, workdir, capsys):
        code, out, _ = run(
            ["stats", "--data", "social.ttl", "--format", "tsv"], capsys)
        assert code == 0
        assert "outLinkDensity" not in out


class TestDiffMinimize:
    def test_redundant_insertion_keeps_minimal_graph(self, workdir, capsys):
        (workdir / "prev.ttl").write_text(
            f"<{LINKS}b> <{LINKS}linked_from> <{LINKS}a> .\n", encoding="utf-8")
        (workdir / "ins.ttl").write_text(
            f"<{LINKS}a> <{LINKS}links_to> <{LINKS}b> .\n", encoding="utf-8")
        code, out, err = run(
            ["diff-minimize", "--prev-min", "prev.ttl", "--full", "links.ttl",
             "--insert", "ins.ttl", "--rules", "links-rules.n3"], capsys)
        assert code == 0
        assert err == "fallback: false\n"
        assert out == f"<{LINKS}b> <{LINKS}linked_from> <{LINKS}a> .\n"

    def test_deleting_a_support_falls_back_to_full_reduce(self, workdir, capsys):
        (workdir / "prev.ttl").write_text(
            f"<{LINKS}b> <{LINKS}linked_from> <{LINKS}a> .\n", encoding="utf-8")
        (workdir / "del.ttl").write_text(
            f"<{LINKS}b> <{LINKS}linked_from> <{LINKS}a> .\n", encoding="utf-8")
        (workdir / "full.ttl").write_text(
            f"<{LINKS}a> <{LINKS}links_to> <{LINKS}b> .\n", encoding="utf-8")
        code, out, err = run(
            ["diff-minimize", "--prev-min", "prev.ttl", "--full", "full.ttl",
             "--delete", "del.ttl", "--rules", "links-rules.n3"], capsys)
        assert code == 0
        assert err == "fallback: false\n"
        assert out == f"<{LINKS}a> <{LINKS}links_to> <{LINKS}b> .\n"

    def test_stale_previous_minimum_does_not_change_the_result(self, workdir, capsys):
        # prev.ttl is a minimal graph of full.ttl too, but not the one
        # minimize chooses: the output is minimize's, byte for byte.
        (workdir / "sym.n3").write_text(
            f"{{ ?x <{LINKS}p> ?y . }} => {{ ?y <{LINKS}p> ?x . }} .\n", encoding="utf-8")
        (workdir / "full.ttl").write_text(
            f"<{LINKS}a> <{LINKS}p> <{LINKS}b> .\n<{LINKS}b> <{LINKS}p> <{LINKS}a> .\n",
            encoding="utf-8")
        (workdir / "prev.ttl").write_text(
            f"<{LINKS}a> <{LINKS}p> <{LINKS}b> .\n", encoding="utf-8")
        code, expected, _ = run(
            ["minimize", "--data", "full.ttl", "--rules", "sym.n3"], capsys)
        assert code == 0
        code, out, err = run(
            ["diff-minimize", "--prev-min", "prev.ttl", "--full", "full.ttl",
             "--rules", "sym.n3"], capsys)
        assert code == 0
        assert err == "fallback: false\n"
        assert out == expected == f"<{LINKS}b> <{LINKS}p> <{LINKS}a> .\n"

    def test_diff_files_are_still_read_and_parsed(self, workdir, capsys):
        (workdir / "bad.ttl").write_text("ex:a ex:b ex:c .\n", encoding="utf-8")
        base = ["diff-minimize", "--prev-min", "links.ttl", "--full", "links.ttl",
                "--rules", "links-rules.n3"]
        code, out, err = run(base + ["--insert", "bad.ttl"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("graphnorm: bad.ttl:1:1")
        code, out, err = run(base + ["--delete", "absent.ttl"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("graphnorm: ")


class TestDescribeVerify:
    DESCRIBE = ["describe", "--data", "social.ttl",
                "--rules", "rules.n3", "--dlogic", "vocab.ttl"]

    @pytest.mark.parametrize("flags", [
        ["--data", "social.ttl", "--rules", "rules.n3", "--dlogic", "vocab.ttl",
         "--dataset", "http://example.org/datasets/social"],
        ["--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl",
         "--namespace", "http://example.org/cat/"],
    ])
    def test_describe_is_stats_in_turtle(self, workdir, capsys, flags):
        code, described, err = run(["describe", *flags], capsys)
        assert code == 0 and err == ""
        code, stated, err = run(["stats", *flags, "--format", "turtle"], capsys)
        assert code == 0 and err == ""
        assert described == stated
        assert "void:Dataset" in described

    def test_round_trip_verifies(self, workdir, capsys):
        code, out, _ = run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        assert code == 0
        code, out, _ = run(["verify", "desc.ttl"], capsys)
        assert code == 0
        assert out == "ok: 4 statistics verified\n"

    def test_tampered_value_exits_4(self, workdir, capsys):
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        text = (workdir / "desc.ttl").read_text(encoding="utf-8")
        (workdir / "desc.ttl").write_text(
            text.replace("rdf:value 4", "rdf:value 7", 1), encoding="utf-8")
        code, out, _ = run(["verify", "desc.ttl"], capsys)
        assert code == 4
        assert out.startswith("mismatch: ")
        assert "stated 7, recomputed 4" in out

    def test_a_namespace_that_is_not_an_absolute_iri_exits_1_naming_the_description(
            self, workdir, capsys):
        code, _, _ = run(["describe", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl",
                          "--namespace", "http://example.org/cat/", "--output", "desc.ttl"],
                         capsys)
        assert code == 0
        text = (workdir / "desc.ttl").read_text(encoding="utf-8")
        bad = text.replace("<http://example.org/cat/>", "<ht,tp://example.org/cat/>")
        assert bad != text
        (workdir / "desc.ttl").write_text(bad, encoding="utf-8")
        code, out, err = run(["verify", "desc.ttl", "--output", "out.txt"], capsys)
        assert (code, out, err) == (1, "", "graphnorm: namespace prefix is not an absolute IRI: "
                                           "'ht,tp://example.org/cat/' in gn:namespace of desc.ttl\n")
        assert not (workdir / "out.txt").exists()

    def test_literal_locator_exits_1(self, workdir, capsys):
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        text = (workdir / "desc.ttl").read_text(encoding="utf-8")
        (workdir / "desc.ttl").write_text(
            text.replace("gn:n3 <rules.n3>", 'gn:n3 "rules.n3"'), encoding="utf-8")
        code, out, err = run(["verify", "desc.ttl"], capsys)
        assert code == 1 and out == ""
        assert err == "graphnorm: gn:n3 must be an IRI, got 'rules.n3'\n"

    def _verify_stating(self, workdir, capsys, stated: str):
        """verify a fresh description whose first 'rdf:value 4' reads stated."""
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        desc = workdir / "desc.ttl"
        text = desc.read_text(encoding="utf-8")
        desc.write_text(text.replace("rdf:value 4", f"rdf:value {stated}", 1), encoding="utf-8")
        return run(["verify", "desc.ttl"], capsys)

    @pytest.mark.parametrize("datatype", ["integer", "decimal"])
    @pytest.mark.parametrize("lexical", ["3/4", "1e5", " 2 ", "1_0", "\u0662", "NaN", "1e1000000"])
    def test_typed_value_outside_the_xsd_lexical_form_exits_1(self, workdir, capsys,
                                                              lexical, datatype):
        stated = f'"{lexical}"^^<{XSD}{datatype}>'
        assert self._verify_stating(workdir, capsys, stated) == (
            1, "", f"graphnorm: rdf:value must be numeric, got {lexical!r}\n")

    def test_a_relative_datatype_is_a_placed_parse_error(self, workdir, capsys):
        """A stated literal is read as data reads it: its datatype must be
        an absolute IRI."""
        code, out, err = self._verify_stating(workdir, capsys, '"4"^^<integer>')
        assert (code, out) == (2, "")
        assert re.fullmatch(r"graphnorm: desc\.ttl:\d+:\d+: relative IRI not allowed: 'integer'\n",
                            err)
        line, col = map(int, err.split(":")[2:4])
        text = (workdir / "desc.ttl").read_text(encoding="utf-8")
        assert text.splitlines()[line - 1][col - 1:].startswith("<integer>")

    @pytest.mark.parametrize("stated", [
        f'"4"^^<{XSD}integer>', f'"+4"^^<{XSD}integer>', f'"004"^^<{XSD}integer>',
        f'"4."^^<{XSD}decimal>', f'"+4.0"^^<{XSD}decimal>', "+4", "004", "4.0",
    ])
    def test_xsd_and_bare_numeric_values_verify(self, workdir, capsys, stated):
        assert self._verify_stating(workdir, capsys, stated) == (
            0, "ok: 4 statistics verified\n", "")

    @pytest.mark.parametrize("second", [
        "[ a gn:MiniRDF ; gn:rules [ a gn:RuleSet ; gn:n3 <rules.n3> ] ]", '"x"'])
    def test_a_second_normalisation_exits_1(self, workdir, capsys, second):
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        desc = workdir / "desc.ttl"
        text = desc.read_text(encoding="utf-8")
        doubled = text.replace("\n        ]\n    ]",
                               f"\n        ] ;\n        gn:normalisation {second}\n    ]")
        assert doubled.count("gn:normalisation") == 2 * text.count("gn:normalisation") > 0
        desc.write_text(doubled, encoding="utf-8")
        assert run(["verify", "desc.ttl"], capsys) == (
            1, "", "graphnorm: description item carries more than one gn:normalisation\n")

    @pytest.mark.parametrize("old,new,message", [
        ("a gn:MiniRDF", "a gn:Closure", "a gn:Closure normalisation carries no gn:constraints"),
        ("[ a gn:ConstraintSet ]", "[ a gn:RuleSet ]",
         "gn:constraints must be one anonymous node typed gn:ConstraintSet"),
        ("[ a gn:ConstraintSet ]", "<constraints.ttl>",
         "gn:constraints must be one anonymous node typed gn:ConstraintSet"),
        ("[ a gn:ConstraintSet ]", "[ a gn:ConstraintSet ], [ a gn:ConstraintSet ]",
         "gn:constraints must be one anonymous node typed gn:ConstraintSet"),
    ])
    def test_constraints_that_contradict_the_kind_exit_1(self, workdir, capsys, old, new,
                                                          message):
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        desc = workdir / "desc.ttl"
        text = desc.read_text(encoding="utf-8")
        assert text.count(old) == 4
        desc.write_text(text.replace(old, new), encoding="utf-8")
        assert run(["verify", "desc.ttl"], capsys) == (1, "", f"graphnorm: {message}\n")

    def test_a_mini_rdf_normalisation_without_constraints_verifies(self, workdir, capsys):
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        desc = workdir / "desc.ttl"
        text = desc.read_text(encoding="utf-8")
        bare = text.replace(" ;\n            gn:constraints [ a gn:ConstraintSet ]", "")
        assert "gn:constraints" not in bare and "gn:MiniRDF" in bare
        desc.write_text(bare, encoding="utf-8")
        assert run(["verify", "desc.ttl"], capsys) == (0, "ok: 4 statistics verified\n", "")

    def test_description_stating_no_statistic_exits_1(self, workdir, capsys):
        (workdir / "desc.ttl").write_text(
            "@prefix void: <http://rdfs.org/ns/void#> .\n<social.ttl> a void:Dataset .\n",
            encoding="utf-8")
        code, out, err = run(["verify", "desc.ttl"], capsys)
        assert (code, out) == (1, "")
        assert err == ("graphnorm: description states no statistic: "
                       "its void:Dataset has no void:statItem\n")

    @pytest.mark.parametrize("flag,char", [
        *((flag, char) for flag in ["--data", "--rules", "--dlogic", "--namespace"]
          for char in [" ", "<", ">", '"', "{", "|", "\\"]),
        *((flag, "=") for flag in ["--data", "--rules", "--dlogic"]),
    ])
    def test_unreadable_locator_exits_1(self, workdir, capsys, flag, char):
        """A locator or namespace that verify could not read back from
        between '<' and '>' is refused, and no description is written.
        The locator '=' stands alone: '<=>' reads back as the N3
        equivalence token. (A namespace must be an absolute IRI.)"""
        args = dict(zip(self.DESCRIBE[1::2], self.DESCRIBE[2::2]))
        if char == "=":
            bad = char
        elif flag == "--namespace":
            bad = f"http://example.org/a{char}b"
        else:
            bad = args[flag].replace(".", char + ".")
        if flag != "--namespace":
            shutil.copy(workdir / args[flag], workdir / bad)
        args[flag] = bad
        argv = ["describe", *(x for pair in args.items() for x in pair), "--output", "desc.ttl"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"graphnorm: cannot be written as an IRI reference: {bad!r}\n"
        assert not (workdir / "desc.ttl").exists()

    @pytest.mark.parametrize("flag", ["--data", "--rules", "--dlogic"])
    def test_locator_read_back_as_an_iri_exits_1(self, workdir, capsys, flag):
        """A path whose first segment looks like a URI scheme would be read
        back as a non-file IRI, so describe refuses to record it."""
        args = dict(zip(self.DESCRIBE[1::2], self.DESCRIBE[2::2]))
        bad = "run:" + args[flag]
        shutil.copy(workdir / args[flag], workdir / bad)
        args[flag] = bad
        argv = ["describe", *(x for pair in args.items() for x in pair), "--output", "desc.ttl"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"graphnorm: only local file locators are supported: {bad!r}\n"
        assert not (workdir / "desc.ttl").exists()

    @pytest.mark.parametrize("flags", [
        ["--data", "social.ttl", "--dataset", "http://example.org/ds"],
        ["--data", "run:social.ttl", "--dataset", "social.ttl"],
    ], ids=["explicit-iri", "unrecorded-data-path"])
    def test_locators_not_read_from_a_path_are_not_refused(self, workdir, capsys, flags):
        shutil.copy(workdir / "social.ttl", workdir / "run:social.ttl")
        code, out, err = run(["describe", *flags, "--rules", "rules.n3"], capsys)
        assert (code, err) == (0, "")
        assert f"<{flags[3]}> a void:Dataset ;" in out

    @pytest.mark.parametrize("dataset, error", [
        ("in/social.ttl", "cannot resolve 'in/social.ttl'"),
        ("file:social.ttl", "a file: locator needs an absolute path: 'file:social.ttl'"),
        ("../in/vocab.ttl", "--dataset '../in/vocab.ttl' does not hold the --data graph"),
    ], ids=["from-the-working-directory", "relative-file-iri", "another-graph"])
    def test_dataset_naming_a_file_is_read_as_verify_reads_it(
            self, workdir, capsys, dataset, error):
        """A --dataset path or file: IRI is read from the description's
        directory: one that does not resolve there, or holds another graph
        than --data, would not verify, so describe writes nothing."""
        (workdir / "in").mkdir()
        (workdir / "out").mkdir()
        for name in ("social.ttl", "vocab.ttl"):
            shutil.copy(workdir / name, workdir / "in" / name)
        code, out, err = run(["describe", "--data", "in/social.ttl", "--dataset", dataset,
                              "--output", "out/desc.ttl"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"graphnorm: {error}")
        assert not (workdir / "out" / "desc.ttl").exists()

    @pytest.mark.parametrize("command", [["describe"], ["stats", "--format", "turtle"]])
    def test_base_is_refused(self, workdir, capsys, command):
        """A description does not record skolemization, so verify would
        recount the unskolemized graph: outLinkDensityPlus 0.5 would
        recompute as 0.0."""
        (workdir / "d.ttl").write_text(
            "@prefix ex: <http://ex.org/> .\n"
            "ex:a ex:p _:b1 . _:b1 ex:p <http://other.org/x> .\n", encoding="utf-8")
        code, out, err = run([*command, "--data", "d.ttl", "--base", "http://ex.org/",
                              "--namespace", "http://ex.org/", "--output", "desc.ttl"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("graphnorm: a description cannot record --base")
        assert not (workdir / "desc.ttl").exists()

    @pytest.mark.parametrize("paths", ["relative", "absolute"])
    @pytest.mark.parametrize("out_dir", [".", "out"])
    def test_every_description_written_verifies_from_anywhere(
            self, workdir, capsys, monkeypatch, out_dir, paths):
        """describe reads what it records from the description's directory,
        as verify does: a description it writes always verifies, and one
        it could not read back is never written."""
        (workdir / "out").mkdir()
        args = dict(zip(self.DESCRIBE[1::2], self.DESCRIBE[2::2]))
        if paths == "absolute":
            args = {flag: str(workdir / path) for flag, path in args.items()}
        output = f"{out_dir}/desc.ttl"
        argv = ["describe", *(x for pair in args.items() for x in pair), "--output", output]
        code, out, err = run(argv, capsys)
        if code == 1:
            assert not (workdir / output).exists()
            assert (out_dir, paths) == ("out", "relative")
            assert err.startswith("graphnorm: cannot resolve 'social.ttl':")
            return
        assert (code, out, err) == (0, "", "")
        monkeypatch.chdir("/")
        code, out, _ = run(["verify", str(workdir / output)], capsys)
        assert (code, out) == (0, "ok: 4 statistics verified\n")

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), schema=st.sets(st.sampled_from(_SCHEMA)),
           places=st.lists(st.tuples(st.sampled_from([".", "in", "out"]), st.booleans()),
                           min_size=3, max_size=3),
           out_dir=st.sampled_from([".", "out", "out/deep"]), absolute_output=st.booleans(),
           dataset=st.sampled_from([None, "absolute", "file-iri", "from-output", "from-cwd"]),
           namespace=st.booleans())
    def test_any_layout_describes_only_what_verifies_from_anywhere(
            self, seed, schema, places, out_dir, absolute_output, dataset, namespace):
        """A random instance's data, rules and schema files, each in the
        working directory, in/ or out/ under a relative or absolute path,
        described into ., out/ or out/deep/: describe either writes a
        description that verify, run from /, finds correct, or exits 1 and
        writes nothing. It refuses exactly when a relative locator it would
        record does not resolve from the description's directory. --dataset,
        when given, names the data file by absolute path, file: IRI, or path
        from the description's directory or from the working directory."""
        graph, rules, _ = random_instance(random.Random(seed), external=True,
                                          literals=True, rich=True)
        files = [("--data", "d.ttl", serialize_turtle(graph)),
                 ("--rules", "r.n3", format_rules(rules)),
                 ("--dlogic", "s.ttl", serialize_turtle(Graph(schema)))]
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                os.chdir(tmp)
                os.makedirs("in")
                os.makedirs("out/deep")
                argv, recorded = ["describe"], []
                for (flag, name, text), (where, absolute) in zip(files, places):
                    path = os.path.normpath(os.path.join(where, name))
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                    given = os.path.join(tmp, path) if absolute else path
                    argv += [flag, given]
                    if flag != "--data" or dataset is None:
                        recorded.append(given)
                output = os.path.join(tmp if absolute_output else "", out_dir, "desc.ttl")
                argv += ["--output", output]
                data = os.path.join(tmp, os.path.normpath(os.path.join(places[0][0], "d.ttl")))
                if dataset is not None:
                    locator = {
                        "absolute": data,
                        "file-iri": Path(data).as_uri(),
                        "from-output": os.path.relpath(data, os.path.join(tmp, out_dir)),
                        "from-cwd": os.path.relpath(data, tmp),
                    }[dataset]
                    argv += ["--dataset", locator]
                    if dataset == "from-cwd":
                        recorded.append(locator)
                if namespace:
                    argv += ["--namespace", DATA_NS]
                code, out, err = _run_captured(argv)
                refused = out_dir != "." and not all(map(os.path.isabs, recorded))
                if refused:
                    assert (code, out) == (1, "")
                    assert err.startswith("graphnorm: cannot resolve ")
                    assert not os.path.exists(output)
                    return
                assert (code, out, err) == (0, "", "")
                os.chdir("/")
                code, out, err = _run_captured(["verify", os.path.join(tmp, out_dir, "desc.ttl")])
                assert (code, out, err) == (0, f"ok: {6 if namespace else 4} statistics verified\n", "")
            finally:
                os.chdir(home)

    def test_description_resolves_relative_to_its_own_directory(
            self, workdir, capsys, monkeypatch):
        run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        monkeypatch.chdir("/")
        code, out, _ = run(["verify", str(workdir / "desc.ttl")], capsys)
        assert code == 0
        assert "ok:" in out

    def test_gn_base_override(self, workdir, capsys, monkeypatch):
        base = "http://stats.example/v#"
        monkeypatch.setenv("GN_BASE", base)
        code, out, _ = run(self.DESCRIBE + ["--output", "desc.ttl"], capsys)
        assert code == 0
        assert f"@prefix gn: <{base}> ." in (workdir / "desc.ttl").read_text(
            encoding="utf-8")
        code, out, _ = run(["verify", "desc.ttl"], capsys)
        assert code == 0


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_missing_required_argument(self, capsys):
        code, _, err = run(["closure"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_missing_file(self, workdir, capsys):
        code, _, err = run(["closure", "--data", "absent.ttl"], capsys)
        assert code == 1
        assert err.startswith("graphnorm: ")

    def test_parse_error_exits_2(self, workdir, capsys):
        (workdir / "bad.ttl").write_text("ex:a ex:b ex:c .\n", encoding="utf-8")
        code, _, err = run(["closure", "--data", "bad.ttl"], capsys)
        assert code == 2
        assert "bad.ttl:1:1" in err
        assert "undeclared prefix" in err

    def test_unsafe_rule_exits_3(self, workdir, capsys):
        (workdir / "unsafe.n3").write_text(
            "{ ?x <http://example.org/p> ?y . } => "
            "{ ?x <http://example.org/q> ?z . } .\n", encoding="utf-8")
        code, _, err = run(
            ["closure", "--data", "links.ttl", "--rules", "unsafe.n3"], capsys)
        assert code == 3
        assert "?z" in err

    def test_out_of_memory_exits_1_with_one_line(self, workdir, capsys, monkeypatch):
        def exhausted(self):
            raise MemoryError
        monkeypatch.setattr(_Materialization, "saturate", exhausted)
        code, out, err = run(["closure", "--data", "links.ttl", "--output", "out.ttl"], capsys)
        assert (code, out, err) == (1, "", "graphnorm: out of memory\n")
        assert not (workdir / "out.ttl").exists()

    def test_out_of_memory_while_encoding_the_output_leaves_no_file(self, workdir, capsys,
                                                                   monkeypatch):
        class Unencodable(str):
            def encode(self, *args, **kwargs):
                raise MemoryError

        monkeypatch.setattr(_Materialization, "render", lambda self, triples: Unencodable("x\n"))
        code, out, err = run(["closure", "--data", "links.ttl", "--output", "out.ttl"], capsys)
        assert (code, out, err) == (1, "", "graphnorm: out of memory\n")
        assert not (workdir / "out.ttl").exists()

    def test_rif_rule_source_exits_5(self, workdir, capsys):
        report = StatsReport(2, 2, 2, Fraction(0))
        spec = NormalisationSpec("mini_rdf", (RuleSource("rif", "rules.rif"),))
        (workdir / "desc.ttl").write_text(
            emit_description("links.ttl", report, spec), encoding="utf-8")
        code, _, err = run(["verify", "desc.ttl"], capsys)
        assert code == 5
        assert "unsupported: RIF" in err


class TestMalformedInput:
    """Malformed input ends in one `graphnorm:` line on stderr with its
    documented exit code, never in a traceback, and leaves no output file."""

    def _closure(self, workdir, data: bytes):
        (workdir / "bad.ttl").write_bytes(f"<{LINKS}s> <{LINKS}p> ".encode() + data + b" .\n")
        return subprocess.run(
            [sys.executable, "-m", "graphnorm", "closure", "--data", "bad.ttl",
             "--output", "out.ttl"],
            cwd=workdir, capture_output=True, text=True, env=cli_env("0"),
        )

    @pytest.mark.parametrize("obj, message", [
        ("+.x", "bad.ttl:1:59: unexpected character '+'"),
        ("-.", "bad.ttl:1:59: unexpected character '-'"),
        ("\u00b2", "bad.ttl:1:59: unexpected character '\u00b2'"),
        ('"\\uD800"', "bad.ttl:1:60: \\uD800 is not a Unicode scalar value"),
        ('"\\U00110000"', "bad.ttl:1:60: \\U00110000 is not a Unicode scalar value"),
    ])
    def test_parse_error_exits_2(self, workdir, obj, message):
        result = self._closure(workdir, obj.encode())
        assert result.returncode == 2
        assert result.stderr == f"graphnorm: {message}\n"
        assert not (workdir / "out.ttl").exists()

    def test_description_nested_5000_deep_exits_2(self, workdir):
        head = f"<{CHAIN}d> <{CHAIN}p> "
        level = f"[ <{CHAIN}p> "
        (workdir / "deep.ttl").write_text(
            head + level * 5000 + "1" + " ]" * 5000 + " .\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "graphnorm", "verify", "deep.ttl", "--output", "out.txt"],
            cwd=workdir, capture_output=True, text=True, env=cli_env("0"),
        )
        assert result.returncode == 2
        column = len(head) + 16 * len(level) + 1  # the 17th '['
        assert result.stderr == (f"graphnorm: deep.ttl:1:{column}: "
                                 "anonymous nodes nest more than 16 deep\n")
        assert not (workdir / "out.txt").exists()

    def test_undecodable_surrogate_exits_1(self, workdir):
        # UTF-8 bytes of U+D800 are not valid UTF-8: the file fails to decode.
        result = self._closure(workdir, b'"\xed\xa0\x80"')
        assert result.returncode == 1
        assert result.stderr.startswith("graphnorm: cannot read 'bad.ttl': 'utf-8' codec can't decode")
        assert "Traceback" not in result.stderr
        assert not (workdir / "out.ttl").exists()

    NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

    @pytest.mark.parametrize("argv, failed", [
        (["stats", "--data", "bad.ttl"], "cannot read 'bad.ttl'"),
        (["stats", "--data", "social.ttl", "--dlogic", "bad.ttl"], "cannot resolve 'bad.ttl'"),
        (["verify", "bad.ttl"], "cannot read 'bad.ttl'"),
    ], ids=["stats-data", "stats-dlogic", "verify"])
    def test_input_that_is_not_utf8_is_named(self, workdir, capsys, argv, failed):
        (workdir / "bad.ttl").write_bytes(b"\xff .\n")
        code, out, err = run([*argv, "--output", "out.txt"], capsys)
        assert (code, out, err) == (1, "", f"graphnorm: {failed}: {self.NOT_UTF8}\n")
        assert not (workdir / "out.txt").exists()

    def test_described_dataset_that_is_not_utf8_is_named(self, workdir, capsys):
        code, _, _ = run(["describe", "--data", "social.ttl", "--output", "desc.ttl"], capsys)
        assert code == 0
        (workdir / "social.ttl").write_bytes(b"\xff .\n")
        code, out, err = run(["verify", "desc.ttl", "--output", "out.txt"], capsys)
        assert (code, out, err) == (1, "", f"graphnorm: cannot resolve 'social.ttl': {self.NOT_UTF8}\n")
        assert not (workdir / "out.txt").exists()


class TestUserErrors:
    """Each user error reaches main as a GraphNormError with its own message
    and exit code; main catches no bare ValueError, so a defect of the
    program is not mistaken for one."""

    @pytest.mark.parametrize("argv, locator, reason", [
        (["closure", "--data", "links.ttl", "--rules", "http://[x/r.n3"], "http://[x/r.n3",
         "Invalid IPv6 URL"),
        (["describe", "--data", "links.ttl", "--dataset", "http://[x/d.ttl"], "http://[x/d.ttl",
         "Invalid IPv6 URL"),
        (["verify", "desc.ttl"], "http://[x/d.ttl", "Invalid IPv6 URL"),
        (["verify", "desc.ttl"], "d\x00.ttl", "embedded null byte"),
    ], ids=["rules", "dataset", "described-dataset", "described-nul"])
    def test_a_locator_that_names_no_path_is_named(self, workdir, capsys, argv, locator, reason):
        (workdir / "desc.ttl").write_text(emit_description(
            locator, StatsReport(2, 2, 2, Fraction(0)), NormalisationSpec("none")),
            encoding="utf-8")
        code, out, err = run([*argv, "--output", "out.txt"], capsys)
        assert (code, out, err) == (1, "", f"graphnorm: cannot resolve {locator!r}: {reason}\n")
        assert not (workdir / "out.txt").exists()

    @pytest.mark.parametrize("output", [[], ["--output", "desc.ttl"]], ids=["stdout", "file"])
    def test_a_file_name_that_is_not_utf8_is_not_described(self, workdir, capsys, output):
        """Such a name reaches argv as surrogate escapes, which no UTF-8
        description can hold."""
        name = os.fsdecode(b"\xff.ttl")
        shutil.copy(workdir / "links.ttl", workdir / name)
        code, out, err = run(["describe", "--data", name, *output], capsys)
        assert (code, out, err) == (
            1, "", f"graphnorm: cannot be written as an IRI reference: {name!r}\n")
        assert not (workdir / "desc.ttl").exists()

    @pytest.mark.parametrize("value", ["1" * 5000, "1" * 3000 + "." + "1" * 2000],
                             ids=["integer", "decimal"])
    def test_a_number_longer_than_the_interpreter_converts_exits_2(self, workdir, capsys,
                                                                   value):
        text = emit_description("links.ttl", StatsReport(2, 2, 2, Fraction(0)),
                                NormalisationSpec("none"))
        # The first value, closureTriples, is on line 9 from column 19.
        (workdir / "desc.ttl").write_text(text.replace("rdf:value 2\n", f"rdf:value {value}\n", 1),
                                          encoding="utf-8")
        code, out, err = run(["verify", "desc.ttl", "--output", "out.txt"], capsys)
        assert (code, out, err) == (
            2, "", "graphnorm: desc.ttl:9:19: number has more than 4300 digits\n")
        assert not (workdir / "out.txt").exists()

    def test_a_skolemization_scope_no_iri_can_hold_exits_1(self, workdir, capsys):
        (workdir / "blank.ttl").write_text(f"_:b <{LINKS}p> <{LINKS}o> .\n", encoding="utf-8")
        code, out, err = run(["closure", "--data", "blank.ttl", "--base", "http://e x/"], capsys)
        assert (code, out, err) == (1, "", "graphnorm: IRI contains a forbidden character: "
                                           "'http://e x/.well-known/genid/b'\n")

    @pytest.mark.parametrize("refuse", [
        lambda: NamespaceDecl(("rel/",)),
        lambda: skolemize(Graph(), "rel"),
        lambda: emit_description("a b.ttl", StatsReport(2, 2, 2, Fraction(0)),
                                 NormalisationSpec("none")),
    ], ids=["namespace", "base", "description-iri"])
    def test_a_refused_value_is_a_graphnorm_error_and_a_value_error(self, refuse):
        with pytest.raises(GraphNormError) as raised:
            refuse()
        assert isinstance(raised.value, ValueError)

    def test_a_result_stdout_cannot_encode_exits_1(self, workdir):
        line = f'<{LINKS}s> <{LINKS}p> "caf\u00e9" .\n'
        (workdir / "cafe.ttl").write_text(line, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "graphnorm", "closure", "--data", "cafe.ttl"], cwd=workdir,
            capture_output=True, text=True, env={**cli_env("0"), "PYTHONIOENCODING": "ascii"})
        assert (result.returncode, result.stdout) == (1, "")
        at = line.index("\u00e9")
        assert result.stderr == ("graphnorm: cannot write the result: 'ascii' codec can't encode "
                                 f"character '\\xe9' in position {at}: ordinal not in range(128)\n")

    def test_a_value_error_of_the_program_is_not_caught(self, workdir, monkeypatch):
        def defect(self):
            raise ValueError("a defect")
        monkeypatch.setattr(_Materialization, "saturate", defect)
        with pytest.raises(ValueError, match="a defect"):
            main(["closure", "--data", "links.ttl"])


def test_minimize_over_a_9000_class_chain_keeps_the_c0_types(tmp_path):
    # x0..x2 are typed C0, C4500 and C9000 on a 9000-class subClassOf
    # chain: the proofs of the C9000 types walk 9000 steps from C0.
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    schema = [f"<{CHAIN}C{i}> <{rdfs}subClassOf> <{CHAIN}C{i + 1}> ." for i in range(9000)]
    data = [f"<{CHAIN}x{j}> a <{CHAIN}C{k}> ." for k in (0, 4500, 9000) for j in range(3)]
    (tmp_path / "deep-schema.ttl").write_text("\n".join(schema) + "\n", encoding="utf-8")
    (tmp_path / "deep.ttl").write_text("\n".join(data) + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "graphnorm", "minimize", "--data", "deep.ttl",
         "--dlogic", "deep-schema.ttl", "--output", "out.ttl"],
        cwd=tmp_path, capture_output=True, text=True, env=cli_env("0"),
    )
    assert result.returncode == 0, result.stderr
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    assert (tmp_path / "out.ttl").read_text(encoding="utf-8") == "".join(
        f"<{CHAIN}x{j}> <{rdf_type}> <{CHAIN}C0> .\n" for j in range(3))


def test_importing_the_cli_leaves_the_recursion_limit_alone():
    probe = ("import sys; limit = sys.getrecursionlimit(); import graphnorm.cli; "
             "print(sys.getrecursionlimit() == limit)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=cli_env("0"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_importing_the_cli_leaves_the_collector_alone():
    probe = ("import gc; before = gc.isenabled(), gc.get_threshold(); import graphnorm.cli; "
             "print((gc.isenabled(), gc.get_threshold()) == before)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=cli_env("0"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


@pytest.mark.parametrize("argv, expected", [
    (["closure", "--data", "links.ttl", "--output", "out.ttl"], 0),
    (["closure", "--data", "bad.ttl"], 2),  # a GraphNormError
    (["closure"], 1),  # argparse's SystemExit
])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_pauses_the_collector_and_leaves_it_as_found(workdir, capsys, monkeypatch,
                                                          argv, expected, enabled):
    """main reads every argv through _read_argv with the collector paused;
    only the usage error goes on to argparse."""
    paused, built = [], []
    read, build = cli._read_argv, cli.build_parser

    def reading(words):
        paused.append(not gc.isenabled())
        return read(words)

    def building():
        built.append(argv)
        return build()

    monkeypatch.setattr(cli, "_read_argv", reading)
    monkeypatch.setattr(cli, "build_parser", building)
    (workdir / "bad.ttl").write_text("ex:a ex:b ex:c .\n", encoding="utf-8")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run(argv, capsys)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == expected
    assert paused == [True]
    assert built == ([argv] if argv == ["closure"] else [])
    assert after is enabled


# Runs commands, one argv a line, with the collector off; prints each one's
# exit code and what gc.collect() frees after it.
_GARBAGE = """
import gc, sys
from graphnorm.cli import main
gc.collect()
gc.disable()
for line in sys.stdin.read().splitlines():
    code = main(line.split())
    print(code, gc.collect())
"""


@pytest.mark.parametrize("commands", [
    ["minimize {data} --output m.ttl"],
    ["stats {data} --output s.txt"],
    ["describe {data} --output desc.ttl", "verify desc.ttl --output v.txt"],
    ["diff-minimize --prev-min {prev} --full {full} --insert {prev} --output d.ttl"],
], ids=["minimize", "stats", "describe-verify", "diff-minimize"])
def test_a_command_leaves_no_more_cyclic_garbage_on_a_larger_graph(workdir, commands):
    """main pauses the collector because a command's data holds no
    reference cycles: what gc.collect() frees after a command does not
    grow with the graph."""
    write_chain_graph(workdir)
    (workdir / "three.ttl").write_text("".join(
        f"<{CHAIN}x{i}> <{CHAIN}next> <{CHAIN}x{i + 1}> .\n" for i in range(3)), encoding="utf-8")
    graphs = [{"data": "--data three.ttl", "prev": "three.ttl", "full": "three.ttl"},
              {"data": "--data chain.ttl --dlogic chain-schema.ttl", "prev": "chain.ttl",
               "full": "chain.ttl --dlogic chain-schema.ttl"}]
    freed = [subprocess.run([sys.executable, "-c", _GARBAGE],
                            input="".join(c.format(**g) + "\n" for c in commands),
                            cwd=workdir, capture_output=True, text=True, env=cli_env("0"),
                            check=True).stdout.splitlines()
             for g in graphs]
    assert [line.split()[0] for line in freed[0]] == ["0"] * len(commands)
    assert freed[0] == freed[1]


def test_importing_the_cli_leaves_out_the_network_stack():
    probe = ("import sys, graphnorm.cli; "
             "print([m for m in ('urllib.request', 'http.client', 'ssl', "
             "'dataclasses', 'logging', 'inspect') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=cli_env("0"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_a_minimize_process_loads_no_decimal_arithmetic(tmp_path):
    """fractions, with decimal and numbers, is imported only where a ratio
    is built or read: neither importing the CLI nor minimize loads it."""
    (tmp_path / "d.ttl").write_text(f"<{CHAIN}a> <{CHAIN}p> <{CHAIN}b> .\n", encoding="utf-8")
    loaded = "[m for m in ('fractions', 'decimal', '_decimal', 'numbers') if m in sys.modules]"
    probe = (f"import sys, graphnorm.cli; print({loaded}); "
             "code = graphnorm.cli.main(['minimize', '--data', 'd.ttl', '--output', 'm.ttl']); "
             f"print(code, {loaded})")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                            text=True, env=cli_env("0"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n0 []\n"


def test_a_well_formed_command_loads_no_argparse(tmp_path, monkeypatch):
    """argparse, with gettext, is imported only for --help and usage
    errors: minimize, describe and verify processes load neither, and
    minimize --help still prints build_parser's help."""
    (tmp_path / "d.ttl").write_text(f"<{CHAIN}a> <{CHAIN}p> <{CHAIN}b> .\n", encoding="utf-8")
    commands = ["minimize --data d.ttl --output m.ttl", "describe --data d.ttl --output desc.ttl",
                "verify desc.ttl --output v.txt"]
    probe = ("import sys, graphnorm.cli; "
             f"print([graphnorm.cli.main(a.split()) for a in {commands!r}], "
             "[m for m in ('argparse', 'gettext') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                            text=True, env=cli_env("0"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0] []\n"

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    result = subprocess.run([sys.executable, "-m", "graphnorm", "minimize", "--help"],
                            cwd=tmp_path, capture_output=True, text=True,
                            env={**cli_env("0"), "COLUMNS": "80"})
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.build_parser().parse_args(["minimize", "--help"])
    assert (result.returncode, result.stdout) == (0, out.getvalue())


_FLAGS = ["--data", "--rules", "--dlogic", "--base", "--output", "--namespace", "--dataset",
          "--format", "--prev-min", "--full", "--insert", "--delete"]
_PLAIN_VALUES = ["d.ttl", "desc.ttl", "table", "tsv", "turtle", "closure", ""]
_ODD_VALUES = ["csv", "-", "-1", "-d", "--", "-h"]
_ODD_WORDS = ["--out", "--dat", "--data=d.ttl", "--format=tsv", "-h", "--help", "--", "nope"]


@st.composite
def _argv(draw):
    """A command line near the plain form: mostly a command, then in any
    order its required flags, its positional and other flags, each with a
    plain value. One word in eight is of another kind: an abbreviation,
    --flag=value, -h, --, a value starting with '-' or outside --format's
    choices, a flag of another command, or a flag without its value at the
    end; and one required word in eight is left out."""
    def odd():
        return draw(st.integers(0, 7)) == 0

    def pick(plain, other):
        return draw(st.sampled_from(other if odd() else plain))

    command = pick(list(cli._COMMANDS), _ODD_WORDS)
    flags = cli._COMMANDS[command][1] if command in cli._COMMANDS else ()
    own = [flag for flag, _ in flags if flag.startswith("-")] or _FLAGS
    chunks = [[flag, pick(_PLAIN_VALUES, _ODD_VALUES)] if flag.startswith("-")
              else [pick(_PLAIN_VALUES, _ODD_VALUES)]
              for flag, keywords in flags
              if keywords.get("required", not flag.startswith("-")) and not odd()]
    for _ in range(draw(st.integers(0, 5))):
        chunks.append([pick(own, _FLAGS + _ODD_WORDS), pick(_PLAIN_VALUES, _ODD_VALUES)])
    argv = [command] + [word for chunk in draw(st.permutations(chunks)) for word in chunk]
    return argv + pick([[]], [["--output"], ["--data"], ["d.ttl"]])


def _argparse_vars(argv):
    """vars() of what build_parser reads from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
def test_the_plain_reader_reads_as_argparse_or_leaves_argv_to_it(argv):
    read = cli._read_argv(argv)
    assert read is None or vars(read) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["closure", "--data", "d.ttl", "--output", "c.ttl", "--output", "last.ttl"],
    ["minimize", "--rules", "a.n3", "--data", "", "--rules", "b.n3", "--dlogic", "s.ttl"],
    ["stats", "--data", "d.ttl", "--namespace", "http://e/", "--format", "tsv", "--dataset", "x"],
    ["stats", "--data", "stats"],
    ["diff-minimize", "--full", "f.ttl", "--prev-min", "p.ttl", "--delete", "x", "--base", "b"],
    ["describe", "--data", "d.ttl", "--output", "desc.ttl"],
    ["verify", "--output", "v.txt", "desc.ttl"],
])
def test_the_plain_form_of_each_command_is_read_without_argparse(argv):
    read = cli._read_argv(argv)
    assert read is not None and vars(read) == _argparse_vars(argv)


def write_chain_graph(workdir):
    """chain.ttl and chain-schema.ttl: 220 triples over a 100-class
    subClassOf chain and five 20-node paths of a transitive property, with
    redundant types and path shortcuts for minimize to drop."""
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    schema = [f"<{CHAIN}C{i}> <{rdfs}subClassOf> <{CHAIN}C{i + 1}> ." for i in range(99)]
    schema.append(f"<{CHAIN}next> a <http://www.w3.org/2002/07/owl#TransitiveProperty> .")
    data = [f"<{CHAIN}x{j}> a <{CHAIN}C0> ." for j in range(60)]
    data += [f"<{CHAIN}x{j}> a <{CHAIN}C{7 * j % 99 + 1}> ." for j in range(40)]
    for path in range(5):
        data += [f"<{CHAIN}n{path}_{i}> <{CHAIN}next> <{CHAIN}n{path}_{i + 1}> ."
                 for i in range(19)]
        data += [f"<{CHAIN}n{path}_{i}> <{CHAIN}next> <{CHAIN}n{path}_{i + 3}> ."
                 for i in range(0, 17, 4)]
    (workdir / "chain-schema.ttl").write_text("\n".join(schema) + "\n", encoding="utf-8")
    (workdir / "chain.ttl").write_text("\n".join(data) + "\n", encoding="utf-8")


class TestByteIdentity:
    ARGS = ["describe", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl",
            "--namespace", "http://example.org/cat/"]

    def _invoke(self, cwd, hash_seed, args=ARGS):
        return subprocess.run(
            [sys.executable, "-m", "graphnorm", *args],
            cwd=cwd, capture_output=True,
            env=cli_env(hash_seed),
        )

    def test_output_is_stable_across_processes_and_hash_seeds(self, workdir):
        first = self._invoke(workdir, "1")
        second = self._invoke(workdir, "99")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert b"void:Dataset" in first.stdout

    @pytest.mark.parametrize("command, lines", [("closure", 6950), ("minimize", 155)])
    def test_chain_graph_output_is_stable_across_hash_seeds(self, workdir, command, lines):
        # The hash seed changes the order of every set of terms; the
        # output must not follow it.
        write_chain_graph(workdir)
        args = [command, "--data", "chain.ttl", "--dlogic", "chain-schema.ttl"]
        first = self._invoke(workdir, "1", args)
        second = self._invoke(workdir, "987", args)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout.splitlines()) == lines


# Prints the terms cli._load interns, in id order, and the store's order.
_LOAD = """
import sys
from graphnorm.cli import _load, build_parser
m = _load(build_parser().parse_args(sys.argv[1:]))
print([t.ntriples() for t in m.terms.terms], list(m.store.triples))
"""


def test_load_takes_the_same_term_ids_under_every_hash_seed(workdir):
    """The data takes ids in text order, then the rules and the dlogic
    Graph in theirs, so the dictionary and the store's iteration order
    do not follow the seed."""
    args = ["closure", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl"]
    loads = {seed: subprocess.run([sys.executable, "-c", _LOAD, *args], cwd=workdir,
                                  capture_output=True, env=cli_env(seed), check=True).stdout
             for seed in ("0", "1", "987")}
    assert loads["0"] == loads["1"] == loads["987"]


def test_a_missing_import_is_reported_the_same_under_every_hash_seed(workdir):
    """load_dlogic queues owl:imports in the schema Graph's canonical
    order, so the import it fails on first does not follow the seed."""
    (workdir / "imp.ttl").write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<http://example.org/onto> owl:imports "
        "<file:///nope/c.ttl>, <file:///nope/a.ttl>, <file:///nope/b.ttl> .\n", encoding="utf-8")
    runs = {seed: subprocess.run(
        [sys.executable, "-m", "graphnorm", "stats", "--data", "links.ttl", "--dlogic", "imp.ttl"],
        cwd=workdir, capture_output=True, env=cli_env(seed)) for seed in ("0", "1", "987")}
    assert {(r.returncode, r.stdout, r.stderr) for r in runs.values()} == {(
        1, b"", b"graphnorm: cannot resolve 'file:///nope/a.ttl': "
                b"[Errno 2] No such file or directory: '/nope/a.ttl'\n")}


class TestRuleFileHandling:
    def test_multiple_rule_files_merge(self, workdir, capsys):
        (workdir / "half.ttl").write_text(
            f"<{LINKS}a> <{LINKS}links_to> <{LINKS}b> .\n"
            f"<{LINKS}b> <{LINKS}links_to> <{LINKS}c> .\n", encoding="utf-8")
        (workdir / "trans.n3").write_text(
            f"{{ ?x <{LINKS}links_to> ?y . ?y <{LINKS}links_to> ?z . }} => "
            f"{{ ?x <{LINKS}links_to> ?z . }} .\n", encoding="utf-8")
        code, out, _ = run(
            ["closure", "--data", "half.ttl",
             "--rules", "links-rules.n3", "--rules", "trans.n3"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 6  # 3 links_to + 3 linked_from

    def test_rule_files_are_read_as_locators(self, workdir, capsys):
        """--rules resolves as --dlogic and verify do: a file: IRI is read,
        a path whose first segment reads as a URI scheme is refused."""
        argv = ["closure", "--data", "links.ttl", "--rules"]
        code, expected, _ = run(argv + ["links-rules.n3"], capsys)
        assert code == 0
        code, out, _ = run(argv + [f"file://{workdir}/links-rules.n3"], capsys)
        assert (code, out) == (0, expected)
        shutil.copy(workdir / "links-rules.n3", workdir / "run:links-rules.n3")
        code, out, err = run(argv + ["run:links-rules.n3"], capsys)
        assert (code, out) == (1, "")
        assert err == ("graphnorm: only local file locators are supported: "
                       "'run:links-rules.n3'\n")
        code, out, err = run(argv + ["absent.n3"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("graphnorm: cannot resolve 'absent.n3':")

    def test_rule_parse_error_carries_file_position(self, workdir, capsys):
        (workdir / "broken.n3").write_text("{ ?x ?p ?y } => { }", encoding="utf-8")
        code, _, err = run(
            ["closure", "--data", "links.ttl", "--rules", "broken.n3"], capsys)
        assert code == 2
        assert "broken.n3" in err

    @pytest.mark.parametrize("head, message", [
        ("?x <http://example.org/q> ?z",
         "unsafe.n3:2:36: unsafe rule r1: head variables not bound in body: ?z"),
        ("?x <http://example.org/q> _:b",
         "unsafe.n3:2:67: blank node _:b in rule head"),
    ], ids=["unbound-variable", "blank-node"])
    def test_an_unsafe_rule_is_placed_in_its_file(self, workdir, capsys, head, message):
        """Of two rule files, the message names the one with the unsafe rule,
        as a parse error names its file."""
        (workdir / "unsafe.n3").write_text(
            "# the second file\n"
            f"{{ ?x <http://example.org/p> ?y . }} => {{ {head} . }} .\n", encoding="utf-8")
        code, out, err = run(["closure", "--data", "links.ttl", "--rules", "links-rules.n3",
                              "--rules", "unsafe.n3"], capsys)
        assert (code, out, err) == (3, "", f"graphnorm: {message}\n")


# The fuzz below mutates one input of the mixed fixture, or a description
# written from them, and runs one command over the whole set.
_FUZZ_FILES = {"data": "mixed.ttl", "rules": "rules.n3", "dlogic": "mixed-vocab.ttl",
               "description": "desc.ttl"}
_FUZZ_ARGS = ["--data", "mixed.ttl", "--rules", "rules.n3", "--dlogic", "mixed-vocab.ttl"]
_FUZZ_ARGV = {
    "closure": ["closure", *_FUZZ_ARGS],
    "minimize": ["minimize", *_FUZZ_ARGS],
    "stats": ["stats", *_FUZZ_ARGS, "--namespace", "http://example.org/cat/"],
    "describe": ["describe", *_FUZZ_ARGS, "--namespace", "http://example.org/cat/"],
    "verify": ["verify", "desc.ttl"],
}
# The refusals that exit 1, as their messages begin. Each names what is
# wrong with an input; none is an error of the program.
_REFUSALS = (
    "cannot resolve ", "only local file locators are supported: ",
    "a file: locator ", "description must contain exactly one void:Dataset",
    "description states no statistic", "description item needs exactly one ",
    "description item carries more than one gn:normalisation",
    "description carries inconsistent normalisation specs",
    "rdf:value must be numeric", "rdf:type must be an IRI", "scovo:dimension must be an IRI",
    "gn:n3 must be an IRI", "gn:dlogic must be an IRI", "gn:rif must be an IRI",
    "gn:namespace must be an IRI", "gn:normalisation ", "gn:rules must be ",
    "gn:constraints must be ", "a gn:Closure normalisation carries no gn:constraints",
    "void:statItem must be an anonymous node", "statistics are undefined for an empty graph",
    "out-link density (minus) is undefined", "namespace prefix is not an absolute IRI",
    "nested namespace prefixes",
)
_RULES_TEXT = fixture_text("rules.n3")


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(sorted(_FUZZ_FILES)), command=st.sampled_from(sorted(_FUZZ_ARGV)),
       op=st.sampled_from(["delete", "insert", "duplicate"]), start=st.integers(0, 2000),
       length=st.integers(0, 20), token=st.sampled_from(FUZZ_TOKENS))
@example(target="rules", command="closure", op="insert",
         start=_RULES_TEXT.index("?o .") + 2, length=0, token="-")
def test_a_mutated_input_ends_in_a_documented_exit(target, command, op, start, length, token):
    """A deleted span, an inserted token or a duplicated span in one input:
    the command exits 0, or with a documented code and one placed or listed
    `graphnorm:` line on stderr, writing no --output; a mismatch writes only
    its report."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for name in ("mixed.ttl", "rules.n3", "mixed-vocab.ttl"):
                shutil.copy(FIXTURES / name, name)
            assert _run_captured([*_FUZZ_ARGV["describe"], "--output", "desc.ttl"])[0] == 0
            path = _FUZZ_FILES[target]
            text = Path(path).read_text(encoding="utf-8")
            start = min(start, len(text))
            end = min(start + length, len(text))
            text = {"delete": text[:start] + text[end:],
                    "insert": text[:start] + token + text[start:],
                    "duplicate": text[:end] + text[start:end] + text[end:]}[op]
            Path(path).write_text(text, encoding="utf-8")
            code, out, err = _run_captured([*_FUZZ_ARGV[command], "--output", "out.txt"])
            # A schema construct the mutation made unknown is skipped with a
            # warning, which is not a failure.
            err = "".join(line for line in err.splitlines(True)
                          if not line.startswith(
                              "graphnorm: warning: ignoring unrecognized schema triple: "))
            assert out == ""
            if code in (0, 4):
                assert err == ""
                written = Path("out.txt").read_text(encoding="utf-8")
                assert code == 0 or (command == "verify" and written.startswith("mismatch: "))
                return
            assert not os.path.exists("out.txt")
            assert code in (1, 2, 3, 5) and re.fullmatch(r"graphnorm: [^\n]*\n", err), (code, err)
            message = err[len("graphnorm: "):-1]
            if code in (2, 3):
                where = re.match(r"(.+?):(\d+):(\d+): ", message)
                assert where and where[1] in _FUZZ_FILES.values(), err
            if code == 1:
                assert message.startswith(_REFUSALS), err
            if code == 5:
                assert message == "unsupported: RIF"
        finally:
            os.chdir(home)
