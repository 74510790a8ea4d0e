from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from graphnorm import (
    Description,
    FileResolver,
    Graph,
    GraphNormError,
    IRI,
    NamespaceDecl,
    NormalisationSpec,
    ParseError,
    ResolverError,
    RuleSource,
    StatsReport,
    Triple,
    UnsupportedFeatureError,
    compare_description,
    emit_description,
    load_dlogic,
    read_description,
    recompute,
)
from graphnorm.provenance import DEFAULT_GN_BASE, _MAX_NESTING, _DescriptionReader
from graphnorm.stats import STAT_NAMES, canonical_ratio

from support import fixture_text

EX = "http://example.org/"

REPORT = StatsReport(
    published_cardinality=4,
    closure_cardinality=6,
    minimal_cardinality=2,
    redundancy=Fraction(1, 2),
)

REPORT_WITH_DENSITIES = StatsReport(
    published_cardinality=4,
    closure_cardinality=6,
    minimal_cardinality=2,
    redundancy=Fraction(1, 2),
    out_link_density_plus=Fraction(1, 3),
    out_link_density_minus=Fraction(1, 2),
)

XSD = "http://www.w3.org/2001/XMLSchema#"


def _stating(value: str) -> str:
    """A description stating one statistic whose rdf:value is the text value."""
    return (
        "@prefix void: <http://rdfs.org/ns/void#> .\n"
        "@prefix scovo: <http://purl.org/NET/scovo#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix gn: <http://purl.org/gn#> .\n"
        "<d.ttl> a void:Dataset ;\n"
        f"  void:statItem [ scovo:dimension gn:publishedTriples ; rdf:value {value} ] .\n"
    )


# A normalisation node naming one n3 rule file.
_MINI_A = "[ a gn:MiniRDF ; gn:rules [ a gn:RuleSet ; gn:n3 <a.n3> ] ]"

MINI = NormalisationSpec("mini_rdf", (
    RuleSource("n3", "rules.n3"),
    RuleSource("dlogic", "vocab.ttl"),
))


class TestSpecTypes:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NormalisationSpec("fancy")

    def test_none_kind_cannot_carry_sources(self):
        with pytest.raises(ValueError):
            NormalisationSpec("none", (RuleSource("n3", "r.n3"),))

    def test_source_format_validation(self):
        with pytest.raises(ValueError):
            RuleSource("prolog", "r.pl")


class TestEmit:
    def test_is_deterministic(self):
        a = emit_description("data.ttl", REPORT, MINI)
        b = emit_description("data.ttl", REPORT, MINI)
        assert a == b

    def test_round_trip(self):
        text = emit_description("data.ttl", REPORT, MINI)
        desc = read_description(text)
        assert desc.dataset == "data.ttl"
        values = dict(desc.stated)
        assert values == {
            DEFAULT_GN_BASE + "publishedTriples": 4,
            DEFAULT_GN_BASE + "closureTriples": 6,
            DEFAULT_GN_BASE + "minimalTriples": 2,
            DEFAULT_GN_BASE + "redundancy": Fraction(1, 2),
        }
        assert desc.normalisation == MINI

    def test_round_trip_with_densities_and_namespaces(self):
        ns = NamespaceDecl((EX,))
        text = emit_description("data.ttl", REPORT_WITH_DENSITIES, MINI, namespaces=ns)
        desc = read_description(text)
        assert desc.namespaces == ns
        values = dict(desc.stated)
        assert values[DEFAULT_GN_BASE + "outLinkDensityPlus"] == Fraction(333333, 10**6)
        assert values[DEFAULT_GN_BASE + "outLinkDensityMinus"] == Fraction(1, 2)

    def test_densities_require_namespaces(self):
        with pytest.raises(ValueError):
            emit_description("data.ttl", REPORT_WITH_DENSITIES, MINI)

    def test_none_normalisation_omits_the_node(self):
        text = emit_description("data.ttl", REPORT, NormalisationSpec("none"))
        assert "normalisation" not in text
        desc = read_description(text)
        assert desc.normalisation == NormalisationSpec("none")

    def test_custom_base(self):
        base = "http://stats.example/v#"
        text = emit_description("data.ttl", REPORT, MINI, gn_base=base)
        assert f"@prefix gn: <{base}> ." in text
        desc = read_description(text, gn_base=base)
        assert desc.stated[0][0].startswith(base)

    def test_integer_values_emitted_bare(self):
        text = emit_description("data.ttl", REPORT, MINI)
        assert "rdf:value 4" in text
        assert "rdf:value 0.5" in text


    @pytest.mark.parametrize("kwargs", [
        {"dataset": "da ta.ttl"},
        {"dataset": "="},
        {"spec": NormalisationSpec("mini_rdf", (RuleSource("n3", "ru<les.n3"),))},
        {"namespaces": NamespaceDecl((EX + "a b/",))},
        {"gn_base": "http://purl.org/g n#"},
        {"dataset": "\udcff.ttl"},
    ], ids=["dataset", "equivalence", "locator", "namespace", "gn_base", "lone-surrogate"])
    def test_unreadable_iri_rejected(self, kwargs):
        """A lone surrogate, as a file name that is not UTF-8 reaches argv,
        has no UTF-8 form to be written in."""
        args = {"dataset": "data.ttl", "report": REPORT_WITH_DENSITIES, "spec": MINI,
                "namespaces": NamespaceDecl((EX,)), **kwargs}
        with pytest.raises(ValueError, match="cannot be written as an IRI reference"):
            emit_description(args.pop("dataset"), args.pop("report"), args.pop("spec"), **args)


_SOURCE_MIXES = {
    "no-sources": (),
    "n3": (RuleSource("n3", "a.n3"),),
    "dlogic-two-n3": (RuleSource("dlogic", "d.ttl"), RuleSource("n3", "a.n3"),
                      RuleSource("n3", "b.n3")),
    "rif-dlogic": (RuleSource("rif", "r.rif"), RuleSource("dlogic", "d.ttl")),
}
_PINNED_SPECS = {"none": NormalisationSpec("none")} | {
    f"{kind}-{mix}": NormalisationSpec(kind, sources)
    for kind in ("closure", "mini_rdf") for mix, sources in _SOURCE_MIXES.items()}
_PINNED_REPORTS = {
    "plain": (REPORT, None),
    "densities-two-namespaces": (REPORT_WITH_DENSITIES,
                                 NamespaceDecl((EX, "http://example.net/"))),
}
# (spec, report, namespaces) by the id that heads its text in the fixture.
_PINNED_CASES = {f"{s}/{r}": (spec, *_PINNED_REPORTS[r])
                 for s, spec in _PINNED_SPECS.items() for r in _PINNED_REPORTS}


def _pinned_texts() -> dict[str, str]:
    """fixtures/descriptions.txt: each text follows a '#: case-id' line."""
    sections = fixture_text("descriptions.txt").split("#: ")[1:]
    return dict(section.split("\n", 1) for section in sections)


def test_pinned_texts_cover_the_cases():
    assert list(_pinned_texts()) == list(_PINNED_CASES)


@pytest.mark.parametrize("case", _PINNED_CASES)
def test_emitted_bytes_are_pinned(case):
    """The writer's exact text for each kind, rule-source mix and namespace
    setting: a gn:Closure has no constraints line, a gn:RuleSet may name
    no source, and sources group by format in n3, dlogic, rif order."""
    spec, report, namespaces = _PINNED_CASES[case]
    assert emit_description("data.ttl", report, spec, namespaces=namespaces) \
        == _pinned_texts()[case]


# Characters that cannot stand between '<' and '>' in a description, and
# a lone surrogate, which UTF-8 cannot write.
_UNREADABLE = [*sorted(' <>"{}|^`\\\n'), "\udcff"]
_READABLE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_UNREADABLE)
                    | st.sampled_from("\r\t#"), max_size=8)


@settings(deadline=None, max_examples=300)
@given(_READABLE, _READABLE,
       st.lists(st.tuples(st.sampled_from(("n3", "dlogic", "rif")), _READABLE),
                min_size=1, max_size=3),
       st.none() | st.tuples(st.integers(0, 4), st.sampled_from(_UNREADABLE)))
@example(dataset="=", namespace="", locators=[("n3", "")], spoil=None)
def test_every_accepted_locator_reads_back(dataset, namespace, locators, spoil):
    """emit_description refuses an IRI with a character that cannot stand
    between '<' and '>', and '=', since '<=>' is the N3 equivalence token;
    every other one reads back as it was given. spoil puts one such
    character into one of the IRIs."""
    iris = [dataset, namespace, *(loc for _, loc in locators)]
    if spoil is not None:
        i, char = spoil
        iris[i % len(iris)] += char
    dataset, namespace, *locs = iris
    spec = NormalisationSpec("mini_rdf", tuple(RuleSource(f, loc)
                                               for (f, _), loc in zip(locators, locs)))
    ns = NamespaceDecl((EX + namespace,))
    if spoil is not None or "=" in (dataset, *locs):
        with pytest.raises(ValueError, match="cannot be written as an IRI reference"):
            emit_description(dataset, REPORT_WITH_DENSITIES, spec, namespaces=ns)
        return
    desc = read_description(emit_description(dataset, REPORT_WITH_DENSITIES, spec,
                                             namespaces=ns))
    # The writer groups the sources by format, in n3, dlogic, rif order,
    # and states each value in canonical form, sorted by dimension.
    grouped = sorted(spec.rule_sources, key=lambda src: ("n3", "dlogic", "rif").index(src.format))
    stated = sorted((DEFAULT_GN_BASE + name, v if isinstance(v, int) else canonical_ratio(v))
                    for name, v in zip(STAT_NAMES, REPORT_WITH_DENSITIES))
    assert desc == Description(dataset, NormalisationSpec("mini_rdf", tuple(grouped)),
                               tuple(stated), ns)


class TestRead:
    def test_typed_numeric_literals_accepted(self):
        text = (
            "@prefix void: <http://rdfs.org/ns/void#> .\n"
            "@prefix scovo: <http://purl.org/NET/scovo#> .\n"
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
            "@prefix gn: <http://purl.org/gn#> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            "<data.ttl> a void:Dataset ;\n"
            "  void:statItem [ scovo:dimension gn:publishedTriples ;"
            ' rdf:value "4"^^xsd:integer ] ;\n'
            "  void:statItem [ scovo:dimension gn:redundancy ;"
            ' rdf:value "0.5"^^xsd:decimal ] .\n'
        )
        desc = read_description(text)
        values = dict(desc.stated)
        assert values["http://purl.org/gn#publishedTriples"] == 4
        assert values["http://purl.org/gn#redundancy"] == Fraction(1, 2)

    def test_exactly_one_dataset_required(self):
        text = emit_description("a.ttl", REPORT, MINI) + emit_description("b.ttl", REPORT, MINI)
        with pytest.raises(GraphNormError):
            read_description(text)
        with pytest.raises(GraphNormError):
            read_description("@prefix void: <http://rdfs.org/ns/void#> .")

    def test_a_description_stating_no_statistic_is_refused(self):
        """Stripped of its stat items, a description verifies nothing, so it
        is refused rather than read as zero statistics that all agree."""
        with pytest.raises(GraphNormError) as raised:
            read_description("@prefix void: <http://rdfs.org/ns/void#> .\n"
                             "<d.ttl> a void:Dataset .\n")
        assert type(raised.value) is GraphNormError
        assert "no void:statItem" in str(raised.value)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(GraphNormError):
            read_description(_stating('"many"'))

    @pytest.mark.parametrize("datatype", ["integer", "decimal"])
    @pytest.mark.parametrize("lexical", ["3/4", "1e5", " 2 ", "1_0", "\u0662", "NaN", "1e1000000"])
    def test_typed_value_outside_the_xsd_lexical_form_rejected(self, lexical, datatype):
        """int() and Fraction() read these, and Fraction would expand the
        exponent in full; the xsd:integer and xsd:decimal forms do not."""
        with pytest.raises(GraphNormError) as raised:
            read_description(_stating(f'"{lexical}"^^<{XSD}{datatype}>'))
        assert type(raised.value) is GraphNormError
        assert str(raised.value) == f"rdf:value must be numeric, got {lexical!r}"

    @pytest.mark.parametrize("text,value", [
        (f'"4"^^<{XSD}integer>', 4),
        (f'"+4"^^<{XSD}integer>', 4),
        (f'"007"^^<{XSD}integer>', 7),
        (f'"-0.5"^^<{XSD}decimal>', Fraction(-1, 2)),
        (f'".5"^^<{XSD}decimal>', Fraction(1, 2)),
        (f'"5."^^<{XSD}decimal>', Fraction(5)),
        ("4", 4),
        ("+4", 4),
        ("007", 7),
        ("-0.5", Fraction(-1, 2)),
        (".5", Fraction(1, 2)),
        ("4 ;", 4),  # a ';' may end the item's last pair
    ])
    def test_numeric_value_forms_read(self, text, value):
        ((_, stated),) = read_description(_stating(text)).stated
        assert (type(stated), stated) == (type(value), value)

    @pytest.mark.parametrize("more", [
        "; gn:normalisation [ a gn:MiniRDF ; gn:rules [ a gn:RuleSet ; gn:dlogic <d.ttl> ] ]",
        "; gn:normalisation [ a gn:Closure ]",
        '; gn:normalisation "x"',
        f"; gn:normalisation {_MINI_A}",
        ', "x"',
    ])
    def test_a_second_normalisation_is_refused(self, more):
        """Reading only the first would verify against part of what the item states."""
        with pytest.raises(GraphNormError) as raised:
            read_description(_stating(f"4 ; gn:normalisation {_MINI_A} {more}"))
        assert str(raised.value) == "description item carries more than one gn:normalisation"

    def test_unknown_normalisation_kind_rejected(self):
        text = emit_description("d.ttl", REPORT, MINI).replace("gn:MiniRDF", "gn:MaxiRDF")
        with pytest.raises(GraphNormError):
            read_description(text)

    @pytest.mark.parametrize("types", ["gn:MiniRDF, gn:Closure", "gn:Closure, gn:MiniRDF"])
    def test_a_normalisation_of_both_kinds_is_refused(self, types):
        """Reading either kind would verify against half of what the node states."""
        with pytest.raises(GraphNormError) as raised:
            read_description(_stating(f"4 ; gn:normalisation [ a {types} ]"))
        assert str(raised.value) == "gn:normalisation node is typed both gn:MiniRDF and gn:Closure"

    @pytest.mark.parametrize("rules", ["", " ; gn:rules [ a gn:RuleSet ; gn:n3 <a.n3> ]"])
    def test_constraints_on_a_closure_normalisation_are_refused(self, rules):
        """gn:constraints belongs to the minimal-graph pipeline alone."""
        with pytest.raises(GraphNormError) as raised:
            read_description(_stating(
                f"4 ; gn:normalisation [ a gn:Closure{rules} ; "
                "gn:constraints [ a gn:ConstraintSet ] ]"))
        assert type(raised.value) is GraphNormError
        assert str(raised.value) == "a gn:Closure normalisation carries no gn:constraints"

    @pytest.mark.parametrize("constraints", [
        "<c.ttl>", '"x"', "4", "[]", "[ a gn:RuleSet ]", "[ gn:n3 <a.n3> ]",
        "[ a gn:ConstraintSet ], [ a gn:ConstraintSet ]",
        "[ a gn:ConstraintSet ] ; gn:constraints [ a gn:ConstraintSet ]",
    ])
    def test_constraints_other_than_one_constraint_set_are_refused(self, constraints):
        with pytest.raises(GraphNormError) as raised:
            read_description(_stating(
                f"4 ; gn:normalisation [ a gn:MiniRDF ; gn:constraints {constraints} ]"))
        assert str(raised.value) == (
            "gn:constraints must be one anonymous node typed gn:ConstraintSet")

    @pytest.mark.parametrize("constraints", ["", " ; gn:constraints [ a gn:ConstraintSet ]"])
    def test_a_mini_rdf_normalisation_reads_with_or_without_constraints(self, constraints):
        desc = read_description(_stating(
            f"4 ; gn:normalisation [ a gn:MiniRDF ; gn:rules [ a gn:RuleSet ; gn:n3 <a.n3> ]"
            f"{constraints} ]"))
        assert desc.normalisation == NormalisationSpec("mini_rdf", (RuleSource("n3", "a.n3"),))

    def test_inconsistent_specs_rejected(self):
        plain = NormalisationSpec("mini_rdf", (RuleSource("n3", "a.n3"),))
        text = emit_description("d.ttl", REPORT, plain)
        replaced = text.replace("gn:n3 <a.n3>", "gn:n3 <b.n3>", 1)
        assert replaced != text
        with pytest.raises(GraphNormError):
            read_description(replaced)

    @pytest.mark.parametrize("iri, literal, message", [
        ("a void:Dataset", '"http://rdfs.org/ns/void#Dataset"',
         "rdf:type must be an IRI, got 'http://rdfs.org/ns/void#Dataset'"),
        ("scovo:dimension gn:closureTriples", '"http://purl.org/gn#closureTriples"',
         "scovo:dimension must be an IRI, got 'http://purl.org/gn#closureTriples'"),
        ("a gn:MiniRDF", '"http://purl.org/gn#MiniRDF"',
         "rdf:type must be an IRI, got 'http://purl.org/gn#MiniRDF'"),
        ("gn:n3 <rules.n3>", '"rules.n3"', "gn:n3 must be an IRI, got 'rules.n3'"),
        ("gn:dlogic <vocab.ttl>", '"vocab.ttl"', "gn:dlogic must be an IRI, got 'vocab.ttl'"),
        ("gn:namespace <http://example.org/>", '"http://example.org/"',
         "gn:namespace must be an IRI, got 'http://example.org/'"),
    ])
    def test_a_literal_does_not_pass_for_an_iri(self, iri, literal, message):
        text = emit_description("data.ttl", REPORT_WITH_DENSITIES, MINI,
                                namespaces=NamespaceDecl((EX,)))
        read_description(text)
        # Every occurrence is replaced, so the items' specs stay consistent.
        predicate = iri.split(" ")[0]
        bad = text.replace(iri, f"{predicate} {literal}")
        assert bad != text
        with pytest.raises(GraphNormError) as raised:
            read_description(bad)
        assert type(raised.value) is GraphNormError
        assert str(raised.value) == message

    @pytest.mark.parametrize("prefixes, message", [
        ("<ht,tp://example.org/cat/>",
         "namespace prefix is not an absolute IRI: 'ht,tp://example.org/cat/'"),
        (f"<{EX}>, <{EX}cat/>", f"nested namespace prefixes: '{EX}' contains '{EX}cat/'"),
    ], ids=["not-absolute", "nested"])
    def test_a_namespace_that_no_declaration_accepts_is_refused_naming_the_source(
            self, prefixes, message):
        text = emit_description("data.ttl", REPORT_WITH_DENSITIES, MINI,
                                namespaces=NamespaceDecl((EX,)))
        bad = text.replace(f"gn:namespace <{EX}>", f"gn:namespace {prefixes}")
        assert bad != text
        with pytest.raises(GraphNormError) as raised:
            read_description(bad, source="desc.ttl")
        assert type(raised.value) is GraphNormError
        assert str(raised.value) == f"{message} in gn:namespace of desc.ttl"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError):
            read_description("<d.ttl> a", source="desc.ttl")

    @pytest.mark.parametrize("value", [
        "1" * 5000, "1" * 3000 + "." + "1" * 2000, "0." + "1" * 4300,
        f'"{"1" * 5000}"^^<{XSD}integer>', f'"{"1" * 5000}.5"^^<{XSD}decimal>',
    ], ids=["integer", "decimal", "decimal-denominator", "typed-integer", "typed-decimal"])
    def test_a_number_longer_than_the_interpreter_converts_is_a_positioned_parse_error(
            self, value):
        """int() refuses more than 4300 digits (by default), to and from
        text; a mismatch would quote the number, so its exact value must
        convert both ways."""
        with pytest.raises(ParseError) as raised:
            read_description(_stating(value), source="desc.ttl")
        column = len("  void:statItem [ scovo:dimension gn:publishedTriples ; rdf:value ") + 1
        assert str(raised.value) == f"desc.ttl:6:{column}: number has more than 4300 digits"

    def test_nesting_beyond_the_limit_is_a_positioned_parse_error(self):
        def nested(depth: int) -> str:
            return f"<d.ttl> <{EX}p> " + f"[ <{EX}p> " * depth + "1" + " ]" * depth + " .\n"

        node = _DescriptionReader(nested(_MAX_NESTING), "desc.ttl").read()["d.ttl"]
        for _ in range(_MAX_NESTING):
            (node,) = node[EX + "p"]
        assert node == {EX + "p": [1]}
        with pytest.raises(ParseError) as raised:
            _DescriptionReader(nested(_MAX_NESTING + 1), "desc.ttl").read()
        column = len(f"<d.ttl> <{EX}p> ") + _MAX_NESTING * len(f"[ <{EX}p> ") + 1
        assert str(raised.value) == (
            f"desc.ttl:1:{column}: anonymous nodes nest more than {_MAX_NESTING} deep")


# What the description reader refuses where it reads it: the message,
# line and column of each ParseError (exit 2 in the CLI).
DESCRIPTION_PARSE_ERRORS = [
    ('"x" <http://e.org/p> 1 .', "expected a subject IRI, got 'x'", 1, 1),
    ('<d.ttl> "p" 1 .', "expected a predicate, got 'p'", 1, 9),
    ('<d.ttl> <http://e.org/p> "x"^^"y" .', "expected a datatype IRI after '^^'", 1, 31),
    # a literal reads as in data, where a datatype must be an absolute IRI
    ('<d.ttl> <http://e.org/p> "5"^^<integer> .', "relative IRI not allowed: 'integer'", 1, 31),
    ("<d.ttl> <http://e.org/p> _:b .",
     "labeled blank nodes are not supported in descriptions", 1, 26),
]


@pytest.mark.parametrize("text, message, line, col", DESCRIPTION_PARSE_ERRORS)
def test_description_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as raised:
        read_description(text, source="desc.ttl")
    assert (raised.value.message, raised.value.line, raised.value.column) == (
        message, line, col)


# What it refuses once read: a plain GraphNormError (exit 1 in the CLI).
DESCRIPTION_REFUSALS = [
    (_stating("1, 2"), "description item needs exactly one rdf:value"),
    (_stating("1").replace(" ; rdf:value 1", ""),
     "description item needs exactly one rdf:value"),
    (_stating("1 ; gn:normalisation <n.ttl>"), "gn:normalisation must be an anonymous node"),
    (_stating("1 ; gn:normalisation [ a gn:MiniRDF ; gn:rules <r.ttl> ]"),
     "gn:rules must be an anonymous node"),
    (_stating("1").replace("[ scovo:dimension gn:publishedTriples ; rdf:value 1 ]", "<item>"),
     "void:statItem must be an anonymous node"),
]


@pytest.mark.parametrize("text, message", DESCRIPTION_REFUSALS)
def test_description_refusal_message(text, message):
    with pytest.raises(GraphNormError) as raised:
        read_description(text, source="desc.ttl")
    assert type(raised.value) is GraphNormError
    assert str(raised.value) == message


class TestFileResolver:
    def test_relative_path(self, tmp_path):
        (tmp_path / "x.ttl").write_text("# empty\n", encoding="utf-8")
        assert FileResolver(str(tmp_path))("x.ttl") == "# empty\n"

    def test_absolute_path(self, tmp_path):
        target = tmp_path / "y.ttl"
        target.write_text("data", encoding="utf-8")
        assert FileResolver("/nowhere")(str(target)) == "data"

    def test_file_iri(self, tmp_path):
        target = tmp_path / "z.ttl"
        target.write_text("data", encoding="utf-8")
        assert FileResolver(str(tmp_path))(f"file://{target}") == "data"

    def test_file_iri_with_percent_escape(self, tmp_path):
        (tmp_path / "with space.ttl").write_text("data", encoding="utf-8")
        assert FileResolver("/nowhere")(f"file://{tmp_path}/with%20space.ttl") == "data"

    def test_file_iri_on_localhost(self, tmp_path):
        target = tmp_path / "z.ttl"
        target.write_text("data", encoding="utf-8")
        assert FileResolver("/nowhere")(f"file://localhost{target}") == "data"

    def test_file_iri_on_another_host_rejected(self, tmp_path):
        # The path exists here, but the locator names another machine's file.
        target = tmp_path / "d.ttl"
        target.write_text("data", encoding="utf-8")
        with pytest.raises(ResolverError, match="must name this machine"):
            FileResolver("/nonexistent")(f"file://elsewhere.example{target}")

    def test_relative_file_iri_rejected(self, tmp_path, monkeypatch):
        # 'file:d2.ttl' has no absolute path: it is refused, not read from
        # the working directory or the base directory.
        for where in (tmp_path, tmp_path / "base"):
            where.mkdir(exist_ok=True)
            (where / "d2.ttl").write_text("data", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ResolverError, match="absolute path: 'file:d2.ttl'"):
            FileResolver(str(tmp_path / "base"))("file:d2.ttl")

    def test_remote_scheme_rejected(self):
        with pytest.raises(ResolverError):
            FileResolver(".")("http://remote.example/data.ttl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResolverError):
            FileResolver(str(tmp_path))("absent.ttl")

    @pytest.mark.parametrize("locator, reason", [
        ("http://[x/d.ttl", "Invalid IPv6 URL"),
        ("file://[x/d.ttl", "Invalid IPv6 URL"),
        ("d\x00.ttl", "embedded null byte"),
    ], ids=["unclosed-host", "unclosed-file-host", "nul"])
    def test_a_locator_that_names_no_path_is_named(self, tmp_path, locator, reason):
        with pytest.raises(ResolverError) as raised:
            FileResolver(str(tmp_path))(locator)
        assert str(raised.value) == f"cannot resolve {locator!r}: {reason}"


class TestLoadDlogic:
    def test_follows_imports_to_fixpoint(self, tmp_path):
        (tmp_path / "a.ttl").write_text(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            f"<{EX}ontA> owl:imports <file://{tmp_path}/b.ttl> .\n"
            f"<{EX}p> a owl:SymmetricProperty .\n",
            encoding="utf-8",
        )
        (tmp_path / "b.ttl").write_text(
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            f"<{EX}ontB> owl:imports <file://{tmp_path}/a.ttl> .\n"
            f"<{EX}q> a owl:TransitiveProperty .\n",
            encoding="utf-8",
        )
        merged = load_dlogic(["a.ttl"], FileResolver(str(tmp_path)))
        assert len(merged) == 4  # both ontologies, imports included, no loop

    def test_each_locator_fetched_once(self, tmp_path):
        calls = []
        base = FileResolver(str(tmp_path))
        (tmp_path / "a.ttl").write_text(f"<{EX}s> <{EX}p> <{EX}o> .\n", encoding="utf-8")

        def counting(locator: str) -> str:
            calls.append(locator)
            return base(locator)

        load_dlogic(["a.ttl", "a.ttl"], counting)
        assert calls == ["a.ttl"]


class _Workspace:
    """Writes a dataset, rules, and vocabulary into a directory."""

    def __init__(self, tmp_path):
        self.dir = tmp_path
        (tmp_path / "data.ttl").write_text(fixture_text("social.ttl"), encoding="utf-8")
        (tmp_path / "rules.n3").write_text(fixture_text("rules.n3"), encoding="utf-8")
        (tmp_path / "vocab.ttl").write_text(fixture_text("vocab.ttl"), encoding="utf-8")
        self.resolver = FileResolver(str(tmp_path))
        self.spec = NormalisationSpec("mini_rdf", (
            RuleSource("n3", "rules.n3"),
            RuleSource("dlogic", "vocab.ttl"),
        ))
        self.report = StatsReport(
            published_cardinality=4,
            closure_cardinality=4,
            minimal_cardinality=2,
            redundancy=Fraction(1, 2),
        )


class TestRecompute:
    def test_matches_stated_report(self, tmp_path):
        ws = _Workspace(tmp_path)
        text = emit_description("data.ttl", ws.report, ws.spec)
        recomputed = recompute(read_description(text), ws.resolver)
        assert recomputed == ws.report
        assert compare_description(read_description(text), recomputed) == []

    def test_detects_wrong_integer(self, tmp_path):
        ws = _Workspace(tmp_path)
        wrong = StatsReport(5, 4, 2, Fraction(1, 2))
        text = emit_description("data.ttl", wrong, ws.spec)
        description = read_description(text)
        mismatches = compare_description(description, recompute(description, ws.resolver))
        assert len(mismatches) == 1
        assert "publishedTriples" in mismatches[0]

    def test_detects_wrong_ratio(self, tmp_path):
        ws = _Workspace(tmp_path)
        wrong = StatsReport(4, 4, 2, Fraction(1, 4))
        text = emit_description("data.ttl", wrong, ws.spec)
        description = read_description(text)
        mismatches = compare_description(description, recompute(description, ws.resolver))
        assert mismatches and "redundancy" in mismatches[0]

    def test_unknown_dimension_is_a_mismatch(self, tmp_path):
        ws = _Workspace(tmp_path)
        text = emit_description("data.ttl", ws.report, ws.spec)
        text = text.replace("gn:publishedTriples", "gn:tripleFeeling")
        description = read_description(text)
        mismatches = compare_description(description, recompute(description, ws.resolver))
        assert any("unknown dimension" in m for m in mismatches)

    def test_density_stated_without_namespace_is_a_mismatch(self, tmp_path):
        ws = _Workspace(tmp_path)
        with_density = StatsReport(4, 4, 2, Fraction(1, 2),
                                   out_link_density_plus=Fraction(0),
                                   out_link_density_minus=Fraction(0))
        text = emit_description("data.ttl", with_density, ws.spec,
                                namespaces=NamespaceDecl((EX,)))
        # Strip the namespace declaration: the densities become unrecomputable.
        text = "\n".join(
            line for line in text.splitlines() if "gn:namespace" not in line
        ) + "\n"
        description = read_description(text)
        mismatches = compare_description(description, recompute(description, ws.resolver))
        assert any("not recomputable" in m for m in mismatches)

    def test_rif_sources_unsupported(self, tmp_path):
        ws = _Workspace(tmp_path)
        spec = NormalisationSpec("mini_rdf", (RuleSource("rif", "rules.rif"),))
        text = emit_description("data.ttl", ws.report, spec)
        with pytest.raises(UnsupportedFeatureError, match="unsupported: RIF"):
            recompute(read_description(text), ws.resolver)

    def test_imports_pull_extra_schema(self, tmp_path):
        ws = _Workspace(tmp_path)
        (tmp_path / "vocab.ttl").write_text(
            fixture_text("vocab.ttl")
            + "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            + f"<{EX}ont> owl:imports <file://{tmp_path}/extra.ttl> .\n",
            encoding="utf-8",
        )
        (tmp_path / "extra.ttl").write_text(
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            "foaf:Person rdfs:subClassOf foaf:Agent .\n",
            encoding="utf-8",
        )
        text = emit_description("data.ttl", ws.report, ws.spec)
        recomputed = recompute(read_description(text), ws.resolver)
        # The imported subclass axiom enlarges the closure: both people
        # also become foaf:Agent.
        assert recomputed.closure_cardinality == 6
        assert recomputed.minimal_cardinality == 2

    def test_none_normalisation_runs_without_rules(self, tmp_path):
        ws = _Workspace(tmp_path)
        plain = StatsReport(4, 4, 4, Fraction(0))
        text = emit_description("data.ttl", plain, NormalisationSpec("none"))
        recomputed = recompute(read_description(text), ws.resolver)
        assert recomputed == plain


def _stating_only(*stated) -> Description:
    """A description of data.ttl stating these (dimension IRI, value) pairs."""
    return Description("data.ttl", NormalisationSpec("none"), stated)


class TestCompareLines:
    """The exact line compare_description gives for each kind of item."""

    @pytest.mark.parametrize("dimension, stated, line", [
        ("publishedTriples", 7, "publishedTriples: stated 7, recomputed 4"),
        ("publishedTriples", Fraction("3.5"), "publishedTriples: stated 7/2, recomputed 4"),
        ("publishedTriples", Fraction("4.0"), None),
        ("redundancy", Fraction("0.25"), "redundancy: stated 0.25, recomputed 0.5"),
        ("redundancy", 1, "redundancy: stated 1.0, recomputed 0.5"),
        ("redundancy", Fraction(1, 2), None),
        ("outLinkDensityPlus", Fraction("0.3"),
         "outLinkDensityPlus: stated 0.3, recomputed 0.333333"),
        ("outLinkDensityPlus", Fraction("0.333333"), None),
        ("outLinkDensityMinus", Fraction("0.5"), None),
    ])
    def test_recomputable_items(self, dimension, stated, line):
        mismatches = compare_description(
            _stating_only((DEFAULT_GN_BASE + dimension, stated)), REPORT_WITH_DENSITIES)
        assert mismatches == ([] if line is None else [DEFAULT_GN_BASE + line])

    def test_density_absent_from_the_report_is_not_recomputable(self):
        description = _stating_only((DEFAULT_GN_BASE + "outLinkDensityPlus", Fraction("0.5")),
                                    (DEFAULT_GN_BASE + "outLinkDensityMinus", 0))
        assert compare_description(description, REPORT) == [
            "http://purl.org/gn#outLinkDensityPlus: stated 1/2, not recomputable",
            "http://purl.org/gn#outLinkDensityMinus: stated 0, not recomputable",
        ]

    def test_unknown_dimensions(self):
        description = _stating_only((DEFAULT_GN_BASE + "tripleFeeling", 4),
                                    ("publishedTriples", 4),
                                    (DEFAULT_GN_BASE + "minimalTriples", 2))
        assert compare_description(description, REPORT) == [
            "unknown dimension http://purl.org/gn#tripleFeeling",
            "unknown dimension publishedTriples",
        ]

    def test_dimensions_follow_the_base(self):
        base = "http://stats.example/v#"
        description = _stating_only((base + "closureTriples", 5),
                                    (DEFAULT_GN_BASE + "closureTriples", 5))
        assert compare_description(description, REPORT, gn_base=base) == [
            "http://stats.example/v#closureTriples: stated 5, recomputed 6",
            "unknown dimension http://purl.org/gn#closureTriples",
        ]
