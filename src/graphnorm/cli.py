"""Command line interface.

Subcommands mirror the library: ``closure``, ``minimize``, ``stats`` and
``diff-minimize`` operate on local files, ``describe`` is ``stats --format
turtle``, a machine-readable description of the statistics, and ``verify``
recomputes a description's statistics from its referenced sources and
compares. Results go to stdout (or ``--output``); diagnostics go to
stderr, if it can take them. Identical invocations produce
byte-identical output.

Rule sources load through ``provenance.load_rules``, as in ``verify``. A
command that writes a description reads every locator it records the way
``verify`` will: from the directory of ``--output``.

``main`` pauses the cyclic garbage collector while a command runs and
switches it back on afterwards if it was on. Importing this module
changes no interpreter-wide setting.

A ``graphnorm`` process (the console script, ``python -m graphnorm``)
starts in ``run``: once ``main`` has returned and stdout and stderr are
flushed, the process ends with ``os._exit``, skipping the interpreter's
teardown, so atexit handlers do not run in it. Usage errors, an
exception that escapes ``main`` and a failed flush end it through
``sys.exit``, as before.

Exit codes:

* 0 — success
* 1 — usage error, unreadable file or locator, refused value (such as
  ``--namespace``), a result stdout cannot encode, or out of memory
* 2 — parse error in an input file
* 3 — unsafe rule (head variables or blanks unbound by the body)
* 4 — verification found mismatching statistics
* 5 — unsupported feature (RIF rule sources)
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NoReturn

from .errors import (
    GraphNormError,
    ParseError,
    UnsafeRuleError,
    UnsupportedFeatureError,
)
from .engine import _Materialization
from .graph import skolemize_ids
from .provenance import (
    DEFAULT_GN_BASE,
    FileResolver,
    NormalisationSpec,
    RuleSource,
    compare_description,
    emit_description,
    load_rules,
    read_description,
    recompute,
)
from .stats import NamespaceDecl, stat_texts, stats_report
from .terms import _Terms
from .turtle import _TurtleParser

_EXIT_USAGE = 1
_EXIT_PARSE = 2
_EXIT_UNSAFE = 3
_EXIT_MISMATCH = 4
_EXIT_UNSUPPORTED = 5
# The errors that main maps to a code other than _EXIT_USAGE.
_EXIT_CODES = {ParseError: _EXIT_PARSE, UnsafeRuleError: _EXIT_UNSAFE,
               UnsupportedFeatureError: _EXIT_UNSUPPORTED}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    parse errors in input files, so usage errors exit with 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _gn_base() -> str:
    return os.environ.get("GN_BASE", DEFAULT_GN_BASE)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise GraphNormError(f"cannot read {path!r}: {exc}") from None


def _load(args: argparse.Namespace, minimizes: bool = True) -> _Materialization:
    """The materialization of what a command reads, the data parsed into term
    ids, made to be minimized unless minimizes is false. A description reads
    its locators from its directory, as verify does, needs a local --dataset
    to hold the --data graph, and refuses --base."""
    describes = getattr(args, "format", None) == "turtle"
    if describes and args.base:
        raise GraphNormError("a description cannot record --base: "
                             "verify would recount the graph unskolemized")
    out_dir = os.path.dirname(args.output or "") if describes else ""
    resolver = FileResolver(out_dir or ".")
    terms = _Terms()
    text = resolver(args.data) if describes and not args.dataset else _read_file(args.data)
    data = _TurtleParser(text, args.data).parse(terms)
    if args.base:
        data = skolemize_ids(terms, data, args.base)
    if describes and args.dataset and resolver.reads(args.dataset):
        if _TurtleParser(resolver(args.dataset), args.dataset).parse(terms) != data:
            raise GraphNormError(f"--dataset {args.dataset!r} does not hold the --data graph")
    rules, aux = load_rules(_description_spec(args), resolver)
    return _Materialization(terms, data, rules, aux, minimizes=minimizes)


def _write_output(text: str, path: str | None) -> None:
    if path:
        # Encoded before the file is opened, so running out of memory while
        # encoding leaves no file behind.
        data = text.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)
    elif sys.stdout is None:
        raise GraphNormError("cannot write the result: stdout is closed")
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # a character stdout's encoding lacks
            raise GraphNormError(f"cannot write the result: {exc}") from None


def _tell(line: str) -> None:
    """One diagnostic line to stderr, dropped if stderr cannot take it."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError, ValueError):  # stderr is None, closed or failing
        pass


def _namespaces(args: argparse.Namespace) -> NamespaceDecl | None:
    if args.namespace:
        return NamespaceDecl(args.namespace)
    return None


def _description_spec(args: argparse.Namespace) -> NormalisationSpec:
    sources = [RuleSource("n3", path) for path in args.rules or []]
    sources.extend(RuleSource("dlogic", path) for path in args.dlogic or [])
    if sources:
        return NormalisationSpec("mini_rdf", sources)
    return NormalisationSpec("none")


def _cmd_closure(args: argparse.Namespace) -> int:
    m = _load(args, minimizes=False)
    _write_output(m.render(m.counted()), args.output)
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    m = _load(args)
    _write_output(m.render(m.minimize()), args.output)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    m = _load(args)
    namespaces = _namespaces(args)
    report = stats_report(m, namespaces)
    if args.format == "turtle":
        dataset = args.dataset or args.data
        text = emit_description(dataset, report, _description_spec(args),
                                namespaces=namespaces, gn_base=_gn_base())
    else:
        rows = stat_texts(report)
        if args.format == "tsv":
            text = "".join(f"{name}\t{value}\n" for name, value in rows)
        else:
            width = max(len(name) for name, _ in rows)
            text = "".join(f"{name.ljust(width)}  {value}\n" for name, value in rows)
    _write_output(text, args.output)
    return 0


def _cmd_diff_minimize(args: argparse.Namespace) -> int:
    # The result is minimize of --full; stderr keeps its "fallback: false"
    # line for scripts that parse it. The other graphs are still read and
    # parsed, into a throwaway dictionary, so a missing or malformed one fails.
    for path in (args.prev_min, args.insert, args.delete):
        if path:
            _TurtleParser(_read_file(path), path).parse(_Terms())
    code = _cmd_minimize(args)
    _tell("fallback: false")
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.description))
    description = read_description(_read_file(args.description), source=args.description,
                                   gn_base=_gn_base())
    report = recompute(description, FileResolver(base_dir))
    mismatches = compare_description(description, report, gn_base=_gn_base())
    if mismatches:
        _write_output("".join(f"mismatch: {m}\n" for m in mismatches), args.output)
        return _EXIT_MISMATCH
    _write_output(f"ok: {len(description.stated)} statistics verified\n", args.output)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rules", action="append", metavar="FILE",
                        help="rule file ({ body } => { head } .); may repeat")
    parser.add_argument("--dlogic", action="append", metavar="FILE",
                        help="schema graph in Turtle, compiled to rules, "
                             "owl:imports followed; read, like --rules, from "
                             "the directory of a description being written; "
                             "may repeat")
    parser.add_argument("--base", metavar="IRI",
                        help="skolemize blank nodes under this IRI scope")
    parser.add_argument("--output", metavar="FILE",
                        help="write the result here instead of stdout")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, metavar="FILE",
                        help="data graph in Turtle")
    _add_common_flags(parser)


def _add_stat_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--namespace", action="append", metavar="IRI",
                        help="dataset namespace prefix for out-link "
                             "densities; may repeat")
    parser.add_argument("--dataset", metavar="LOCATOR",
                        help="dataset locator to record in descriptions "
                             "(defaults to the --data path)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphnorm",
                     description="Provenance-qualified statistics over RDF graphs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("closure", help="materialize the closure of a graph under rules")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("minimize", help="remove triples the rules re-derive")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("stats", help="compute cardinalities, redundancy and densities")
    _add_data_flags(p)
    _add_stat_flags(p)
    p.add_argument("--format", choices=("table", "tsv", "turtle"), default="table",
                   help="output format (default: table)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("diff-minimize",
                       help="the minimal graph of an updated graph (minimize of --full)")
    p.add_argument("--prev-min", required=True, metavar="FILE",
                   help="previous minimal graph in Turtle; parsed, but does "
                        "not change the result")
    p.add_argument("--full", required=True, metavar="FILE", dest="data",
                   help="the updated full graph in Turtle")
    p.add_argument("--insert", metavar="FILE",
                   help="graph of inserted triples; parsed, but does not "
                        "change the result")
    p.add_argument("--delete", metavar="FILE",
                   help="graph of deleted triples; parsed, but does not "
                        "change the result")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_diff_minimize)

    p = sub.add_parser("describe",
                       help="emit a machine-readable description of the statistics")
    _add_data_flags(p)
    _add_stat_flags(p)
    p.set_defaults(func=_cmd_stats, format="turtle")

    p = sub.add_parser("verify",
                       help="recompute a description's statistics and compare")
    p.add_argument("description", metavar="FILE", help="description to verify")
    p.add_argument("--output", metavar="FILE",
                   help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A command's data holds no reference cycles, so each collector pass only scans it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except MemoryError:
            _tell("graphnorm: out of memory")
            return _EXIT_USAGE
        except (GraphNormError, OSError) as exc:
            _tell(f"graphnorm: {exc}")
            return _EXIT_CODES.get(type(exc), _EXIT_USAGE)
    finally:
        if enabled:
            gc.enable()


def run() -> NoReturn:
    """The process entry point: main, then the end of the process."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a failed write, or a stream already closed
        sys.exit(code)  # the interpreter's exit reports the failed flush, as it always has
    # Safe to skip teardown: main's output files are closed by `with`, graphnorm registers
    # no atexit handler, and logging's last-resort handler writes each warning as it happens.
    os._exit(code)


if __name__ == "__main__":
    run()
