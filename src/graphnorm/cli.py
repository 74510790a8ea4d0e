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

The commands and their flags are declared once, in ``_COMMANDS``. A
well-formed command line is read from that table directly; argparse,
with gettext, is loaded only for ``--help`` and usage errors, so that
they keep argparse's messages.

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

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Sequence

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

if TYPE_CHECKING:
    from argparse import ArgumentParser

_EXIT_USAGE = 1
_EXIT_PARSE = 2
_EXIT_UNSAFE = 3
_EXIT_MISMATCH = 4
_EXIT_UNSUPPORTED = 5
# The errors that main maps to a code other than _EXIT_USAGE.
_EXIT_CODES = {ParseError: _EXIT_PARSE, UnsafeRuleError: _EXIT_UNSAFE,
               UnsupportedFeatureError: _EXIT_UNSUPPORTED}


def _gn_base() -> str:
    return os.environ.get("GN_BASE", DEFAULT_GN_BASE)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise GraphNormError(f"cannot read {path!r}: {exc}") from None


def _load(args: SimpleNamespace, minimizes: bool = True) -> _Materialization:
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


def _namespaces(args: SimpleNamespace) -> NamespaceDecl | None:
    if args.namespace:
        return NamespaceDecl(args.namespace)
    return None


def _description_spec(args: SimpleNamespace) -> NormalisationSpec:
    sources = [RuleSource("n3", path) for path in args.rules or []]
    sources.extend(RuleSource("dlogic", path) for path in args.dlogic or [])
    if sources:
        return NormalisationSpec("mini_rdf", sources)
    return NormalisationSpec("none")


def _cmd_closure(args: SimpleNamespace) -> int:
    m = _load(args, minimizes=False)
    _write_output(m.render(m.counted()), args.output)
    return 0


def _cmd_minimize(args: SimpleNamespace) -> int:
    m = _load(args)
    _write_output(m.render(m.minimize()), args.output)
    return 0


def _cmd_stats(args: SimpleNamespace) -> int:
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


def _cmd_diff_minimize(args: SimpleNamespace) -> int:
    # The result is minimize of --full; stderr keeps its "fallback: false"
    # line for scripts that parse it. The other graphs are still read and
    # parsed, into a throwaway dictionary, so a missing or malformed one fails.
    for path in (args.prev_min, args.insert, args.delete):
        if path:
            _TurtleParser(_read_file(path), path).parse(_Terms())
    code = _cmd_minimize(args)
    _tell("fallback: false")
    return code


def _cmd_verify(args: SimpleNamespace) -> int:
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


# Each command's flags in add_argument's own terms: the option string (a
# name without dashes is a positional) and its keywords. build_parser
# declares them as they stand, and _read_argv reads their plain form.
_COMMON_FLAGS = (
    ("--rules", {"action": "append", "metavar": "FILE",
                 "help": "rule file ({ body } => { head } .); may repeat"}),
    ("--dlogic", {"action": "append", "metavar": "FILE",
                  "help": "schema graph in Turtle, compiled to rules, owl:imports "
                          "followed; read, like --rules, from the directory of a "
                          "description being written; may repeat"}),
    ("--base", {"metavar": "IRI", "help": "skolemize blank nodes under this IRI scope"}),
    ("--output", {"metavar": "FILE", "help": "write the result here instead of stdout"}),
)
_DATA_FLAGS = (("--data", {"required": True, "metavar": "FILE",
                           "help": "data graph in Turtle"}),) + _COMMON_FLAGS
_STAT_FLAGS = _DATA_FLAGS + (
    ("--namespace", {"action": "append", "metavar": "IRI",
                     "help": "dataset namespace prefix for out-link densities; may repeat"}),
    ("--dataset", {"metavar": "LOCATOR",
                   "help": "dataset locator to record in descriptions "
                           "(defaults to the --data path)"}),
)

# Each command's help, flags and the defaults set beside its flags.
_COMMANDS = {
    "closure": ("materialize the closure of a graph under rules", _DATA_FLAGS,
                {"func": _cmd_closure}),
    "minimize": ("remove triples the rules re-derive", _DATA_FLAGS, {"func": _cmd_minimize}),
    "stats": ("compute cardinalities, redundancy and densities", _STAT_FLAGS + (
        ("--format", {"choices": ("table", "tsv", "turtle"), "default": "table",
                      "help": "output format (default: table)"}),
    ), {"func": _cmd_stats}),
    "diff-minimize": ("the minimal graph of an updated graph (minimize of --full)", (
        ("--prev-min", {"required": True, "metavar": "FILE",
                        "help": "previous minimal graph in Turtle; parsed, but does "
                                "not change the result"}),
        ("--full", {"required": True, "metavar": "FILE", "dest": "data",
                    "help": "the updated full graph in Turtle"}),
        ("--insert", {"metavar": "FILE", "help": "graph of inserted triples; parsed, "
                                                 "but does not change the result"}),
        ("--delete", {"metavar": "FILE", "help": "graph of deleted triples; parsed, "
                                                 "but does not change the result"}),
    ) + _COMMON_FLAGS, {"func": _cmd_diff_minimize}),
    "describe": ("emit a machine-readable description of the statistics", _STAT_FLAGS,
                 {"func": _cmd_stats, "format": "turtle"}),
    "verify": ("recompute a description's statistics and compare", (
        ("description", {"metavar": "FILE", "help": "description to verify"}),
        ("--output", {"metavar": "FILE", "help": "write the report here instead of stdout"}),
    ), {"func": _cmd_verify}),
}


def build_parser() -> ArgumentParser:
    """The argparse tree of _COMMANDS. Only --help and the argv that
    _read_argv leaves to it need it, so only they import argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with 2 on usage errors; this tool reserves 2 for
        parse errors in input files, so usage errors exit with 1."""

        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="graphnorm",
                     description="Provenance-qualified statistics over RDF graphs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (text, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments build_parser would give argv, if argv has the plain
    form: a command, then exact --flag value pairs and verify's one
    positional, no value starting with '-'. None for any other argv: -h,
    an abbreviation, --flag=value, --, a flag the command lacks, a missing
    value, positional or required flag, an extra positional, a --format
    outside its choices. build_parser reads those, or refuses them with
    argparse's messages."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, flags, defaults = _COMMANDS[argv[0]]
    values = {"command": argv[0]}
    options: dict[str, tuple[str, dict]] = {}
    positionals: list[str] = []
    required: list[str] = []
    for flag, keywords in flags:
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        values[dest] = keywords.get("default")
        if flag.startswith("-"):
            options[flag] = dest, keywords
            if keywords.get("required"):
                required.append(dest)
        else:
            positionals.append(dest)
    values.update(defaults)  # set_defaults wins over a flag's default, as in argparse
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            values[positionals.pop(0)] = word
            continue
        if word not in options:
            return None
        dest, keywords = options[word]
        value = next(words, None)
        choices = keywords.get("choices")
        if value is None or value.startswith("-") or choices and value not in choices:
            return None
        if keywords.get("action") == "append":
            values[dest] = (values[dest] or []) + [value]
        else:
            values[dest] = value
    if positionals or any(values[dest] is None for dest in required):
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    # A command's data holds no reference cycles, so each collector pass only scans it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _read_argv(argv) or build_parser().parse_args(argv, SimpleNamespace())
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
