"""README's examples against the code: the library quick start runs, the
command-line synopsis names only subcommands and flags the parser
accepts, the entry-point table names only public functions, and the
schema constructs named under Formats are those compile_schema knows."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import graphnorm
from graphnorm.cli import build_parser
from graphnorm.rules import _FRAGMENT
from graphnorm.terms import IRI, OWL_NS, RDFS_NS

from support import cli_env

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of ``language`` under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _synopsis() -> list[list[str]]:
    text = _block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


def test_quick_start_runs():
    result = subprocess.run([sys.executable, "-c", _block("Library quick start", "python")],
                            capture_output=True, text=True, env=cli_env("0"))
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("words", _synopsis(), ids=lambda words: words[1])
def test_synopsis_line_parses(words):
    assert words[0] == "graphnorm"
    try:
        build_parser().parse_args(words[1:])
    except SystemExit:
        pytest.fail(f"the parser rejects {' '.join(words)!r}")


def test_synopsis_shows_every_subcommand():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert {words[1] for words in _synopsis()} == set(sub.choices)


def test_public_names_resolve():
    namespace: dict = {}
    exec("from graphnorm import *", namespace)
    assert set(graphnorm.__all__) <= namespace.keys()


def test_entry_point_table_names_public_functions():
    table = README.split("Key entry points", 1)[1].split("\n\n", 2)[1]
    names = [name for row in table.splitlines()[2:]
             for name in re.findall(r"`(\w+)[`(]", row.split("|")[1])]
    assert "compute_stats" in names
    assert not set(names) - set(graphnorm.__all__)


def test_schema_constructs_are_the_compiled_fragment():
    sentence = README.split("Schema graphs compile", 1)[1].split(";", 1)[0]
    namespaces = {"rdfs": RDFS_NS, "owl": OWL_NS}
    named = [IRI(namespaces[prefix] + local)
             for prefix, local in re.findall(r"`(\w+):(\w+)`", sentence)]
    assert len(named) == len(_FRAGMENT)
    assert set(named) == {key[1] if isinstance(key, tuple) else key for key in _FRAGMENT}
