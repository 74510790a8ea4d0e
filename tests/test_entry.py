"""The process entry point: every way the CLI starts runs cli.run, which
ends the process without interpreter teardown once main has returned and
its streams are flushed. A `python -m graphnorm` process must give the same
exit code, stdout and stderr bytes as main called in process."""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from graphnorm import NormalisationSpec, RuleSource, StatsReport, emit_description
from graphnorm.cli import main

from support import FIXTURES, SRC, cli_env

CHAIN_NS = "http://example.org/chain/"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
_WIDTH = "80"  # argparse wraps help to the terminal width


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("social.ttl", "vocab.ttl", "rules.n3", "links.ttl", "links-rules.n3",
                 "mixed.ttl", "mixed-vocab.ttl"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", _WIDTH)
    return tmp_path


def in_process(argv):
    """(exit code, stdout, stderr) of main called in this process, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def in_child(argv, cwd, **kwargs):
    """(exit code, stdout, stderr) of a `python -m graphnorm` process."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    result = subprocess.run([sys.executable, "-m", "graphnorm", *argv], cwd=cwd,
                            stderr=subprocess.PIPE, env={**cli_env("0"), "COLUMNS": _WIDTH},
                            **kwargs)
    return result.returncode, result.stdout or b"", result.stderr


def write_class_chain(workdir, instances=200, classes=10):
    """A closure that is larger than a pipe buffer: every instance is
    typed with each class of a subClassOf chain."""
    (workdir / "chain-schema.ttl").write_text("".join(
        f"<{CHAIN_NS}C{i}> <{RDFS}subClassOf> <{CHAIN_NS}C{i + 1}> .\n"
        for i in range(classes)), encoding="utf-8")
    (workdir / "chain.ttl").write_text("".join(
        f"<{CHAIN_NS}x{j}> a <{CHAIN_NS}C0> .\n" for j in range(instances)), encoding="utf-8")
    return ["--data", "chain.ttl", "--dlogic", "chain-schema.ttl"]


def test_every_way_the_cli_starts_calls_one_entry():
    """The console script, `python -m graphnorm` and running cli.py as a
    script call the same function, and it is not main, which tests and
    tracers call in process to get control back. Read as text, so it runs
    without tomllib."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[].*\n|\n)*)", pyproject, re.M)[1]
    (entry,) = re.findall(r'^graphnorm\s*=\s*"graphnorm\.cli:(\w+)"\s*$', scripts, re.M)
    assert entry != "main"
    package = SRC / "graphnorm"
    dunder_main = (package / "__main__.py").read_text(encoding="utf-8")
    assert f"from .cli import {entry}\n" in dunder_main
    for text in (dunder_main, (package / "cli.py").read_text(encoding="utf-8")):
        assert text.split('\nif __name__ == "__main__":\n')[1] == f"    {entry}()\n"


def test_output_larger_than_a_pipe_buffer_arrives_whole(workdir):
    argv = ["closure", *write_class_chain(workdir)]
    expected = in_process(argv)
    assert expected[0] == 0 and len(expected[1]) > 64 * 1024
    assert in_child(argv, workdir) == expected


def _exit_argv(workdir, code):
    """A command that exits with the documented code."""
    if code == 2:
        (workdir / "bad.ttl").write_text("ex:a ex:b ex:c .\n", encoding="utf-8")
        return ["closure", "--data", "bad.ttl"]
    if code == 3:
        (workdir / "unsafe.n3").write_text(
            "{ ?x <http://example.org/p> ?y . } => { ?x <http://example.org/q> ?z . } .\n",
            encoding="utf-8")
        return ["closure", "--data", "links.ttl", "--rules", "unsafe.n3"]
    if code == 4:
        assert in_process(["describe", "--data", "social.ttl", "--rules", "rules.n3",
                           "--dlogic", "vocab.ttl", "--output", "desc.ttl"])[0] == 0
        text = (workdir / "desc.ttl").read_text(encoding="utf-8")
        (workdir / "desc.ttl").write_text(text.replace("rdf:value 4", "rdf:value 7", 1),
                                          encoding="utf-8")
        return ["verify", "desc.ttl"]
    if code == 5:
        spec = NormalisationSpec("mini_rdf", (RuleSource("rif", "rules.rif"),))
        (workdir / "desc.ttl").write_text(
            emit_description("links.ttl", StatsReport(2, 2, 2, Fraction(0)), spec),
            encoding="utf-8")
        return ["verify", "desc.ttl"]
    return ["closure", "--data", "links.ttl" if code == 0 else "absent.ttl",
            "--rules", "links-rules.n3"]


@pytest.mark.parametrize("code", range(6))
def test_each_documented_exit_arrives_as_in_process(workdir, code):
    argv = _exit_argv(workdir, code)
    expected = in_process(argv)
    assert expected[0] == code
    assert in_child(argv, workdir) == expected


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["closure", "--help"], 0), (["closure"], 1), (["frobnicate"], 1),
], ids=["help", "command-help", "missing-argument", "unknown-command"])
def test_help_and_usage_errors_arrive_as_in_process(workdir, argv, code):
    expected = in_process(argv)
    assert expected[0] == code
    assert in_child(argv, workdir) == expected


def test_a_schema_warning_still_reaches_stderr(workdir):
    """logging's last-resort handler writes the warning when it is logged,
    so it needs neither atexit nor logging.shutdown."""
    vocab = workdir / "mixed-vocab.ttl"
    vocab.write_text(vocab.read_text(encoding="utf-8").replace("rdfs:range", "rdfs:rarange"),
                     encoding="utf-8")
    code, out, err = in_child(["closure", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl"],
                              workdir)
    assert (code, err) == (0, (
        "graphnorm: warning: ignoring unrecognized schema triple: "
        "<http://example.org/cat/partOf> "
        f"<{RDFS}rarange> <http://example.org/cat/Collection> .\n").encode())
    assert out.startswith(b"<http://example.org/cat/")


@pytest.mark.parametrize("argv", [
    ["closure", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl"],
    ["verify", "desc.ttl"],
], ids=["closure", "verify"])
def test_a_closed_stdout_ends_in_one_line(workdir, argv):
    assert in_process(["describe", "--data", "mixed.ttl", "--dlogic", "mixed-vocab.ttl",
                       "--output", "desc.ttl"])[0] == 0
    closed = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" -m graphnorm "$@" >&-', sys.executable, *argv],
        cwd=workdir, capture_output=True, env=cli_env("0"))
    assert (closed.returncode, closed.stderr) == (
        1, b"graphnorm: cannot write the result: stdout is closed\n")
    written = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" -m graphnorm "$@" >&-', sys.executable, *argv,
         "--output", "out.txt"], cwd=workdir, capture_output=True, env=cli_env("0"))
    assert (written.returncode, written.stderr) == (0, b"")
    assert (workdir / "out.txt").read_bytes() == in_process(argv)[1]


def with_closed_stderr(argv, cwd):
    """(exit code, stdout) of a `python -m graphnorm` process started with
    stderr closed."""
    result = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" -m graphnorm "$@" 2>&-', sys.executable, *argv],
        cwd=cwd, stdout=subprocess.PIPE, env=cli_env("0"))
    return result.returncode, result.stdout


@pytest.mark.parametrize("code", range(6))
def test_a_closed_stderr_keeps_each_documented_exit(workdir, code):
    """Every diagnostic goes through one writer, which drops the line when
    stderr cannot take it, so the exit code stays the command's."""
    argv = _exit_argv(workdir, code)
    assert with_closed_stderr(argv, workdir) == in_process(argv)[:2]


def test_a_closed_stderr_drops_the_diff_minimize_and_warning_lines(workdir):
    vocab = (workdir / "mixed-vocab.ttl").read_text(encoding="utf-8")
    (workdir / "odd-vocab.ttl").write_text(vocab.replace("rdfs:range", "rdfs:rarange"),
                                           encoding="utf-8")
    argv = ["diff-minimize", "--prev-min", "mixed.ttl", "--full", "mixed.ttl",
            "--dlogic", "odd-vocab.ttl"]
    code, out, err = in_child(argv, workdir)
    assert code == 0 and err.startswith(b"graphnorm: warning: ")
    assert err.endswith(b"\nfallback: false\n")
    assert with_closed_stderr(argv, workdir) == (0, out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_fails_as_before(workdir):
    """An output larger than the stream's buffer fails inside main, with
    one line. A smaller one fails only in the final flush, which the
    interpreter's own exit then reports, as for any Python program."""
    with open("/dev/full", "wb") as full:
        large = in_child(["closure", *write_class_chain(workdir)], workdir, stdout=full)
        small = in_child(["closure", "--data", "links.ttl"], workdir, stdout=full)
        plain = subprocess.run(
            [sys.executable, "-c", "import sys; sys.stdout.write('x\\n')"],
            stdout=full, stderr=subprocess.PIPE, env=cli_env("0"))
    assert large == (1, b"", b"graphnorm: [Errno 28] No space left on device\n")
    assert small == (plain.returncode, b"", plain.stderr)
    assert plain.returncode == 120 and b"No space left on device" in plain.stderr
