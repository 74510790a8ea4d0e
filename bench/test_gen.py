"""Tests of the benchmark's input generator, trace checks and verdicts.

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import compare
import run

sys.path.insert(0, str(run.SRC))
from graphnorm import parse_turtle  # noqa: E402


def files(workload: str, seed: int) -> dict[str, str]:
    return {name: run.gen.turtle(triples)
            for name, triples in run.plan(workload, seed).files.items()}


def test_same_seed_gives_the_same_bytes_under_any_hash_seed():
    script = ("import hashlib, run\n"
              "for w in run.WORKLOADS:\n"
              "    for name, triples in sorted(run.plan(w, 7).files.items()):\n"
              "        text = run.gen.turtle(triples)\n"
              "        print(w, name, hashlib.sha256(text.encode()).hexdigest())\n")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        outputs.append(subprocess.run([sys.executable, "-c", script], cwd=run.BENCH, env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    here = "".join(
        f"{w} {name} {hashlib.sha256(text.encode()).hexdigest()}\n"
        for w in run.WORKLOADS for name, text in sorted(files(w, 7).items()))
    assert here == outputs[0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_another_seed_gives_other_bytes(workload):
    assert files(workload, 1)["data.ttl"] != files(workload, 2)["data.ttl"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_parse_turtle_accepts_every_generated_file(workload):
    p = run.plan(workload, 3)
    for name, triples in p.files.items():
        graph = parse_turtle(run.gen.turtle(triples), source=name)
        assert len(graph) == len(triples), name


def test_workload_sizes():
    assert len(run.plan("publish-verify", 1).inputs["data"]) == run.PV_TRIPLES
    schema = run.plan("closure-large", 1).inputs["schema"]
    assert len(schema) == 20 + run.CL_CHAIN + 1
    update = run.plan("update", 1).inputs
    sizes = [1] * run.UP_SMALL_DIFFS + [run.UP_LAST_DIFF]
    assert [len(d["insert"]) for d in update["diffs"]] == sizes
    assert all(len(d["full"]) == run.UP_TRIPLES for d in update["diffs"])


def test_check_spans_accepts_nesting_and_rejects_overlap():
    nested = {"spans": [["cli.main", 0, 100, -1, {}], ["a", 10, 40, 0, {}],
                        ["b", 20, 30, 1, {}], ["c", 50, 90, 0, {}]]}
    assert run.check_spans(nested) == []
    overlapping = {"spans": [["cli.main", 0, 100, -1, {}], ["a", 10, 60, 0, {}],
                             ["c", 50, 90, 0, {}]]}
    assert run.check_spans(overlapping) == ["spans 1 and 2 overlap"]
    escaping = {"spans": [["cli.main", 0, 100, -1, {}], ["a", 10, 110, 0, {}]]}
    assert run.check_spans(escaping) == ["span 1 is not inside its parent"]


def test_gated_times_are_in_reference_seconds():
    result = run.Result(wall_s=2.0, cpu_s=1.5, maxrss_kb=2048, code=0, digest="",
                        stdout="", stderr="", scale=0.5)
    timed = run.Run("closure-large", 2, False, {}, ["closure"], setup_s=[0.4],
                    setup_ref_s=[0.2], passes=[[result]], attempted=1)
    metrics = run.end_to_end(timed)
    assert metrics["job_s"] == metrics["first_cmd_s"] == metrics["closure_s"] == (1.0, 1)
    assert metrics["cpu_s"] == (0.75, 1)
    assert metrics["setup_s"] == (0.2, 1)
    assert metrics["job_raw_s"] == (2.0, 1)
    assert metrics["setup_raw_s"] == (0.4, 1)
    assert metrics["peak_rss_mb"] == (2.0, 1)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1)[0] == "no worse"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1)[0] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
