"""End-to-end benchmark of the graphnorm command line.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out RESULTS.jsonl]

The program is imported from the ``src/`` directory beside ``bench/``.
Each workload is a fixed sequence of ``graphnorm`` commands run one at a
time, each in a fresh ``python -m graphnorm`` process: a closed loop with
one client. The sequence repeats, on a rotating set of input instances,
until the next repetition would end after ``--seconds``; end-to-end
metrics are medians over the repetitions, or sums of per-command medians.
Inputs come from ``gen.py`` and depend only on ``--seed``.

The host's speed swings by up to a factor of two within seconds, so the
harness times a fixed calibration process (``calibration.py``) before each
command and after the last, and gates times in reference seconds: a
command's wall (or CPU) time times ``CAL_NOMINAL_S`` over the mean of the
two calibrations around it. The raw times are printed beside them.

With ``--trace 1`` every repetition also runs the sequence through
``traced.py``, and the run reports per-layer metrics instead of end-to-end
ones: self time, calls and counts of each wrapped function, summed over
one sequence, as a median over repetitions.

Outputs are checked outside the timed region. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when a check failed, and 2,
with no result printed, when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
import traced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 1
HASH_SEED = "0"
SETUP_REPEATS = 5

# Sized so that each command takes about 0.4 to 2 s on a 2.1 GHz Xeon,
# well above the interpreter's start-up of about 0.1 s, and gets a dozen
# or more samples in a 40-s run.
PV_TRIPLES = 600
CL_TRIPLES, CL_CHAIN, CL_CARRIERS, CL_FOREST, CL_DEPTH = 8000, 400, 20, 1200, 5
UP_TRIPLES, UP_SMALL_DIFFS, UP_LAST_DIFF = 500, 4, 5

WORKLOADS = ("publish-verify", "closure-large", "update")

# Independent input instances per run; repetition r runs instance r mod K.
# The prover's time varies by up to half between same-sized graphs, and
# whether a diff falls back depends on which triple it deletes, so those
# workloads take medians over as many graphs as a run has repetitions.
# Closure work is the same across seeds (closure sizes within 0.3%), so
# closure-large uses one.
INSTANCES = {"publish-verify": 32, "closure-large": 1, "update": 12}

# The reference time of one run of calibration.py. It fixes the scale of
# reference seconds and is about the median time of that run on a shared
# 2.1 GHz Xeon.
CAL_NOMINAL_S = 0.13

# name -> (unit, better, bound). The first five are the gated end-to-end
# metrics of BENCHMARK.json, times in reference seconds; the rest are
# printed and compared only.
END_TO_END = {
    "job_s": ("s", "lower", 0.25),
    "first_cmd_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
}
COMMAND_METRICS = {
    "describe_s": "describe",
    "verify_s": "verify",
    "closure_s": "closure",
    "minimize_s": "minimize",
    "diff_minimize_s": "diff-minimize",
}
RAW_METRICS = ("job_raw_s", "first_cmd_raw_s", "cpu_raw_s", "setup_raw_s")
REPORTED = {
    **END_TO_END,
    **{name: ("s", "lower", 0.25) for name in COMMAND_METRICS},
    **{name: ("s", "lower", 0.25) for name in RAW_METRICS},
    "error_rate": ("ratio", "lower", 0.0),
}

PER_LAYER = {"process.import_s": "s", "trace.overhead_s": "s"}
for _layer, (_counts, _) in traced.LAYERS.items():
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER.update((f"{_layer}.{_c}", "count") for _c in _counts)
PER_LAYER["engine.incremental_reduce.fallback_share"] = "ratio"


@dataclass
class Command:
    kind: str
    args: list[str]
    output: str | None  # file the command writes; None means stdout


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    digest: str
    stdout: str
    stderr: str
    spans: dict | None = None
    scale: float = 1.0  # CAL_NOMINAL_S over the calibrations around the command

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


@dataclass
class Plan:
    inputs: dict
    files: dict[str, list]
    commands: list[Command]
    golden: int  # index of the command whose output is pinned for the default seed
    check: object  # (plan, workdir, results) -> one list of failure reasons per command


def plan(workload: str, seed: int, instance: int = 0) -> Plan:
    """Input instance ``instance`` of the run with seed ``seed``."""
    instance_seed = f"{seed}/{instance}"
    data = ["--data", "data.ttl", "--dlogic", "schema.ttl"]
    if workload == "publish-verify":
        inputs = gen.publish_verify(instance_seed, PV_TRIPLES)
        commands = [
            Command("describe", ["describe", *data, "--namespace", gen.DATA,
                                 "--output", "desc.ttl"], "desc.ttl"),
            Command("verify", ["verify", "desc.ttl"], None),
        ]
        check = _check_publish_verify
    elif workload == "closure-large":
        inputs = gen.closure_large(instance_seed, CL_TRIPLES, CL_CHAIN, CL_CARRIERS,
                                   CL_FOREST, CL_DEPTH)
        commands = [Command("closure", ["closure", *data, "--output", "closure.ttl"],
                            "closure.ttl")]
        check = _check_closure_large
    elif workload == "update":
        inputs = gen.update(instance_seed, UP_TRIPLES, UP_SMALL_DIFFS, UP_LAST_DIFF)
        commands = [Command("minimize", ["minimize", *data, "--output", "min0.ttl"], "min0.ttl")]
        for k in range(1, len(inputs["diffs"]) + 1):
            commands.append(Command("diff-minimize", [
                "diff-minimize", "--prev-min", f"min{k - 1}.ttl", "--full", f"full{k}.ttl",
                "--insert", f"ins{k}.ttl", "--delete", f"del{k}.ttl",
                "--dlogic", "schema.ttl", "--output", f"min{k}.ttl"], f"min{k}.ttl"))
        check = _check_update
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = {"data.ttl": inputs["data"], "schema.ttl": inputs["schema"]}
    for k, diff in enumerate(inputs.get("diffs", ()), 1):
        files.update({f"full{k}.ttl": diff["full"], f"ins{k}.ttl": diff["insert"],
                      f"del{k}.ttl": diff["delete"]})
    golden = len(commands) - 1 if workload == "update" else 0
    return Plan(inputs, files, commands, golden, check)


# ---------------------------------------------------------------- checks

_STAT = re.compile(r"scovo:dimension gn:(\w+) ;\s*rdf:value ([0-9.]+)")


def _read(workdir: Path, name: str) -> str:
    return (workdir / name).read_text(encoding="utf-8")


def _counted_closure(p: Plan) -> set:
    return oracle.closure(p.inputs["data"], p.inputs["schema"]) - set(p.inputs["schema"])


def _check_publish_verify(p: Plan, workdir: Path, results: list[Result]) -> list[list[str]]:
    describe, verify = [], []
    stats = dict(_STAT.findall(_read(workdir, "desc.ttl")))
    if stats.get("publishedTriples") != str(len(p.inputs["data"])):
        describe.append(f"publishedTriples is {stats.get('publishedTriples')}")
    expected = len(_counted_closure(p))
    if stats.get("closureTriples") != str(expected):
        describe.append(f"closureTriples is {stats.get('closureTriples')}, not {expected}")
    if results[1].stdout != "ok: 6 statistics verified\n":
        verify.append(f"verify printed {results[1].stdout!r}")
    return [describe, verify]


def _check_closure_large(p: Plan, workdir: Path, results: list[Result]) -> list[list[str]]:
    got = oracle.parse_ntriples(_read(workdir, "closure.ttl"))
    reasons = []
    if not set(p.inputs["data"]) <= got:
        reasons.append("closure output lacks published triples")
    expected = _counted_closure(p)
    if got != expected:
        reasons.append(f"closure output differs from the oracle: "
                       f"{len(got - expected)} extra, {len(expected - got)} missing")
    return [reasons]


def _check_update(p: Plan, workdir: Path, results: list[Result]) -> list[list[str]]:
    schema = p.inputs["schema"]
    fulls = [p.inputs["data"]] + [d["full"] for d in p.inputs["diffs"]]
    out = []
    for command, full, result in zip(p.commands, fulls, results):
        reasons = []
        minimal = oracle.parse_ntriples(_read(workdir, command.output))
        if not minimal <= set(full):
            reasons.append("result is not a subset of its input")
        if oracle.closure(minimal, schema) != oracle.closure(full, schema):
            reasons.append("closure of result and schema differs from the input's")
        if command.kind == "diff-minimize" and not re.search(
                r"^fallback: (true|false)$", result.stderr, re.M):
            reasons.append("no fallback line")
        out.append(reasons)
    return out


def check_spans(trace: dict) -> list[str]:
    """Spans nest, siblings do not overlap, and self times sum to the root."""
    spans = trace["spans"]
    if not spans or spans[0][3] != -1 or any(s[3] == -1 for s in spans[1:]):
        return ["trace does not have exactly one root span"]
    children: dict[int, list[int]] = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if end < start:
            return [f"span {i} ends before it starts"]
        if i:
            if not parent < i or start < spans[parent][1] or end > spans[parent][2]:
                return [f"span {i} is not inside its parent"]
            children.setdefault(parent, []).append(i)
    total_self = 0
    for i, (_, start, end, _, _) in enumerate(spans):
        kids = children.get(i, [])
        for a, b in zip(kids, kids[1:]):
            if spans[b][1] < spans[a][2]:
                return [f"spans {a} and {b} overlap"]
        total_self += end - start - sum(spans[k][2] - spans[k][1] for k in kids)
    if total_self != spans[0][2] - spans[0][1]:
        return ["self times do not sum to the root span's duration"]
    return []


# ---------------------------------------------------------------- running

def calibrate() -> float:
    """Wall time of one run of the calibration process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibration.py")], env=child_env(),
                   check=True)
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    """A pinned environment: the package from this checkout, a fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONIOENCODING": "utf-8",
    }


def run_command(argv: list[str], workdir: Path, stem: str, output: str | None) -> Result:
    out_path, err_path = workdir / f"{stem}.out", workdir / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    written = workdir / output if output else out_path
    digest = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else ""
    return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                  digest, stdout, err_path.read_text(encoding="utf-8", errors="replace"))


def run_pass(p: Plan, workdir: Path, traced: bool) -> tuple[list[Result], float]:
    """Run the command sequence once, with a calibration before each command
    and after the last; returns the results and the commands' summed wall
    time."""
    results = []
    calibrations = [calibrate()]
    for i, command in enumerate(p.commands):
        stem = f"{i}.{command.kind}"
        spans_path = workdir / f"{stem}.spans.json"
        if command.output:
            (workdir / command.output).unlink(missing_ok=True)
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "traced.py"), spans_path.name, "--",
                    *command.args]
        else:
            argv = [sys.executable, "-m", "graphnorm", *command.args]
        result = run_command(argv, workdir, stem, command.output)
        calibrations.append(calibrate())
        result.scale = 2 * CAL_NOMINAL_S / (calibrations[-2] + calibrations[-1])
        if traced and spans_path.exists():
            result.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        results.append(result)
    return results, sum(r.wall_s for r in results)


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[Plan], float]:
    """Generate and write every input instance, each in its own directory,
    then import the package once, untimed by any command, so that bytecode
    and the file cache are warm. Returns the plans and the wall time."""
    start = time.perf_counter()
    plans = []
    for k in range(INSTANCES[workload]):
        p = plan(workload, seed, k)
        (workdir / str(k)).mkdir(parents=True)
        for name, triples in p.files.items():
            (workdir / str(k) / name).write_text(gen.turtle(triples), encoding="utf-8")
        plans.append(p)
    subprocess.run([sys.executable, "-c", "import graphnorm.cli"], cwd=workdir,
                   env=child_env(), check=True)
    return plans, time.perf_counter() - start


def layer_metrics(results: list[Result], untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer totals over one traced pass of the command sequence."""
    totals = dict.fromkeys(PER_LAYER, 0)
    for r in results:
        if r.spans is None:
            continue
        spans = r.spans["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, counts), kids in zip(spans, covered):
            totals[f"{name}.self_s"] += (end - start - kids) / 1e9
            totals[f"{name}.calls"] += 1
            for key, value in counts.items():
                totals[f"{name}.{key}"] += value
        totals["process.import_s"] += r.spans["import_ns"] / 1e9
    calls = totals["engine.incremental_reduce.calls"]
    if calls:
        totals["engine.incremental_reduce.fallback_share"] = (
            totals["engine.incremental_reduce.fallbacks"] / calls)
    totals["trace.overhead_s"] = traced_wall - untraced_wall
    return totals


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    env: dict
    kinds: list[str]
    setup_s: list[float]  # wall times
    setup_ref_s: list[float]  # the same in reference seconds
    passes: list[list[Result]] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def account(self, p: Plan, instance: int, results: list[Result],
                reasons: list[list[str]], traced: bool) -> None:
        for index, (command, r, why) in enumerate(zip(p.commands, results, reasons)):
            self.attempted += 1
            if r.code != 0:
                why = [f"exit code {r.code}: {r.stderr.strip()[-300:]}"] + why
            if traced:
                why = why + (check_spans(r.spans) if r.spans else ["no trace written"])
            if (self.seed == DEFAULT_SEED and instance == 0 and index == p.golden
                    and r.digest != GOLDEN.get(self.workload)):
                why = why + ["output differs from the pinned default-seed digest"]
            if why:
                self.failed += 1
                self.failures.extend(f"{command.kind}: {x}" for x in why)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "hash_seed": HASH_SEED, "loadavg_start": _loadavg()}
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        setup_s, setup_ref_s = [], []
        calibration = calibrate()
        for k in range(SETUP_REPEATS):
            workdir = base / f"setup{k}"
            plans, elapsed = setup(workload, seed, workdir)
            after = calibrate()
            setup_s.append(elapsed)
            setup_ref_s.append(elapsed * 2 * CAL_NOMINAL_S / (calibration + after))
            calibration = after
        run = Run(workload, seed, trace, env, [c.kind for c in plans[0].commands],
                  setup_s, setup_ref_s)
        references: dict[int, list[Result]] = {}
        start = time.perf_counter()
        for repetition in itertools.count():
            instance = repetition % len(plans)
            p, where = plans[instance], workdir / str(instance)
            began = time.perf_counter()
            results, wall = run_pass(p, where, traced=False)
            passes = [(results, wall)]
            if trace:
                passes.append(run_pass(p, where, traced=True))
            took = time.perf_counter() - began
            # Checks run outside the timed commands.
            for traced, (pass_results, _) in zip((False, True), passes):
                reference = references.get(instance)
                if reference is None:
                    references[instance] = pass_results
                    try:
                        reasons = p.check(p, where, pass_results)
                    except (OSError, ValueError) as exc:
                        reasons = [[f"output check failed: {exc}"]] * len(p.commands)
                else:
                    reasons = [[] if r.digest == ref.digest
                               else ["output differs from the first pass"]
                               for r, ref in zip(pass_results, reference)]
                run.account(p, instance, pass_results, reasons, traced)
            run.passes.append(results)
            if trace:
                run.layers.append(layer_metrics(passes[1][0], wall, passes[1][1]))
            if time.perf_counter() - start + took > seconds:
                break
        env["loadavg_end"] = _loadavg()
        return run
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def end_to_end(run: Run) -> dict[str, tuple[float, int]]:
    """Every reported metric that applies to the run, as (value, samples).

    Times are in reference seconds, except the ``*_raw_s`` ones, which are
    the same metrics in plain seconds. ``job_s`` and ``cpu_s`` add up, over
    the sequence, each command's median over repetitions. A diff that falls
    back on some input instances and not on others then counts at its
    typical cost, where the median of whole sequences would swing with the
    share of fallbacks among the instances a run reaches."""
    passes = run.passes
    by_command = list(zip(*passes))
    n = len(passes)

    def sum_of_medians(value) -> float:
        return sum(statistics.median(map(value, rs)) for rs in by_command)

    metrics = {
        "job_s": (sum_of_medians(lambda r: r.ref_wall_s), n),
        "first_cmd_s": (statistics.median(r.ref_wall_s for r in by_command[0]), n),
        "cpu_s": (sum_of_medians(lambda r: r.ref_cpu_s), n),
        "peak_rss_mb": (statistics.median(max(r.maxrss_kb for r in results) / 1024
                                          for results in passes), n),
        "setup_s": (statistics.median(run.setup_ref_s), len(run.setup_ref_s)),
    }
    for name, kind in COMMAND_METRICS.items():
        values = [r.ref_wall_s for results in passes
                  for r, k in zip(results, run.kinds) if k == kind]
        if values:
            metrics[name] = (statistics.median(values), len(values))
    metrics.update({
        "job_raw_s": (sum_of_medians(lambda r: r.wall_s), n),
        "first_cmd_raw_s": (statistics.median(r.wall_s for r in by_command[0]), n),
        "cpu_raw_s": (sum_of_medians(lambda r: r.cpu_s), n),
        "setup_raw_s": (statistics.median(run.setup_s), len(run.setup_s)),
    })
    metrics["error_rate"] = (run.failed / run.attempted, run.attempted)
    return metrics


def per_layer(run: Run) -> dict[str, float]:
    return {name: statistics.median(layers[name] for layers in run.layers)
            for name in PER_LAYER}


def report(run: Run) -> dict:
    """Print the run's table and return its metrics in the result-line form."""
    env = run.env
    print(f"# {run.workload} seed={run.seed} python={env['python']} nproc={env['nproc']} "
          f"PYTHONHASHSEED={env['hash_seed']}")
    print(f"# loadavg start: {env['loadavg_start']}  end: {env['loadavg_end']}")
    if run.trace:
        values = per_layer(run)
        for name, unit in PER_LAYER.items():
            print(f"{run.workload:15} {name:40} {values[name]:12.6g} {unit:6} "
                  f"(median of {len(run.layers)} traced passes)")
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    metrics = end_to_end(run)
    for name, (value, samples) in metrics.items():
        basis = (f"of {samples} commands" if name == "error_rate"
                 else f"sum of command medians, {samples} repetitions"
                 if name.startswith(("job_", "cpu_")) else f"median of {samples}")
        print(f"{run.workload:15} {name:16} {value:12.6g} {REPORTED[name][0]:6} ({basis})")
    return {name: {"value": metrics[name][0], "unit": unit}
            for name, (unit, _, _) in END_TO_END.items()}


def record(run: Run, metrics: dict, seconds: float) -> dict:
    """The full record of a run, as ``--out`` appends it."""
    out = {"workload": run.workload, "seed": run.seed, "seconds": seconds,
           "trace": int(run.trace), "env": run.env, "correct": not run.failed,
           "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
           "command_walls": [[r.wall_s for r in results] for results in run.passes],
           "command_scales": [[r.scale for r in results] for results in run.passes],
           "digests": [r.digest for r in run.passes[0]],
           "metrics": metrics}
    if not run.trace:
        out["reported"] = {name: {"value": v, "samples": n, "unit": REPORTED[name][0]}
                           for name, (v, n) in end_to_end(run).items()}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append each run's full record here")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt, so that the running child is
    # killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "graphnorm" / "cli.py").is_file():
        print(f"bench: no program to run: {SRC / 'graphnorm'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        values = report(run)
        for failure in run.failures:
            print(f"{name}: FAILED {failure}", file=sys.stderr)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record(run, values, args.seconds)) + "\n")
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
