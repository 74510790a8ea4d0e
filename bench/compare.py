"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out`` appends. For every
workload and end-to-end metric the table gives each side's median and
quartiles, how many runs of the change beat the base run at the same
position in its file (run the two sides alternately so that pairs share
the machine's conditions), and a verdict:

* ``improved``: the change won at least 9 of 10 pairs and the medians
  differ by more than the base's interquartile range;
* ``unresolved``: the base's interquartile range exceeds the metric's
  bound, and not every change run beats every base run;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``no worse``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import REPORTED


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in file order, from untraced runs."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, metric in run["reported"].items():
                values[run["workload"]][name].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """The verdict, pairs the change won, and pairs compared."""
    gain = (lambda b, c: b - c) if better == "lower" else (lambda b, c: c - b)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if gain(b, c) > 0)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and gain(mb, mc) > q3 - q1:
        return "improved", wins, len(pairs)
    if mb == 0:
        return ("worse" if gain(mb, mc) < 0 else "no worse"), wins, len(pairs)
    every_run_better = all(gain(b, c) > 0 for b in base for c in change)
    if (q3 - q1) / abs(mb) > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if -gain(mb, mc) > bound * abs(mb):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':15} {'metric':16} {'unit':6} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    for workload in sorted(set(base) & set(change)):
        for name, (unit, better, bound) in REPORTED.items():
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                continue
            result, wins, pairs = verdict(b, c, better, bound)
            cells = []
            for values in (b, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:15} {name:16} {unit:6} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:>3}/{pairs:<3}  {result} (bound {bound:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
