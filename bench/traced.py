"""Run one graphnorm CLI command with timing wrappers on its layers.

    python traced.py SPANS.json -- COMMAND [ARG ...]

The process times ``import graphnorm.cli``, then replaces each function
in ``LAYERS`` by a wrapper in every graphnorm module namespace that holds
it, so calls between modules nest as child spans without any change to
the package. It then runs ``graphnorm.cli.main`` on the arguments and
writes the spans as JSON: ``{"import_ns": int, "spans": [[name, start_ns,
end_ns, parent_index, counts], ...]}``, in call order, with parent index
-1 for the root. Counts come from arguments and return values only.
"""

from __future__ import annotations

import json
import sys
import time


# "module.function" -> (count names, counts taken from (args, result))
LAYERS = {
    "engine.reduce": (("candidates", "dropped"),
                      lambda a, r: (len(a[0]), len(a[0]) - len(r))),
    "engine.closure": (("input_triples", "derived", "rounds"),
                       lambda a, r: (len(a[0]), r.derived_count, r.rounds)),
    "engine.incremental_reduce": (("fallbacks",), lambda a, r: (int(r.used_fallback),)),
    "turtle.parse_turtle": (("triples", "bytes_in"), lambda a, r: (len(r), len(a[0]))),
    "turtle.serialize_turtle": (("triples", "bytes_out"), lambda a, r: (len(a[0]), len(r))),
    "rules.compile_schema": (("rules_out",), lambda a, r: (len(r),)),
    "provenance.load_dlogic": ((), None),
    "stats.counted_closure": ((), None),
    "stats.compute_stats": ((), None),
    "provenance.emit_description": ((), None),
    "provenance.read_description": ((), None),
    "provenance.recompute": ((), None),
    "provenance.compare_description": ((), None),
    "cli.main": ((), None),
}


class Recorder:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, func, names, counts):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter_ns(), 0, parent, {}]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if counts is not None:
                span[4] = dict(zip(names, counts(args, result)))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "graphnorm" or n.startswith("graphnorm."))]
        for name, (names, counts) in LAYERS.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules.get("graphnorm." + module_name), func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, names, counts)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out_path, command = argv[0], argv[2:]
    start = time.perf_counter_ns()
    import graphnorm.cli
    import_ns = time.perf_counter_ns() - start
    recorder = Recorder()
    recorder.install()
    try:
        return graphnorm.cli.main(command)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_ns": import_ns, "spans": recorder.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
