"""Run one nearreg CLI call with span recording around the public functions
of its seven modules, and write the spans as JSON when the call ends.

    python3 perfbench/tracer.py SPANS_FILE SPAWN_TIME -- NEARREG_ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the monotonic clock is shared by all processes), so start-up
up to the import of ``nearreg.cli`` can be measured. The program itself is
not changed: each wrapped function is rebound in every ``nearreg`` module
that holds a reference to it, because ``from .x import y`` binds the name at
import time and rebinding only the defining module would miss such callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import launch
from layers import MODULES

# Per-element helpers whose own cost is below that of a span; wrapping them
# would mostly measure the wrapper.
SKIP = {"graph.as_fraction", "graph.normalize_edge"}

# Counts read off return values: name -> function(result) -> {count: value}.
COUNTS = {
    "peeling.prop22_reduce": lambda r: {"deleted": len(r[1].steps)},
    "peeling.peel_below": lambda r: {"deleted": len(r[1].steps)},
    "regularize.find_dense_subset": lambda r: {"hits": int(r is not None)},
    "regularize.density_boost": lambda r: {"rounds": r.rounds},
    "edge_regular.min_tight_set": lambda r: {"set_size": len(r[0])},
    "oracle.exact_f": lambda r: {"explored": r.explored},
}


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, error, counts].

    A parent index of -1 marks a span opened outside any other span. All
    spans of one process belong to one CLI call, named by the spans file.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None,
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out)
            return out

        return traced


def install(recorder: Recorder) -> None:
    """Wrap the public functions of MODULES and Graph.from_edges."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"nearreg.{short}")
        for attr, fn in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIP
                    and not inspect.isgeneratorfunction(fn)):
                wrapped[fn] = recorder.wrap(name, fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nearreg" or mod_name.startswith("nearreg."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
    graph_cls = importlib.import_module("nearreg.graph").Graph
    from_edges = graph_cls.__dict__["from_edges"].__func__
    graph_cls.from_edges = staticmethod(
        recorder.wrap("graph.from_edges", from_edges))


def main() -> int:
    head, args = launch.split_argv(sys.argv[1:])
    spans_file, spawned = head[0], float(head[1])
    recorder = Recorder()
    record: dict = {}
    try:
        return launch.run(args, record, lambda: install(recorder))
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"call": os.path.basename(spans_file),
                       "startup_s": record.get("imported", spawned) - spawned,
                       "main_s": record.get("main_s"),
                       "speed_s": record.get("speed_s", []),
                       "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
