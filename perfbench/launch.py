"""Run one nearreg CLI call the way the `nearreg` entry point does, and record
how long `nearreg.cli.main` took: from argument parsing and the input file
read to the report on disk, without interpreter start-up and imports.

    python3 perfbench/launch.py TIMES_FILE -- NEARREG_ARGS...

TIMES_FILE receives ``{"imported": ..., "main_s": ..., "speed_s": [...]}``
when the call ends, also when it ends with an exception (which then
propagates, as it would without the launcher); ``speed_s`` holds the times
of the speed measurement (speed.py) taken just before and just after
``main``. The program itself is not changed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import speed


def run(args: list, record: dict, before_main=None) -> int:
    """Import the CLI, call ``before_main`` if given, then run ``main`` on
    ``args``; ``record`` receives the import time, main's duration and the
    speed measured next to it."""
    cli = importlib.import_module("nearreg.cli")
    record["imported"] = time.perf_counter()
    if before_main is not None:
        before_main()
    record["speed_s"] = [speed.measure()]
    start = time.perf_counter()
    try:
        return cli.main(args)
    finally:
        record["main_s"] = time.perf_counter() - start
        record["speed_s"].append(speed.measure())


def split_argv(argv: list) -> tuple:
    """Split ``HEAD... -- NEARREG_ARGS...`` into (head, nearreg args)."""
    if "--" not in argv:
        raise SystemExit("usage: OUT_FILE [SPAWN_TIME] -- NEARREG_ARGS...")
    cut = argv.index("--")
    return argv[:cut], argv[cut + 1:]


def main() -> int:
    head, args = split_argv(sys.argv[1:])
    record: dict = {}
    try:
        return run(args, record)
    finally:
        with open(head[0], "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
