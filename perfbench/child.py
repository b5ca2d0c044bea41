"""Run one rts-secrecy command in this (fresh) process and record timing.

Usage: child.py SPAWN_TIME STATS_PATH TRACE -- CLI_ARGS...

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so `setup_s` covers interpreter start-up and the
import of `rts_secrecy.cli`.  With TRACE = 1 the layer entry points are
wrapped (see tracing.py) before the command runs.  The command's exit code
becomes this process's exit code; timings go to STATS_PATH as JSON.
"""
from __future__ import annotations

import json
import platform
import sys
import time


def main(argv: list[str]) -> int:
    spawn, stats_path, trace = float(argv[0]), argv[1], argv[2] == "1"
    if argv[3] != "--":
        raise SystemExit("usage: child.py SPAWN_TIME STATS_PATH TRACE -- CLI_ARGS...")
    cli_args = argv[4:]

    from rts_secrecy import cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    stats = {
        "setup_s": ready - spawn,
        "ready": ready,
        "exit": code,
        "main_s": main_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is not None:
        stats["layers"] = tracer.summary(main_s)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
