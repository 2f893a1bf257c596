"""Launcher for one CLI call of cli5: runs ``groupcolor.cli.main`` with the
given arguments and appends one line for the benchmark to stderr.

Usage: python3 clichild.py sample <cli arguments...>
       python3 clichild.py trace <time.monotonic() at spawn> <cli arguments...>

- ``sample`` runs the reference loop of reference.py every EVERY_S during the
  call and writes ``PERFBENCH_REFS {"ref_s": [...], "handled": ...}``; the
  benchmark takes ``handled`` out of the call's time.
- ``trace`` installs the span wrappers and writes ``PERFBENCH_TRACE {...}``
  with the exported spans and the start-up time.
"""

import json
import sys
import time

import groupcolor.cli

# start-up ends once the CLI is imported, before the benchmark's own imports
READY_AT = time.monotonic()

from reference import REFS_PREFIX, RefClock  # noqa: E402


def main(argv: list[str]) -> int:
    if argv[1] == "trace":
        from spans import TRACE_PREFIX, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return groupcolor.cli.main(argv[3:])
        finally:
            sys.stdout.flush()
            tracer.uninstall()
            export = tracer.export()
            export["startup_s"] = READY_AT - float(argv[2])
            print(TRACE_PREFIX + json.dumps(export), file=sys.stderr)
    clock = RefClock()
    clock.start_sampling()
    try:
        return groupcolor.cli.main(argv[2:])
    finally:
        clock.stop_sampling()
        sys.stdout.flush()
        print(REFS_PREFIX + json.dumps({"ref_s": clock.times, "handled": clock.handled}),
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
