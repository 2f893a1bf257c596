"""Smoke test of the benchmark: every workload at v = 4 with small samples,
untraced and traced, checks included. Takes a few seconds.

Usage: python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    sys.path.insert(0, str(run.SRC))
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(name, seed=1, seconds=0, trace=bool(trace), smoke=True)
            problems = list(result["errors"])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']}")
            # end_to_end omits fail_frac: failed/attempted of the result line carry it
            if set(result["metrics"]) != names[trace] - {"fail_frac"}:
                problems.append(f"metrics {sorted(set(result['metrics']) ^ names[trace])} differ "
                                "from BENCHMARK.json")
            failures += bool(problems)
            print(f"smoke {name} trace={trace}: {'ok' if not problems else problems}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
