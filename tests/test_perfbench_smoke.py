"""The benchmark's workloads at smoke size: verify5 and poset6 at v = 4
with small samples, and cli5's command lines, run the way perfbench/run.py
runs them and checked by the benchmark's own checks. Guards the
benchmark's calls into the library (verify_reciprocity, main_term,
chromatic_via_transfer) and its argvs against the CLI parser. The traced
runs also check the exact work counts the benchmark recomputes from the
recorded calls, such as verify5's colorings."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import json, sys
import run
sys.path.insert(0, str(run.SRC))
result = run.run_workload(sys.argv[1], seed=1, seconds=0, trace=sys.argv[2] == "1", smoke=True)
keys = ("correct", "failed", "attempted", "errors", "metrics")
print(json.dumps({key: result[key] for key in keys}))
"""


def _smoke(name: str, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, name, str(int(trace))],
        cwd=PERFBENCH,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("name", ["verify5", "poset6", "cli5"])
def test_benchmark_session_smoke(name):
    _smoke(name, trace=False)


@pytest.mark.parametrize("name", ["verify5", "poset6", "cli5"])
def test_benchmark_traced_smoke(name):
    # a traced run reports an error for every recomputed work count that
    # disagrees with the benchmark's expected one, so the checks above
    # cover them; the per-layer metrics are those BENCHMARK.json declares
    metrics = _smoke(name, trace=True)["metrics"]
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {metric["name"] for metric in spec["per_layer"]}
    if name == "verify5":
        # 2 x (sum over P_4 of 7^(4-c) + 2 x sum of 8^(4-c))
        assert metrics["gamma.colorings"][0] == 28_762
