"""The benchmark's workloads at smoke size: verify5 and poset6 at v = 4
with small samples, and cli5's command lines, run the way perfbench/run.py
runs them and checked by the benchmark's own checks. Guards the
benchmark's calls into the library (verify_reciprocity, main_term,
chromatic_via_transfer) and its argvs against the CLI parser."""

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
result = run.run_workload(sys.argv[1], seed=1, seconds=0, trace=False, smoke=True)
print(json.dumps({key: result[key] for key in ("correct", "failed", "attempted", "errors")}))
"""


@pytest.mark.parametrize("name", ["verify5", "poset6", "cli5"])
def test_benchmark_session_smoke(name):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, name],
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
