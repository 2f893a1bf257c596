"""Benchmark of the groupcolor library and CLI.

Usage: python3 perfbench/run.py --workload {verify5,cli5,poset6}
           [--seed N] [--seconds S] [--trace 0|1]

Runs one seeded workload against the library in ``src/`` of the checkout,
checks every result outside the timed intervals, and prints as its last
stdout line one JSON object with the keys correct, attempted, failed and
metrics.

- ``--trace 0``: the end-to-end metrics. Job lists run in fresh processes,
  one after another, at least MIN_LISTS times and then while the next is
  expected to end within ``--seconds``. A fixed reference loop
  (reference.py) runs every EVERY_S during the untraced jobs, and between
  the CLI calls of cli5. ``wall_refs`` is the median over job lists
  of the list's job time, without the loops, divided by the mean loop time
  taken during it: the job list's cost in reference loops, which the host's
  changing speed moves far less than seconds. ``setup_s`` is the median time
  for a fresh process to be ready for its first job, over MIN_SETUPS to
  MAX_SETUPS processes; ``peak_rss_mib`` the median over job lists of the
  largest child's peak resident memory (ru_maxrss). The raw median job-list
  time ``wall_s`` and the reference-loop time are printed above the result
  line.
- ``--trace 1``: the per-layer metrics of spans.py, from one traced job list
  next to one untraced one for ``trace.overhead``.

Everything runs from this one process with no threads; each job runs in a
child process, one at a time (a closed loop with one client). Linux only:
set-up time compares time.monotonic() across processes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from reference import REFS_PREFIX, RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_LISTS = 2
# Set-up probes: at least MIN_SETUPS fresh processes per run, and more while
# the extra probes have taken under SETUP_PROBE_S, up to MAX_SETUPS.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_PROBE_S = 3.0
# Every run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result (a child crashed or ran out
    of time); distinct from a job whose result is wrong."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts the child processes of one benchmark run against a deadline."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.env = _child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _run(self, cmd: list[str]) -> dict:
        """Run one child to its end: exit code, stdout and stderr bytes, wall
        seconds from spawn to exit, and the child's own peak RSS in MiB."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        # Output goes to unlinked files, so waiting on the child needs no
        # reader; wait4 gives this child's ru_maxrss.
        with tempfile.TemporaryFile(dir=HERE) as out, tempfile.TemporaryFile(dir=HERE) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ended, _, _ = select.select([pidfd], [], [], remaining)
                finally:
                    os.close(pidfd)
                if not ended:
                    raise BenchError(f"child {cmd[1:4]} still running at the {RUN_LIMIT_S} s limit")
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            # ru_maxrss is in KiB on Linux
            return {"code": proc.returncode, "stdout": out.read(), "stderr": err.read().decode(),
                    "seconds": seconds, "rss_mib": usage.ru_maxrss / 1024}

    def session(self, mode: str, traced: bool = False) -> dict:
        """One fresh library session (session.py); adds setup_s and rss_mib."""
        req = {"workload": self.name, "seed": self.seed, "smoke": self.smoke,
               "mode": mode, "trace": traced}
        t0 = time.monotonic()
        child = self._run([sys.executable, str(HERE / "session.py"), json.dumps(req)])
        if child["code"] != 0:
            raise BenchError(f"session exited {child['code']}:\n{child['stderr'][-3000:]}")
        sys.stderr.write(child["stderr"])
        out = json.loads(child["stdout"].splitlines()[-1])
        out["setup_s"] = out["ready_at"] - t0
        out["rss_mib"] = child["rss_mib"]
        return out

    def cli_list(self, commands: list[list[str]], traced: bool = False) -> dict:
        """The cli5 job list, one fresh CLI process per command; rss_mib is
        the largest child's, ref_s the reference loops run in the untraced
        children and between the calls."""
        jobs, clock = [], RefClock()
        launcher = [sys.executable, str(HERE / "clichild.py")]
        for argv in commands:
            clock.tick()
            if traced:
                job = self._run([*launcher, "trace", repr(time.monotonic()), *argv])
            else:
                job = self._run([*launcher, "sample", *argv])
            job["argv"], job["trace"] = argv, None
            if traced:
                job["stderr"], _, marked = job["stderr"].rpartition(spans.TRACE_PREFIX)
                if not marked:
                    raise BenchError(f"traced CLI call {argv} left no trace:\n{job['stderr'][-3000:]}")
                job["trace"] = json.loads(marked)
                job["trace"]["stdout_bytes"] = len(job["stdout"])
            else:
                # a call that died before its line fails its check on the exit code
                job["stderr"], _, marked = job["stderr"].rpartition(REFS_PREFIX)
                if marked:
                    refs = json.loads(marked)
                    job["seconds"] -= refs["handled"]
                    clock.times.extend(refs["ref_s"])
            jobs.append(job)
        clock.tick(force=True)
        return {"wall_s": sum(job["seconds"] for job in jobs), "ref_s": clock.times,
                "rss_mib": max(job["rss_mib"] for job in jobs), "jobs": jobs}


def _session_outcome(cfg: dict, sessions: list[dict]) -> tuple[int, list[str]]:
    from workloads import EXPECTED

    attempted, errors = 0, []
    want = EXPECTED[cfg["v"]]
    for s in sessions:
        attempted += s["attempted"]
        errors += s["errors"]
        if (s["members"], s["pairs"]) != (want["members"], want["pairs"]):
            errors.append(f"P_{cfg['v']} has {s['members']} members and {s['pairs']} comparable "
                          f"pairs, expected {want['members']} and {want['pairs']}")
    return attempted, errors


def _cli_outcome(runs: list[dict], seed: int) -> tuple[int, list[str]]:
    from groupcolor.graphs import enumerate_poset

    from clichecks import check_cli

    posets = functools.lru_cache(maxsize=None)(enumerate_poset)
    attempted, errors = 0, []
    for run in runs:
        for job in run["jobs"]:
            attempted += 1
            problem = check_cli(job["argv"], job["code"], job["stdout"], posets, seed)
            if problem:
                last = (job["stderr"].strip().splitlines() or [""])[-1]
                errors.append(f"{' '.join(job['argv'])}: {problem} {last}".rstrip())
    return attempted, errors


def _trace_problems(cfg: dict, exports: list[dict]) -> list[str]:
    problems = [p for export in exports for p in export["problems"]]
    colorings = sum(export["counts"]["gamma.colorings"] for export in exports)
    if "colorings" in cfg and colorings != cfg["colorings"]:
        problems.append(f"gamma.colorings = {colorings}, expected {cfg['colorings']}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run: {"correct", "attempted", "failed", "metrics",
    "errors", "functions"}; metrics map a name to (value, unit)."""
    from workloads import cli_commands, config

    cfg = config(name, smoke)
    runner = Runner(name, seed, smoke)
    functions = None
    if cfg["kind"] == "cli":
        measure = functools.partial(runner.cli_list, cli_commands(seed, cfg["v"]))
    else:
        measure = functools.partial(runner.session, "run")

    if not trace:
        runs, spent, start = [], [], time.perf_counter()
        while len(runs) < MIN_LISTS or (
                time.perf_counter() - start + statistics.median(spent) <= seconds):
            began = time.perf_counter()
            runs.append(measure())
            spent.append(time.perf_counter() - began)
        setups = [run["setup_s"] for run in runs if "setup_s" in run]
        probing = time.perf_counter()
        while len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS and time.perf_counter() - probing < SETUP_PROBE_S):
            setups.append(runner.session("setup")["setup_s"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_refs": (statistics.median(run["wall_s"] / statistics.fmean(run["ref_s"])
                                            for run in runs), "refs"),
            "peak_rss_mib": (statistics.median(run["rss_mib"] for run in runs), "MiB"),
        }
        printed = {
            "wall_s": (statistics.median(run["wall_s"] for run in runs), "s"),
            "reference_loop_s": (statistics.median(t for run in runs for t in run["ref_s"]), "s"),
        }
        problems = []
    else:
        plain, traced = measure(), measure(traced=True)
        runs = [plain, traced]
        if cfg["kind"] == "cli":
            exports = [job["trace"] for job in traced["jobs"]]
        else:
            exports = [traced["trace"]]
        values = spans.layer_metrics(exports)
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        metrics = {k: (v, spans.PER_LAYER[k]) for k, v in values.items()}
        functions = spans.function_table(exports)
        problems = _trace_problems(cfg, exports)
        printed = {}

    if cfg["kind"] == "cli":
        attempted, errors = _cli_outcome(runs, seed)
    else:
        attempted, errors = _session_outcome(cfg, runs)
    return {
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
        "errors": errors + problems,
        "functions": functions,
        "printed": printed,
    }


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groupcolor" / "__init__.py").is_file():
        print(f"perfbench: no groupcolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "git_sha": _git_sha()}
    print(json.dumps({"record": record}))
    for error in result["errors"]:
        print(f"FAILED CHECK: {error}")
    if result["functions"]:
        print(f"{'function':<40} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for key, (calls, total, own) in sorted(result["functions"].items()):
            print(f"{key:<40} {calls:>7} {total:>10.4f} {own:>10.4f}")
    for metric, (value, unit) in {**result["metrics"], **result["printed"]}.items():
        print(f"{metric:<28} {value if unit == 'count' else f'{value:.6g}'} {unit}")
    print(f"{'fail_frac':<28} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
