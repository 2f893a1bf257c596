"""One library session in a fresh process: the child behind verify5 and
poset6, and the start-up probe of cli5.

Usage: python3 session.py '{"workload": ..., "seed": ..., "smoke": ...,
"mode": "setup" | "run", "trace": ...}'

``trace`` installs the span wrappers and keeps the reference loop out of the
jobs, where it would land in spans.

Prints one JSON object: ``ready_at`` (time.monotonic() once the session is
ready for its first job), and in "run" mode ``wall_s`` (the job list: the
sum of its jobs' times), ``ref_s`` (the reference loops run during the jobs),
the check outcome and, when traced, the exported spans. Checks run after the
timed interval.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

from groupcolor import gamma, graphs, groups

from clichecks import proper_colorings
from reference import RefClock
from workloads import VERIFY_BASE_SETS, VERIFY_GROUPS, cli_commands, config, poset_samples, verify_set


class JobTimer:
    """Runs and times the jobs of one job list, in order. Reference loops
    that ran during a job are taken out of its time."""

    def __init__(self, clock: RefClock):
        self.clock = clock
        self.seconds: list[float] = []

    def __call__(self, job, *args):
        """Run one job; an exception is its result and fails its check."""
        handled, start = self.clock.handled, time.perf_counter()
        try:
            return job(*args)
        except Exception as exc:  # a job boundary: record and keep going
            return exc
        finally:
            self.seconds.append(time.perf_counter() - start - (self.clock.handled - handled))


# ---------------------------------------------------------------------------
# verify5: verify_reciprocity once per group-law mode


def setup_verify(cfg, rng, poset):
    sets = []
    for orders, base in zip(VERIFY_GROUPS, VERIFY_BASE_SETS):
        group = groups.make_group(orders)
        sets.append(groups.allowed_explicit(group, verify_set(rng, group, base)))
    spots = [rng.sample(range(len(poset)), cfg["spot_checks"]) for _ in sets]
    return {"sets": sets, "spots": spots}


def jobs_verify(poset, inputs, timed):
    return {"verify": [timed(gamma.verify_reciprocity, poset, allowed) for allowed in inputs["sets"]]}


def check_verify(poset, inputs, results):
    errors = []
    for allowed, spots, report in zip(inputs["sets"], inputs["spots"], results["verify"]):
        name = f"verify {allowed.group} {allowed.indices()}"
        if isinstance(report, Exception):
            errors.append(f"{name}: {report!r}")
            continue
        if not report.ok:
            errors.append(f"{name}: reciprocity fails at {report.failing_indices()[:5]}")
            continue
        for i in spots:
            member = poset.members[i]
            if (report.gamma.values[i] != gamma.gamma_bruteforce(member, allowed)
                    or report.gamma_complement.values[i]
                    != gamma.gamma_bruteforce(member, allowed.complement())):
                errors.append(f"{name}: gamma at member {i} differs from gamma_bruteforce")
                break
    return errors


# ---------------------------------------------------------------------------
# poset6: graph structure, local Mobius and per-member gammas at v = 6


def setup_poset(cfg, rng, poset):
    inputs = poset_samples(rng, poset, cfg)
    inputs["allowed"] = groups.allowed_interval(groups.make_group([5]), 1)
    return inputs


def _iso_job(v, bits):
    return graphs.class_label(v, bits), graphs.canonical_bits(v, bits)


def _local_job(member, alpha_bar):
    return gamma.main_term(member, alpha_bar), gamma.chromatic_via_transfer(member)


def jobs_poset(poset, inputs, timed):
    members = poset.members
    iso = [timed(_iso_job, poset.v, members[i].bits) for i in inputs["iso"]]
    local = [timed(_local_job, members[i], inputs["alpha_bar"]) for i in inputs["local"]]
    allowed = inputs["allowed"]
    cycle = [timed(gamma.gamma_cyclespace, members[i], allowed) for i in inputs["cycle"]]
    return {"iso": iso, "local": local, "cycle": cycle}


def _degrees(v, bits, pairs):
    degs = [0] * v
    for n, (a, b) in enumerate(pairs):
        if (bits >> n) & 1:
            degs[a] += 1
            degs[b] += 1
    return sorted(degs)


def check_poset(poset, inputs, results):
    errors = []
    members = poset.members
    pairs = graphs.vertex_pairs(poset.v)
    for i, got in zip(inputs["iso"], results["iso"]):
        bits = members[i].bits
        if isinstance(got, Exception):
            errors.append(f"iso member {i}: {got!r}")
        elif not (got[1] <= bits and _degrees(poset.v, got[1], pairs) == _degrees(poset.v, bits, pairs)
                  and isinstance(got[0], str) and got[0]):
            errors.append(f"iso member {i}: canonical form {got[1]} is not a relabeling of {bits}")
    alpha_bar = inputs["alpha_bar"]
    for i, got in zip(inputs["local"], results["local"]):
        member = members[i]
        if isinstance(got, Exception):
            errors.append(f"local member {i}: {got!r}")
            continue
        main, chromatic = got
        e = member.edge_count
        # a single e-cycle: only the empty set and itself lie below it
        one_cycle = (all(d in (0, 2) for d in _degrees(poset.v, member.bits, pairs))
                     and graphs.components(member) == poset.v - e + 1)
        if chromatic != graphs.chromatic_oracle(member):
            errors.append(f"local member {i}: chromatic_via_transfer differs from chromatic_oracle")
        elif chromatic(3) != proper_colorings(member.v, member.edges(), 3):
            errors.append(f"local member {i}: chromatic polynomial miscounts 3-colorings")
        elif not isinstance(main, Fraction):
            errors.append(f"local member {i}: main term {main!r} is not an exact rational")
        elif one_cycle and main != (1 - alpha_bar) ** e - (-alpha_bar) ** e:
            errors.append(f"local member {i}: main term of a {e}-cycle is wrong")
    oracle = set(inputs["cycle_oracle"])
    allowed = inputs["allowed"]
    f = allowed.group.order
    for i, got in zip(inputs["cycle"], results["cycle"]):
        member = members[i]
        if isinstance(got, Exception):
            errors.append(f"cycle member {i}: {got!r}")
        elif (got * f ** (member.v - graphs.components(member))).denominator != 1 or not 0 <= got <= 1:
            errors.append(f"cycle member {i}: {got} is not a coloring fraction")
        elif i in oracle and got != gamma.gamma_bruteforce(member, allowed):
            errors.append(f"cycle member {i}: gamma_cyclespace differs from gamma_bruteforce")
    return errors


WORKLOAD_FNS = {
    "verify5": (setup_verify, jobs_verify, check_verify),
    "poset6": (setup_poset, jobs_poset, check_poset),
}


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    name, seed = req["workload"], req["seed"]
    cfg = config(name, req["smoke"])
    tracer = None
    if req.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if cfg["kind"] == "cli":
        import groupcolor.cli  # noqa: F401  (what a CLI process imports)

        cli_commands(seed, cfg["v"])
        print(json.dumps({"ready_at": time.monotonic()}))
        return 0
    setup, jobs, check = WORKLOAD_FNS[name]
    rng = random.Random(seed)
    poset = graphs.enumerate_poset(cfg["v"])
    poset.down_sets
    inputs = setup(cfg, rng, poset)
    ready_at = time.monotonic()
    if req["mode"] == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return 0
    clock = RefClock()
    timed = JobTimer(clock)
    # The loops stay out of traced runs, where they would land in spans.
    if not req["trace"]:
        clock.start_sampling()
    try:
        results = jobs(poset, inputs, timed)
    finally:
        clock.stop_sampling()
    if not clock.times:  # a list shorter than EVERY_S, or a traced run
        clock.tick()
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.export()
    errors = check(poset, inputs, results)
    attempted = sum(len(r) for r in results.values())
    print(json.dumps({
        "ready_at": ready_at,
        "wall_s": sum(timed.seconds),
        "ref_s": clock.times,
        "attempted": attempted,
        "errors": errors,
        "members": len(poset),
        "pairs": sum(len(down) for down in poset.down_sets),
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
