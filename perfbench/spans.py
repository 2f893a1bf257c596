"""Span tracing of the groupcolor layers, installed from outside the package.

``Tracer.install`` replaces the module-level public functions of the five
layer modules (groups, graphs, posetlin, gamma, cli), plus
``SubgraphPoset.down_sets`` and ``AllowedSet.complement``, with timing
wrappers in every namespace that holds them (``gamma.mobius_table``,
``cli.transfer_at``, ...), so calls between modules are seen. Spans stay in
memory; ``export`` turns them into plain lists at the end of the process, and
``layer_metrics`` folds the exports of one or more processes into the
per-layer metrics.

A layer's self time is its spans' durations minus the child spans inside
them. A wrapped target that no longer exists drops the metrics built on it
with a warning instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

from workloads import EXPECTED

LAYERS = ("groups", "graphs", "posetlin", "gamma", "cli")

# Marks the line of exported spans that a traced CLI child writes to stderr.
TRACE_PREFIX = "PERFBENCH_TRACE "

# Called per subset or per coloring from inner loops; a wrapper there would
# cost more than the work it times. The group law (add, sub, neg) is a
# method and is never wrapped.
HOT = {"graphs.vertex_pairs", "graphs.is_isthmus_free", "graphs.components"}

METHODS = ("graphs.SubgraphPoset.down_sets", "groups.AllowedSet.complement")

GAMMA_MODES = ("cyclic", "xor", "mixed")
CLI_COMMANDS = ("matrix", "chromatic", "poset", "examples", "verify")

# Self-time metrics: metric -> the functions whose self time it sums.
SELF_TIME = {
    "graphs.enumerate_s": ("graphs.enumerate_poset",),
    "graphs.down_sets_s": ("graphs.SubgraphPoset.down_sets",),
    "graphs.iso_class_s": ("graphs.canonical_bits", "graphs.class_label", "graphs.iso_class_blocks"),
    "graphs.chromatic_oracle_s": ("graphs.chromatic_oracle",),
    "posetlin.mobius_s": ("posetlin.mobius_table", "posetlin.mobius_matrix"),
    "posetlin.transfer_s": (
        "posetlin.transfer_at",
        "posetlin.transfer_matrix",
        "posetlin.weighted_zeta_matrix",
        "posetlin.weighted_zeta_inverse",
        "posetlin.weighted_zeta_at",
        "posetlin.weighted_zeta_inverse_at",
    ),
    "gamma.vector_s": ("gamma.gamma_vector",),
    "gamma.invert_s": ("gamma.gamma_plus",),
    "gamma.local_mobius_s": ("gamma.main_term", "gamma.chromatic_via_transfer"),
    "gamma.member_s": ("gamma.gamma_cyclespace",),
    "groups.build_s": (
        "groups.make_group",
        "groups.allowed_explicit",
        "groups.allowed_interval",
        "groups.allowed_hamming",
        "groups.allowed_complement_identity",
        "groups.AllowedSet.complement",
    ),
}
METRIC_OF = {fn: metric for metric, fns in SELF_TIME.items() for fn in fns}

# Functions that enumerate colorings, for gamma.colorings and its rate.
ENUMERATORS = ("gamma.gamma_vector", "gamma.gamma_cyclespace", "gamma.gamma_bruteforce")

# Every other metric -> the functions it is measured from.
DERIVED = {
    **{f"gamma.vector_s.{mode}": ("gamma.gamma_vector",) for mode in GAMMA_MODES},
    "gamma.colorings": ENUMERATORS,
    "gamma.colorings_per_s": ENUMERATORS,
    "graphs.poset_members": ("graphs.enumerate_poset",),
    "graphs.comparable_pairs": ("graphs.SubgraphPoset.down_sets",),
    "posetlin.mobius_entries": ("posetlin.mobius_table",),
    "posetlin.chain_terms": ("posetlin.transfer_at",),
    **{f"cli.command_s.{name}": (f"cli.cmd_{name}",) for name in CLI_COMMANDS},
    "cli.render_s": tuple(f"cli.cmd_{name}" for name in CLI_COMMANDS),
}

COUNTS = (
    "graphs.poset_members",
    "graphs.comparable_pairs",
    "posetlin.mobius_entries",
    "posetlin.chain_terms",
    "gamma.colorings",
)

# Every per-layer metric with its unit, in output order.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{metric: "s" for metric in SELF_TIME},
    **{f"gamma.vector_s.{mode}": "s" for mode in GAMMA_MODES},
    **{name: "count" for name in COUNTS},
    "gamma.colorings_per_s": "1/s",
    "cli.startup_s": "s",
    **{f"cli.command_s.{name}": "s" for name in CLI_COMMANDS},
    "cli.render_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead": "ratio",
}

# Spans tagged with the group-law mode of their allowed set.
MODE_TAGGED = ("gamma.gamma_vector", "gamma.verify_reciprocity")

# Spans that keep their arguments and result for the work counts and tags.
KEEP = {"graphs.enumerate_poset", "graphs.SubgraphPoset.down_sets", "posetlin.mobius_table",
        "posetlin.transfer_at", *ENUMERATORS, *MODE_TAGGED}


def warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


def group_mode(group) -> str:
    orders = group.cyclic_orders
    if len(orders) == 1:
        return "cyclic"
    return "xor" if all(n == 2 for n in orders) else "mixed"


class Tracer:
    """Wraps the package's public functions and records one span per call:
    [key, start, end, parent index, (args, kwargs), result]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, key: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        keep = key in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, clock(), 0.0, open_spans[-1] if open_spans else -1,
                    (args, kwargs) if keep else None, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if keep:
                span[5] = result
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        package = importlib.import_module("groupcolor")
        modules = {layer: importlib.import_module(f"groupcolor.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        wrapped: set[str] = set()
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if (name.startswith("_") or key in HOT
                        or not inspect.isfunction(inspect.unwrap(obj))
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(key, obj))
                wrapped.add(key)
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, name, hit[1])
        for key in METHODS:
            layer, cls_name, attr = key.split(".")
            cls = getattr(modules[layer], cls_name, None)
            target = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(target, functools.cached_property):
                prop = functools.cached_property(self._wrap(key, target.func))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)
            elif inspect.isfunction(target):
                self._patch(cls, attr, self._wrap(key, target))
            else:
                continue
            wrapped.add(key)
        needed = {fn for fns in (*SELF_TIME.values(), *DERIVED.values()) for fn in fns}
        self.missing = needed - wrapped
        for key in sorted(self.missing):
            warn(f"trace target {key} not found; metrics built on it are dropped")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def export(self) -> dict:
        """Plain-data spans [key, start, end, parent, tag] plus the exact work
        counts; call after uninstall so the counts do not trace themselves."""
        counts, problems = work_counts(self.spans)
        spans = []
        for key, start, end, parent, call, _ in self.spans:
            tag = group_mode(call[0][1].group) if key in MODE_TAGGED else None
            spans.append([key, start, end, parent, tag])
        return {"spans": spans, "counts": counts, "problems": problems,
                "missing": sorted(self.missing)}


def _chain_terms(poset) -> int:
    from groupcolor.posetlin import mobius_table

    nonzero = [sum(1 for mu in row.values() if mu) for row in mobius_table(poset)]
    return sum(nonzero[g] for down in poset.down_sets for g in down)


def _colorings(key: str, args: tuple, kwargs: dict) -> int:
    from groupcolor.graphs import components

    if key == "gamma.gamma_vector":
        poset, allowed = args[0], args[1]
        method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
        members = poset.members
    else:
        allowed = args[1]
        members = [args[0]]
        method = "brute" if key == "gamma.gamma_bruteforce" else "cycle"
    f = allowed.group.order
    if method == "brute":
        return sum(f**m.v for m in members)
    if method in ("cycle", "auto"):
        return sum(f ** (m.v - components(m)) for m in members)
    return 0


def work_counts(spans: list[list]) -> tuple[dict, list[str]]:
    """Exact work counts recomputed from the recorded calls, and every count
    that disagrees with EXPECTED for its vertex count."""
    counts = dict.fromkeys(COUNTS, 0)
    problems: list[str] = []
    tables: set[int] = set()

    def expect(v: int, what: str, got: int) -> None:
        want = EXPECTED.get(v, {}).get(what)
        if want is not None and got != want:
            problems.append(f"v={v}: {what} = {got}, expected {want}")

    for key, _, _, _, call, result in spans:
        if call is None or result is None:  # not counted, or the call raised
            continue
        args, kwargs = call
        if key == "graphs.enumerate_poset":
            counts["graphs.poset_members"] += len(result)
            expect(result.v, "members", len(result))
        elif key == "graphs.SubgraphPoset.down_sets":
            pairs = sum(len(down) for down in result)
            counts["graphs.comparable_pairs"] += pairs
            expect(args[0].v, "pairs", pairs)
        elif key == "posetlin.mobius_table" and id(result) not in tables:
            tables.add(id(result))
            entries = sum(1 for row in result for mu in row.values() if mu)
            counts["posetlin.mobius_entries"] += entries
            expect(args[0].v, "mobius_entries", entries)
        elif key == "posetlin.transfer_at":
            terms = _chain_terms(args[0])
            counts["posetlin.chain_terms"] += terms
            expect(args[0].v, "chain_terms", terms)
        elif key in ENUMERATORS:
            counts["gamma.colorings"] += _colorings(key, args, kwargs)
    return counts, problems


def _child_time(spans: list[list]) -> list[float]:
    """Per span, the time covered by its direct child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_metrics(exports: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the exports of several processes;
    cli.startup_s is the median over the traced CLI processes. The
    trace.overhead entry is left at 0 for the caller, which measures it."""
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    startups = [export["startup_s"] for export in exports if "startup_s" in export]
    if startups:
        metrics["cli.startup_s"] = statistics.median(startups)
    enumerating = 0.0
    missing: set[str] = set()
    for export in exports:
        spans = export["spans"]
        missing.update(export["missing"])
        child = _child_time(spans)
        in_command = [False] * len(spans)
        for i, (key, start, end, parent, tag) in enumerate(spans):
            layer = key.split(".", 1)[0]
            own = end - start - child[i]
            metrics[f"{layer}.self_s"] += own
            if key in METRIC_OF:
                metrics[METRIC_OF[key]] += own
            if key == "gamma.gamma_vector":
                metrics[f"gamma.vector_s.{tag}"] += own
            if key in ENUMERATORS:
                enumerating += end - start
            command = key[len("cli.cmd_"):] if key.startswith("cli.cmd_") else None
            in_command[i] = command is not None or (parent >= 0 and in_command[parent])
            if command in CLI_COMMANDS:
                metrics[f"cli.command_s.{command}"] += end - start
                metrics["cli.render_s"] += end - start
            elif (layer != "cli" and parent >= 0 and in_command[parent]
                  and spans[parent][0].startswith("cli.")):
                metrics["cli.render_s"] -= end - start
        for name, value in export["counts"].items():
            metrics[name] += value
        metrics["cli.stdout_bytes"] += export.get("stdout_bytes", 0)
    if enumerating > 0:
        metrics["gamma.colorings_per_s"] = metrics["gamma.colorings"] / enumerating
    for metric, fns in (*SELF_TIME.items(), *DERIVED.items()):
        if all(fn in missing for fn in fns):
            del metrics[metric]
    return metrics


def function_table(exports: list[dict]) -> dict[str, list[float]]:
    """Per wrapped function, split by group-law mode where tagged:
    [calls, inclusive seconds, self seconds]; the layer-by-layer baseline
    that the per-layer metrics are sums of."""
    table: dict[str, list[float]] = {}
    for export in exports:
        spans = export["spans"]
        child = _child_time(spans)
        for i, (key, start, end, parent, tag) in enumerate(spans):
            row = table.setdefault(f"{key}[{tag}]" if tag else key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
    return table
