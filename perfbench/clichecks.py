"""Checks of the cli5 outputs. Each command is judged by its exit code and
its own verdict fields, plus an oracle that does not share the command's code
path: the defining identity of the transfer matrix, brute-force colorings,
and a benchmark-side component count.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product

EXIT_MEANING = {1: "verification failure", 2: "usage or parse error", 3: "work budget exceeded"}


def parse_poly(text: str, var: str) -> list[Fraction]:
    """Ascending coefficients of a polynomial in RationalPoly.render form,
    e.g. "1 - 5r + (1/2)r^2 - r^3"."""
    coeffs: dict[int, Fraction] = {}
    tokens = text.split(" ")
    terms = [("-", tokens[0][1:]) if tokens[0].startswith("-") else ("+", tokens[0])]
    terms += list(zip(tokens[1::2], tokens[2::2]))
    for sign, body in terms:
        if var in body:
            head, _, power = body.partition(var)
            coeff = Fraction(head.strip("()")) if head else Fraction(1)
            k = int(power[1:]) if power else 1
        else:
            coeff, k = Fraction(body), 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + (coeff if sign == "+" else -coeff)
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def evaluate(coeffs: list[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_transfer_rows(poset, rows, r: Fraction) -> str | None:
    """Every row of M(r) against M(r) J(r) = J(1 - r) S, where J(x) has entry
    x^(|H| - |E|) for E <= H and S is the parity sign diagonal. J(r) is
    unitriangular, so the identity fixes each row without the Mobius
    function that the library uses to build it."""
    sizes, down = poset.sizes, poset.down_sets
    top = max(sizes)
    r_pow = [r**k for k in range(top + 1)]
    s_pow = [(1 - r) ** k for k in range(top + 1)]
    for h, row in enumerate(rows):
        below = set(down[h])
        acc: dict[int, Fraction] = {}
        for g, m in enumerate(row):
            if not m:
                continue
            if g not in below:
                return f"row {h}: nonzero entry at column {g}, which is not below it"
            for e in down[g]:
                acc[e] = acc.get(e, 0) + m * r_pow[sizes[g] - sizes[e]]
        for e in down[h]:
            want = s_pow[sizes[h] - sizes[e]] * (-1) ** sizes[e]
            if acc.get(e, 0) != want:
                return f"row {h}: (M J)[{h}][{e}] = {acc.get(e, 0)}, expected {want}"
    return None


def _components(v: int, bits: int, pairs) -> int:
    root = list(range(v))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    count = v
    for n, (a, b) in enumerate(pairs):
        if (bits >> n) & 1 and find(a) != find(b):
            root[find(a)] = find(b)
            count -= 1
    return count


def proper_colorings(v: int, edges, colors: int) -> int:
    """Colorings of v vertices with no edge (a, b) monochromatic, by brute force."""
    return sum(1 for c in product(range(colors), repeat=v) if all(c[a] != c[b] for a, b in edges))


def _check_matrix(argv, payload, poset, rng) -> str | None:
    if payload["order"] != [m.bits for m in poset.members]:
        return "column order differs from the poset's linear extension"
    if "--errata" in argv:
        blocks = sorted((e["row_class"], e["col_class"]) for e in payload["errata"])
        if blocks != [("K4", "K3"), ("diamond", "empty")]:
            return f"errata blocks {blocks} are not the two documented ones"
        r = Fraction(rng.randint(1, 9), 10)
        rows = [[evaluate(parse_poly(cell, "r"), r) for cell in row] for row in payload["entries"]]
    else:
        r = Fraction(payload["r"])
        rows = [[Fraction(cell) if cell != "0" else 0 for cell in row] for row in payload["entries"]]
    return check_transfer_rows(poset, rows, r)


def _check_chromatic(payload, poset, rng, pairs) -> str | None:
    rows = payload["polynomials"]
    if not payload["all_equal"] or not all(row["equal"] for row in rows):
        return "transfer specialization differs from the deletion-contraction oracle"
    if [row["mask"] for row in rows] != [m.bits for m in poset.members]:
        return "rows do not cover the poset"
    for row in rng.sample(rows, min(20, len(rows))):
        got = evaluate(parse_poly(row["oracle"], "f"), 3)
        edges = [pairs[n] for n in range(len(pairs)) if (row["mask"] >> n) & 1]
        if got != proper_colorings(poset.v, edges, 3):
            return f"mask {row['mask']}: chromatic polynomial miscounts proper 3-colorings"
    return None


def _check_poset(payload, poset, pairs) -> str | None:
    rows = payload["members"]
    if payload["count"] != len(poset) or [row["mask"] for row in rows] != [m.bits for m in poset.members]:
        return f"poset listing has {payload['count']} members, expected {len(poset)}"
    for row in rows:
        if (row["edge_count"] != row["mask"].bit_count()
                or row["components"] != _components(poset.v, row["mask"], pairs)):
            return f"mask {row['mask']}: wrong edge or component count"
    return None


def _check_examples(payload) -> str | None:
    if not payload["ok"]:
        return "examples report ok = false"
    if payload["example2"]["spot_f5_k1_gamma_bar"] != "7/25":
        return "example 2 spot value is not 7/25"
    if not payload["example1"]["v4"]["match_except_errata"]:
        return "example 1 differs from the reference beyond the errata"
    return None


def _check_verify(payload, poset) -> str | None:
    n = len(poset)
    if not payload["ok"] or payload["summary"] != f"PASS {n}/{n}":
        return f"reciprocity summary {payload['summary']!r}"
    return None


def check_cli(argv: list[str], code: int, stdout: str, posets, seed: int) -> str | None:
    """None when the CLI call produced a correct result, else the reason.
    ``posets(v)`` returns the library's poset on v vertices."""
    if code != 0:
        return f"exit {code} ({EXIT_MEANING.get(code, 'crash')})"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    command = argv[0]
    poset = posets(int(argv[argv.index("--v") + 1])) if "--v" in argv else None
    rng = random.Random(seed)
    pairs = list(combinations(range(poset.v), 2)) if poset is not None else []
    if command == "matrix":
        return _check_matrix(argv, payload, poset, rng)
    if command == "chromatic":
        return _check_chromatic(payload, poset, rng, pairs)
    if command == "poset":
        return _check_poset(payload, poset, pairs)
    if command == "examples":
        return _check_examples(payload)
    if command == "verify":
        return _check_verify(payload, poset)
    return f"no check for command {command!r}"
