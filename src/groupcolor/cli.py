"""Command-line front end: poset listings, the incidence matrices, coloring
probability vectors, reciprocity verification, chromatic cross-checks, and
reproduction of the three bundled worked examples.

Exit codes: 0 success, 1 verification failure, or stdout closed before the
output was written, 2 usage or parse error, 3 work budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import tee
from math import comb, inf, log10

from .gamma import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    METHODS,
    chromatic_via_transfer,
    gamma_cyclespace,
    gamma_vector,
    hamming_k3_closed_form,
    hamming_k3_from_reciprocity,
    main_term,
    verify_reciprocity,
)
from .graphs import (
    POSET_CAP,
    VERIFY_CAP,
    EdgeSet,
    chromatic_oracle,
    class_rows,
    components,
    enumerate_poset,
    girth,
    iso_class_blocks,
)
from .groups import (
    MAX_GROUP_ORDER,
    AllowedSet,
    FiniteAbelianGroup,
    allowed_complement_identity,
    allowed_explicit,
    allowed_hamming,
    allowed_interval,
    make_group,
)
from .posetlin import (
    VARIABLE,
    mobius_matrix,
    transfer_at,
    weighted_zeta_at,
    weighted_zeta_inverse_at,
    zeta_matrix,
)

_GROUP_FACTOR = re.compile(r"^Z(\d+)(?:\^(\d+))?$")
# the decimal exponent of a rational literal, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")
# a comma between the items of an explicit set: no ")" follows it before a "("
_ITEM_COMMA = re.compile(r",(?![^()]*\))")

# the triangle, whose coordinate examples 2 and 3 tabulate
_K3 = EdgeSet(3, 0b111)


def parse_group_spec(spec: str) -> FiniteAbelianGroup:
    """Grammar: "Z5", "Z2^4" (power), "Z3xZ9" (product), combinable. An
    order above MAX_GROUP_ORDER is refused before any power is expanded."""
    spec = spec.strip()
    over_cap = f"group {spec!r} has order above the cap {MAX_GROUP_ORDER}"

    def number(digits: str) -> int:
        # a number with more digits than the cap is over it, and so is such a
        # power of an order >= 2; refused here, as int would refuse a string
        # past the interpreter's digit limit with a message naming no spec
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_GROUP_ORDER)):
            raise ValueError(over_cap)
        return int(digits)

    orders: list[int] = []
    order = 1
    for token in spec.split("x"):
        m = _GROUP_FACTOR.match(token.strip())
        if not m:
            raise ValueError(f"bad group factor {token!r} (want e.g. Z5, Z2^4)")
        n = number(m.group(1))
        if n < 2:
            raise ValueError(f"bad group factor {token!r}: cyclic orders must be >= 2")
        count = number(m.group(2)) if m.group(2) else 1
        if count < 1:
            raise ValueError(f"bad power in group factor {token!r}")
        # n^k passes the cap once 2^k does, so k is capped at its bit length
        order *= n ** min(count, MAX_GROUP_ORDER.bit_length())
        if order > MAX_GROUP_ORDER:
            raise ValueError(over_cap)
        orders.extend([n] * count)
    return make_group(orders)


def render_group_spec(group: FiniteAbelianGroup) -> str:
    """Canonical spec: adjacent equal factors collapse into a power."""
    parts = []
    orders = group.cyclic_orders
    i = 0
    while i < len(orders):
        j = i
        while j < len(orders) and orders[j] == orders[i]:
            j += 1
        run = j - i
        parts.append(f"Z{orders[i]}" if run == 1 else f"Z{orders[i]}^{run}")
        i = j
    return "x".join(parts)


def _set_items(spec: str) -> list[str]:
    # the stripped items of "set:{...}", split at the commas outside
    # parentheses; a blank body is the empty set, and an empty item is kept
    # for _spec_int to refuse
    body = spec[len("set:{") : -1]
    return [item.strip() for item in _ITEM_COMMA.split(body)] if body.strip() else []


def _spec_int(text: str, spec: str) -> int:
    # one number of an allowed-set spec, with the spec named in its error
    try:
        return int(text)
    except ValueError:
        problem = f"{text.strip()!r} is not an integer" if text.strip() else "a number is missing"
        raise ValueError(f"allowed-set spec {spec!r}: {problem}") from None


def parse_allowed_spec(spec: str, group: FiniteAbelianGroup) -> AllowedSet:
    """Grammar: "interval:k", "hamming:k", "nonzero", "set:{0,3}" with
    elements given as indices or residue tuples like (1,0)."""
    spec = spec.strip()
    if spec == "nonzero":
        return allowed_complement_identity(group)
    if spec.startswith("interval:"):
        return allowed_interval(group, _spec_int(spec.split(":", 1)[1], spec))
    if spec.startswith("hamming:"):
        if any(n != 2 for n in group.cyclic_orders):
            raise ValueError("hamming allowed sets need a Z2^n group")
        k = _spec_int(spec.split(":", 1)[1], spec)
        fresh = allowed_hamming(len(group.cyclic_orders), k)
        return AllowedSet(group, fresh.mask)
    if spec.startswith("set:{") and spec.endswith("}"):
        elements = []
        for item in _set_items(spec):
            if item.startswith("(") and item.endswith(")"):
                elements.append(tuple(_spec_int(t, spec) for t in item[1:-1].split(",")))
            else:
                elements.append(_spec_int(item, spec))
        return allowed_explicit(group, elements)
    raise ValueError(f"bad allowed-set spec {spec!r}")


def render_allowed_spec(spec: str, allowed: AllowedSet) -> str:
    """Canonical form of an allowed-set spec string: whitespace stripped, and
    an explicit set rewritten from its parsed elements, sorted and distinct,
    as indices, or as residue tuples if any item was one. Index order is the
    lexicographic order of the residues, first factor most significant."""
    spec = spec.strip()
    if not spec.startswith("set:{"):
        return spec
    items = allowed.indices()
    if any(item.startswith("(") for item in _set_items(spec)):
        residues = map(allowed.group.residues_of, items)
        return "set:{" + ",".join(f"({','.join(map(str, r))})" for r in residues) + "}"
    return "set:{" + ",".join(map(str, items)) + "}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _emit_members(
    fmt: str,
    fields: dict,
    key: str,
    columns: dict,
    trailer: dict | None = None,
    tsv_omits: tuple[str, ...] = (),
) -> None:
    """Print one row per poset member. The columns are iterables in member
    order. JSON holds the fields, then the rows as objects under key, then
    the trailer. TSV prints the column names, the rows, and each trailer
    value on a line of its own; a column named in tsv_omits is left out,
    and is never read."""
    trailer = trailer or {}
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        _emit_json({**fields, key: rows, **trailer})
        return
    names = [name for name in columns if name not in tsv_omits]
    cells = zip(*(columns[name] for name in names))
    lines = ["\t".join(names), *("\t".join(map(str, row)) for row in cells)]
    print("\n".join([*lines, *map(str, trailer.values())]))


def _edge_texts(poset):
    # a generator, so a column that is never read builds no members and no text
    for member in poset.members:
        yield member.to_text()


def _rational(text: str) -> Fraction:
    # Fraction builds 10^|e| for a decimal exponent e, about 10 s at e = 10^7;
    # past the digit limit of int -> str the point itself cannot be printed
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit:
        digits = exponent.group(1).lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise ValueError(
                f"--r {text!r}: exponent past the {limit}-digit limit for printing an integer"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r} (want p/q)") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_poset(ns: argparse.Namespace) -> int:
    poset = enumerate_poset(ns.v)

    def invariants(label, idxs):
        # girth and component count do not change under relabeling, so they
        # are read on the class's first member
        first = poset.members[idxs[0]]
        g = girth(first)
        return components(first), "inf" if g == inf else g, label

    counts, girths, labels = zip(*class_rows(iso_class_blocks(poset), len(poset), invariants))
    columns = {
        "index": range(len(poset)),
        "mask": poset.masks,
        "edges": _edge_texts(poset),
        "edge_count": map(int.bit_count, poset.masks),
        "components": counts,
        "girth": girths,
        "iso_class": labels,
    }
    _emit_members(ns.format, {"v": poset.v, "count": len(poset)}, "members", columns)
    return 0


# --which name -> builder(poset, r); r is VARIABLE unless --r is given. The
# builders are looked up when called, so a patched module name takes effect.
_MATRIX_BUILDERS = {
    "zeta": lambda poset, r: zeta_matrix(poset),
    "mobius": lambda poset, r: mobius_matrix(poset),
    "J": lambda poset, r: weighted_zeta_at(poset, r),
    "Jinv": lambda poset, r: weighted_zeta_inverse_at(poset, r),
    "M": lambda poset, r: transfer_at(poset, r),
}


def _block_summary(poset, rows: list[list[str]], paper_order: bool) -> list[dict]:
    blocks = iso_class_blocks(poset)
    order = list(range(len(poset) - 1, -1, -1)) if paper_order else list(range(len(poset)))
    pos = {idx: k for k, idx in enumerate(order)}
    summary = []
    for row_label, row_idxs in blocks:
        for col_label, col_idxs in blocks:
            seen = sorted(
                {rows[pos[i]][pos[j]] for i in row_idxs for j in col_idxs} - {"0"}
            )
            summary.append(
                {
                    "row_class": row_label,
                    "col_class": col_label,
                    "distinct_nonzero": seen,
                }
            )
    return summary


def _check_dense_cells(poset, budget: int) -> int:
    cells = len(poset) ** 2
    if cells > budget:
        raise BudgetExceededError(f"dense matrix over {len(poset)} poset members", cells, budget)
    return cells


def _check_printable_point(r: Fraction, v: int) -> None:
    # Every entry is an integer polynomial in r of degree d <= C(v, 2) whose
    # coefficients are signed counts of edge masks, at most 2^d in absolute
    # sum, so at r = p/q its numerator and denominator stay below
    # (2 max(|p|, q))^d. Refuse a point where that bound could pass the digit
    # limit of int -> str, which the rendering would hit after the build.
    limit = sys.get_int_max_str_digits()
    d = comb(v, 2)
    if limit and d * log10(2 * max(abs(r.numerator), r.denominator)) >= limit:
        raise ValueError(
            f"--r is too large: entries at v={v} could reach (2 max(|p|, q))^{d}, "
            f"over the {limit}-digit limit for printing an integer"
        )


def cmd_matrix(ns: argparse.Namespace) -> int:
    # the TSV holds the entries alone
    for flag in ("blocks", "errata"):
        if ns.format == "tsv" and getattr(ns, flag):
            raise ValueError(f"--{flag} is not printed with --format tsv; use --format json")
    poset = enumerate_poset(ns.v)
    r = _rational(ns.r) if ns.r is not None else None
    # the cell count also bounds the builders' submask walk: sum 2^|H| is
    # 37,889 at v = 5 and 11,399,025 at v = 6, under |P_v|^2 cells
    _check_dense_cells(poset, ns.budget)
    if ns.errata and (ns.which != "M" or ns.v != 4 or r is not None):
        raise ValueError("--errata applies to the symbolic transfer matrix at v=4")
    if r is not None and ns.which in ("zeta", "mobius"):
        raise ValueError(f"--r does not apply to --which {ns.which}: zeta is J(1), mobius J(1)^-1")
    if r is not None:
        _check_printable_point(r, ns.v)
    matrix = _MATRIX_BUILDERS[ns.which](poset, VARIABLE if r is None else r)
    rows = matrix.render_rows(paper_order=ns.paper_order)
    payload = {
        "v": ns.v,
        "which": ns.which,
        "paper_order": ns.paper_order,
        "r": str(r) if r is not None else None,
        "order": list(reversed(poset.masks) if ns.paper_order else poset.masks),
        "entries": rows,
    }
    if ns.blocks:
        payload["blocks"] = _block_summary(poset, rows, ns.paper_order)
    if ns.errata:
        # one record per class block: the last mismatching cell of each
        blocks = {
            (m["row_class"], m["col_class"]): m
            for m in example1_report(ns.budget)["v4"]["mismatches"]
        }
        payload["errata"] = [
            {k: v for k, v in blocks[key].items() if k != "computed_matches_corrected"}
            for key in sorted(blocks)
        ]
    if ns.format == "tsv":
        for row in rows:
            print("\t".join(row))
    else:
        _emit_json(payload)
    return 0


def cmd_gamma(ns: argparse.Namespace) -> int:
    group = parse_group_spec(ns.group)
    allowed = parse_allowed_spec(ns.allowed, group)
    poset = enumerate_poset(ns.v)
    values = gamma_vector(poset, allowed, ns.method, ns.budget).values
    fields = {
        "v": ns.v,
        "group": render_group_spec(group),
        "allowed": render_allowed_spec(ns.allowed, allowed),
        "alpha": str(allowed.alpha),
    }
    columns = {
        "mask": poset.masks,
        "edges": _edge_texts(poset),
        "value": map(str, values),
        "method": [ns.method] * len(poset),
    }
    _emit_members(ns.format, fields, "values", columns)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    # v runs to VERIFY_CAP here; past POSET_CAP only the summary prints
    if not 2 <= ns.v <= VERIFY_CAP:
        raise ValueError(f"v must be in 2..{VERIFY_CAP}, got {ns.v}")
    group = parse_group_spec(ns.group)
    allowed = parse_allowed_spec(ns.allowed, group)
    # the cores pass steps every edge bit over the half of the masks that holds it
    pairs = comb(ns.v, 2)
    if pairs << (pairs - 1) > ns.budget:
        raise BudgetExceededError(
            f"bridgeless cores over the edge masks of K_{ns.v}", pairs << (pairs - 1), ns.budget
        )
    if ns.v > POSET_CAP and ns.format != "summary":
        raise ValueError(
            f"verify --v {ns.v} prints --format summary only; json and tsv stop at v={POSET_CAP}"
        )
    poset = enumerate_poset(ns.v, VERIFY_CAP)
    report = verify_reciprocity(poset, allowed, budget=ns.budget)
    summary = f"{'PASS' if report.ok else 'FAIL'} {report.passed}/{len(poset)}"
    if ns.format == "summary":
        print(summary)
        return 0 if report.ok else 1
    fields = {
        "v": ns.v,
        "group": render_group_spec(group),
        "allowed": render_allowed_spec(ns.allowed, allowed),
        "alpha": str(report.alpha),
        "alpha_bar": str(1 - report.alpha),
        "ok": report.ok,
    }
    # a shared side is rendered once; each row reads its lhs text, then its rhs
    lhs = map(str, report.lhs)
    lhs, rhs = tee(lhs) if report.rhs is report.lhs else (lhs, map(str, report.rhs))
    columns = {
        "mask": poset.masks,
        "edges": _edge_texts(poset),
        "lhs": lhs,
        "rhs": rhs,
        "equal": report.per_coordinate,
    }
    _emit_members(
        ns.format, fields, "coordinates", columns, {"summary": summary}, tsv_omits=("edges",)
    )
    return 0 if report.ok else 1


def _forest_walk_charge(edge_set: EdgeSet) -> int:
    # a bound on the forests inside E: each has at most v - 1 of its edges
    e = edge_set.edge_count
    return sum(comb(e, k) for k in range(min(e, edge_set.v - 1) + 1))


def cmd_chromatic(ns: argparse.Namespace) -> int:
    # both polynomials are graph invariants, so each isomorphism class is
    # computed once, on its first member, and checked by the oracle on its first and last
    if ns.edgeset:
        members = [EdgeSet.from_text(ns.edgeset)]
        v = members[0].v
        blocks = [("", (0,))]
    else:
        poset = enumerate_poset(ns.v)
        members = list(poset.members)
        v = ns.v
        blocks = iso_class_blocks(poset)
    # the edge walks read _incident(v): v masks of C(v, 2) bits
    pair_table = v * comb(v, 2)
    if pair_table > ns.budget:
        raise BudgetExceededError(f"vertex-pair table on {v} vertices", pair_table, ns.budget)
    # chromatic_via_transfer walks the forests of E once per class
    work = sum(_forest_walk_charge(members[idxs[0]]) for _, idxs in blocks)
    if work > ns.budget:
        raise BudgetExceededError(
            f"chromatic specialization of {len(members)} edge sets", work, ns.budget
        )

    def polynomials(label, idxs):
        first = members[idxs[0]]
        via_transfer = chromatic_via_transfer(first)
        oracle = chromatic_oracle(first)
        last = chromatic_oracle(members[idxs[-1]])  # memoized when it is first
        return via_transfer.render("f"), oracle.render("f"), via_transfer == oracle == last

    via_transfer, oracle, equal = zip(*class_rows(blocks, len(members), polynomials))
    columns = {
        "mask": [member.bits for member in members],
        "edges": [member.to_text() for member in members],
        "via_transfer": via_transfer,
        "oracle": oracle,
        "equal": equal,
    }
    all_ok = all(equal)
    _emit_members(ns.format, {"v": v, "all_equal": all_ok}, "polynomials", columns)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Worked examples


def example1_report(budget: int = DEFAULT_BUDGET) -> dict:
    """Transfer matrices for v = 3 and v = 4 against the reference display.

    The reference v = 4 matrix is reproduced cell by cell except for two
    documented errata blocks where the printed polynomials fail the row-sum
    and chromatic cross-checks; computed values are reported alongside.
    """
    p3 = enumerate_poset(3)
    m3 = transfer_at(p3, VARIABLE).render_rows(paper_order=True)
    ref3 = [["-1", "1 - 3r + 3r^2"], ["0", "1"]]

    p4 = enumerate_poset(4)
    cells = _check_dense_cells(p4, budget)
    m4 = transfer_at(p4, VARIABLE)
    label = class_rows(iso_class_blocks(p4), len(p4), lambda lbl, idxs: lbl)
    mismatches = []
    matches = 0
    for h in range(len(p4)):
        for e in range(len(p4)):
            computed = m4.entry(h, e).render()
            printed, corrected = _reference_final_entry(p4, label, h, e)
            if computed == printed:
                matches += 1
            else:
                mismatches.append(
                    {
                        "row_class": label[h],
                        "col_class": label[e],
                        "computed": computed,
                        "reference_printed": printed,
                        "computed_matches_corrected": computed == corrected,
                    }
                )
    errata_blocks = sorted({(m["row_class"], m["col_class"]) for m in mismatches})
    ok = all(m["computed_matches_corrected"] for m in mismatches) and errata_blocks == [
        ("K4", "K3"),
        ("diamond", "empty"),
    ]
    return {
        "v3": {"computed": m3, "reference": ref3, "match": m3 == ref3},
        "v4": {
            "cells": cells,
            "cells_matching_reference": matches,
            "errata_blocks": [list(b) for b in errata_blocks],
            "mismatches": mismatches,
            "match_except_errata": ok,
        },
        "first_factor_notes": [
            {
                "cell": "C4 row, empty column",
                "computed": "a^4",
                "reference_printed": "a^3",
            },
            {
                "cell": "K3 class diagonal",
                "computed": "+1",
                "reference_printed": "plus-minus placeholder",
            },
            {
                "cell": "K3 row, empty column",
                "computed": "a^3",
                "reference_printed": "unresolved constant placeholder",
            },
        ],
        "ok": (m3 == ref3) and ok,
    }


# Reference v = 4 final transfer matrix by (row class, column class) on
# the cells E <= H; every other cell is 0. The two errata cells hold
# (printed, corrected): the printed typo and the value forced by the
# row-sum identity and the chromatic cross-check.
_REFERENCE_V4 = {
    ("K4", "K4"): "1",
    ("K4", "diamond"): "-1",
    ("K4", "C4"): "1",
    ("K4", "K3"): ("-1 + 3r - r^2 + r^3", "-1 + 3r"),
    ("K4", "empty"): "1 - 6r + 15r^2 - 16r^3",
    ("diamond", "diamond"): "-1",
    ("diamond", "C4"): "1",
    ("diamond", "K3"): "-1 + 2r",
    ("diamond", "empty"): ("1 - 5r + 10r^2 - 3r^3", "1 - 5r + 10r^2 - 8r^3"),
    ("C4", "C4"): "1",
    ("C4", "empty"): "1 - 4r + 6r^2 - 4r^3",
    ("K3", "K3"): "-1",
    ("K3", "empty"): "1 - 3r + 3r^2",
    ("empty", "empty"): "1",
}


def _reference_final_entry(poset, label, h, e) -> tuple[str, str]:
    """The (printed, corrected) reference entry of the v = 4 transfer matrix."""
    if not poset.leq(e, h):
        return "0", "0"
    cell = _REFERENCE_V4[label[h], label[e]]
    return cell if isinstance(cell, tuple) else (cell, cell)


def example2_report(budget: int = DEFAULT_BUDGET) -> dict:
    """Cyclic groups with interval allowed sets: triangle coordinate against
    the piecewise law, swept over odd f in 5..31 and all valid k."""
    rows = []
    all_ok = True
    for f in range(5, 32, 2):
        group = make_group([f])
        for k in range((f - 1) // 2 + 1):
            allowed = allowed_interval(group, k)
            ab = allowed.alpha_bar
            g_bar = gamma_cyclespace(_K3, allowed.complement(), budget)
            g = gamma_cyclespace(_K3, allowed, budget)
            if ab > Fraction(2, 3):
                bar_formula = 1 - 3 * ab + 3 * ab**2
                formula = Fraction(0)
                branch = "high"
            else:
                bar_formula = Fraction(3, 4) * ab**2 + Fraction(1, 4) * Fraction(1, f**2)
                formula = 1 - 3 * ab + Fraction(9, 4) * ab**2 - Fraction(1, 4) * Fraction(1, f**2)
                branch = "low"
            ok = g_bar == bar_formula and g == formula
            all_ok &= ok
            rows.append(
                {
                    "f": f,
                    "k": k,
                    "alpha_bar": str(ab),
                    "branch": branch,
                    "gamma_bar": str(g_bar),
                    "gamma_bar_formula": str(bar_formula),
                    "gamma": str(g),
                    "gamma_formula": str(formula),
                    "match": ok,
                }
            )
    spot = next(r for r in rows if r["f"] == 5 and r["k"] == 1)
    return {
        "rows": rows,
        "spot_f5_k1_gamma_bar": spot["gamma_bar"],
        "ok": all_ok and spot["gamma_bar"] == "7/25",
    }


def example3_report(budget: int = DEFAULT_BUDGET) -> dict:
    """Hamming-distance colorings in Z2^n at threshold k = 1: computed
    triangle coordinates against the reference closed forms.

    The reference allowed-value form disagrees with exact computation by
    exactly 2/4^n at every n; this is reported as a documented erratum,
    while the complement form and the reciprocity-consistent form match.
    """
    rows = []
    ok = True
    for n in range(1, 11):
        allowed = allowed_hamming(n, 1)
        g_bar = gamma_cyclespace(_K3, allowed.complement(), budget)
        g = gamma_cyclespace(_K3, allowed, budget)
        bar_formula, published = hamming_k3_closed_form(n)
        consistent = hamming_k3_from_reciprocity(n)
        row_ok = g_bar == bar_formula and g == consistent
        ok &= row_ok
        rows.append(
            {
                "n": n,
                "alpha_bar": str(allowed.alpha_bar),
                "gamma_bar": str(g_bar),
                "gamma_bar_formula": str(bar_formula),
                "gamma_bar_match": g_bar == bar_formula,
                "gamma": str(g),
                "gamma_reference_formula": str(published),
                "gamma_reference_match": g == published,
                "gamma_consistent_formula": str(consistent),
                "gamma_consistent_match": g == consistent,
                "reference_discrepancy": str(g - published),
            }
        )
    trend = []
    for n in range(1, 13):
        allowed = allowed_hamming(n, 1)
        g_bar = gamma_cyclespace(_K3, allowed.complement(), budget)
        # triangle transfer row applied to the complement value
        g = main_term(_K3, allowed.alpha_bar) - g_bar
        alpha_cubed = allowed.alpha**3
        trend.append(
            {
                "n": n,
                "gamma": str(g),
                "alpha_cubed": str(alpha_cubed),
                "ratio": float(g / alpha_cubed) if alpha_cubed else None,
            }
        )
    return {
        "rows": rows,
        "errata_note": (
            "the reference allowed-value closed form is off by 2/4^n; the "
            "complement form plus the transfer row force the consistent form"
        ),
        "independence_trend": trend,
        "ok": ok,
    }


def cmd_examples(ns: argparse.Namespace) -> int:
    reports = {}
    which = ns.which
    if which in ("1", "all"):
        reports["example1"] = example1_report(ns.budget)
    if which in ("2", "all"):
        reports["example2"] = example2_report(ns.budget)
    if which in ("3", "all"):
        reports["example3"] = example3_report(ns.budget)
    ok = all(rep["ok"] for rep in reports.values())
    payload = {"ok": ok, **reports}
    if ns.format == "tsv":
        for name, rep in reports.items():
            print(f"# {name}\tok={rep['ok']}")
            for row in rep.get("rows", []):
                print("\t".join(f"{k}={v}" for k, v in row.items()))
    else:
        _emit_json(payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser wiring


def _budget(text: str) -> int:
    # a negative budget refuses all work; argparse names --budget in the error
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_common(
    sub: argparse.ArgumentParser, *, group_args: bool, formats: tuple[str, ...] = ("json", "tsv")
) -> None:
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    if group_args:
        sub.add_argument("--group", required=True, help="e.g. Z5, Z2^3, Z3xZ9")
        sub.add_argument(
            "--allowed", required=True, help="interval:k | hamming:k | nonzero | set:{...}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcolor",
        description=(
            "Exact coloring probabilities over bridgeless subgraph posets, "
            "reciprocity verification, and chromatic cross-checks."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poset", help="list the bridgeless edge sets on v vertices")
    p.add_argument("--v", type=int, required=True)
    _add_common(p, group_args=False)
    p.set_defaults(func=cmd_poset)

    p = subs.add_parser("matrix", help="zeta, Mobius, weighted zeta, or transfer matrix")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--which", required=True, choices=sorted(_MATRIX_BUILDERS))
    p.add_argument("--r", default=None, help="evaluate at this rational, e.g. 2/3")
    p.add_argument("--paper-order", dest="paper_order", action="store_true")
    p.add_argument("--blocks", action="store_true", help="append iso-class block summary")
    p.add_argument(
        "--errata",
        action="store_true",
        help="with --which M --v 4: list the cells that differ from the reference display",
    )
    _add_common(p, group_args=False)
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("gamma", help="coloring probability per poset member")
    p.add_argument("--v", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["auto", *METHODS],
        default="cycle",
        help=(
            "auto: one histogram sweep of f^(v-1) colorings for all members; "
            "brute, cycle, fourier: one computation per isomorphism class"
        ),
    )
    _add_common(p, group_args=True)
    p.set_defaults(func=cmd_gamma)

    p = subs.add_parser("verify", help="check the reciprocity identity exactly")
    p.add_argument(
        "--v", type=int, required=True, help=f"2..{VERIFY_CAP}; above {POSET_CAP}, --format summary only"
    )
    _add_common(p, group_args=True, formats=("json", "tsv", "summary"))
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("chromatic", help="transfer specialization vs deletion-contraction")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--v", type=int)
    target.add_argument("--edgeset", help='e.g. "v=4;edges=01,02,12"')
    _add_common(p, group_args=False)
    p.set_defaults(func=cmd_chromatic)

    p = subs.add_parser("examples", help="reproduce the bundled worked examples")
    p.add_argument("--which", choices=["1", "2", "3", "all"], default="all")
    _add_common(p, group_args=False)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
