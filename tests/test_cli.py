"""Command-line surface: spec parsing, output shapes, exit codes, and
determinism of the emitted JSON."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import groupcolor.gamma as gamma_module
import groupcolor.graphs as graphs_module
import groupcolor.groups as groups_module
from groupcolor.cli import (
    _forest_walk_charge,
    example1_report,
    example2_report,
    example3_report,
    main,
    parse_allowed_spec,
    parse_group_spec,
    render_allowed_spec,
    render_group_spec,
)
from groupcolor.gamma import _forest_counts, gamma_vector
from groupcolor.graphs import EdgeSet, enumerate_poset, iso_class_blocks
from groupcolor.groups import allowed_explicit, make_group


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spec strings


def test_group_spec_round_trip():
    for spec in ("Z5", "Z2^4", "Z3xZ9", "Z2^2xZ3"):
        g = parse_group_spec(spec)
        assert render_group_spec(g) == spec
        assert parse_group_spec(render_group_spec(g)).cyclic_orders == g.cyclic_orders
    assert parse_group_spec("Z2xZ2xZ2").cyclic_orders == (2, 2, 2)
    assert render_group_spec(parse_group_spec("Z2xZ2xZ2")) == "Z2^3"


def test_group_spec_rejects():
    for bad in ("", "5", "Zx", "Z1", "Z5^0", "Q8"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_group_spec_over_the_cap_is_refused_before_it_is_built(capsys):
    # the order is checked factor by factor, so the power is never expanded
    start = time.perf_counter()
    code = main(["verify", "--v", "3", "--group", "Z2^400000", "--allowed", "nonzero"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "'Z2^400000'" in err and "4096" in err and "Traceback" not in err
    assert parse_group_spec("Z2^12").cyclic_orders == (2,) * 12


def test_group_spec_with_too_many_digits_is_refused_by_name(capsys):
    # an order or a power with more digits than the cap is over the cap, and
    # is refused before int meets a string past the interpreter's digit limit
    for spec in ("Z" + "7" * 5000, "Z2^" + "7" * 5000):
        code = main(["verify", "--v", "3", "--group", spec, "--allowed", "nonzero"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert repr(spec) in err and "4096" in err and "Traceback" not in err
    # leading zeros add no order, and a zero power is still a bad power
    assert parse_group_spec("Z" + "0" * 5000 + "5").cyclic_orders == (5,)
    with pytest.raises(ValueError, match="bad power"):
        parse_group_spec("Z2^" + "0" * 5000)


def test_allowed_spec_parsing():
    g5 = make_group([5])
    assert parse_allowed_spec("interval:1", g5).indices() == (2, 3)
    assert parse_allowed_spec("nonzero", g5).size == 4
    g6 = make_group([6])
    assert parse_allowed_spec("set:{0,3}", g6).indices() == (0, 3)
    g22 = make_group([2, 2])
    assert parse_allowed_spec("set:{(1,1)}", g22).indices() == (3,)
    h = parse_allowed_spec("hamming:1", make_group([2, 2, 2]))
    assert h.size == 4


def test_allowed_spec_rejects():
    g5 = make_group([5])
    with pytest.raises(ValueError):
        parse_allowed_spec("hamming:1", g5)  # needs Z2^n
    with pytest.raises(ValueError):
        parse_allowed_spec("prime:3", g5)
    with pytest.raises(ValueError):
        parse_allowed_spec("set:{1,2}", g5)  # not symmetric
    # a residue tuple longer than the group's factor list is rejected, not cut
    argv = ["gamma", "--v", "3", "--group", "Z2^3", "--allowed", "set:{(1,0,0,1)}"]
    assert main(argv) == 2
    # a number that is not an integer is named with its spec
    for spec, group in (("interval:x", g5), ("set:{a}", g5), ("hamming:", make_group([2, 2]))):
        with pytest.raises(ValueError, match=re.escape(f"spec {spec!r}: ")):
            parse_allowed_spec(spec, group)


def test_allowed_spec_refuses_an_empty_element_or_residue(capsys):
    # an empty item or residue is refused by name, never dropped: these ran
    # as (1,0), as the empty set and as {1,4}
    for group, spec in (
        ("Z2xZ4", "set:{(1,,0)}"),
        ("Z2xZ4", "set:{(1,0),}"),
        ("Z2xZ4", "set:{()}"),
        ("Z5", "set:{,}"),
        ("Z5", "set:{1,,4}"),
        ("Z5", "set:{1,4,}"),
    ):
        code = main(["gamma", "--v", "3", "--group", group, "--allowed", spec])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", spec
        assert repr(spec) in err and "Traceback" not in err
    # a blank body is still the empty set
    for spec in ("set:{}", "set:{ }"):
        code, data = _run_json(capsys, ["gamma", "--v", "3", "--group", "Z5", "--allowed", spec])
        assert code == 0
        assert data["allowed"] == "set:{}" and data["alpha"] == "0"


def test_allowed_spec_canonical_render():
    g5, g6, g24 = make_group([5]), make_group([6]), make_group([2, 4])

    def render(spec, group):
        return render_allowed_spec(spec, parse_allowed_spec(spec, group))

    assert render(" interval:2 ", g5) == "interval:2"
    assert render("nonzero", g5) == "nonzero"
    # an explicit set: its distinct elements, sorted, as indices while
    # every item is one, else as residue tuples in lexicographic order
    assert render("set:{3,0}", g6) == "set:{0,3}"
    assert render("set:{1,1,3,5}", g6) == "set:{1,3,5}"
    assert render("set:{1,(0,3),(1,0)}", g24) == "set:{(0,1),(0,3),(1,0)}"
    assert render("set:{( 1 ,0 ),(0,1),(0,3),(1,0)}", g24) == "set:{(0,1),(0,3),(1,0)}"
    assert render("set:{(1)}", make_group([2])) == "set:{(1)}"
    assert render("set:{ }", g5) == "set:{}"


def test_allowed_set_spellings_print_the_same_output(capsys):
    # three spellings of one allowed set of Z2xZ4 print one stdout
    outs = set()
    for spec in ("set:{(0,1),(1,0),(0,3)}", "set:{(1,0),(0,3),(0,1)}", "set:{( 0, 1 ),(0,3),(1,0)}"):
        code, out = _run(capsys, ["gamma", "--v", "4", "--group", "Z2xZ4", "--allowed", spec])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["allowed"] == "set:{(0,1),(0,3),(1,0)}"


# ---------------------------------------------------------------------------
# subcommands


def test_cmd_poset_json(capsys):
    code, data = _run_json(capsys, ["poset", "--v", "4"])
    assert code == 0
    assert data["count"] == 15
    classes = [m["iso_class"] for m in data["members"]]
    assert classes.count("K3") == 4 and classes.count("C4") == 3


def test_cmd_poset_tsv(capsys):
    code, out = _run(capsys, ["poset", "--v", "3", "--format", "tsv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two members
    assert lines[0].split("\t")[0] == "index"


def test_cmd_poset_over_cap(capsys):
    code, _ = _run(capsys, ["poset", "--v", "9"])
    assert code == 2


def test_cmd_matrix_transfer_paper_order(capsys):
    code, data = _run_json(capsys, ["matrix", "--v", "3", "--which", "M", "--paper-order"])
    assert code == 0
    assert data["entries"] == [["-1", "1 - 3r + 3r^2"], ["0", "1"]]


def test_cmd_matrix_evaluated(capsys):
    code, data = _run_json(capsys, ["matrix", "--v", "3", "--which", "M", "--r", "1/2"])
    assert code == 0
    assert data["entries"][1][0] == "1/4"  # 1 - 3/2 + 3/4
    assert data["r"] == "1/2"


def _rendered_at(text: str, x: Fraction) -> Fraction:
    # the value at x of a polynomial in RationalPoly.render's form,
    # e.g. "1 - 5r + (3/4)r^2"
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, var, power = term.lstrip("-").partition("r")
        coeff = Fraction(coeff.strip("()") or 1)
        total += sign * coeff * x ** (int(power[1:]) if power else len(var))
    return total


def test_cmd_matrix_v5_needs_point(capsys):
    # the symbolic transfer matrix at v = 5 prints, and evaluates to --r
    code, symbolic = _run_json(capsys, ["matrix", "--v", "5", "--which", "M"])
    assert code == 0
    code, data = _run_json(capsys, ["matrix", "--v", "5", "--which", "M", "--r", "1/3"])
    assert code == 0
    assert len(data["entries"]) == len(symbolic["entries"]) == 314
    third = Fraction(1, 3)
    for row, evaluated in zip(symbolic["entries"], data["entries"]):
        assert [_rendered_at(cell, third) for cell in row] == list(map(Fraction, evaluated))


def test_cmd_matrix_blocks_and_bad_name(capsys):
    code, data = _run_json(capsys, ["matrix", "--v", "4", "--which", "mobius", "--blocks"])
    assert code == 0
    assert any(b["distinct_nonzero"] == ["-6"] for b in data["blocks"])
    code, _ = _run(capsys, ["matrix", "--v", "4", "--which", "nope"])
    assert code == 2


def test_cmd_matrix_point_is_refused_for_zeta_and_mobius(capsys):
    for which, r in (("zeta", "2/3"), ("mobius", "5")):
        assert main(["matrix", "--v", "3", "--which", which, "--r", r, "--format", "tsv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "J(1)" in err and "Traceback" not in err
    code, _ = _run(capsys, ["matrix", "--v", "3", "--which", "zeta"])
    assert code == 0


def test_cmd_matrix_point_too_large_to_print_is_refused_up_front(capsys):
    # entries of degree C(4, 2) = 6 at these points would pass the default
    # 4300-digit limit for printing an integer; the last two are refused
    # before Fraction builds 10^(10^8)
    for r in ("1e1000000", "-1e800", "1e100000000", "1e-100000000"):
        start = time.perf_counter()
        code = main(["matrix", "--v", "4", "--which", "M", f"--r={r}"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        limit = sys.get_int_max_str_digits()
        assert "--r" in err and f"{limit}-digit" in err and "Traceback" not in err


def test_cmd_matrix_refuses_blocks_and_errata_in_tsv(capsys, monkeypatch):
    # the TSV holds the entries alone, so a flag that adds a JSON field is
    # refused by name before any matrix or example report is built
    import groupcolor.cli as cli_module

    def refused(*args):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(cli_module, "enumerate_poset", refused)
    monkeypatch.setattr(cli_module, "example1_report", refused)
    for flag in ("--blocks", "--errata"):
        code = main(["matrix", "--v", "4", "--which", "M", flag, "--format", "tsv"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert flag in err and "Traceback" not in err


def test_cmd_matrix_errata(capsys):
    code, data = _run_json(capsys, ["matrix", "--v", "4", "--which", "M", "--errata"])
    assert code == 0
    assert data["errata"] == [
        {
            "row_class": "K4",
            "col_class": "K3",
            "computed": "-1 + 3r",
            "reference_printed": "-1 + 3r - r^2 + r^3",
        },
        {
            "row_class": "diamond",
            "col_class": "empty",
            "computed": "1 - 5r + 10r^2 - 8r^3",
            "reference_printed": "1 - 5r + 10r^2 - 3r^3",
        },
    ]
    code, _ = _run(capsys, ["matrix", "--v", "3", "--which", "M", "--errata"])
    assert code == 2


def test_cmd_matrix_budget_exceeded(capsys):
    # a dense matrix on P_6 has 13,667^2 cells, over the default budget
    start = time.perf_counter()
    assert main(["matrix", "--v", "6", "--which", "M", "--r", "1/2"]) == 3
    assert time.perf_counter() - start < 30
    assert main(["matrix", "--v", "4", "--which", "zeta", "--budget", "224"]) == 3
    assert main(["matrix", "--v", "4", "--which", "zeta", "--budget", "225"]) == 0
    capsys.readouterr()


def test_cmd_chromatic_budget_exceeded(capsys):
    # the budget charges one forest walk per isomorphism class, at the sum
    # over k <= min(|E|, v - 1) of C(|E|, k): summed over P_6's 77 classes
    # it is 47,859; one less is refused before any polynomial is computed
    start = time.perf_counter()
    assert main(["chromatic", "--v", "6", "--budget", "47858"]) == 3
    assert time.perf_counter() - start < 30
    # over P_4's classes K4, diamond, C4, K3 and empty: 42 + 26 + 15 + 8 + 1
    assert main(["chromatic", "--v", "4", "--budget", "91"]) == 3
    assert main(["chromatic", "--v", "4", "--budget", "92"]) == 0
    # one walk for an edge set: 82,160 on K7
    k7 = "v=7;edges=" + ",".join(f"{a}{b}" for a in range(7) for b in range(a + 1, 7))
    assert main(["chromatic", "--edgeset", k7, "--budget", "82159"]) == 3
    assert main(["chromatic", "--edgeset", k7, "--budget", "1000000"]) == 0
    capsys.readouterr()


def test_cmd_chromatic_edgeset_charges_the_vertex_pair_table(capsys):
    # the edge walks read v masks of C(v, 2) bits: 13,495,500,000 at
    # v = 3000 is refused before any of them, 13,455,000 at v = 300 runs
    start = time.perf_counter()
    assert main(["chromatic", "--edgeset", "v=3000;edges=01,12,02"]) == 3
    assert time.perf_counter() - start < 5
    assert "vertex-pair table on 3000 vertices" in capsys.readouterr().err
    assert main(["chromatic", "--edgeset", "v=300;edges=01,12,02", "--format", "tsv"]) == 0
    capsys.readouterr()


def test_chromatic_charge_bounds_the_forest_walk(p4, p5, p6):
    # the walk visits 85 / 1,271 / 32,288 / 36,961 forests on the classes of
    # P_4, P_5 and P_6 and on K7, each at most its class's charge
    k7 = EdgeSet(7, (1 << 21) - 1)
    for poset in (p4, p5, p6):
        for _, idxs in iso_class_blocks(poset):
            member = poset.members[idxs[0]]
            assert sum(_forest_counts(member)[0]) <= _forest_walk_charge(member)
    assert sum(_forest_counts(k7)[0]) == 36961 <= _forest_walk_charge(k7) == 82160


# sha256 of the exact stdout of each pinned command; a new hash here is a
# change of the CLI's output
GOLDEN_STDOUT = {
    "matrix --v 4 --which M --paper-order --blocks": "8b9581eb292e30ab352c59cc42e7376314d2a4b7808565c4aa3e50d424587fe7",
    "matrix --v 4 --which M --errata": "041643a6c3ae7fd8f9e95cbc1b77cfdc99c0a90f15800a61c8e04f9fbce5ed96",
    "matrix --v 4 --which Jinv --r 1/3": "4bff5fcd88cf105035c3ff444bcadde48b6bb99c2af9425a9f2feef946589c76",
    "matrix --v 5 --which M --r 2/3": "d415b4d0a6066999662aa7705ec2f96aa0ba3c7be6de8f2085809050a1000601",
    "matrix --v 5 --which M": "62b4bdde2b1df6df232442fff7ed5b78ae0987226c092168acba260b92832d93",
    "poset --v 4 --format tsv": "5575f2d8780fbe9cdd10d781aa5eae27bda8389e95e425577a8e6a4813d70a04",
    "poset --v 5": "1b11c3272dbe4e5f521d0bb3429bf7121935aa3468d16c6faa26316e21876406",
    "poset --v 6 --format tsv": "4b1f2ea629aee0093fa202eba98458a54da7bbe145e7de7b5a5f867b99548cb4",
    "chromatic --v 5": "eedfe0874b95720db72ec0c554ca8544c68d905963a8b2efe79c5ba40b299a3c",
    "chromatic --v 6": "0c2221a79523532c030b4686b82e451d377f63b87111046f438e6ea49dab694b",
    "examples --which all": "39c10a7fffd69886a24167f486f72b0812eed1013f167d04d850272f14255598",
    "verify --v 4 --group Z2^3 --allowed hamming:1 --format tsv": "f891e755040c9ad7ae835f743fb2a442536ab5bc0abd3ac1e2a9c95a0f5005cb",
    "verify --v 5 --group Z7 --allowed interval:1 --format tsv": "57f7912fa43483bef32e77b268b2106bf11ed4062306070388b5af4792472f50",
    "verify --v 4 --group Z2xZ4 --allowed set:{(0,1),(0,3),(1,0)}": "fdd1738b41c7eed65b213add15b104a33b86ecdeee44a81f068e5175d24be273",
    "verify --v 4 --group Z6 --allowed set:{1,3,5}": "43a07ba0cc3b67e806a63d51c9a5a13f637232032006591aaf0d1223d5c99dee",
    "verify --v 6 --group Z7 --allowed interval:1 --format tsv": "ec51f056d15f51efe32200487a12305ac646e8a16c94da3dde43b8c2d431f5a7",
    "verify --v 6 --group Z2^3 --allowed hamming:1": "c36c982ea320889ea1cc1b9f85063e273c23ad95b68385adaa8624d15487a1e9",
    "gamma --v 5 --group Z7 --allowed interval:1 --format tsv": "eac9db9acfcc382680050bc651ef8cfaef276978e01f00ac6f3e18f4951e0555",
    "gamma --v 4 --group Z2xZ4 --allowed set:{(0,1),(0,3),(1,0)} --method brute": "4ad29cd4e8f57c9c2276f4da9ed1d41181fe3ac07b63b8f4ff57da20c7a894d3",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    code, out = _run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_cmd_gamma_values(capsys):
    code, data = _run_json(
        capsys, ["gamma", "--v", "3", "--group", "Z5", "--allowed", "interval:1"]
    )
    assert code == 0
    assert data["alpha"] == "2/5"
    assert [row["value"] for row in data["values"]] == ["1", "0"]

    code, data = _run_json(
        capsys,
        ["gamma", "--v", "3", "--group", "Z5", "--allowed", "set:{0,1,4}", "--method", "brute"],
    )
    assert code == 0
    assert [row["value"] for row in data["values"]] == ["1", "7/25"]
    assert all(row["method"] == "brute" for row in data["values"])


@pytest.mark.parametrize("method", ["brute", "cycle", "fourier"])
def test_cmd_gamma_prints_gamma_vector(capsys, monkeypatch, method):
    import groupcolor.cli as cli_mod

    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("method", args[2] if len(args) > 2 else "auto"))
        return gamma_vector(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "gamma_vector", spy)
    argv = ["gamma", "--v", "4", "--group", "Z2xZ4", "--allowed", "set:{(0,1),(0,3),(1,0)}"]
    code, data = _run_json(capsys, argv + ["--method", method])
    assert code == 0
    assert seen == [method]
    allowed = allowed_explicit(make_group([2, 4]), [(0, 1), (0, 3), (1, 0)])
    expected = gamma_vector(enumerate_poset(4), allowed, method).values
    rows = data["values"]
    assert [row["value"] for row in rows] == [str(value) for value in expected]
    assert {row["method"] for row in rows} == {method}


def test_cmd_gamma_nonzero_z7(capsys):
    code, data = _run_json(
        capsys, ["gamma", "--v", "3", "--group", "Z7", "--allowed", "nonzero"]
    )
    assert code == 0
    assert data["values"][1]["value"] == str(Fraction(210, 343))


def test_cmd_gamma_hamming_triangle(capsys):
    # computed value; the reference closed form would give 4/64 here, which
    # is the documented erratum (off by 2/4^n)
    code, data = _run_json(
        capsys, ["gamma", "--v", "3", "--group", "Z2^3", "--allowed", "hamming:1"]
    )
    assert code == 0
    assert data["values"][1]["value"] == "3/32"


def test_cmd_gamma_budget_exceeded(capsys):
    code, _ = _run(
        capsys,
        ["gamma", "--v", "4", "--group", "Z7", "--allowed", "nonzero", "--method", "brute", "--budget", "10"],
    )
    assert code == 3


def test_cmd_verify_cases(capsys):
    for args in (
        ["verify", "--v", "3", "--group", "Z5", "--allowed", "interval:1"],
        ["verify", "--v", "4", "--group", "Z2^3", "--allowed", "hamming:1"],
        ["verify", "--v", "4", "--group", "Z6", "--allowed", "set:{0,3}"],
    ):
        code, data = _run_json(capsys, args)
        assert code == 0
        assert data["ok"] is True
        assert data["summary"].startswith("PASS")


def test_cmd_verify_rejects_set_elements_outside_the_group(capsys):
    # an index past the order, a residue tuple longer than the factor list,
    # and residues outside their factors, which are not reduced mod n
    for group, allowed in (
        ("Z6", "set:{9}"),
        ("Z2xZ4", "set:{(1,0,0)}"),
        ("Z2xZ4", "set:{(3,1),(1,-1)}"),
        ("Z2xZ4", "set:{(0,4)}"),
    ):
        assert main(["verify", "--v", "3", "--group", group, "--allowed", allowed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "residue 3 out of range 0..1" in err and "residue 4 out of range 0..3" in err


def test_cmd_verify_has_no_method_option(capsys):
    # verify always sweeps the two histograms, so --method is a usage error
    args = ["verify", "--v", "4", "--group", "Z7", "--allowed", "interval:1"]
    for method in ("auto", "brute", "cycle"):
        assert main(args + ["--method", method]) == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_cmd_verify_budget_exceeded(capsys):
    # the two lattice solves make 2 * 15 * 2^14 = 491,520 steps on the 2^15
    # edge masks of K_6; one less is refused before any gamma work
    start = time.perf_counter()
    args = ["verify", "--v", "6", "--group", "Z7", "--allowed", "interval:1"]
    assert main(args + ["--budget", "491519"]) == 3
    assert time.perf_counter() - start < 30
    assert main(args + ["--budget", "491520", "--format", "tsv"]) == 0
    assert capsys.readouterr().out.endswith("PASS 13667/13667\n")


SUMMARY_SETS = [("Z5", "interval:1"), ("Z2^3", "hamming:1"), ("Z2xZ4", "set:{(0,1),(0,3),(1,0)}")]


@pytest.mark.parametrize("v", [3, 4, 5])
@pytest.mark.parametrize("group, allowed", SUMMARY_SETS)
def test_verify_summary_prints_the_tsv_trailer(capsys, v, group, allowed):
    argv = ["verify", "--v", str(v), "--group", group, "--allowed", allowed]
    code, tsv = _run(capsys, argv + ["--format", "tsv"])
    summary_code, summary = _run(capsys, argv + ["--format", "summary"])
    assert summary_code == code == 0
    assert summary == tsv.splitlines()[-1] + "\n"
    assert summary.startswith("PASS ")


def test_verify_v7_summary_passes_on_every_member():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "groupcolor.cli", "verify", "--v", "7", "--group", "Z2^3",
            "--allowed", "hamming:1", "--format", "summary"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == b"PASS 1137508/1137508\n"


@pytest.mark.parametrize(
    "argv",
    [
        "verify --v 7 --group Z7 --allowed interval:1",
        "verify --v 7 --group Z7 --allowed interval:1 --format tsv",
        "verify --v 8 --group Z7 --allowed interval:1 --format summary",
        "poset --v 7",
        "gamma --v 7 --group Z7 --allowed interval:1 --method auto",
    ],
)
def test_v7_is_verify_summary_only(capsys, argv):
    start = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_verify_v7_budget_refuses_before_any_table(capsys, monkeypatch):
    # the cores pass steps each of the 21 edge bits over 2^20 masks:
    # 22,020,096, charged before any table of the 2^21 masks is made
    def refused(*args):
        raise AssertionError("a cores table was built")

    monkeypatch.setattr(graphs_module, "bridgeless_cores", refused)
    argv = ["verify", "--v", "7", "--group", "Z7", "--allowed", "interval:1", "--budget", "1000000"]
    for fmt in ([], ["--format", "summary"]):
        start = time.perf_counter()
        assert main(argv + fmt) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "bridgeless cores over the edge masks of K_7 (needs 22020096 > budget 1000000)" in err


def test_per_member_commands_check_the_whole_command_budget(capsys, monkeypatch):
    # the per-member methods run once per isomorphism class, so the budget
    # charges one representative of each: over P_4's empty set, K3, C4,
    # diamond and K4, cycle sums 1 + 9 + 27 + 27 + 27 = 91 at f = 3;
    # verify's two lattice solves make 2 * 6 * 2^5 = 384 steps
    argv = ["gamma", "--v", "4", "--group", "Z3", "--allowed", "nonzero"]
    assert main(argv + ["--budget", "90"]) == 3
    assert main(argv + ["--budget", "91"]) == 0
    assert main(["verify", "--v", "4", "--group", "Z3", "--allowed", "nonzero", "--budget", "383"]) == 3
    assert main(["verify", "--v", "4", "--group", "Z3", "--allowed", "nonzero", "--budget", "384"]) == 0
    capsys.readouterr()
    # at v = 6, fourier at Z7 is charged 7^10 for K6 alone, and is refused
    # before any character sum
    def refused(*args):
        raise AssertionError("a character sum ran before the budget check")

    monkeypatch.setattr(groups_module, "character_sum", refused)
    start = time.perf_counter()
    argv = ["gamma", "--v", "6", "--group", "Z7", "--allowed", "interval:1", "--method", "fourier"]
    assert main(argv) == 3
    assert time.perf_counter() - start < 30
    err = capsys.readouterr().err
    needs = int(re.search(r"needs (\d+) > budget 100000000", err).group(1))
    assert needs >= 7**10
    assert "fourier method over 13667 edge sets in 77 classes" in err


def test_fourier_character_table_is_charged_and_bounded(capsys):
    # Z1024 nonzero: each of P_3's two classes pairs the 1024 characters
    # with the one element outside A, on top of its 1 and 1024 terms
    argv = ["gamma", "--v", "3", "--group", "Z1024", "--allowed", "nonzero", "--method", "fourier"]
    assert main(argv + ["--budget", "3072"]) == 3
    assert "needs 3073 > budget 3072" in capsys.readouterr().err
    start = time.perf_counter()
    code, data = _run_json(capsys, argv + ["--budget", "3073"])
    assert time.perf_counter() - start < 3
    assert code == 0
    values = [float(row["value"]) for row in data["values"]]
    assert values == pytest.approx([1, 1023 * 1022 / 1024**2], abs=1e-9)


def test_fourier_pairings_come_from_one_root_table():
    # about a million pairings, each once a sum of Fractions; in a fresh
    # process, with the stdout those pairings printed
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "groupcolor.cli", "gamma", "--v", "3", "--group", "Z1024",
            "--allowed", "interval:255", "--method", "fourier"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "7d26b4fd115002d46f272f2e60d363b72c098ef10943018da70593b4c5e1af1c"
    )


def test_budget_refuses_a_negative_value(capsys):
    argv = ["gamma", "--v", "4", "--group", "Z5", "--allowed", "interval:1"]
    assert main(argv + ["--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: must be at least 0, got -5" in captured.err
    assert main(argv + ["--budget", "five"]) == 2
    assert "argument --budget: invalid int value: 'five'" in capsys.readouterr().err
    # zero is a budget: it refuses the work with exit 3, not as a usage error
    assert main(argv + ["--budget", "0"]) == 3


def test_cmd_gamma_auto_runs_p6_at_the_default_budget(capsys):
    argv = ["gamma", "--v", "6", "--group", "Z7", "--allowed", "interval:1"]
    code, data = _run_json(capsys, argv + ["--method", "auto"])
    assert code == 0
    rows = data["values"]
    assert len(rows) == 13667
    assert {row["method"] for row in rows} == {"auto"}
    assert rows[0]["value"] == "1" and rows[-1]["value"] == "0"  # empty, then K6
    # the per-member methods run once per class, so the default cycle
    # method, charged 1,038,311, runs here too, and it and brute give the
    # histogram's value at every member
    code, cycle = _run_json(capsys, argv)
    assert code == 0
    assert [r["value"] for r in cycle["values"]] == [r["value"] for r in rows]
    poset = enumerate_poset(6)
    allowed = parse_allowed_spec("interval:1", make_group([7]))
    expected = gamma_vector(poset, allowed).values
    assert gamma_vector(poset, allowed, "brute").values == expected
    assert [str(x) for x in expected] == [r["value"] for r in rows]


def test_cmd_verify_failure_exit_code(capsys, monkeypatch):
    import groupcolor.cli as cli_mod

    class FakeReport:
        # the fields cmd_verify reads
        alpha = Fraction(1, 2)
        lhs = (Fraction(1), Fraction(0))
        rhs = (Fraction(1), Fraction(1, 4))
        per_coordinate = (True, False)
        passed = 1
        ok = False

    monkeypatch.setattr(cli_mod, "verify_reciprocity", lambda *a, **k: FakeReport())
    code, data = _run_json(capsys, ["verify", "--v", "3", "--group", "Z5", "--allowed", "nonzero"])
    assert code == 1
    assert data["ok"] is False and data["alpha_bar"] == "1/2"
    assert [(c["rhs"], c["equal"]) for c in data["coordinates"]] == [("1", True), ("1/4", False)]
    assert data["summary"] == "FAIL 1/2"


def test_cmd_chromatic_all_members(capsys):
    code, data = _run_json(capsys, ["chromatic", "--v", "4"])
    assert code == 0
    assert data["all_equal"] is True
    assert len(data["polynomials"]) == 15


def test_cmd_chromatic_v6_in_bounded_time(capsys, monkeypatch):
    # every P_6 member, from empty memos: the 77 isomorphism classes are
    # solved and checked once each
    monkeypatch.setattr(gamma_module, "_forest_counts_by_class", {})
    monkeypatch.setattr(graphs_module, "_canonical_forms", {})
    fresh = lru_cache(maxsize=None)(graphs_module._chromatic.__wrapped__)
    monkeypatch.setattr(graphs_module, "_chromatic", fresh)
    start = time.perf_counter()
    code, data = _run_json(capsys, ["chromatic", "--v", "6"])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert data["all_equal"] is True
    assert len(data["polynomials"]) == 13667


def test_cmd_chromatic_catches_a_wrong_class_partition(capsys, monkeypatch):
    # K4 and the diamonds merged into one class: the class is solved on K4,
    # and the oracle on its last member, a diamond, disagrees
    import groupcolor.cli as cli_module

    real = cli_module.iso_class_blocks

    def merged(poset):
        (label, first), (_, second), *rest = real(poset)
        return [(label, first + second), *rest]

    monkeypatch.setattr(cli_module, "iso_class_blocks", merged)
    code, data = _run_json(capsys, ["chromatic", "--v", "4"])
    assert code == 1
    assert data["all_equal"] is False
    unequal = [row["mask"] for row in data["polynomials"] if not row["equal"]]
    assert len(unequal) == 7  # K4 and the six diamonds
    assert max(unequal) == 63


def test_cmd_chromatic_single_edgeset(capsys):
    code, data = _run_json(capsys, ["chromatic", "--edgeset", "v=4;edges=01,02,03,12,13,23"])
    assert code == 0
    row = data["polynomials"][0]
    assert row["via_transfer"] == row["oracle"] == "-6f + 11f^2 - 6f^3 + f^4"


def test_cmd_chromatic_refuses_more_edges_than_k7(capsys):
    # K7 minus 01, plus vertex 7 joined to 0 and 1: 22 edges, bridgeless,
    # a forest charge of 280,600 (under the default budget) but over the
    # edge cap
    edges = [f"{a}{b}" for a in range(7) for b in range(a + 1, 7) if (a, b) != (0, 1)]
    text = "v=8;edges=" + ",".join(edges + ["07", "17"])
    start = time.perf_counter()
    assert main(["chromatic", "--edgeset", text]) == 2
    assert time.perf_counter() - start < 5
    assert "cap of 21" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("v=3;edges=01;colour=2", "'colour'"),
        ("v=x;edges=01", "v='x'"),
        ("v=3;mask=zz", "mask='zz'"),
        ("v=3;mask=0b111;edges=01", "not both"),
        ("v=3;edges=01,12,20,01", "edge (0, 1) is repeated"),
    ],
)
def test_cmd_chromatic_edgeset_names_the_bad_field(capsys, text, named):
    assert main(["chromatic", "--edgeset", text]) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err and "Traceback" not in err


def test_cmd_chromatic_needs_target(capsys):
    # exactly one of --v and --edgeset
    for argv, said in (
        (["chromatic"], "one of the arguments --v --edgeset is required"),
        (["chromatic", "--v", "3", "--edgeset", "v=3;edges=01,12,02"], "not allowed with"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and said in err and "Traceback" not in err


def test_closed_stdout_exits_1_without_a_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "groupcolor.cli", "poset", "--v", "6"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_import_loads_neither_dataclasses_nor_inspect():
    # the value classes are written out, so no process pays for importing
    # dataclasses and, with it, inspect; -S keeps site's imports out
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import groupcolor, groupcolor.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "\n"


def test_cmd_examples_all(capsys):
    code, data = _run_json(capsys, ["examples", "--which", "all"])
    assert code == 0
    assert data["ok"] is True
    assert data["example1"]["v3"]["match"] is True
    assert data["example1"]["v4"]["match_except_errata"] is True
    assert data["example2"]["spot_f5_k1_gamma_bar"] == "7/25"
    rows = data["example3"]["rows"]
    assert all(not row["gamma_reference_match"] for row in rows)
    assert all(row["gamma_consistent_match"] for row in rows)


def test_cmd_examples_check_the_budget(capsys):
    # example 1 builds 15^2 dense cells on P_4; examples 2 and 3 count
    # triangle colorings past ten from f = 5 and n = 2 on
    for which in ("1", "2", "3"):
        assert main(["examples", "--which", which, "--budget", "10"]) == 3
    assert main(["examples", "--which", "1", "--budget", "225"]) == 0
    capsys.readouterr()


def test_example_reports_directly():
    rep1 = example1_report()
    assert rep1["ok"]
    assert rep1["v4"]["errata_blocks"] == [["K4", "K3"], ["diamond", "empty"]]
    assert rep1["v4"]["cells_matching_reference"] == 215

    rep2 = example2_report()
    assert rep2["ok"]
    low = [r for r in rep2["rows"] if r["branch"] == "low"]
    high = [r for r in rep2["rows"] if r["branch"] == "high"]
    assert low and high and all(r["match"] for r in rep2["rows"])

    rep3 = example3_report()
    assert rep3["ok"]
    assert [t["n"] for t in rep3["independence_trend"]] == list(range(1, 13))
    ratios = [t["ratio"] for t in rep3["independence_trend"]]
    assert abs(ratios[-1] - 1) < 1e-3  # trend toward edgewise independence


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2
    assert main(["gamma", "--v", "3"]) == 2  # missing required --group/--allowed


def test_output_is_deterministic(capsys):
    _, first = _run(capsys, ["examples", "--which", "2"])
    _, second = _run(capsys, ["examples", "--which", "2"])
    assert first == second


@pytest.mark.parametrize(
    "argv, key",
    [
        (["poset", "--v", "4"], "members"),
        (["gamma", "--v", "4", "--group", "Z5", "--allowed", "interval:1"], "values"),
        (["verify", "--v", "4", "--group", "Z7", "--allowed", "interval:1"], "coordinates"),
        (["chromatic", "--v", "4"], "polynomials"),
        (["chromatic", "--edgeset", "v=4;edges=01,12,23,03"], "polynomials"),
    ],
)
def test_json_and_tsv_rows_agree(capsys, argv, key):
    # one writer prints both formats: the TSV header is the JSON rows' keys
    # and each TSV row their values, in member order; verify's TSV has no
    # edges column and ends with the summary line
    code, data = _run_json(capsys, argv)
    tsv_code, out = _run(capsys, argv + ["--format", "tsv"])
    assert code == tsv_code == 0
    verify = argv[0] == "verify"
    expected = [{k: v for k, v in row.items() if not (verify and k == "edges")} for row in data[key]]
    header, *lines = out.splitlines()
    assert header.split("\t") == list(expected[0])
    rows = [line.split("\t") for line in lines[: len(expected)]]
    assert rows == [[str(v) for v in row.values()] for row in expected]
    assert lines[len(expected) :] == ([data["summary"]] if verify else [])


def test_verify_tsv_builds_no_edge_text(capsys, monkeypatch):
    # the TSV has no edges column, so no member's text is built for it
    calls = []
    real = EdgeSet.to_text

    def spy(self, *args):
        calls.append(self.bits)
        return real(self, *args)

    monkeypatch.setattr(EdgeSet, "to_text", spy)
    argv = ["verify", "--v", "4", "--group", "Z7", "--allowed", "interval:1"]
    assert main(argv + ["--format", "tsv"]) == 0
    assert calls == []
    assert main(argv) == 0
    assert len(calls) == 15
    capsys.readouterr()


def test_verify_renders_a_shared_side_once(capsys, monkeypatch):
    # the rhs column of a passing check is the lhs column: each member's
    # value is rendered once, plus alpha and alpha_bar
    calls = []
    real = Fraction.__str__

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__str__", spy)
    assert main(["verify", "--v", "4", "--group", "Z7", "--allowed", "interval:1"]) == 0
    capsys.readouterr()
    assert len(calls) == len(enumerate_poset(4)) + 2


def test_tsv_formats_run(capsys):
    for args in (
        ["matrix", "--v", "3", "--which", "M", "--format", "tsv"],
        ["gamma", "--v", "3", "--group", "Z5", "--allowed", "nonzero", "--format", "tsv"],
        ["verify", "--v", "3", "--group", "Z5", "--allowed", "interval:1", "--format", "tsv"],
        ["chromatic", "--v", "3", "--format", "tsv"],
        ["examples", "--which", "1", "--format", "tsv"],
    ):
        code, out = _run(capsys, args)
        assert code == 0
        assert out.strip()
