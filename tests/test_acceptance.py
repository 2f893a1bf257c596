"""Acceptance criteria, one test per criterion, each printing a PASS or
FAIL line with its runtime (run with -s to see them).

Criterion 7 is split: 7a checks the complement closed form and passes;
7b asserts the reference allowed-value closed form verbatim and fails,
deliberately. Exact computation (three independent methods, the transfer
identity, and the row-sum check) shows that form is short by exactly
2/4^n: the coefficient of 4^-n must be 3n^2 + 3n + 2, not 3n^2 + 3n.
The failing test is kept as stated rather than repaired silently; see
the example-3 report for the per-n discrepancy table.
"""

import random
import time
from fractions import Fraction

from groupcolor.gamma import (
    gamma_bruteforce,
    gamma_cyclespace,
    gamma_fourier,
    hamming_k3_closed_form,
    residual,
    verify_reciprocity,
)
from groupcolor.graphs import (
    EdgeSet,
    chromatic_oracle,
    enumerate_poset,
    iso_class_blocks,
)
from groupcolor.gamma import chromatic_via_transfer
from groupcolor.groups import (
    allowed_complement_identity,
    allowed_explicit,
    allowed_hamming,
    allowed_interval,
    make_group,
)
from groupcolor.posetlin import (
    VARIABLE,
    RationalPoly,
    mobius_matrix,
    transfer_at,
    weighted_zeta_at,
    weighted_zeta_inverse_at,
    zeta_matrix,
)

K3 = EdgeSet.from_edges(3, [(0, 1), (0, 2), (1, 2)])
C4 = EdgeSet.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K4 = EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def _check(label: str, limit_seconds, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"{label}: {elapsed:.2f}s over {limit_seconds}s limit"
    print(f"[PASS] {label} ({elapsed:.2f}s)")


def test_criterion_01_poset_counts():
    def body():
        assert len(enumerate_poset(3)) == 2
        p4 = enumerate_poset(4)
        assert len(p4) == 15
        assert [len(ix) for _, ix in iso_class_blocks(p4)] == [1, 6, 3, 4, 1]

    _check("criterion 1: poset counts and iso-class sizes", 1.0, body)


def test_criterion_02_transfer_v3():
    def body():
        m = transfer_at(enumerate_poset(3), VARIABLE)
        assert m.render_rows(paper_order=True) == [["-1", "1 - 3r + 3r^2"], ["0", "1"]]
        assert m.entries == (
            (RationalPoly.constant(1), RationalPoly.zero()),
            (RationalPoly.of([1, -3, 3]), RationalPoly.constant(-1)),
        )

    _check("criterion 2: v=3 transfer matrix, exact symbolic", None, body)


def _reference_entry_v4(poset, label, h, e):
    """Reference final matrix for v = 4, with the two typo cells replaced by
    the independently validated values."""
    lh, le = label[h], label[e]
    leq = poset.leq(e, h)
    table = {
        ("K4", "K4"): [1],
        ("K4", "diamond"): [-1],
        ("K4", "C4"): [1],
        ("K4", "K3"): [-1, 3],  # reference prints -1 + 3r - r^2 + r^3
        ("K4", "empty"): [1, -6, 15, -16],
        ("C4", "empty"): [1, -4, 6, -4],
        ("K3", "empty"): [1, -3, 3],
        ("diamond", "empty"): [1, -5, 10, -8],  # reference prints -3r^3
        ("empty", "empty"): [1],
    }
    if (lh, le) in table:
        return RationalPoly.of(table[(lh, le)])
    if lh == le:
        return RationalPoly.constant((-1) ** poset.sizes[h]) if h == e else RationalPoly.zero()
    if lh == "diamond" and le == "C4":
        return RationalPoly.constant(1) if leq else RationalPoly.zero()
    if lh == "diamond" and le == "K3":
        return RationalPoly.of([-1, 2]) if leq else RationalPoly.zero()
    return RationalPoly.zero()


def test_criterion_03_transfer_v4():
    def body():
        poset = enumerate_poset(4)
        m = transfer_at(poset, VARIABLE)
        label = {}
        for lbl, idxs in iso_class_blocks(poset):
            for i in idxs:
                label[i] = lbl
        for h in range(len(poset)):
            for e in range(len(poset)):
                assert m.entry(h, e) == _reference_entry_v4(poset, label, h, e), (
                    label[h],
                    label[e],
                )
        # the two disputed cells: computed values, not the printed ones
        top = poset.index_of(K4)
        tri = poset.index_of(EdgeSet.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
        dia = poset.index_of(EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        assert m.entry(top, tri) == RationalPoly.of([-1, 3])
        assert m.entry(top, tri) != RationalPoly.of([-1, 3, -1, 1])
        assert m.entry(dia, 0) == RationalPoly.of([1, -5, 10, -8])
        assert m.entry(dia, 0) != RationalPoly.of([1, -5, 10, -3])
        # validation (a): every non-empty row sums to zero at r = 1
        for h in range(1, len(poset)):
            assert sum(m.entry(h, e)(1) for e in range(len(poset))) == 0
        assert sum(m.entry(0, e)(1) for e in range(len(poset))) == 1
        # validation (b) is criterion 5: the chromatic cross-check

    _check("criterion 3: v=4 transfer matrix vs reference (2 errata cells)", 5.0, body)


def test_criterion_04_reciprocity():
    def body():
        cases = [
            (3, allowed_interval(make_group([5]), 1)),
            (4, allowed_interval(make_group([7]), 1)),
            (4, allowed_hamming(3, 1)),
            (4, allowed_explicit(make_group([6]), [0, 3])),
            (4, allowed_explicit(make_group([6]), [1, 2, 4, 5])),
        ]
        for v, allowed in cases:
            poset = enumerate_poset(v)
            report = verify_reciprocity(poset, allowed)
            assert report.ok, report.failing_indices()

    _check("criterion 4: reciprocity identity, exact, 4 set-ups", 30.0, body)


def test_criterion_05_chromatic_agreement():
    def body():
        poset = enumerate_poset(4)
        for member in poset.members:
            assert chromatic_via_transfer(member) == chromatic_oracle(member)
        assert chromatic_via_transfer(K4) == RationalPoly.of([0, -6, 11, -6, 1])
        diamond = EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert chromatic_via_transfer(diamond) == RationalPoly.of([0, -4, 8, -5, 1])

    _check("criterion 5: chromatic polynomials on all of P_4", 5.0, body)


def test_criterion_06_interval_piecewise_sweep():
    def body():
        for f in range(5, 32, 2):
            group = make_group([f])
            for k in range((f - 1) // 2 + 1):
                allowed = allowed_interval(group, k)
                ab = allowed.alpha_bar
                got_bar = gamma_cyclespace(K3, allowed.complement())
                got = gamma_cyclespace(K3, allowed)
                if ab <= Fraction(2, 3):
                    assert got_bar == Fraction(3, 4) * ab**2 + Fraction(1, 4 * f**2)
                    assert got == 1 - 3 * ab + Fraction(9, 4) * ab**2 - Fraction(1, 4 * f**2)
                else:
                    assert got == 0
        spot = allowed_interval(make_group([5]), 1)
        assert gamma_bruteforce(K3, spot.complement()) == Fraction(7, 25)

    _check("criterion 6: interval piecewise law, odd f in 5..31", 10.0, body)


def test_criterion_07a_hamming_complement_closed_form():
    def body():
        for n in range(2, 11):
            allowed = allowed_hamming(n, 1)
            got = gamma_cyclespace(K3, allowed.complement())
            assert got == Fraction(3 * n + 1, 4**n)

    _check("criterion 7a: hamming complement closed form, n=2..10", 30.0, body)


def test_criterion_07b_hamming_allowed_closed_form_as_published():
    """Asserts the reference allowed-value closed form verbatim.

    This fails, and is meant to: the computed value (identical by brute
    force, cycle space, Fourier, and the transfer identity) exceeds the
    reference form by exactly 2/4^n for every n, so the reference display
    is inconsistent with its own complement form. Kept red as documentation
    rather than weakened; the consistent form passes in test_gamma.
    """

    def body():
        for n in range(2, 11):
            allowed = allowed_hamming(n, 1)
            got = gamma_cyclespace(K3, allowed)
            _, published = hamming_k3_closed_form(n)
            assert got == published, (
                f"n={n}: computed {got} != reference closed form {published}; "
                f"difference {got - published} = 2/4^n. The 4^-n coefficient "
                f"must be 3n^2+3n+2 (forced by the complement form and the "
                f"transfer row), not 3n^2+3n."
            )

    _check("criterion 7b: hamming allowed closed form as published", 30.0, body)


def test_criterion_08_residual_orders():
    def body():
        for f in range(3, 18):
            allowed = allowed_complement_identity(make_group([f]))
            ab = Fraction(1, f)
            assert residual(K3, allowed) == -(ab**2)
            assert residual(C4, allowed) == ab**3

    _check("criterion 8: residual orders alpha_bar^(girth-1), f=3..17", 5.0, body)


def test_criterion_09_method_agreement():
    def body():
        poset = enumerate_poset(4)
        set_ups = [
            allowed_interval(make_group([5]), 1),
            allowed_hamming(3, 1),
        ]
        for allowed in set_ups:
            for member in poset.members:
                brute = gamma_bruteforce(member, allowed)
                cycle = gamma_cyclespace(member, allowed)
                assert brute == cycle
                fourier = gamma_fourier(member, allowed)
                assert abs(fourier - float(brute)) <= 1e-9

    _check("criterion 9: brute = cycle exactly, |fourier - exact| <= 1e-9", 60.0, body)


def test_criterion_10_matrix_identities():
    def body():
        for v in (2, 3, 4):
            poset = enumerate_poset(v)
            assert (zeta_matrix(poset) @ mobius_matrix(poset)).is_identity()
            m = transfer_at(poset, VARIABLE)
            assert (m @ transfer_at(poset, 1 - VARIABLE)).is_identity()
        p5 = enumerate_poset(5)
        z = weighted_zeta_at(p5, 1)
        w = weighted_zeta_inverse_at(p5, 1)
        assert (z @ w).is_identity()
        rng = random.Random(20260810)
        for _ in range(5):
            r = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            prod = transfer_at(p5, r) @ transfer_at(p5, 1 - r)
            assert prod.is_identity()

    _check("criterion 10: zeta/Mobius and transfer involution, v<=5", 120.0, body)
