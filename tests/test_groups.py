"""Group construction, element indexing, allowed-set symmetry, and the
character-sum identities the Fourier route depends on."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcolor.groups import (
    AllowedSet,
    allowed_complement_identity,
    allowed_explicit,
    allowed_hamming,
    allowed_interval,
    character_sum,
    make_group,
    pairing_by_index,
)


def test_make_group_orders():
    assert make_group([5]).order == 5
    assert make_group([2, 2, 2]).order == 8
    assert make_group([3, 9]).order == 27


def test_make_group_rejects_bad_input():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([1, 3])
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([2] * 13)  # 8192 over the default order cap
    # refused while the orders are multiplied, so an order too long to
    # print as an int is never formatted
    with pytest.raises(ValueError, match="exceeds cap 4096"):
        make_group([2] * 20000)


def test_identity_is_index_zero():
    for orders in ([5], [2, 2, 2], [3, 9], [4, 6]):
        g = make_group(orders)
        assert g.residues_of(0) == (0,) * len(orders)
        assert g.index_of((0,) * len(orders)) == 0


def test_mixed_radix_most_significant_first():
    g = make_group([3, 9])
    assert g.index_of((1, 0)) == 9
    assert g.index_of((0, 1)) == 1
    assert g.residues_of(10) == (1, 1)
    h = make_group([2, 2, 2])
    assert h.index_of((1, 0, 0)) == 4
    assert h.index_of((0, 0, 1)) == 1


def test_index_residue_round_trip():
    for orders in ([7], [2, 3], [3, 9], [2, 2, 2]):
        g = make_group(orders)
        for i in range(g.order):
            assert g.index_of(g.residues_of(i)) == i


@pytest.mark.parametrize("orders", [[6], [2, 2], [3, 9], [7, 8, 11]])
def test_add_neg_consistent_with_residue_arithmetic(orders):
    # covers the cyclic, xor and mixed code paths; the mixed add reads translate
    g = make_group(orders)
    samples = range(g.order) if g.order <= 72 else range(0, g.order, 13)
    for a in samples:
        ra = g.residues_of(a)
        want_neg = tuple((-x) % n for x, n in zip(ra, orders))
        assert g.residues_of(g.neg(a)) == want_neg
        for b in samples:
            rb = g.residues_of(b)
            want = tuple((x + y) % n for x, y, n in zip(ra, rb, orders))
            assert g.residues_of(g.add(a, b)) == want


@pytest.mark.parametrize("orders", [[7], [2, 2, 2], [2, 4], [3, 3], [2, 300]])
def test_translate_moves_every_bit_by_the_group_law(orders):
    # against residue-wise sums, not add(), which reads translate on a mixed group
    g = make_group(orders)

    def plus(x, a):
        pairs = zip(g.residues_of(x), g.residues_of(a), orders)
        return g.index_of(tuple((r + s) % n for r, s, n in pairs))

    shifts = range(g.order) if g.order <= 72 else (0, 1, 299, 300, 301, 457, 599)
    for a in shifts:
        for x in range(g.order):
            assert g.translate(1 << x, a) == 1 << plus(x, a)
        mask = sum(1 << x for x in range(0, g.order, 3))
        assert g.translate(mask, a) == sum(1 << plus(x, a) for x in range(0, g.order, 3))


def test_allowed_rows_are_translated_sets():
    for allowed in (
        allowed_interval(make_group([7]), 1),
        allowed_hamming(3, 1),
        allowed_explicit(make_group([2, 4]), [(0, 1), (0, 3), (1, 0), (1, 2)]),
    ):
        g = allowed.group
        for a, row in enumerate(allowed.rows):
            assert row == sum(1 << b for b in range(g.order) if g.add(b, g.neg(a)) in allowed)


def test_element_arithmetic():
    g = make_group([5])
    assert g.add(2, 3) == 0
    assert g.neg(2) == 3
    assert g.add(2, g.neg(3)) == 4
    assert g.neg(0) == 0


def test_element_rejects_wrong_tuple_length():
    g = make_group([2, 2, 2])
    assert g.index_of((1, 0, 1)) == 5
    assert allowed_explicit(g, [(1, 0, 1)]).indices() == (5,)
    for spec in ((1, 0, 0, 1), (1, 0), []):
        with pytest.raises(ValueError):
            g.index_of(spec)
        with pytest.raises(ValueError):
            allowed_explicit(g, [spec])


def test_index_of_rejects_residues_outside_their_factors():
    # a residue is not reduced mod its factor's order, as an index is not
    # reduced mod the group order
    g = make_group([2, 4])
    assert g.index_of((1, 3)) == 7
    for spec in ((3, 1), (1, -1), (2, 0), (0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            g.index_of(spec)
        with pytest.raises(ValueError, match="out of range"):
            allowed_explicit(g, [spec])
    a = allowed_explicit(g, [(1, 1), (1, 3)])
    assert (1, 1) in a and (1, 3) in a
    assert (3, 1) not in a and (1, -1) not in a and (1, 5) not in a
    assert (1, 1, 0) not in a and (1,) not in a  # wrong length


def test_allowed_explicit_rejects_bad_specs():
    g = make_group([6])
    for index in (6, 9, -1):
        with pytest.raises(ValueError, match="out of range"):
            allowed_explicit(g, [index])
    for spec in (3.0, "3", None):
        with pytest.raises(TypeError):
            allowed_explicit(g, [spec])


def test_allowed_interval_examples():
    g5 = make_group([5])
    a = allowed_interval(g5, 1)
    assert a.indices() == (2, 3)
    assert a.alpha == Fraction(2, 5)

    g7 = make_group([7])
    a = allowed_interval(g7, 0)
    assert a.indices() == tuple(range(1, 7))
    assert a.alpha == Fraction(6, 7)

    g6 = make_group([6])
    a = allowed_interval(g6, 2)
    assert a.indices() == (3,)  # 3 = -3 mod 6, so still symmetric
    assert a.alpha == Fraction(1, 6)


def test_allowed_interval_matches_enumeration():
    for f in range(5, 20):
        g = make_group([f])
        for k in range((f - 1) // 2 + 1):
            a = allowed_interval(g, k)
            want = tuple(x for x in range(f) if k < x < f - k)
            assert a.indices() == want
            assert a.complement().size == 2 * k + 1
            assert a.alpha_bar == Fraction(2 * k + 1, f)


def test_allowed_interval_rejects():
    with pytest.raises(ValueError):
        allowed_interval(make_group([2, 2]), 1)
    with pytest.raises(ValueError):
        allowed_interval(make_group([5]), 3)  # 2k+1 = 7 > 5
    with pytest.raises(ValueError):
        allowed_interval(make_group([5]), -1)


def test_allowed_hamming_examples():
    a = allowed_hamming(3, 1)
    assert a.alpha_bar == Fraction(4, 8) == Fraction(3 + 1, 2**3)

    a2 = allowed_hamming(2, 1)
    assert [a2.group.residues_of(i) for i in a2.indices()] == [(1, 1)]
    assert a2.alpha == Fraction(1, 4)

    a1 = allowed_hamming(1, 0)
    assert a1.indices() == (1,)
    assert a1.alpha == Fraction(1, 2)


def test_allowed_hamming_matches_weight_enumeration():
    for n in (*range(1, 7), 12):  # 12, the largest n of example 3
        for k in range(n + 1):
            a = allowed_hamming(n, k)
            g = a.group
            want = {i for i in range(g.order) if sum(g.residues_of(i)) > k}
            assert set(a.indices()) == want
            assert a.alpha == Fraction(sum(math.comb(n, w) for w in range(k + 1, n + 1)), 2**n)
            assert a.alpha_bar == Fraction(sum(math.comb(n, w) for w in range(k + 1)), 2**n)


def test_allowed_hamming_rejects():
    with pytest.raises(ValueError):
        allowed_hamming(3, -1)
    with pytest.raises(ValueError):
        allowed_hamming(3, 4)
    with pytest.raises(ValueError):
        allowed_hamming(0, 0)


def test_allowed_complement_identity():
    assert allowed_complement_identity(make_group([2])).alpha == Fraction(1, 2)
    assert allowed_complement_identity(make_group([5])).size == 4
    a = allowed_complement_identity(make_group([2, 2]))
    assert a.size == 3 and a.alpha == Fraction(3, 4)
    assert 0 not in a


def test_allowed_explicit():
    g5 = make_group([5])
    a = allowed_explicit(g5, [1, 4])
    assert a.alpha == Fraction(2, 5)

    with pytest.raises(ValueError) as err:
        allowed_explicit(g5, [1, 2])
    assert "not symmetric" in str(err.value)

    g6 = make_group([6])
    a = allowed_explicit(g6, [0, 3])
    assert a.alpha == Fraction(1, 3)
    assert 0 in a and 3 in a


def test_allowed_explicit_accepts_tuples_and_elements():
    g = make_group([2, 2])
    a = allowed_explicit(g, [(1, 1)])
    b = allowed_explicit(g, [3])
    assert a.mask == b.mask
    assert 3 in a and (1, 1) in a and [1, 1] in a
    assert 0 not in a and (0, 1) not in a
    assert -1 not in a and 4 not in a  # not indices of the group


def test_complement_partition():
    g = make_group([3, 9])
    a = allowed_complement_identity(g)
    bar = a.complement()
    assert a.alpha + bar.alpha == 1
    assert a.mask ^ bar.mask == (1 << g.order) - 1
    assert bar.complement().mask == a.mask


def test_pairing_trivial_character():
    g = make_group([3, 4])
    for q in range(g.order):
        assert pairing_by_index(g, 0, q) == pytest.approx(1.0)


def test_pairing_values():
    g4 = make_group([4])
    val = pairing_by_index(g4, 1, 1)
    assert val == pytest.approx(1j)
    assert abs(val) == pytest.approx(1.0)

    g22 = make_group([2, 2])
    val = pairing_by_index(g22, g22.index_of((1, 1)), g22.index_of((1, 0)))
    assert val == pytest.approx(-1.0)
    assert abs(val) == pytest.approx(1.0)


def test_pairing_unit_modulus_and_group_check():
    g = make_group([3, 5])
    for p in range(g.order):
        for q in range(g.order):
            assert abs(abs(pairing_by_index(g, p, q)) - 1.0) < 1e-12
    # an index of a larger group is not an element of this one
    with pytest.raises(ValueError):
        pairing_by_index(g, 1, 15)
    with pytest.raises(ValueError):
        pairing_by_index(g, 15, 1)


def _pairing_by_fraction(g, p, q):
    # the exact phase as a Fraction, reduced into [0, 1) and rounded once
    phase = Fraction(0)
    for pi, qi, n in zip(g.residues_of(p), g.residues_of(q), g.cyclic_orders):
        phase += Fraction(pi * qi, n)
    phase -= math.floor(phase)
    return cmath.exp(2j * math.pi * float(phase))


def _ordered_factorizations(n):
    # every tuple of cyclic orders >= 2 with product n, in every order
    if n == 1:
        return [()]
    return [(d,) + rest for d in range(2, n + 1) if n % d == 0 for rest in _ordered_factorizations(n // d)]


def test_pairings_equal_the_exact_phase_bit_for_bit():
    for f in range(2, 17):
        for orders in _ordered_factorizations(f):
            g = make_group(orders)
            for p in range(f):
                for q in range(f):
                    assert pairing_by_index(g, p, q) == _pairing_by_fraction(g, p, q), (orders, p, q)


CHARACTER_TEST_ORDERS = [[5], [7], [4], [6], [2, 2], [2, 3], [8], [3, 3], [2, 2, 2], [12], [64]]


@pytest.mark.parametrize("orders", CHARACTER_TEST_ORDERS)
def test_character_sums_over_whole_group(orders):
    g = make_group(orders)
    full = AllowedSet(g, (1 << g.order) - 1)
    for p in range(g.order):
        # character_sum over A reads this orthogonality when Abar is smaller,
        # so it is checked on the pairings themselves too
        direct = sum(pairing_by_index(g, p, q) for q in range(g.order))
        for total in (character_sum(full, p), direct):
            if p == 0:
                assert total == pytest.approx(g.order, abs=1e-9)
            else:
                assert abs(total) < 1e-9


@pytest.mark.parametrize("orders", [[5], [6], [2, 2], [2, 2, 2], [12]])
def test_allowed_sum_is_minus_complement_sum(orders):
    g = make_group(orders)
    allowed = allowed_complement_identity(g)
    if orders == [6]:
        allowed = allowed_explicit(g, [0, 3])
    bar = allowed.complement()
    for p in range(1, g.order):
        lhs = character_sum(allowed, p)
        rhs = -character_sum(bar, p)
        assert abs(lhs - rhs) < 1e-9
        assert abs(lhs - sum(pairing_by_index(g, p, q) for q in allowed.indices())) < 1e-9


def test_symmetry_validated_by_full_enumeration():
    # every constructor output satisfies x in A iff -x in A
    sets = [
        allowed_interval(make_group([9]), 2),
        allowed_hamming(4, 2),
        allowed_complement_identity(make_group([3, 9])),
        allowed_explicit(make_group([8]), [2, 6, 4]),
    ]
    for a in sets:
        g = a.group
        for i in range(g.order):
            assert a.contains_index(i) == a.contains_index(g.neg(i))


@st.composite
def _group_and_subset(draw):
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=3))
    g = make_group(orders)
    picks = draw(st.sets(st.integers(min_value=0, max_value=g.order - 1), max_size=g.order))
    return g, picks


@given(_group_and_subset())
@settings(max_examples=60, deadline=None)
def test_symmetrized_sets_always_construct(pair):
    g, picks = pair
    closed = set(picks) | {g.neg(i) for i in picks}
    a = allowed_explicit(g, sorted(closed))
    assert a.size == len(closed)
    assert a.alpha + a.complement().alpha == 1
    for i in closed:
        assert i in a
