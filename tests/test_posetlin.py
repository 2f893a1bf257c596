"""Rational polynomial arithmetic and the poset matrices: zeta and Mobius
inversion, the weighted zeta pair, and the reciprocity transfer matrix."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupcolor.posetlin as posetlin_module
from groupcolor.cli import main
from groupcolor.graphs import (
    EdgeSet,
    SubgraphPoset,
    bridgeless_cores,
    bridgeless_subsets,
    down_sets_of,
    enumerate_poset,
)
from groupcolor.posetlin import (
    VARIABLE,
    PolyMatrix,
    RationalPoly,
    mobius_matrix,
    mobius_table,
    transfer_at,
    weighted_zeta_at,
    weighted_zeta_inverse_at,
    zeta_matrix,
)

from conftest import (
    apply,
    compose,
    low_positions,
    mobius_recursion,
    sign_diagonal,
    transfer_chain_product,
    weighted_zeta_inverse_by_recursion,
    weighted_zeta_on_down_sets,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


def _vals(*ints):
    return RationalPoly.of(list(ints))


# ---------------------------------------------------------------------------
# RationalPoly


def test_normalization_and_degree():
    p = RationalPoly.of([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert RationalPoly.of([0, 0]).is_zero
    assert RationalPoly.zero().degree == -1
    with pytest.raises(ValueError):
        RationalPoly((Fraction(1), Fraction(0)))


def test_arithmetic():
    p = _vals(1, -1)  # 1 - r
    q = _vals(0, 1)  # r
    assert p + q == _vals(1)
    assert p - p == RationalPoly.zero()
    assert p * q == _vals(0, 1, -1)
    assert (p**3) == _vals(1, -3, 3, -1)
    assert 2 * q == _vals(0, 2)
    assert q.scale(Fraction(1, 2)) == RationalPoly.of([0, Fraction(1, 2)])
    # rationals mix in as constants, and only the zero polynomial is falsy
    assert 1 - q == p == q * -1 + 1
    assert Fraction(1, 2) + q - Fraction(1, 2) == q
    assert not RationalPoly.zero() and q


def test_evaluation_is_horner_of_coefficients():
    p = _vals(1, -5, 10, -8)
    x = Fraction(2, 3)
    naive = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert p(x) == naive == Fraction(1 - Fraction(10, 3) + Fraction(40, 9) - Fraction(64, 27))


def test_render_canonical_forms():
    assert _vals(1, -5, 10, -8).render() == "1 - 5r + 10r^2 - 8r^3"
    assert _vals(-1, 3).render() == "-1 + 3r"
    assert RationalPoly.zero().render() == "0"
    assert _vals(0, 1).render() == "r"
    assert _vals(0, -1).render() == "-r"
    assert RationalPoly.of([Fraction(1, 4), 0, Fraction(3, 4)]).render() == "1/4 + (3/4)r^2"
    assert RationalPoly.monomial(6).render("a") == "a^6"
    assert _vals(0, 0, 2).render("f") == "2f^2"


@given(
    st.lists(rationals, max_size=5),
    st.lists(rationals, max_size=5),
    rationals,
)
@settings(max_examples=100, deadline=None)
def test_product_degree_and_evaluation_hom(a, b, x):
    p, q = RationalPoly.of(a), RationalPoly.of(b)
    prod = p * q
    if not p.is_zero and not q.is_zero:
        assert prod.degree == p.degree + q.degree
    assert prod(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


# ---------------------------------------------------------------------------
# zeta / Mobius


def _mobius_oracle(poset):
    """The quadratic recursion mu(E, H) = -sum over E < G <= H of mu(G, H),
    with an order test per pair: the reference for mobius_table and for
    the recursion oracle."""
    table = []
    for h in range(len(poset)):
        down = poset.down_sets[h]
        mu_h = {h: 1}
        for e in reversed(down[:-1]):
            acc = 0
            for g in down:
                if g != e and poset.leq(e, g):
                    acc += mu_h[g]
            mu_h[e] = -acc
        table.append(mu_h)
    return table


# Members of P_6 with at most 10 edges: K5, the wheel on five spokes, K3,3
# and the triangular prism.
_V6_MEMBERS = (
    [(a, b) for a in range(5) for b in range(a + 1, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] + [(u, 5) for u in range(5)],
    [(a, b) for a in range(3) for b in range(3, 6)],
    [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
)


def test_zeta_v3(p3):
    z = zeta_matrix(p3)
    assert z.render_rows() == [["1", "0"], ["1", "1"]]


def test_zeta_diagonal_and_k4_row(p4):
    z = zeta_matrix(p4)
    for i in range(len(p4)):
        assert z.entry(i, i) == 1
    k4_row = z.entries[len(p4) - 1]
    assert sum(k4_row) == 15  # every member sits inside K4


def test_mobius_values(p3, p4):
    mu3 = mobius_table(p3)
    assert mu3[1][0] == -1

    mu4 = mobius_table(p4)
    top = len(p4) - 1
    empty = 0
    assert mu4[top][empty] == -6
    tri = p4.index_of(EdgeSet.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    assert mu4[top][tri] == 2
    diamond = p4.index_of(
        EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    )
    assert mu4[diamond][empty] == 2


def test_mobius_table_matches_quadratic_oracle(p3, p4, p5):
    for poset in (p3, p4, p5):
        assert list(mobius_table(poset)) == _mobius_oracle(poset)


def test_interval_mobius_matches_quadratic_oracle():
    k6_cores = bridgeless_cores(6, (1 << 15) - 1)
    for edges in _V6_MEMBERS:
        member = EdgeSet.from_edges(6, edges)
        assert member.edge_count <= 10
        # squeezed onto the lowest edge positions, with the local cores
        masks = low_positions(bridgeless_subsets(6, member.bits))
        interval = SubgraphPoset(6, tuple(masks), bridgeless_cores(6, member.bits))
        table = mobius_recursion(down_sets_of(masks))
        assert list(table) == _mobius_oracle(interval)
        # the library's walk on the interval in place, in the same order
        in_place = SubgraphPoset(6, tuple(bridgeless_subsets(6, member.bits)), k6_cores)
        assert mobius_table(in_place) == table


def test_zeta_times_mobius_is_identity(p3, p4, p5):
    for poset in (p3, p4):
        assert (zeta_matrix(poset) @ mobius_matrix(poset)).is_identity()
        assert (mobius_matrix(poset) @ zeta_matrix(poset)).is_identity()
    z = weighted_zeta_at(p5, 1)
    w = weighted_zeta_inverse_at(p5, 1)
    assert (z @ w).is_identity()


def test_builders_vanish_off_comparable_pairs(p3, p4, p5):
    # every matrix is supported on the comparable pairs E <= H, as the
    # chain-product oracle of the closed forms needs
    r = Fraction(2, 7)
    for poset in (p3, p4, p5):
        matrices = [zeta_matrix(poset), mobius_matrix(poset)]
        for x in (r, VARIABLE) if poset.v <= 4 else (r,):
            matrices += [
                weighted_zeta_at(poset, x),
                weighted_zeta_inverse_at(poset, x),
                transfer_at(poset, x),
            ]
        for m in matrices:
            for h, row in enumerate(m.entries):
                below = set(poset.down_sets[h])
                assert not any(cell for e, cell in enumerate(row) if e not in below)


# ---------------------------------------------------------------------------
# weighted zeta and its inverse


def test_weighted_zeta_entries(p3, p4):
    j3 = weighted_zeta_at(p3, VARIABLE)
    assert j3.entry(1, 0) == RationalPoly.monomial(3)

    j4 = weighted_zeta_at(p4, VARIABLE)
    top = len(p4) - 1
    tri = p4.index_of(EdgeSet.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    assert j4.entry(top, tri) == RationalPoly.monomial(3)


def test_weighted_zeta_at_zero_is_identity(p4):
    assert weighted_zeta_at(p4, 0).is_identity()
    symbolic = weighted_zeta_at(p4, VARIABLE)
    assert tuple(tuple(x(0) for x in row) for row in symbolic.entries) == (
        weighted_zeta_at(p4, 0).entries
    )


def test_weighted_zeta_inverse_is_polynomial_inverse(p3, p4):
    for poset in (p3, p4):
        j = weighted_zeta_at(poset, VARIABLE)
        jinv = weighted_zeta_inverse_at(poset, VARIABLE)
        assert (j @ jinv).is_identity()
        assert (jinv @ j).is_identity()


@given(rationals)
@settings(max_examples=40, deadline=None)
def test_weighted_zeta_inverse_at_points(p4, r):
    prod = weighted_zeta_at(p4, r) @ weighted_zeta_inverse_at(p4, r)
    assert prod.is_identity()


# ---------------------------------------------------------------------------
# transfer matrix


def test_transfer_v3_matches_reference(p3):
    m = transfer_at(p3, VARIABLE)
    assert m.entries == (
        (RationalPoly.constant(1), RationalPoly.zero()),
        (_vals(1, -3, 3), RationalPoly.constant(-1)),
    )
    assert m.render_rows(paper_order=True) == [["-1", "1 - 3r + 3r^2"], ["0", "1"]]


def test_transfer_v4_key_entries(p4, k4_v4):
    m = transfer_at(p4, VARIABLE)
    top = p4.index_of(k4_v4)
    tri = p4.index_of(EdgeSet.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    c4 = p4.index_of(EdgeSet.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    diamond = p4.index_of(
        EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    )
    assert m.entry(top, 0) == _vals(1, -6, 15, -16)
    assert m.entry(c4, 0) == _vals(1, -4, 6, -4)
    assert m.entry(top, tri) == _vals(-1, 3)
    assert m.entry(diamond, 0) == _vals(1, -5, 10, -8)


def test_transfer_row_at_empty_is_unit_row(p4):
    m = transfer_at(p4, VARIABLE)
    assert m.entry(0, 0) == RationalPoly.constant(1)
    for e in range(1, len(p4)):
        assert m.entry(0, e).is_zero


def test_transfer_row_sums_at_one(p3, p4):
    # row sums at r=1: 1 for the empty row, 0 for every other row
    for poset in (p3, p4):
        m = transfer_at(poset, VARIABLE)
        for h in range(len(poset)):
            total = sum(m.entry(h, e)(1) for e in range(len(poset)))
            assert total == (1 if h == 0 else 0)


def test_transfer_empty_column_degree_and_constant_term(p4, k4_v4, c4_v4):
    m = transfer_at(p4, VARIABLE)
    for es in (EdgeSet.from_edges(4, [(0, 1), (0, 2), (1, 2)]), c4_v4, k4_v4):
        p = m.entry(p4.index_of(es), 0)
        assert p(0) == 1
        assert p.degree <= es.edge_count


def test_transfer_involution_symbolic(p3, p4):
    flip = _vals(1, -1)
    for poset in (p3, p4):
        m = transfer_at(poset, VARIABLE)
        m_flipped = transfer_at(poset, flip)
        assert m_flipped.entries == tuple(tuple(compose(x, flip) for x in row) for row in m.entries)
        assert (m @ m_flipped).is_identity()


def test_transfer_at_zero_and_half(p4):
    m0 = transfer_at(p4, 0)
    j1_signed = weighted_zeta_at(p4, 1) @ sign_diagonal(p4)
    assert m0.entries == j1_signed.entries

    ones = [Fraction(1)] * len(p4)
    image = apply(transfer_at(p4, Fraction(1, 2)), ones)
    assert image[0] == 1


def test_transfer_v3_row_sum_at_one(p3):
    m1 = transfer_at(p3, 1)
    assert sum(m1.entries[1]) == 0


def test_transfer_closed_form_matches_the_chain_product(p3, p4, p5):
    # transfer_at's submask walk against J(1 - r) (-1)^e J(r)^-1 summed over
    # the chains of the down-sets, with mu by the recursion, at every entry
    for poset in (p3, p4, p5):
        for r in (Fraction(2, 7), Fraction(-3, 5)):
            assert transfer_at(poset, r).entries == transfer_chain_product(poset, r).entries
    for poset in (p3, p4):
        symbolic = transfer_chain_product(poset, VARIABLE)
        assert transfer_at(poset, VARIABLE).entries == symbolic.entries


def test_mobius_closed_form_matches_the_recursion(p3, p4, p5):
    # Rota's closure theorem for the interior operator M -> core M, and the
    # weighted zeta pair read from the same walk, against the down-set oracles
    for poset in (p3, p4, p5):
        assert mobius_table(poset) == mobius_recursion(poset.down_sets)
        points = (Fraction(2, 7), Fraction(-3, 5)) + ((VARIABLE,) if poset.v <= 4 else ())
        for x in points:
            assert weighted_zeta_at(poset, x).entries == weighted_zeta_on_down_sets(poset, x).entries
            inverse = weighted_zeta_inverse_by_recursion(poset, x)
            assert weighted_zeta_inverse_at(poset, x).entries == inverse.entries


def test_matrices_never_read_the_down_sets(monkeypatch, capsys):
    # every builder, the product, apply and the matrix command run on a
    # fresh poset whose down-sets raise
    def refuse(poset):
        raise AssertionError("down_sets read")

    monkeypatch.setattr(SubgraphPoset, "down_sets", property(refuse))
    mobius_table.cache_clear()
    for v in (3, 4):
        fresh = enumerate_poset(v)
        poset = SubgraphPoset(v, fresh.masks, fresh.cores)
        ones = [Fraction(1)] * len(poset)
        for x in (Fraction(2, 7), VARIABLE):
            j, inverse, m = (
                weighted_zeta_at(poset, x),
                weighted_zeta_inverse_at(poset, x),
                transfer_at(poset, x),
            )
            assert (j @ inverse).is_identity()
            assert (m @ transfer_at(poset, 1 - x)).is_identity()
            assert apply(m, ones)[0] == x**0
        assert (zeta_matrix(poset) @ mobius_matrix(poset)).is_identity()
        assert mobius_table(poset)[0] == {0: 1}
    for which in ("zeta", "mobius", "J", "Jinv", "M"):
        assert main(["matrix", "--v", "4", "--which", which]) == 0
    assert capsys.readouterr().out


def test_zeta_family_reads_the_cached_mobius_table(p4, monkeypatch):
    # J(r) and J(r)^-1 take their pairs E <= H from the Mobius table's keys,
    # so once the table is built no tally is made for them
    mobius_table(p4)

    def refuse(poset, h):
        raise AssertionError("submask tally")

    monkeypatch.setattr(posetlin_module, "_tally", refuse)
    for x in (Fraction(2, 7), VARIABLE):
        assert weighted_zeta_at(p4, x).entries == weighted_zeta_on_down_sets(p4, x).entries
        inverse = weighted_zeta_inverse_by_recursion(p4, x)
        assert weighted_zeta_inverse_at(p4, x).entries == inverse.entries
    assert zeta_matrix(p4).entries == weighted_zeta_on_down_sets(p4, 1).entries
    assert mobius_matrix(p4).entries == weighted_zeta_inverse_by_recursion(p4, 1).entries


def test_transfer_at_one_is_the_signed_mobius_function(p3, p4, p5):
    # at r = 1 the transfer entry sums (-1)^|M| over the masks M <= H with
    # core E, which is (-1)^|H| mu(E, H): the identity that ties the two
    # aggregates of the submask walk together
    for poset in (p3, p4, p5):
        table = mobius_recursion(poset.down_sets)
        m = transfer_at(poset, 1)
        for h, top in enumerate(poset.sizes):
            want = tuple((-1) ** top * table[h].get(e, 0) for e in range(len(poset)))
            assert m.entries[h] == want


def test_symbolic_transfer_has_integer_coefficients(p5):
    # each entry is sum_d T[d] r^d over an integer tally, so the symbolic
    # matrix holds integer polynomials, and evaluating one at a point gives
    # the entry transfer_at builds at that point
    symbolic = transfer_at(p5, VARIABLE)
    for row in symbolic.entries:
        for x in row:
            assert all(type(c) is int for c in x.coeffs)
    for r in (Fraction(2, 7), Fraction(-3, 5)):
        evaluated = transfer_at(p5, r)
        assert evaluated.entries == tuple(tuple(x(r) for x in row) for row in symbolic.entries)
    with pytest.raises(TypeError):
        RationalPoly.of([0.5])


@given(rationals)
@settings(max_examples=30, deadline=None)
def test_transfer_at_agrees_with_symbolic(p4, r):
    symbolic = transfer_at(p4, VARIABLE)
    assert transfer_at(p4, r).entries == tuple(tuple(x(r) for x in row) for row in symbolic.entries)


@given(rationals)
@settings(max_examples=30, deadline=None)
def test_transfer_involution_at_points(p4, r):
    assert (transfer_at(p4, r) @ transfer_at(p4, 1 - r)).is_identity()


def test_identity_matrix_and_render_order(p3):
    assert weighted_zeta_at(p3, 0).is_identity()
    m = transfer_at(p3, VARIABLE)
    normal = m.render_rows()
    flipped = m.render_rows(paper_order=True)
    assert normal[0][0] == flipped[1][1] == "1"
    assert normal[1][0] == flipped[0][1]


def test_polymatrix_rejects_wrong_shape(p3):
    with pytest.raises(ValueError):
        PolyMatrix(p3, ((RationalPoly.constant(1),),))
