from fractions import Fraction
from typing import Sequence

import pytest

from groupcolor.graphs import EdgeSet, enumerate_poset
from groupcolor.posetlin import PolyMatrix, RationalPoly, _power_table, _ring_element


def low_positions(masks: list[int]) -> list[int]:
    """The masks with the edge positions they use squeezed onto the lowest
    ones, in order. Inclusion among them is unchanged, so an interval of a
    bridgeless set on v = 7, whose edges may pass the 15 positions
    ``down_sets_of`` takes, becomes input for it, and its masks match the
    local table of ``bridgeless_cores``."""
    top = 0
    for mask in masks:
        top |= mask
    places = [n for n in range(top.bit_length()) if (top >> n) & 1]
    return [sum(1 << k for k, n in enumerate(places) if (mask >> n) & 1) for mask in masks]


def apply(matrix: PolyMatrix, vector: Sequence) -> tuple:
    """The image M x: (M x)_H = sum over E of entry(H, E) x_E."""
    return tuple(sum(x * vector[e] for e, x in enumerate(row) if x) for row in matrix.entries)


def compose(p: RationalPoly, inner: RationalPoly) -> RationalPoly:
    """Substitute another polynomial for the variable."""
    acc = RationalPoly.zero()
    for c in reversed(p.coeffs):
        acc = acc * inner + RationalPoly.constant(c)
    return acc


# ---------------------------------------------------------------------------
# Down-set oracles for the closed forms of posetlin: the Mobius recursion and
# the chain product J(1 - r) (-1)^e J(r)^(-1), which share no step with the
# library's submask walk but the poset's members.


def mobius_recursion(down_sets: Sequence[Sequence[int]]) -> tuple[dict[int, int], ...]:
    """mu(E, H) for every pair E <= H of a down-closed family, as one dict
    per H keyed by E.

    down_sets[h] lists the members below member h in increasing order,
    ending with h itself, so the members are indexed along a linear
    extension. Rota's recursion mu(E, H) = -sum over E <= G < H of mu(E, G)
    then needs only the rows of the members G below H, and no order tests.
    """
    table: list[dict[int, int]] = []
    for h, down in enumerate(down_sets):
        mu_h: dict[int, int] = {}
        for g in down[:-1]:
            for e, mu in table[g].items():
                if mu:
                    mu_h[e] = mu_h.get(e, 0) - mu
        mu_h[h] = 1
        table.append(mu_h)
    return tuple(table)


def chain_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Product over the chains E <= G <= H; both factors must vanish off
    the comparable pairs."""
    down = a.poset.down_sets
    zero = a.entries[0][0] * b.entries[0][0] * 0
    rows = []
    for h, a_row in enumerate(a.entries):
        out = [zero] * a.n
        for g in down[h]:
            x = a_row[g]
            if x:
                b_row = b.entries[g]
                for e in down[g]:
                    if b_row[e]:
                        out[e] = out[e] + x * b_row[e]
        rows.append(tuple(out))
    return PolyMatrix(a.poset, tuple(rows))


def _diagonal(poset, values) -> PolyMatrix:
    n = len(poset)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for h, x in enumerate(values):
        rows[h][h] = Fraction(x)
    return PolyMatrix(poset, tuple(map(tuple, rows)))


def sign_diagonal(poset) -> PolyMatrix:
    """Diagonal matrix with entry (-1)^(edge count) per poset member."""
    return _diagonal(poset, [(-1) ** size for size in poset.sizes])


def weighted_zeta_on_down_sets(poset, r) -> PolyMatrix:
    """J(r): entry(H, E) = r^(|H| - |E|) for every E in the down-set of H."""
    r = _ring_element(r)
    n = len(poset)
    sizes = poset.sizes
    powers = _power_table(r, max(sizes))
    rows = [[r * 0] * n for _ in range(n)]
    for h in range(n):
        for e in poset.down_sets[h]:
            rows[h][e] = powers[sizes[h] - sizes[e]]
    return PolyMatrix(poset, tuple(map(tuple, rows)))


def weighted_zeta_inverse_by_recursion(poset, r) -> PolyMatrix:
    """J(r)^(-1): entry(H, E) = mu(E, H) r^(|H| - |E|), mu by the recursion."""
    r = _ring_element(r)
    n = len(poset)
    sizes = poset.sizes
    table = mobius_recursion(poset.down_sets)
    powers = _power_table(r, max(sizes))
    rows = [[r * 0] * n for _ in range(n)]
    for h in range(n):
        for e, mu in table[h].items():
            rows[h][e] = powers[sizes[h] - sizes[e]] * mu
    return PolyMatrix(poset, tuple(map(tuple, rows)))


def transfer_chain_product(poset, r) -> PolyMatrix:
    """M(r) = J(1 - r) * (-1)^e * J(r)^(-1), as a sum over the chains
    E <= G <= H of the poset."""
    r = _ring_element(r)
    signed_inverse = chain_product(sign_diagonal(poset), weighted_zeta_inverse_by_recursion(poset, r))
    return chain_product(weighted_zeta_on_down_sets(poset, 1 - r), signed_inverse)


@pytest.fixture(scope="session")
def p3():
    return enumerate_poset(3)


@pytest.fixture(scope="session")
def p4():
    return enumerate_poset(4)


@pytest.fixture(scope="session")
def p5():
    return enumerate_poset(5)


@pytest.fixture(scope="session")
def p6():
    # the one P_6 of the session: 13,667 members, 1,614,537 comparable pairs
    return enumerate_poset(6)


@pytest.fixture(scope="session")
def k3_v3():
    return EdgeSet.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture(scope="session")
def c4_v4():
    return EdgeSet.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture(scope="session")
def k4_v4():
    return EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
