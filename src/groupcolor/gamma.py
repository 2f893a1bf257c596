"""Coloring probability vectors over the bridgeless subgraph poset, computed
in one histogram pass or by three independent per-member routes, plus the
reciprocity identity, its transfer form, girth-order main terms, and the
chromatic specialization.

For an edge set E and a symmetric allowed set A, the E coordinate is the
probability that a uniformly random coloring of the vertices has every edge
difference inside A. Exact rational arithmetic everywhere except the
Fourier cross-check, which is floating point by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm
from numbers import Rational

from .graphs import (
    EdgeSet,
    SubgraphPoset,
    bridgeless_subsets,
    components,
    cycle_basis,
    down_sets_of,
    girth,
    is_isthmus_free,
    vertex_pairs,
)
from .groups import AllowedSet, character_sum
from .posetlin import (
    RationalPoly,
    mobius_recursion,
    mobius_steps,
    mobius_table,
    transfer_at,
)

DEFAULT_BUDGET = 10**8
FOURIER_TOL = 1e-9


class BudgetExceededError(Exception):
    """Raised when an enumeration would exceed the configured work budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message} (needs {required} > budget {budget})")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class GammaVector:
    """Probability per poset coordinate, tagged with the producing method."""

    poset: SubgraphPoset
    values: tuple
    method: str

    def __getitem__(self, i: int):
        return self.values[i]

    def value_at(self, edge_set: EdgeSet):
        return self.values[self.poset.index_of(edge_set)]


def _count_colorings(
    edge_set: EdgeSet, allowed: AllowedSet, free, budget: int, message: str
) -> Fraction:
    # share of the colorings of the free vertices, every other vertex fixed
    # to the identity, with every edge difference allowed
    group = allowed.group
    f = group.order
    total = f ** len(free)
    if total > budget:
        raise BudgetExceededError(message, total, budget)
    edges = edge_set.edges()
    contains = allowed.contains_index
    sub = group.sub
    coloring = [0] * edge_set.v
    count = 0
    for assignment in product(range(f), repeat=len(free)):
        for slot, u in enumerate(free):
            coloring[u] = assignment[slot]
        if all(contains(sub(coloring[j], coloring[i])) for i, j in edges):
            count += 1
    return Fraction(count, total)


def gamma_bruteforce(
    edge_set: EdgeSet, allowed: AllowedSet, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Count all f^v colorings directly. The defining formula, and the
    oracle the other methods are checked against."""
    return _count_colorings(
        edge_set,
        allowed,
        range(edge_set.v),
        budget,
        "vertex enumeration too large; use gamma_cyclespace",
    )


def gamma_cyclespace(
    edge_set: EdgeSet, allowed: AllowedSet, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Enumerate the coboundary image only: fix one root color per component
    and sweep the remaining f^(v - c) colorings."""
    roots, _ = cycle_basis(edge_set)
    free = [u for u in range(edge_set.v) if u not in roots]
    return _count_colorings(edge_set, allowed, free, budget, "coboundary image too large")


def gamma_fourier(
    edge_set: EdgeSet,
    allowed: AllowedSet,
    budget: int = DEFAULT_BUDGET,
    tol: float = FOURIER_TOL,
) -> float:
    """Character double sum over the dual cycle space; floating cross-check.

    The kernel of the boundary map is enumerated through the fundamental
    cycles of a spanning forest: f^(e - v + c) edge characters in total.
    An imaginary residue above tol means the kernel enumeration is wrong.
    """
    group = allowed.group
    f = group.order
    _, cycles = cycle_basis(edge_set)
    m = len(cycles)
    if f**m > budget:
        raise BudgetExceededError("dual cycle space too large", f**m, budget)
    char_sums = [character_sum(allowed, p) for p in range(f)]
    # for each edge position, the (cycle index, sign) pairs through it
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(edge_set.edge_count)]
    for ci, cycle in enumerate(cycles):
        for pos, sign in cycle:
            incidence[pos].append((ci, sign))
    add = group.add
    neg = group.neg
    total = 0j
    for assignment in product(range(f), repeat=m):
        term = complex(1, 0)
        for inc in incidence:
            p = 0
            for ci, sign in inc:
                g = assignment[ci]
                p = add(p, g if sign > 0 else neg(g))
            term *= char_sums[p]
        total += term
    value = total / f**edge_set.edge_count
    if abs(value.imag) > tol:
        raise ArithmeticError(
            f"imaginary residue {value.imag:.3e} exceeds {tol}; kernel enumeration bug"
        )
    return value.real


# per-coordinate method name -> function(edge_set, allowed, budget)
METHODS = {
    "brute": gamma_bruteforce,
    "cycle": gamma_cyclespace,
    "fourier": gamma_fourier,
}


def _superset_sums(hist: list[int], bits: int) -> None:
    # in place: hist[M] becomes the sum of hist[N] over every N containing
    # M, one pass per bit (Yates' fast zeta transform)
    for k in range(bits):
        step = 1 << k
        for block in range(0, len(hist), 2 * step):
            for m in range(block, block + step):
                hist[m] += hist[m + step]


def _difference_histogram(v: int, allowed: AllowedSet, budget: int) -> list[int]:
    # hist[M]: colorings of vertices 1..v-1, vertex 0 fixed to the
    # identity, whose allowed-difference pairs are exactly the mask M
    group = allowed.group
    f = group.order
    total = f ** (v - 1)
    if total > budget:
        raise BudgetExceededError("coloring histogram too large", total, budget)
    sub = group.sub
    contains = allowed.contains_index
    ok = [[contains(sub(b, a)) for b in range(f)] for a in range(f)]
    pairs = [(1 << n, i, j) for n, (i, j) in enumerate(vertex_pairs(v))]
    hist = [0] * (1 << len(pairs))
    for rest in product(range(f), repeat=v - 1):
        coloring = (0, *rest)
        mask = 0
        for bit, i, j in pairs:
            if ok[coloring[i]][coloring[j]]:
                mask |= bit
        hist[mask] += 1
    return hist


def gamma_vector(
    poset: SubgraphPoset,
    allowed: AllowedSet,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> GammaVector:
    """The vector of coordinates over the poset.

    "auto" gets every coordinate from one sweep of f^(v - 1) colorings.
    Gamma is translation-invariant, so vertex 0 is fixed. Each coloring adds
    one to the histogram entry of its allowed-difference mask over the
    vertex pairs; the superset sum at E then counts the colorings with every
    edge of E allowed. That transform is the fast zeta transform of Yates
    (1937) and of Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets
    Mobius" (STOC 2007, arXiv:cs/0611101). The result is tagged
    "histogram". A name from METHODS applies that per-member method to
    every member instead.
    """
    if method == "auto":
        v = poset.v
        hist = _difference_histogram(v, allowed, budget)
        _superset_sums(hist, comb(v, 2))
        total = allowed.group.order ** (v - 1)
        values = tuple(Fraction(hist[member.bits], total) for member in poset.members)
        return GammaVector(poset, values, "histogram")
    try:
        fn = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; want auto, brute, cycle, or fourier")
    values = tuple(fn(member, allowed, budget) for member in poset.members)
    return GammaVector(poset, values, method)


def gamma_plus(gamma: GammaVector, alpha: Fraction) -> GammaVector:
    """Mobius-invert the weighted zeta expansion: the inverse weighted zeta
    at alpha applied to the vector, exactly.

    With alpha = p/q and every value n_E / L over one common denominator L,
    row H is the integer sum of mu(E, H) p^(|H| - |E|) q^|E| n_E over
    L q^|H|, so only one Fraction is built per coordinate.
    """
    for x in gamma.values:
        if not isinstance(x, Rational):
            raise TypeError(f"gamma_plus needs exact rational values, got {x!r}")
    poset = gamma.poset
    table = mobius_table(poset)
    sizes = poset.sizes
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    top = max(sizes)
    p_pow = [p**k for k in range(top + 1)]
    q_pow = [q**k for k in range(top + 1)]
    common = lcm(*(x.denominator for x in gamma.values))
    weights = [
        x.numerator * (common // x.denominator) * q_pow[size]
        for x, size in zip(gamma.values, sizes)
    ]
    values = []
    for h, row in enumerate(table):
        size_h = sizes[h]
        acc = 0
        for e, mu in row.items():
            if mu:
                acc += mu * p_pow[size_h - sizes[e]] * weights[e]
        values.append(Fraction(acc, common * q_pow[size_h]))
    return GammaVector(poset, tuple(values), gamma.method + "+mobius")


@dataclass(frozen=True)
class ReciprocityReport:
    """Coordinatewise comparison of the two Mobius-inverted vectors."""

    poset: SubgraphPoset
    alpha: Fraction
    lhs: tuple
    rhs: tuple
    gamma: GammaVector
    gamma_complement: GammaVector

    @property
    def per_coordinate(self) -> tuple[bool, ...]:
        return tuple(a == b for a, b in zip(self.lhs, self.rhs))

    @property
    def ok(self) -> bool:
        return all(self.per_coordinate)

    def failing_indices(self) -> tuple[int, ...]:
        return tuple(i for i, good in enumerate(self.per_coordinate) if not good)

    def to_dict(self) -> dict:
        coords = []
        for i, member in enumerate(self.poset.members):
            coords.append(
                {
                    "mask": member.bits,
                    "edges": member.to_text(),
                    "lhs": str(self.lhs[i]),
                    "rhs": str(self.rhs[i]),
                    "equal": self.lhs[i] == self.rhs[i],
                }
            )
        return {
            "alpha": str(self.alpha),
            "alpha_bar": str(1 - self.alpha),
            "ok": self.ok,
            "coordinates": coords,
        }


def verify_reciprocity(
    poset: SubgraphPoset,
    allowed: AllowedSet,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> ReciprocityReport:
    """Check that Mobius inversion at alpha of the allowed vector equals the
    parity-signed Mobius inversion at 1 - alpha of the complement vector.

    Exact rational comparison; a mismatch is reported, never raised. The
    Fourier method is refused because its values are floats, and the Mobius
    recursion's step count is checked against budget before any work.
    """
    if method == "fourier":
        raise ValueError("reciprocity needs exact values; the fourier method is floating point")
    steps = mobius_steps(poset.down_sets)
    if steps > budget:
        raise BudgetExceededError(
            f"Mobius recursion over {len(poset)} poset members", steps, budget
        )
    g_a = gamma_vector(poset, allowed, method, budget)
    g_bar = gamma_vector(poset, allowed.complement(), method, budget)
    plus_a = gamma_plus(g_a, allowed.alpha)
    plus_bar = gamma_plus(g_bar, allowed.alpha_bar)
    signed = tuple(
        (-1) ** poset.sizes[h] * plus_bar.values[h] for h in range(len(poset))
    )
    return ReciprocityReport(poset, allowed.alpha, plus_a.values, signed, g_a, g_bar)


def apply_transfer(
    poset: SubgraphPoset, alpha_bar: Fraction, gamma_bar: GammaVector
) -> GammaVector:
    """Map the complement vector to the allowed vector through the transfer
    matrix evaluated at the complement density."""
    values = transfer_at(poset, Fraction(alpha_bar)).apply(gamma_bar.values)
    return GammaVector(poset, values, "transfer")


# ---------------------------------------------------------------------------
# Local interval computations. The transfer row of an edge set E against the
# empty column only involves bridgeless subsets of E, so these avoid building
# the full ambient poset.


def _interval_mobius(edge_set: EdgeSet) -> tuple[list[int], tuple[dict[int, int], ...]]:
    # the bridgeless subsets of edge_set in linear-extension order, and the
    # Mobius function of that interval keyed by position
    masks = bridgeless_subsets(edge_set.v, edge_set.bits)
    return masks, mobius_recursion(down_sets_of({m: i for i, m in enumerate(masks)}))


def main_term(edge_set: EdgeSet, alpha_bar: Fraction) -> Fraction:
    """Transfer-row entry against the empty graph, evaluated at alpha_bar.

    This is the group-independent approximation of the allowed probability;
    the neglected part has order alpha_bar^(girth - 1).
    """
    if not is_isthmus_free(edge_set):
        raise ValueError("main term is defined on isthmus-free edge sets")
    alpha_bar = Fraction(alpha_bar)
    members, mu_table = _interval_mobius(edge_set)
    e_top = edge_set.edge_count
    acc = Fraction(0)
    for g_mask, mu_g in zip(members, mu_table):
        mu = mu_g[0]
        if mu:
            eg = g_mask.bit_count()
            acc += (1 - alpha_bar) ** (e_top - eg) * (-1) ** eg * mu * alpha_bar**eg
    return acc


def residual(
    edge_set: EdgeSet, allowed: AllowedSet, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact gap between the allowed probability and its main term."""
    return gamma_cyclespace(edge_set, allowed, budget) - main_term(
        edge_set, allowed.alpha_bar
    )


def residual_order_ratio(
    edge_set: EdgeSet, allowed: AllowedSet, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Residual divided by alpha_bar^(girth - 1): the empirical constant in
    the girth-order bound. Needs a nonempty edge set and alpha_bar > 0."""
    g = girth(edge_set)
    if g == float("inf"):
        raise ValueError("empty edge set: the main term is already exact")
    ab = allowed.alpha_bar
    if ab == 0:
        raise ValueError("alpha_bar is zero; the bound is vacuous")
    return residual(edge_set, allowed, budget) / ab ** (g - 1)


def chromatic_via_transfer(edge_set: EdgeSet) -> RationalPoly:
    """Chromatic polynomial of an isthmus-free edge set from the transfer
    matrix at r = 1/f applied to the component-count weights f^c.

    All negative powers of f must cancel and every coefficient must be an
    integer; anything else signals a transfer matrix bug.
    """
    if not is_isthmus_free(edge_set):
        raise ValueError(
            "transfer specialization needs an isthmus-free edge set; "
            "use the deletion-contraction oracle instead"
        )
    v = edge_set.v
    members, mu_table = _interval_mobius(edge_set)
    e_top = edge_set.edge_count
    comp = {m: components(EdgeSet(v, m)) for m in members}
    laurent: dict[int, int] = {}
    for gi, g_mask in enumerate(members):
        eg = g_mask.bit_count()
        sign = (-1) ** eg
        spread = e_top - eg  # (1 - 1/f)^spread
        for hi, mu in mu_table[gi].items():
            if not mu:
                continue
            h_mask = members[hi]
            eh = h_mask.bit_count()
            base = comp[h_mask] - (eg - eh)
            for i in range(spread + 1):
                key = base - i
                laurent[key] = laurent.get(key, 0) + sign * mu * comb(spread, i) * (-1) ** i
    bad = {k: c for k, c in laurent.items() if c and k < 0}
    if bad:
        raise ArithmeticError(f"negative powers survive in chromatic specialization: {bad}")
    top = max((k for k, c in laurent.items() if c), default=0)
    return RationalPoly.of([laurent.get(k, 0) for k in range(top + 1)])


# ---------------------------------------------------------------------------
# Worked-example closed forms.


def triangle_gamma_from_pairs(allowed: AllowedSet) -> Fraction:
    """Triangle coordinate by enumerating difference pairs inside the set:
    (a, b) with a, b, a + b all allowed, over f^2. Exact, and cheap when
    the set is small even if the group is big."""
    group = allowed.group
    add = group.add
    members = allowed.indices()
    contains = allowed.contains_index
    count = sum(1 for a in members for b in members if contains(add(a, b)))
    return Fraction(count, group.order**2)


def hamming_k3_closed_form(n: int) -> tuple[Fraction, Fraction]:
    """Reference closed forms for the triangle coordinate in (Z/2)^n at
    weight threshold k = 1: (complement value, allowed value).

    The complement form (3n + 1)/4^n is correct. The allowed-value form
    reproduced here verbatim is internally inconsistent: the value forced
    by reciprocity is larger by exactly 2/4^n (see
    hamming_k3_from_reciprocity). Both are kept so reports can show the
    discrepancy instead of silently repairing it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma_bar = Fraction(3 * n + 1, 4**n)
    gamma = 1 - Fraction(3 * n + 3, 2**n) + Fraction(3 * n * n + 3 * n, 4**n)
    return gamma_bar, gamma


def hamming_k3_from_reciprocity(n: int) -> Fraction:
    """Triangle coordinate at k = 1 obtained by pushing the complement
    closed form through the triangle transfer row: equals
    1 - (3n+3)/2^n + (3n^2 + 3n + 2)/4^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha_bar = Fraction(n + 1, 2**n)
    gamma_bar = Fraction(3 * n + 1, 4**n)
    return (1 - 3 * alpha_bar + 3 * alpha_bar**2) - gamma_bar
