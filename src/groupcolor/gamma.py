"""Coloring probability vectors over the bridgeless subgraph poset, computed
in one histogram pass or by three independent per-member routes, plus the
reciprocity identity, its transfer form, girth-order main terms, and the
chromatic specialization.

For an edge set E and a symmetric allowed set A, the E coordinate is the
probability that a uniformly random coloring of the vertices has every edge
difference inside A. Exact rational arithmetic everywhere except the
Fourier cross-check, which is floating point by design. Only the per-member
branch of gamma_vector builds EdgeSets of the poset's members, one per
isomorphism class.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product, repeat
from math import comb, lcm
from numbers import Rational
from operator import add, eq, itemgetter, mul, xor

from ._frozen import Frozen
from .graphs import (
    POSET_CAP,
    EdgeSet,
    SubgraphPoset,
    _incident,
    _lane_steps,
    _lattice_pass,
    _pack_lanes,
    _spanning_forest,
    _unpack_lanes,
    canonical_bits,
    class_rows,
    components,
    girth,
    is_isthmus_free,
    iso_class_blocks,
    vertex_pairs,
)
from .groups import AllowedSet
from .posetlin import RationalPoly

DEFAULT_BUDGET = 10**8
FOURIER_TOL = 1e-9
# one edge set given to chromatic_via_transfer is capped at the 21 edges of
# K7. Its forest walk holds no list longer than the edge set; its time
# follows the forest count, 36,961 in K7 and 561,948 in K8
MAX_CHROMATIC_EDGES = 21


class BudgetExceededError(Exception):
    """Raised when an enumeration would exceed the configured work budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message} (needs {required} > budget {budget})")
        self.required = required
        self.budget = budget


class GammaVector(Frozen):
    """Probability per poset coordinate, tagged with the producing method.

    ``counts`` and ``histogram`` belong to the histogram method alone, as
    integers at every edge mask M of K_v, bridged masks included:
    ``histogram[M]`` holds the colorings of the sweep whose allowed-difference
    pairs are exactly M, and ``counts[M]``, their superset sums, is
    f^(v - 1) Gamma(M). The superset sums are the reciprocity solve at
    alpha = 0 (see "Lattice passes" below), so ``counts`` is in the solve's
    container: an array for 4- and 8-byte lanes, a list past them. Such a
    vector is made from its histogram alone: ``counts`` and then ``values``
    are computed when first read, and verify_reciprocity, which solves from
    the histogram, reads neither. Any other vector is given its values and
    has no counts. Equality and hashing read poset, values and method.
    """

    _fields = ("poset", "values", "method")
    poset: SubgraphPoset
    values: tuple
    method: str
    counts: array | list[int] | None
    histogram: list[int] | None

    def __init__(
        self,
        poset: SubgraphPoset,
        values: tuple | None,
        method: str,
        histogram: list[int] | None = None,
    ):
        # values None, or counts with a histogram, are read on demand
        self._set(poset=poset, method=method, histogram=histogram)
        if values is not None:
            self._set(values=values)
        if histogram is None:
            self._set(counts=None)

    @cached_property
    def counts(self) -> array | list[int]:
        return _packed_solve(self.histogram, 0, 1)

    @cached_property
    def values(self) -> tuple:
        # counts[0], the colorings with no edge required, is f^(v - 1)
        counts = self.counts
        return _fractions(self.poset, _at_members(self.poset, counts), counts[0])

    def __getitem__(self, i: int):
        return self.values[i]


def _count_colorings(
    edge_set: EdgeSet, allowed: AllowedSet, free, budget: int, message: str
) -> Fraction:
    # share of the colorings of the free vertices, every other vertex fixed
    # to the identity, with every edge difference allowed. f^|free| is
    # checked against budget; the count visits at most that many colorings.
    f = allowed.group.order
    total = f ** len(free)
    if total > budget:
        raise BudgetExceededError(message, total, budget)
    # Depth first, one vertex at a time in index order. A vertex's
    # candidate colors, as a bitmask, are the colors allowed against every
    # lower neighbour already colored; a vertex with no higher neighbour
    # constrains nothing later, so its candidates are counted, not tried.
    v = edge_set.v
    allows = allowed.rows
    free = set(free)
    start = [(1 << f) - 1 if u in free else 1 for u in range(v)]
    lower: list[list[int]] = [[] for _ in range(v)]
    branches = [False] * v
    for a, b in edge_set.edges():
        lower[b].append(a)
        branches[a] = True
    coloring = [0] * v

    def count(u: int) -> int:
        if u == v:
            return 1
        cand = start[u]
        for w in lower[u]:
            cand &= allows[coloring[w]]
        if not branches[u]:
            return cand.bit_count() * count(u + 1) if cand else 0
        n = 0
        while cand:
            low = cand & -cand
            cand ^= low
            coloring[u] = low.bit_length() - 1
            n += count(u + 1)
        return n

    return Fraction(count(0), total)


def gamma_bruteforce(
    edge_set: EdgeSet, allowed: AllowedSet, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Count the colorings of all v vertices with every edge difference
    allowed, over f^v. The defining formula, and the oracle the other
    methods are checked against; the count runs depth first and skips the
    colorings that fail an edge early, so it visits at most f^v."""
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
    and count the allowed colorings of the other v - c vertices, at most
    f^(v - c)."""
    path, _ = _spanning_forest(edge_set.v, edge_set.bits)
    free = [u for u in range(edge_set.v) if path[u]]
    return _count_colorings(edge_set, allowed, free, budget, "coboundary image too large")


def _chord_flows(edge_set: EdgeSet) -> list[list[tuple[int, int]]]:
    """The flows on E, free on the m chords (the edges off a spanning
    forest): per edge of E in position order, the (chord index, sign) pairs
    whose signed sum is that edge's value. A chord (a, b), a < b, runs from
    a to b and carries +g; its fundamental cycle returns from b to a along
    the forest, so a forest edge in path[b] carries +g and one in path[a]
    carries -g, each read from the end whose forest path holds it."""
    path, tree = _spanning_forest(edge_set.v, edge_set.bits)
    pairs = vertex_pairs(edge_set.v)
    flows = {n: [] for n in range(len(pairs)) if (edge_set.bits >> n) & 1}
    chords = [n for n in flows if not (tree >> n) & 1]
    for ci, n in enumerate(chords):
        a, b = pairs[n]
        up, down = (path[b] & ~path[a]) | (1 << n), path[a] & ~path[b]
        for k, flow in flows.items():
            if (up >> k) & 1:
                flow.append((ci, 1))
            elif (down >> k) & 1:
                flow.append((ci, -1))
    return list(flows.values())


def gamma_fourier(
    edge_set: EdgeSet, allowed: AllowedSet, budget: int = DEFAULT_BUDGET
) -> float:
    """Character double sum over the dual cycle space; floating cross-check.

    The kernel of the boundary map is enumerated as the chord flows of a
    spanning forest (_chord_flows): f^(e - v + c) edge characters in total.
    How a forest edge is oriented does not matter: A = -A, so the factor
    A^(p) of each edge is real and A^(p) = A^(-p). An imaginary residue
    above FOURIER_TOL means the kernel enumeration is wrong. The budget is
    charged those terms plus the f min(|A|, f - |A|) pairings of the
    character table, an upper bound now that the table is built once per
    allowed set (AllowedSet.character_table) and read by every call.
    """
    group = allowed.group
    f = group.order
    m = edge_set.edge_count - edge_set.v + components(edge_set)
    work = _fourier_work(edge_set, allowed)
    if work > budget:
        raise BudgetExceededError("dual cycle space too large", work, budget)
    incidence = _chord_flows(edge_set)
    char_sums = allowed.character_table
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
    if abs(value.imag) > FOURIER_TOL:
        raise ArithmeticError(
            f"imaginary residue {value.imag:.3e} exceeds {FOURIER_TOL}; kernel enumeration bug"
        )
    return value.real


def _fourier_work(edge_set: EdgeSet, allowed: AllowedSet) -> int:
    # the f^(e - v + c) character terms and the f min(|A|, f - |A|) pairings
    f = allowed.group.order
    m = edge_set.edge_count - edge_set.v + components(edge_set)
    return f**m + f * min(allowed.size, f - allowed.size)


# per-coordinate method name -> function(edge_set, allowed, budget)
METHODS = {
    "brute": gamma_bruteforce,
    "cycle": gamma_cyclespace,
    "fourier": gamma_fourier,
}
# the same names -> work(edge_set, allowed), the budget charge of one call:
# f^v colorings for brute and f^(v - c) for cycle, upper bounds as their
# count prunes the colorings that fail an edge, and _fourier_work
METHOD_WORK = {
    "brute": lambda edge_set, allowed: allowed.group.order**edge_set.v,
    "cycle": lambda edge_set, allowed: allowed.group.order ** (edge_set.v - components(edge_set)),
    "fourier": _fourier_work,
}


def _difference_histogram(v: int, allowed: AllowedSet, budget: int) -> list[int]:
    # hist[M]: colorings of vertices 1..v-1, vertex 0 fixed to the
    # identity, whose allowed-difference pairs are exactly the mask M; the
    # budget is charged all f^(v - 1) of them, an upper bound on the
    # colorings tallied, as the sweep below counts one per negation pair
    f = allowed.group.order
    total = f ** (v - 1)
    if total > budget:
        raise BudgetExceededError("coloring histogram too large", total, budget)
    pairs = comb(v, 2)
    bit = {pair: 1 << n for n, pair in enumerate(vertex_pairs(v))}
    rows = allowed.rows

    # Whole-vector passes over lists of pair masks, one entry per coloring
    # of a run of vertices, in mixed radix with the last vertex least
    # significant.
    def shift(i: int, c: int, targets: range) -> list[int]:
        # the pairs from vertex i, colored c, to the targets: each target
        # repeats every entry f times and adds its tiled column of rows[c]
        vec = [0]
        for k, u in enumerate(targets):
            column = [bit[i, u] if rows[c] >> y & 1 else 0 for y in range(f)]
            vec = list(map(add, chain.from_iterable(map(repeat, vec, repeat(f))), column * f**k))
        return vec

    def among(targets: range) -> list[int]:
        # the pairs among the targets: per color of the first, the masks of
        # the others plus the first one's shift
        if not targets:
            return [0]
        first, rest = targets[0], targets[1:]
        below = among(rest)
        return list(chain.from_iterable(map(add, below, shift(first, c, rest)) for c in range(f)))

    # The last t vertices form one list of f^t masks; t is the largest with
    # f^(t + 1) <= 2^pairs, at least 1, so no list is longer than the
    # histogram and the f^(v - 1) colorings are never held at once.
    t = min(v - 1, 1)
    while t < v - 1 and f ** (t + 2) <= 1 << pairs:
        t += 1
    outer = v - t
    trailing = range(outer, v)
    inner = list(map(add, among(trailing), shift(0, 0, trailing)))

    # Vertices 1..outer-1 are colored one at a time: each adds its shift
    # for its color, and its pairs with the lower vertices go into a scalar
    # mask. The two masks use disjoint bits, so each list is tallied under
    # its scalar and the tallies are merged once at the end.
    # A = -A, so negating every color keeps vertex 0 at the identity and
    # the mask of every coloring: the outer vertices are colored up to
    # negation. While every earlier one holds a color c = -c, the next takes
    # one color of each pair {c, -c}, the smaller index; a color c != -c
    # sends its branch to the tallies counted twice, and every later vertex
    # of that branch takes all f colors.
    negs = [allowed.group.neg(c) for c in range(f)]
    half = [c for c in range(f) if c <= negs[c]]
    shifts = {
        i: {c: shift(i, c, trailing) for c in (half if i == 1 else range(f))}
        for i in range(1, outer)
    }
    lower_bits = [[(w, bit[w, i]) for w in range(i)] for i in range(outer)]
    once: defaultdict[int, Counter] = defaultdict(Counter)
    twice: defaultdict[int, Counter] = defaultdict(Counter)
    colors = [0] * outer

    def sweep(i: int, vec: list[int], scalar: int, tallies: defaultdict) -> None:
        for c in half if tallies is once else range(f):
            colors[i] = c
            mask = scalar
            for w, b in lower_bits[i]:
                if rows[colors[w]] >> c & 1:
                    mask |= b
            moved = map(add, vec, shifts[i][c])
            branch = tallies if negs[c] == c else twice
            if i == outer - 1:
                branch[mask].update(moved)
            else:
                sweep(i + 1, list(moved), mask, branch)

    if outer > 1:
        sweep(1, inner, 0, once)
    else:
        once[0].update(inner)
    hist = [0] * (1 << pairs)
    for weight, tallies in ((1, once), (2, twice)):
        for scalar, counts in tallies.items():
            for mask, n in counts.items():
                hist[scalar | mask] += weight * n
    return hist


def gamma_vector(
    poset: SubgraphPoset,
    allowed: AllowedSet,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> GammaVector:
    """The vector of coordinates over the poset.

    "auto" gets every coordinate from one sweep of the f^(v - 1) colorings
    with vertex 0 fixed, as Gamma is translation-invariant. Each coloring
    adds one to the histogram entry of its allowed-difference mask over the
    vertex pairs; the superset sum at E then counts the colorings with every
    edge of E allowed. That transform is the fast zeta transform of Yates
    (1937) and of Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets
    Mobius" (STOC 2007, arXiv:cs/0611101). A = -A, so a coloring and its
    negative share a mask, and the sweep tallies at most f^(v - 1)
    colorings: one per negation pair of the colors of the vertices it
    colors one at a time, counted twice when the pair has two members.
    budget is charged the whole f^(v - 1), an upper bound. The result is
    tagged "histogram" and holds the raw entries as its histogram; its
    counts, the superset sums at every mask, and its values, one Fraction
    per member, are computed when first read (see GammaVector). A name
    from METHODS applies that per-member method instead, once per block of
    iso_class_blocks, on the block's first member, after checking the
    METHOD_WORK of those first members, summed, against budget; class_rows
    gives every member its block's value. Above POSET_CAP, where no
    canonical form is read, each member is a block of its own.
    """
    if method == "auto":
        hist = _difference_histogram(poset.v, allowed, budget)
        return GammaVector(poset, None, "histogram", histogram=hist)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; want auto, brute, cycle, or fourier")
    if poset.v > POSET_CAP:
        blocks = [("", (i,)) for i in range(len(poset))]
    else:
        blocks = iso_class_blocks(poset)
    firsts = {idxs[0]: EdgeSet(poset.v, poset.masks[idxs[0]]) for _, idxs in blocks}
    work_of = METHOD_WORK[method]
    work = sum(work_of(first, allowed) for first in firsts.values())
    if work > budget:
        raise BudgetExceededError(
            f"{method} method over {len(poset)} edge sets in {len(blocks)} classes", work, budget
        )
    fn = METHODS[method]
    values = class_rows(blocks, len(poset), lambda _, idxs: fn(firsts[idxs[0]], allowed, budget))
    return GammaVector(poset, tuple(values), method)


# ---------------------------------------------------------------------------
# Lattice passes. With r = p/q, y = J(r)^-1 x is 0 off P_v and has weighted
# subset sums x[M] at every edge mask M of K_v, so Y[M] = D q^|M| y[M] is one
# weighted subset-Mobius pass (step hi - p*lo) over the integers
# X[M] = D q^|M| x[M], and Y must be 0 on every bridged M.
# The pass takes X from one of two inputs:
# - in gamma_plus, the bridge extension of a vector on P_v: with x = n / L
#   over one common denominator D = L, x[M] = r^(|M| - |core M|) x[core M],
#   since the bridgeless subsets of M are those of its bridgeless core; so
#   X[M] = n_core q^|core| p^(|M| - |core|), and the vanishing holds by
#   construction;
# - in verify_reciprocity, the histogram's counts at r = alpha:
#   D = f^(v - 1) and X[M] = q^|M| counts[M]. There the vanishing on the
#   bridged masks is the paper's Fourier lemma, checked on the colorings
#   themselves, and both sides share D q^|H| at each member H, so the
#   verdict compares the integers Y and builds no Fraction.
# On the histogram the whole solve acts one edge bit at a time: the superset
# sum, the factor q on the bit and the step hi - p*lo map the raw entries
# (h0, h1) with the bit clear and set to (h0 + h1, (q - p) h1 - p h0), so
# verify_reciprocity solves from the raw histogram and never builds X.
# At alpha = 0 (p = 0, q = 1) J(0) is the identity and the step is
# (h0, h1) -> (h0 + h1, h1), the superset sum alone: GammaVector.counts is
# this solve at 0, in lanes sized from the total, so no sum is refused.
# Each entry of the result is a sum over the raw entries of products of one
# factor per bit, 1, q - p or -p, so with T the histogram's total no entry
# at any step exceeds T max(p, q - p)^C(v, 2) in size. The solve then runs
# in packed lanes (see graphs' "Packed lanes"), one int with entry M in lane M,
# biased by o = 2^(w - 1) to hold its sign: w is 32 or 64 bits when that
# bound is below o, else the least multiple of 64 bits that holds it with
# its sign (v = 6 at f >= 12, past the default budget). At v = 7 the bound
# is f^6 max(p, q - p)^21: 64 bits for Z7 interval:1 (4/7) and 32 for Z2^3
# hamming:1 (1/2), but past 64 already for alpha = 2/7 or 3/8, whose 2^21
# lanes of 128 bits would take 32 MiB an int; verify_reciprocity refuses
# such a solve by name above POSET_CAP. At bit k (graphs._lane_steps), with
# L and H the lanes without the bit and those with it moved down onto them,
# and O the bias in the same lanes, the low lanes become L + H - O and the
# high ones ((q - p) H - p L + (1 - q + 2p) O), shifted up: each lane stays in
# [0, 2^w), so one big-int expression steps every lane at once, and a
# closing XOR with the bias leaves two's complement lanes.
# Every pair difference lies in exactly one of A and Abar, so Abar's raw
# histogram is A's read at complemented masks, with h0 and h1 swapped, and
# its solve at (q - p)/q, over the same q, gives (h0 + h1, p h0 - (q - p) h1).
# Hence Y_Abar[M] = (-1)^|M| Y_A[M] at every mask: Abar's solve vanishes on
# the bridged masks exactly where A's does, and its signed values are A's.
# The transfer matrix needs no solve: apply_transfer signs by (-1)^|H| one
# pass with step hi - q*lo over the bridge extension that gamma_plus passes
# with step hi - p*lo. Both stay on _lattice_pass: their inputs are
# rationals over any common denominator, with no cheap bound for a lane.


def _bridge_extension(gamma: GammaVector, p: int, q: int) -> tuple[list[int], int]:
    # X[M] = n_core q^|core| p^(|M| - |core|) at every edge mask M of K_v,
    # with x_H = n_H / L over the common denominator L of the values, and L
    for x in gamma.values:
        if not isinstance(x, Rational):
            raise TypeError(f"exact rational values needed, got {x!r}")
    common = lcm(*(x.denominator for x in gamma.values))
    poset = gamma.poset
    core = poset.cores
    scaled = [0] * len(core)
    for mask, size, x in zip(poset.masks, poset.sizes, gamma.values):
        scaled[mask] = x.numerator * (common // x.denominator) * q**size
    p_pow = [p**k for k in range(len(core).bit_length())]
    bridges = map(int.bit_count, map(xor, range(len(core)), core))
    return list(map(mul, map(scaled.__getitem__, core), map(p_pow.__getitem__, bridges))), common


def _refuse_bridged(v: int, ys: list[int], bridgeless) -> None:
    # ArithmeticError names the first nonzero mask of ys that bridgeless rejects
    for mask in compress(range(len(ys)), ys):
        if not bridgeless(mask):
            raise ArithmeticError(f"J(r)^-1 is nonzero on the bridged {EdgeSet(v, mask)!r}")


def _at_members(poset: SubgraphPoset, table):
    # table[H] at each member H in table's container, an array or a list: one
    # C-level gather, or one index, which itemgetter would return bare
    masks = poset.masks
    got = itemgetter(*masks)(table) if len(masks) > 1 else (table[masks[0]],)
    return array(table.typecode, got) if isinstance(table, array) else list(got)


def _signed(poset: SubgraphPoset, nums) -> list[int]:
    # (-1)^|H| nums[i] at each member H = member i
    return [-y if size & 1 else y for y, size in zip(nums, poset.sizes)]


def _lane_bytes(bound: int) -> int:
    # the bytes of a biased lane that holds every integer of size up to
    # bound: 4 or 8, else a multiple of 8
    return 4 if bound < 1 << 31 else 8 * (bound.bit_length() // 64 + 1)


def _packed_solve(hist: list[int], p: int, q: int):
    # hist stepped at every bit by (h0, h1) -> (h0 + h1, (q - p) h1 - p h0)
    # in biased lanes (see "Lattice passes" above): a new array for 4- and
    # 8-byte lanes, else a list
    bits = len(hist).bit_length() - 1
    width = _lane_bytes(sum(hist) * max(p, q - p) ** bits)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(hist), "little")
    packed = _pack_lanes(hist, width) | bias  # every entry is below the bias
    for shift, keep in _lane_steps(len(hist), width):
        low_bias = bias & keep
        lo = packed & keep
        hi = (packed >> shift) & keep
        # at v = 7 with 64-bit lanes each of these ints is 16 MiB: each is
        # dropped once spent, which takes a quarter off the solve's peak
        del packed
        high = ((q - p) * hi - p * lo + (1 - q + 2 * p) * low_bias) << shift
        lo += hi
        del hi
        lo -= low_bias
        del low_bias
        packed = lo | high
        del lo, high
    return _unpack_lanes(packed ^ bias, len(hist), width, signed=True)


def _histogram_inverse(gamma: GammaVector, alpha: Fraction):
    # f^(v - 1) q^|H| J(alpha)^-1 Gamma at each member H, in member order,
    # from the raw histogram of the set whose density is alpha: an array of
    # the solve's lanes, or a list past 64 bits. The solve must vanish off
    # the members; only when it does not is a set of them made, to name the
    # lowest nonzero mask outside it
    poset = gamma.poset
    ys = _packed_solve(gamma.histogram, *alpha.as_integer_ratio())
    nums = _at_members(poset, ys)
    if len(ys) - ys.count(0) != len(nums) - nums.count(0):
        _refuse_bridged(poset.v, ys, set(poset.masks).__contains__)
    return nums


def _fractions(poset: SubgraphPoset, numerators: list[int], common: int, q: int = 1) -> tuple:
    # Fraction(numerators[i], common q^|H|) at each member H, in member
    # order. The members come in runs of one size, so one denominator; in
    # each run one Fraction is made per distinct numerator and shared, since
    # the values of an isomorphism class repeat (16 classes among the 314
    # members of P_5).
    sizes = poset.sizes
    out = []
    while len(out) < len(sizes):
        size = sizes[len(out)]
        chunk = numerators[len(out) : bisect_right(sizes, size)]
        denominator = common * q**size
        made = {n: Fraction(n, denominator) for n in set(chunk)}
        out += map(made.__getitem__, chunk)
    return tuple(out)


def gamma_plus(gamma: GammaVector, alpha: Fraction) -> GammaVector:
    """Mobius-invert the weighted zeta expansion: the inverse weighted zeta
    at alpha applied to the vector, exactly.

    The inverse is applied, not built: one weighted Yates pass over the
    edge masks of K_v from the bridge-law extension of the vector gives
    coordinate H as Y_H / (L q^|H|) (see "Lattice passes" above).
    ArithmeticError names a bridged mask where the pass is nonzero.
    """
    poset = gamma.poset
    p, q = Fraction(alpha).as_integer_ratio()
    ys, common = _bridge_extension(gamma, p, q)
    _lattice_pass(ys, -p)
    _refuse_bridged(poset.v, ys, lambda mask: poset.cores[mask] == mask)
    nums = _at_members(poset, ys)
    return GammaVector(poset, _fractions(poset, nums, common, q), gamma.method + "+mobius")


class ReciprocityReport(Frozen):
    """Coordinatewise comparison of the two Mobius-inverted vectors.

    At member H both sides share the denominator ``common`` q^|H|, with
    common = f^(v - 1) and alpha = p/q, so the verdict (per_coordinate, and
    with it passed and ok) compares the integer numerators of the two
    solves, ``lhs_numerators`` and ``rhs_numerators``, in member order.
    Equal sides share one sequence of numerators, and then one tuple of
    values. lhs and rhs, the Fractions, are made when first read. Equality
    and hashing read poset, alpha, lhs, rhs and the two gamma vectors.
    """

    _fields = ("poset", "alpha", "lhs", "rhs", "gamma", "gamma_complement")
    poset: SubgraphPoset
    alpha: Fraction
    lhs: tuple
    rhs: tuple
    gamma: GammaVector
    gamma_complement: GammaVector
    lhs_numerators: list[int]
    rhs_numerators: list[int]
    common: int

    def __init__(
        self,
        poset: SubgraphPoset,
        alpha: Fraction,
        gamma: GammaVector,
        gamma_complement: GammaVector,
        lhs_numerators: list[int],
        rhs_numerators: list[int],
        common: int,
    ):
        self._set(
            poset=poset,
            alpha=alpha,
            gamma=gamma,
            gamma_complement=gamma_complement,
            lhs_numerators=lhs_numerators,
            rhs_numerators=rhs_numerators,
            common=common,
        )

    @cached_property
    def lhs(self) -> tuple:
        return _fractions(self.poset, self.lhs_numerators, self.common, self.alpha.denominator)

    @cached_property
    def rhs(self) -> tuple:
        if self.rhs_numerators is self.lhs_numerators:
            return self.lhs
        return _fractions(self.poset, self.rhs_numerators, self.common, self.alpha.denominator)

    @cached_property
    def per_coordinate(self) -> tuple[bool, ...]:
        if self.rhs_numerators is self.lhs_numerators:
            return (True,) * len(self.lhs_numerators)
        return tuple(map(eq, self.lhs_numerators, self.rhs_numerators))

    @property
    def passed(self) -> int:
        return sum(self.per_coordinate)

    @property
    def ok(self) -> bool:
        return all(self.per_coordinate)

    def failing_indices(self) -> tuple[int, ...]:
        return tuple(i for i, good in enumerate(self.per_coordinate) if not good)


def verify_reciprocity(
    poset: SubgraphPoset, allowed: AllowedSet, *, budget: int = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Check that Mobius inversion at alpha of the allowed vector equals the
    parity-signed Mobius inversion at 1 - alpha of the complement vector.

    Exact comparison; a mismatch is reported, never raised. Each side is
    one histogram sweep, by gamma_vector with "auto", and the two sweeps are
    independent; neither vector's superset sums or values are read. The
    allowed side gets one lattice solve at alpha, run in packed biased
    lanes straight from its raw histogram (see "Lattice passes" above),
    which must vanish on every bridged mask (the paper's Fourier lemma;
    ArithmeticError names the first that does not). It is checked by
    counting nonzero entries against those at the members, so no bridgeless
    cores and no mask-to-member dict are needed. The raw histograms are then
    compared exactly: when the complement's is the allowed one's read at
    complemented masks, its solve at 1 - alpha would be the allowed one
    signed by (-1)^|M| at every mask, so the sides agree and share one
    sequence of numerators. Otherwise a sweep is off, and the complement
    gets its own solve at 1 - alpha, with the same denominator q, checked
    the same way; the sides then agree exactly where
    Y_A[H] = (-1)^|H| Y_Abar[H]. The verdict reads those integers; the
    report makes its Fractions only when lhs or rhs is read (see
    ReciprocityReport).

    The steps of both solves, C(v, 2) 2^(C(v, 2) - 1) each, are checked
    against budget before any coloring, and each sweep checks its own
    f^(v - 1), an upper bound on the colorings it tallies, one per negation
    pair (see gamma_vector). Above POSET_CAP a solve whose lanes would be
    wider than 64 bits is refused by name with ValueError, before any
    coloring.
    """
    v = poset.v
    pairs = comb(v, 2)
    if pairs << pairs > budget:
        raise BudgetExceededError(
            f"lattice solves over the edge masks of K_{v}", pairs << pairs, budget
        )
    common = allowed.group.order ** (v - 1)
    if v > POSET_CAP:
        p, q = allowed.alpha.as_integer_ratio()
        lane = _lane_bytes(common * max(p, q - p) ** pairs)
        if lane > 8:
            raise ValueError(
                f"the lattice solve at v={v} runs in lanes of at most 64 bits; "
                f"alpha = {allowed.alpha} over a group of order {allowed.group.order} "
                f"needs {8 * lane}"
            )
    g_a = gamma_vector(poset, allowed, "auto", budget)
    g_bar = gamma_vector(poset, allowed.complement(), "auto", budget)
    ys_a = ys_bar = _histogram_inverse(g_a, allowed.alpha)
    if g_bar.histogram != g_a.histogram[::-1]:
        ys_bar = _signed(poset, _histogram_inverse(g_bar, allowed.alpha_bar))
        if all(map(eq, ys_a, ys_bar)):
            ys_bar = ys_a
    return ReciprocityReport(poset, allowed.alpha, g_a, g_bar, ys_a, ys_bar, common)


def apply_transfer(gamma_bar: GammaVector, alpha_bar: Fraction) -> GammaVector:
    """Map the complement vector to the allowed vector through the transfer
    matrix M(r) = J(1 - r) (-1)^e J(r)^-1 at r = alpha_bar, applied and
    never built, over the poset the vector holds.

    Put the lattice form of J(r)^-1 (see "Lattice passes" above) into the
    sum over the middle member G: the sum over M <= G <= H is binomial and
    collapses to ((1 - r) + r)^(|H| - |M|) = 1, so
    M(r)(H, E) = sum over M <= H with core M = E of (-1)^|M| r^(|M| - |E|).
    With r = p/q and x = n / L, L q^|H| (M(r) x)_H is then the sum over
    M <= H of (-1)^|M| q^(|H| - |M|) X[M], with X the bridge extension
    X[M] = n_core q^|core| p^(|M| - |core|) that gamma_plus reads. As
    (-1)^|M| = (-1)^|H| (-1)^(|H| - |M|), that is (-1)^|H| times one
    weighted subset-sum pass over X with step hi - q*lo.
    """
    poset = gamma_bar.poset
    p, q = Fraction(alpha_bar).as_integer_ratio()
    ys, common = _bridge_extension(gamma_bar, p, q)
    _lattice_pass(ys, -q)
    nums = _signed(poset, _at_members(poset, ys))
    return GammaVector(poset, _fractions(poset, nums, common, q), "transfer")


# ---------------------------------------------------------------------------
# Local computations. The transfer row of an edge set E only involves
# subsets of E, so these avoid building the full ambient poset.

# Forest counts and the chromatic polynomial do not change under vertex
# relabeling, so both come from one walk per isomorphism class: memoized per
# (v, canonical_bits(v, bits)), at most one entry per class (77 at v = 6).
# The stored lists are shared, never mutated.
_forest_counts_by_class: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


def _forest_counts(edge_set: EdgeSet) -> tuple[list[int], list[int]]:
    """counts[k]: the forests of k edges inside edge_set, for k up to
    min(v - 1, |E|); nbc[k]: those with no broken circuit, a circuit less
    its highest edge.

    A depth-first walk adds edges in increasing position, so every forest
    is reached once. Each node holds its candidates as a mask: the edges
    above its highest that join two of its components. Joining components
    a and b makes their cross mask touch[a] & touch[b] inside, so the
    child's candidates are the rest of the node's less that mask, and no
    edge is ever probed that would close a cycle. touch[root] masks the
    edges with an end in the component; the components are an undoable
    union-find with no path compression, so resetting the one link after a
    recursive call restores them. Every candidate is a forest one edge
    larger, so a node adds its candidate count to the next level; a child
    with no candidates of its own is not entered. Edge n, the highest so
    far, completes a broken circuit exactly when a higher edge joins the
    two components it merges, when the cross mask reaches 2 << n.

    At the last level, k + 1 = v - c with c the components of E, the
    forest has c + 1 components, and every edge not inside one of them
    joins the same two parts, so each candidate completes a spanning
    forest. Only the highest edge of that cross mask leaves it free, and
    it is a candidate exactly when there is one: the level is counted in
    bulk, with no union, and in the parent node, with no call.
    """
    v, bits = edge_set.v, edge_set.bits
    pairs = vertex_pairs(v)
    counts = [0] * (min(v - 1, bits.bit_count()) + 1)
    nbc = counts.copy()
    counts[0] = nbc[0] = 1
    top = v - components(edge_set)  # the edges of a spanning forest
    parent = list(range(v))
    touch = [mask & bits for mask in _incident(v)]

    def grow(rest: int, k: int, free: bool) -> None:
        # the node's forest has k - 1 edges; rest holds its candidates
        counts[k] += rest.bit_count()
        if k == top:
            nbc[k] += free
            return
        last = k + 1 == top
        while rest:
            low = rest & -rest
            rest ^= low
            a, b = pairs[low.bit_length() - 1]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            joined, other = touch[a], touch[b]
            cross = joined & other
            child_free = free and cross < low << 1
            nbc[k] += child_free
            later = rest & ~cross
            if not later:
                continue
            if last:  # the child's level is the top: counted here, with no union
                counts[top] += later.bit_count()
                nbc[top] += child_free
                continue
            parent[b] = a
            touch[a] = joined | other
            grow(later, k + 1, child_free)
            touch[a] = joined
            parent[b] = b

    if top:
        grow(bits, 1, True)
    return counts, nbc


def _class_forest_counts(edge_set: EdgeSet) -> tuple[list[int], list[int]]:
    # _forest_counts, walked once per isomorphism class for v <= POSET_CAP;
    # above it canonical_bits refuses v, as its relabeling table would hold
    # C(v, 2) v! lanes, so every call walks
    v = edge_set.v
    if v > POSET_CAP:
        return _forest_counts(edge_set)
    key = v, canonical_bits(v, edge_set.bits)
    counts = _forest_counts_by_class.get(key)
    if counts is None:
        counts = _forest_counts_by_class[key] = _forest_counts(edge_set)
    return counts


def main_term(edge_set: EdgeSet, alpha_bar: Fraction) -> Fraction:
    """Transfer-row entry against the empty graph, evaluated at alpha_bar.

    This is the group-independent approximation of the allowed probability;
    the neglected part has order alpha_bar^(girth - 1).

    The entry is the sum over bridgeless G <= E of
    (1 - alpha_bar)^(|E| - |G|) (-1)^|G| mu(0, G) alpha_bar^|G|, and it
    equals the forest sum: the sum over the forests F inside E of
    (-alpha_bar)^|F|. On a bridgeless G, mu(0, G) is the sum over the forests
    F <= G of (-1)^(|G| - |F|), because the largest bridgeless subset of an
    edge set S is empty exactly when S is a forest. Exchanging the sums, the
    binomial sum over F <= G <= E collapses to (-alpha_bar)^|F|. So with
    alpha_bar = p/q and n_k forests of k edges, the entry is the sum of
    n_k (-p)^k q^(|E| - k) over q^|E|.

    The counts n_k are computed once per isomorphism class of E for
    v <= POSET_CAP (6) and on every call above it, where the
    canonical form would cost C(v, 2) v! relabeled edges.
    """
    if not is_isthmus_free(edge_set):
        raise ValueError("main term is defined on isthmus-free edge sets")
    alpha_bar = Fraction(alpha_bar)
    p, q = alpha_bar.numerator, alpha_bar.denominator
    e_top = edge_set.edge_count
    counts, _ = _class_forest_counts(edge_set)
    acc = sum(n_k * (-p) ** k * q ** (e_top - k) for k, n_k in enumerate(counts))
    return Fraction(acc, q**e_top)


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

    For A the complement of the identity in a group of order f, the
    complement vector is f^(c(H) - v) and the allowed one is P_H(f) / f^v.
    Each bridge of a mask M splits one component of its core, so
    c(core M) = c(M) + |M| - |core M|, and the closed-form row of M(1/f)
    (see apply_transfer) applied to f^(c - v) becomes Whitney's subset
    expansion P_E(f) = sum over M <= E of (-1)^|M| f^c(M) (Whitney, "A
    logical expansion in mathematics", 1932). The same paper cancels it down
    to the forests with no broken circuit, a circuit less its highest edge:
    P_E(f) = sum over k of (-1)^k nbc_k f^(v - k), nbc_k counting those of
    k edges, which main_term's forest walk counts too.

    The polynomial is a graph invariant, so for v <= POSET_CAP (6) the walk
    runs once per isomorphism class, memoized with main_term's counts.
    Above the cap every call walks: the canonical form needs C(v, 2) v!
    relabeled edges, about 1.1M at v = 8.
    """
    if edge_set.edge_count > MAX_CHROMATIC_EDGES:
        raise ValueError(
            f"chromatic specialization walks the forests of E; {edge_set.edge_count} "
            f"edges exceed the cap of {MAX_CHROMATIC_EDGES}, the edges of K7"
        )
    if not is_isthmus_free(edge_set):
        raise ValueError(
            "transfer specialization needs an isthmus-free edge set; "
            "use the deletion-contraction oracle instead"
        )
    _, nbc = _class_forest_counts(edge_set)
    v = edge_set.v
    coeffs = [0] * (v + 1)
    for k, n_k in enumerate(nbc):
        coeffs[v - k] = -n_k if k & 1 else n_k
    return RationalPoly.of(coeffs)

# ---------------------------------------------------------------------------
# Worked-example closed forms.


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
    closed form through the triangle transfer row, main_term(K3, alpha_bar)
    = 1 - 3 alpha_bar + 3 alpha_bar^2: equals
    1 - (3n+3)/2^n + (3n^2 + 3n + 2)/4^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha_bar = Fraction(n + 1, 2**n)
    gamma_bar = Fraction(3 * n + 1, 4**n)
    return main_term(EdgeSet(3, 0b111), alpha_bar) - gamma_bar
