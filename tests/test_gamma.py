"""Coloring probabilities by three methods, the reciprocity identity, the
transfer map, girth-order residuals, and the chromatic specialization.

Expected values marked as derived were computed with the in-file raw
enumeration oracle (_triangle_value) or by hand from the closed forms; the
oracle shares no code with the library paths it checks.
"""

import json
import pickle
import random
import time
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import pytest

import groupcolor.cli as cli_module
import groupcolor.gamma as gamma_module
import groupcolor.graphs as graphs_module
from groupcolor.gamma import (
    BudgetExceededError,
    GammaVector,
    _bridge_extension,
    _chord_flows,
    _forest_counts,
    _packed_solve,
    apply_transfer,
    chromatic_via_transfer,
    gamma_bruteforce,
    gamma_cyclespace,
    gamma_fourier,
    gamma_plus,
    gamma_vector,
    hamming_k3_closed_form,
    hamming_k3_from_reciprocity,
    main_term,
    residual,
    verify_reciprocity,
)
from groupcolor.graphs import (
    EdgeSet,
    SubgraphPoset,
    _spanning_forest,
    bridgeless_cores,
    bridgeless_subsets,
    chromatic_oracle,
    components,
    down_sets_of,
    enumerate_poset,
)
from groupcolor.groups import (
    AllowedSet,
    FiniteAbelianGroup,
    allowed_complement_identity,
    allowed_explicit,
    allowed_hamming,
    allowed_interval,
    make_group,
)
from groupcolor.posetlin import (
    VARIABLE,
    PolyMatrix,
    RationalPoly,
    mobius_table,
    transfer_at,
    weighted_zeta_at,
    weighted_zeta_inverse_at,
)

from conftest import apply, low_positions, mobius_recursion


def _triangle_value(orders, allowed_residues) -> Fraction:
    """Raw triangle probability: (a, b) with a, b, a+b allowed, over f^2."""
    els = list(product(*[range(n) for n in orders]))
    allowed = set(allowed_residues)

    def add(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    count = sum(1 for a in els for b in els if a in allowed and b in allowed and add(a, b) in allowed)
    return Fraction(count, len(els) ** 2)


def _residue_set(allowed: AllowedSet) -> set:
    return {allowed.group.residues_of(i) for i in allowed.indices()}


# ---------------------------------------------------------------------------
# the three methods


def test_empty_graph_probability_is_one():
    allowed = allowed_interval(make_group([5]), 1)
    empty = EdgeSet(3, 0)
    assert gamma_bruteforce(empty, allowed) == 1
    assert gamma_cyclespace(empty, allowed) == 1
    assert gamma_fourier(empty, allowed) == pytest.approx(1.0)


def test_triangle_interval_z5(k3_v3):
    allowed = allowed_interval(make_group([5]), 1)
    bar = allowed.complement()
    assert gamma_bruteforce(k3_v3, bar) == Fraction(7, 25)
    assert gamma_cyclespace(k3_v3, bar) == Fraction(7, 25)
    assert gamma_fourier(k3_v3, bar) == pytest.approx(0.28, abs=1e-9)
    # the allowed side comes out to zero here: distance-2 colors cannot
    # close a triangle mod 5
    assert gamma_bruteforce(k3_v3, allowed) == 0
    assert _triangle_value([5], {(2,), (3,)}) == 0


def test_triangle_proper_colorings(k3_v3):
    for f in (3, 5, 7):
        allowed = allowed_complement_identity(make_group([f]))
        want = Fraction(f * (f - 1) * (f - 2), f**3)
        assert gamma_bruteforce(k3_v3, allowed) == want
        assert want == (1 - Fraction(1, f)) * (1 - Fraction(2, f))


def test_k4_not_two_colorable(k4_v4):
    allowed = allowed_explicit(make_group([2]), [1])
    assert gamma_cyclespace(k4_v4, allowed) == 0
    assert gamma_bruteforce(k4_v4, allowed) == 0


def test_triangle_hamming_complement(k3_v3):
    allowed = allowed_hamming(3, 1)
    bar = allowed.complement()
    assert gamma_cyclespace(k3_v3, bar) == Fraction(10, 64)  # (3n+1)/4^n at n=3
    assert _triangle_value([2] * 3, _residue_set(bar)) == Fraction(10, 64)


def test_fourier_c4_proper_three_colorings(c4_v4):
    allowed = allowed_complement_identity(make_group([3]))
    exact = Fraction((3 - 1) ** 4 + (3 - 1), 3**4)
    assert exact == Fraction(18, 81)
    assert gamma_fourier(c4_v4, allowed) == pytest.approx(float(exact), abs=1e-9)
    assert gamma_cyclespace(c4_v4, allowed) == exact


@pytest.mark.parametrize(
    "orders,build",
    [
        ([5], lambda g: allowed_interval(g, 1)),
        ([2, 2, 2], lambda g: AllowedSet(g, allowed_hamming(3, 1).mask)),
        ([6], lambda g: allowed_explicit(g, [0, 3])),
        # here the Fourier sum on P_4 depends on the signs of the cycles
        ([7], lambda g: allowed_explicit(g, [1, 2, 5, 6])),
        ([2, 4], lambda g: allowed_explicit(g, [(1, 0), (0, 1), (0, 3)])),
    ],
)
def test_methods_agree_on_p4(p4, orders, build):
    # brute and cycle share one coloring loop, so the reference count is
    # written out here on residue tuples
    allowed = build(make_group(orders))
    colors = list(product(*[range(n) for n in orders]))
    inside = _residue_set(allowed)

    def diff(a, b):
        return tuple((x - y) % n for x, y, n in zip(a, b, orders))

    for member in p4.members:
        count = sum(
            all(diff(c[j], c[i]) in inside for i, j in member.edges())
            for c in product(colors, repeat=member.v)
        )
        exact = Fraction(count, len(colors) ** member.v)
        assert gamma_bruteforce(member, allowed) == exact
        assert gamma_cyclespace(member, allowed) == exact
        assert gamma_fourier(member, allowed) == pytest.approx(float(exact), abs=1e-9)


def test_fourier_matches_cyclespace_on_p5_mixed_group(p5):
    # every member of nullity at most 3: f^m <= 512 flows each
    allowed = allowed_explicit(make_group([2, 4]), [(1, 0), (0, 1), (0, 3)])
    checked = 0
    for member in p5.members:
        if member.edge_count - member.v + components(member) <= 3:
            exact = gamma_cyclespace(member, allowed)
            assert gamma_fourier(member, allowed) == pytest.approx(float(exact), abs=1e-9)
            checked += 1
    assert checked == 258


def test_orientation_flip_gives_same_probability(k3_v3, c4_v4):
    # recompute brute force with every edge read high-to-low; symmetry of
    # the allowed set makes the answer identical
    allowed = allowed_interval(make_group([7]), 2)
    for es in (k3_v3, c4_v4):
        f = 7
        count = 0
        for coloring in product(range(f), repeat=es.v):
            if all((coloring[i] - coloring[j]) % f in allowed.indices() for i, j in es.edges()):
                count += 1
        assert Fraction(count, f**es.v) == gamma_bruteforce(es, allowed)


# ---------------------------------------------------------------------------
# cycle basis and kernel enumeration


def test_cycle_count_matches_nullity(p4):
    # one flow list per edge, over m = e - v + c chords
    for member in p4.members:
        flows = _chord_flows(member)
        assert len(flows) == member.edge_count
        chords = {ci for flow in flows for ci, _ in flow}
        assert chords == set(range(member.edge_count - member.v + components(member)))


def test_fundamental_cycles_have_zero_boundary(p4):
    # a chord (i, j), i < j, runs from i to j; a forest edge runs from the
    # end whose forest path holds it towards the root
    group = make_group([3])
    f = group.order
    for member in p4.members:
        if member.edge_count == 0:
            continue
        path, tree = _spanning_forest(member.v, member.bits)
        ends = []
        for i, j in member.edges():
            bit = EdgeSet.from_edges(member.v, [(i, j)]).bits
            ends.append((j, i) if tree & bit and path[j] & bit else (i, j))
        flows = _chord_flows(member)
        m = member.edge_count - member.v + components(member)
        kernel = set()
        for assignment in product(range(f), repeat=m):
            p_vec = [0] * len(ends)
            for pos, flow in enumerate(flows):
                for ci, sign in flow:
                    g = assignment[ci]
                    p_vec[pos] = group.add(p_vec[pos], g if sign > 0 else group.neg(g))
            p_vec = tuple(p_vec)
            kernel.add(p_vec)
            # boundary at each vertex: sum of incoming minus outgoing labels
            for u in range(member.v):
                acc = 0
                for pos, (tail, head) in enumerate(ends):
                    if head == u:
                        acc = group.add(acc, p_vec[pos])
                    if tail == u:
                        acc = group.add(acc, group.neg(p_vec[pos]))
                assert acc == 0
        assert len(kernel) == f**m


def test_coboundary_image_size(p4):
    # the coboundary of X assigns X_j - X_i to each edge (i, j), i < j; its
    # image has one element per coloring with every root fixed
    group = make_group([3])
    for member in p4.members:
        images = {
            tuple(group.add(coloring[j], group.neg(coloring[i])) for i, j in member.edges())
            for coloring in product(range(group.order), repeat=member.v)
        }
        assert len(images) == group.order ** (member.v - components(member))


def test_budget_errors(k4_v4):
    allowed = allowed_complement_identity(make_group([7]))
    with pytest.raises(BudgetExceededError, match="gamma_cyclespace"):
        gamma_bruteforce(k4_v4, allowed, budget=100)
    with pytest.raises(BudgetExceededError):
        gamma_cyclespace(k4_v4, allowed, budget=100)
    with pytest.raises(BudgetExceededError):
        gamma_fourier(k4_v4, allowed, budget=100)


# the per-member coloring count against a plain product loop
COUNT_SETS = {
    "Z5 interval:1": lambda: allowed_interval(make_group([5]), 1),
    "Z7 {1,2,5,6}": lambda: allowed_explicit(make_group([7]), [1, 2, 5, 6]),
    "Z2^3 hamming:1": lambda: allowed_hamming(3, 1),
    "Z2xZ4 coset": lambda: allowed_explicit(
        make_group([2, 4]), [(0, 1), (0, 3), (1, 0), (1, 2)]
    ),
    "Z5 empty": lambda: AllowedSet(make_group([5]), 0),
    "Z5 full": lambda: AllowedSet(make_group([5]), 0b11111),
}

# off the poset: one vertex, a bridged path, and sets with isolated vertices
COUNT_EXTRAS = (
    EdgeSet(1, 0),
    EdgeSet.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    EdgeSet.from_edges(5, [(1, 2), (2, 4), (1, 4)]),
    EdgeSet.from_edges(6, [(1, 3), (3, 5), (1, 5), (5, 2)]),
    EdgeSet(6, 0),
)


def _product_tally(v, allowed):
    # colorings of v vertices, vertex 0 fixed to the identity, counted by
    # their mask of allowed-difference vertex pairs; differences are taken
    # on residue tuples. Adding one color to every vertex changes no
    # difference, so the share of these colorings is the share of all f^v.
    orders = allowed.group.cyclic_orders
    colors = [allowed.group.residues_of(i) for i in range(allowed.group.order)]
    inside = _residue_set(allowed)
    ok = [
        [tuple((y - x) % n for x, y, n in zip(a, b, orders)) in inside for b in colors]
        for a in colors
    ]
    pairs = list(enumerate(combinations(range(v), 2)))
    tally = Counter()
    for rest in product(range(len(colors)), repeat=v - 1):
        coloring = (0, *rest)
        tally[sum(1 << n for n, (i, j) in pairs if ok[coloring[i]][coloring[j]])] += 1
    return tally


@pytest.mark.parametrize("name", sorted(COUNT_SETS))
def test_coloring_count_matches_product_loop(p4, p5, p6, name):
    allowed = COUNT_SETS[name]()
    f = allowed.group.order
    sample = [p6.members[i] for i in random.Random(7).sample(range(len(p6)), 12)]
    tallies = {}
    for edge_set in (*p4.members, *p5.members, *sample, *COUNT_EXTRAS):
        v, bits = edge_set.v, edge_set.bits
        if v not in tallies:
            tallies[v] = _product_tally(v, allowed)
        hits = sum(n for mask, n in tallies[v].items() if mask & bits == bits)
        exact = Fraction(hits, f ** (v - 1))
        assert gamma_bruteforce(edge_set, allowed) == exact
        assert gamma_cyclespace(edge_set, allowed) == exact
        if allowed.size == 0:
            assert exact == (bits == 0)
        if allowed.size == f:
            assert exact == 1


# ---------------------------------------------------------------------------
# vectors, Mobius inversion, reciprocity


def test_gamma_vector_degenerate_sets(p3, p4):
    g = make_group([4])
    everything = AllowedSet(g, (1 << g.order) - 1)
    nothing = AllowedSet(g, 0)
    for poset in (p3, p4):
        ones = gamma_vector(poset, everything)
        assert all(x == 1 for x in ones.values)
        indicator = gamma_vector(poset, nothing)
        assert indicator.values[0] == 1
        assert all(x == 0 for x in indicator.values[1:])


def test_gamma_vector_interval_z5(p3, k3_v3):
    group = make_group([5])
    allowed = allowed_interval(group, 1)
    vec_bar = gamma_vector(p3, allowed.complement())
    assert vec_bar.values == (Fraction(1), Fraction(7, 25))
    vec = gamma_vector(p3, allowed)
    assert vec.values == (Fraction(1), Fraction(0))
    assert vec.method == "histogram"
    assert vec.values[p3.index_of(k3_v3)] == 0


def test_gamma_vector_methods_and_errors(p3):
    allowed = allowed_interval(make_group([5]), 1)
    assert gamma_vector(p3, allowed, "brute").method == "brute"
    assert gamma_vector(p3, allowed, "auto").method == "histogram"
    with pytest.raises(ValueError, match="unknown method"):
        gamma_vector(p3, allowed, "newton")


# the three group-law modes, each with the empty set, the full group and
# one symmetric set of size 4
HISTOGRAM_GROUPS = {
    "Z7": ([7], [1, 2, 5, 6]),
    "Z2^3": ([2, 2, 2], [1, 2, 4, 7]),
    "Z2xZ4": ([2, 4], [(0, 1), (0, 3), (1, 0), (1, 2)]),
}


def _histogram_sets(name):
    orders, members = HISTOGRAM_GROUPS[name]
    group = make_group(orders)
    return (
        AllowedSet(group, 0),
        AllowedSet(group, (1 << group.order) - 1),
        allowed_explicit(group, members),
    )


@pytest.mark.parametrize("name", sorted(HISTOGRAM_GROUPS))
def test_histogram_matches_per_member_methods(p3, p4, p5, name):
    nothing, everything, allowed = _histogram_sets(name)
    for poset in (p3, p4):
        for a in (nothing, everything, allowed):
            auto = gamma_vector(poset, a)
            assert auto.values == gamma_vector(poset, a, "cycle").values
            assert auto.values == gamma_vector(poset, a, "brute").values
    assert gamma_vector(p5, nothing).values == (1,) + (0,) * (len(p5) - 1)
    assert gamma_vector(p5, everything).values == (1,) * len(p5)
    auto = gamma_vector(p5, allowed)
    assert auto.values == gamma_vector(p5, allowed, "cycle").values
    for i in random.Random(5).sample(range(len(p5)), 8):
        assert auto.values[i] == gamma_bruteforce(p5.members[i], allowed)


# (v, group, allowed set) for the blocked sweep: cyclic, xor and mixed
# groups; Z31 at v = 4 sweeps one vertex per list (t = 1), Z4 at v = 5
# the whole sweep as one list (4^5 = 2^10)
HISTOGRAM_SWEEPS = [
    *((v, name) for v in (3, 4, 5) for name in sorted(HISTOGRAM_GROUPS)),
    (4, "Z31 interval:5"),
    (5, "Z4 {1,3}"),
    (6, "Z7 interval:1"),
]
SWEEP_SETS = {
    "Z31 interval:5": lambda: allowed_interval(make_group([31]), 5),
    "Z4 {1,3}": lambda: allowed_explicit(make_group([4]), [1, 3]),
    "Z7 interval:1": lambda: allowed_interval(make_group([7]), 1),
}


@pytest.mark.parametrize("v,name", HISTOGRAM_SWEEPS)
def test_difference_histogram_matches_the_per_coloring_loop(v, name):
    if name in HISTOGRAM_GROUPS:
        sets = _histogram_sets(name)
    else:
        sets = (SWEEP_SETS[name](),)
    for allowed in sets:
        tally = _product_tally(v, allowed)
        want = [tally[mask] for mask in range(1 << comb(v, 2))]
        assert gamma_module._difference_histogram(v, allowed, 10**6) == want


@pytest.mark.parametrize("v,max_order", [(3, 8), (4, 6)])
def test_difference_histogram_matches_the_loop_on_every_small_symmetric_set(v, max_order):
    # groups with no, some and only involutions besides 0: at v = 4 the
    # groups of order 5 and 6 color vertices 1 and 2 one at a time, so the
    # second takes one color per pair after an involution and all after
    # any other color
    for orders in SMALL_GROUPS:
        if make_group(orders).order > max_order:
            continue
        for allowed in _symmetric_sets(orders):
            tally = _product_tally(v, allowed)
            want = [tally[mask] for mask in range(1 << comb(v, 2))]
            assert gamma_module._difference_histogram(v, allowed, 10**6) == want


def test_difference_histogram_tallies_one_coloring_per_negation_pair(monkeypatch):
    # the verify5 base sets at v = 5: vertices 1 and 2 are colored one at
    # a time over a list of the 49 or 64 colorings of vertices 3 and 4.
    # Z7 keeps (49 + 1) / 2 of its color pairs for them, Z2xZ4, with four
    # involutions, (64 + 16) / 2, and Z2^3, all involutions, every one
    tallied = []

    class SpyCounter(Counter):
        def update(self, iterable=None, /, **kwds):
            if iterable is not None:
                iterable = list(iterable)
                tallied[-1] += len(iterable)
            super().update(iterable, **kwds)

    monkeypatch.setattr(gamma_module, "Counter", SpyCounter)
    bases = [
        ((7,), (2, 3, 4, 5), 1225),
        ((2, 4), (4, 5, 6, 7), 2560),
        ((2, 2, 2), (2, 5, 6, 7), 4096),
    ]
    for orders, base, want in bases:
        allowed = allowed_explicit(make_group(orders), base)
        for side in (allowed, allowed.complement()):
            tallied.append(0)
            hist = gamma_module._difference_histogram(5, side, 10**6)
            assert tallied[-1] == want
            tally = _product_tally(5, side)
            assert hist == [tally[mask] for mask in range(1 << 10)]


def test_superset_sums_match_the_direct_sum():
    # the superset sums are the solve at alpha = 0, where J(0) is the identity
    rng = random.Random(9)
    for bits in range(7):
        hist = [rng.randrange(100) for _ in range(1 << bits)]
        kept = list(hist)
        assert list(_packed_solve(hist, 0, 1)) == [
            sum(hist[n] for n in range(len(hist)) if n & m == m) for m in range(len(hist))
        ]
        assert hist == kept  # the sums are a new sequence


def test_superset_sums_match_a_list_pass_written_out():
    # the list pass in full: per bit, every mask without it adds the entry
    # of the mask with it, over seeded histograms of 0 to 12 bits
    rng = random.Random(36)
    for bits in range(13):
        hist = [rng.randrange(1 << 16) for _ in range(1 << bits)]
        want = list(hist)
        for k in range(bits):
            for mask in range(len(want)):
                if not (mask >> k) & 1:
                    want[mask] += want[mask | 1 << k]
        assert list(_packed_solve(hist, 0, 1)) == want


# totals each reached exactly at the empty mask; the solve's lanes are
# signed, so they take 4 bytes below 2^31, 8 below 2^63 and 16 past that
LANE_TOTALS = [0, 100, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]


@pytest.mark.parametrize("total", LANE_TOTALS)
def test_packed_superset_sums_match_the_lattice_pass(total, monkeypatch):
    bounds = []
    real = gamma_module._lane_bytes

    def spy(bound):
        bounds.append(bound)
        return real(bound)

    monkeypatch.setattr(gamma_module, "_lane_bytes", spy)
    rng = random.Random(total)
    for bits in range(16):
        size = 1 << bits
        hist = [rng.randrange(total // size + 1) for _ in range(size)]
        hist[rng.randrange(size)] += total - sum(hist)
        want = hist[::-1]
        graphs_module._lattice_pass(want, 1)
        bounds.clear()
        assert list(_packed_solve(hist, 0, 1)) == want[::-1]
        assert bounds == [total]  # at alpha = 0 the lanes hold the total
    assert real(total) == (4 if total < 1 << 31 else 8 if total < 1 << 63 else 16)


def test_packed_superset_sums_refuse_what_no_lane_holds():
    # the entries are counts: a negative one has no unsigned lane
    with pytest.raises(OverflowError):
        _packed_solve([2, -1], 0, 1)


def test_superset_sums_past_64_bits_are_exact():
    vec = GammaVector(enumerate_poset(2), None, "histogram", histogram=[1 << 63, 1 << 63])
    assert vec.counts == [2**64, 2**63]


# (total, p, q) for the packed solve: each total is spread over a seeded
# histogram, and the lanes hold up to total * max(p, q - p)^bits with its
# sign: 32 bits up to 2^31 - 1, 64 bits up to 2^63 - 1, wider past that
SOLVE_CASES = [
    (100, 1, 2),
    ((1 << 31) - 1, 1, 2),
    (1 << 31, 1, 2),
    (7**4, 4, 7),
    ((1 << 63) - 1, 1, 2),
    (1 << 63, 1, 2),
    ((1 << 40) + 3, 5, 37),
]


def _list_solve(hist, p, q):
    # the list route: superset sums by _lattice_pass, q^|M| at each mask,
    # and the weighted subset-Mobius pass at -p
    counts = hist[::-1]
    graphs_module._lattice_pass(counts, 1)
    ys = [c * q ** m.bit_count() for m, c in enumerate(counts[::-1])]
    graphs_module._lattice_pass(ys, -p)
    return ys


@pytest.mark.parametrize("total, p, q", SOLVE_CASES)
def test_packed_solve_matches_the_list_solve(total, p, q, monkeypatch):
    bounds = []
    real = gamma_module._lane_bytes

    def spy(bound):
        bounds.append(bound)
        return real(bound)

    monkeypatch.setattr(gamma_module, "_lane_bytes", spy)
    rng = random.Random(total)
    widths = set()
    for bits in range(13):
        size = 1 << bits
        hist = [rng.randrange(total // size + 1) for _ in range(size)]
        hist[rng.randrange(size)] += total - sum(hist)
        concentrated = [total] + [0] * (size - 1)  # every sign and size at its extreme
        for h in (hist, concentrated):
            for side in (p, q - p):  # alpha and 1 - alpha
                bounds.clear()
                assert list(gamma_module._packed_solve(h, side, q)) == _list_solve(h, side, q)
                assert bounds == [total * max(p, q - p) ** bits]
                widths.add(real(bounds[0]))
    assert widths == {
        (100, 1, 2): {4},
        ((1 << 31) - 1, 1, 2): {4},
        (1 << 31, 1, 2): {8},
        (7**4, 4, 7): {4, 8},
        ((1 << 63) - 1, 1, 2): {8},
        (1 << 63, 1, 2): {16},
        ((1 << 40) + 3, 5, 37): {8, 16},
    }[total, p, q]


def test_lane_bytes_hold_the_bound_with_its_sign():
    for bound, width in [(0, 4), ((1 << 31) - 1, 4), (1 << 31, 8), ((1 << 63) - 1, 8),
                         (1 << 63, 16), ((1 << 127) - 1, 16), (1 << 127, 24)]:
        assert gamma_module._lane_bytes(bound) == width


def test_packed_solve_keeps_no_lane_masks():
    # at v = 6 each 64-bit mask is 256 KiB, 3.75 MiB for the 15 bits: the
    # solve, at alpha = 4/7 and at 0 (the superset sums), builds each in its
    # step and keeps none
    allowed = allowed_interval(make_group([7]), 1)
    hist = gamma_module._difference_histogram(6, allowed, 10**5)
    for run in (lambda: _packed_solve(hist, 4, 7), lambda: _packed_solve(hist, 0, 1)):
        run()  # any first-call state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 << 10


# one cyclic group of odd order, one of even order, and one non-cyclic
ON_DEMAND_SETS = {
    "Z5 interval:1": lambda: allowed_interval(make_group([5]), 1),
    "Z6 set:{1,3,5}": lambda: allowed_explicit(make_group([6]), [1, 3, 5]),
    "Z2xZ4 set:{(0,1),(0,3),(1,0)}": lambda: allowed_explicit(make_group([2, 4]), [(0, 1), (0, 3), (1, 0)]),
}


def _eager_build(poset, allowed):
    # the counts and values that gamma_vector built before they were read
    # on demand: superset sums by a list pass over the histogram, then one
    # Fraction per member over f^(v - 1)
    counts = gamma_module._difference_histogram(poset.v, allowed, 10**6)[::-1]
    graphs_module._lattice_pass(counts, 1)
    counts.reverse()
    total = allowed.group.order ** (poset.v - 1)
    return counts, tuple(Fraction(counts[mask], total) for mask in poset.masks)


@pytest.mark.parametrize("v", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(ON_DEMAND_SETS))
def test_histogram_vectors_read_counts_and_values_on_demand(request, v, name):
    poset = request.getfixturevalue(f"p{v}")
    allowed = ON_DEMAND_SETS[name]()
    vec = gamma_vector(poset, allowed, "auto")
    assert "counts" not in vars(vec) and "values" not in vars(vec)
    counts, values = _eager_build(poset, allowed)
    assert vec.values == values
    assert list(vec.counts) == counts
    for i in random.Random(v).sample(range(len(poset)), 2):
        assert vec[i] == gamma_bruteforce(poset.members[i], allowed)


def test_the_verdict_reads_no_superset_sums_and_no_fractions(p5, monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(gamma_module, name)

        def stand_in(*args):
            calls[name] += 1
            return real(*args)

        return stand_in

    # the superset sums are the solve at alpha = 0: the verdict runs one
    # solve, at alpha, and reading a vector's values runs one more
    for name in ("_packed_solve", "_fractions"):
        monkeypatch.setattr(gamma_module, name, counting(name))
    for allowed in (allowed_interval(make_group([7]), 1), allowed_hamming(3, 1)):
        calls.clear()
        report = verify_reciprocity(p5, allowed)
        assert report.ok and report.passed == len(p5)
        assert dict(calls) == {"_packed_solve": 1}
        assert len(report.lhs) == len(p5)
        assert dict(calls) == {"_packed_solve": 1, "_fractions": 1}
        assert report.rhs is report.lhs
        assert dict(calls) == {"_packed_solve": 1, "_fractions": 1}
        assert len(report.gamma.values) == len(p5)
        assert dict(calls) == {"_packed_solve": 2, "_fractions": 2}


def test_a_solve_past_64_bit_lanes_is_refused_by_name_above_the_poset_cap():
    # at v = 7, alpha = 2/7 bounds the lanes by 7^6 5^21 > 2^63; the check
    # reads the poset's v alone, before any sweep
    poset = SubgraphPoset(7, (0,), None)
    with pytest.raises(ValueError, match="at most 64 bits; alpha = 2/7 over a group of order 7 needs 128"):
        verify_reciprocity(poset, allowed_interval(make_group([7]), 2))


def test_fourier_reads_one_character_table_per_allowed_set(p4, monkeypatch):
    import groupcolor.groups as groups_mod

    real = groups_mod.character_sum
    calls = []

    def spy(allowed, p):
        calls.append(p)
        return real(allowed, p)

    monkeypatch.setattr(groups_mod, "character_sum", spy)
    allowed = allowed_interval(make_group([7]), 1)
    gamma_vector(p4, allowed, "fourier")
    gamma_vector(p4, allowed, "fourier")
    assert calls == list(range(7))  # once per character, over P_4's five classes twice
    assert allowed.character_table == tuple(real(allowed, p) for p in range(7))


def test_histogram_budget(p4):
    allowed = allowed_interval(make_group([7]), 1)
    with pytest.raises(BudgetExceededError, match="histogram"):
        gamma_vector(p4, allowed, budget=7**3 - 1)
    assert gamma_vector(p4, allowed, budget=7**3).method == "histogram"


def _gamma_plus_oracle(gamma, alpha):
    # the Fraction loop that gamma_plus replaced, on the Mobius recursion
    poset = gamma.poset
    sizes = poset.sizes
    out = []
    for h, row in enumerate(mobius_recursion(poset.down_sets)):
        acc = Fraction(0)
        for e, mu in row.items():
            if mu:
                acc += mu * alpha ** (sizes[h] - sizes[e]) * gamma.values[e]
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_gamma_plus_matches_fraction_loop(p4, p5, alpha):
    allowed = allowed_interval(make_group([7]), 1)
    for poset in (p4, p5):
        for a in (allowed, allowed.complement()):
            vec = gamma_vector(poset, a)
            assert gamma_plus(vec, alpha).values == _gamma_plus_oracle(vec, alpha)
    # values over unlike denominators, and plain ints
    mixed = GammaVector(p4, tuple(Fraction(1, k + 1) for k in range(len(p4))), "test")
    assert gamma_plus(mixed, alpha).values == _gamma_plus_oracle(mixed, alpha)
    ints = GammaVector(p4, (1,) * len(p4), "test")
    assert gamma_plus(ints, alpha).values == _gamma_plus_oracle(ints, alpha)


def test_exact_input_guards(p3):
    allowed = allowed_interval(make_group([5]), 1)
    with pytest.raises(TypeError, match="rational"):
        gamma_plus(gamma_vector(p3, allowed, "fourier"), allowed.alpha)


def test_verify_reciprocity_takes_no_method(p4):
    # the check always runs on the two histograms, and budget is keyword
    # only, so a method passed third is a TypeError, never a budget
    allowed = allowed_interval(make_group([7]), 1)
    for method in ("cycle", "auto"):
        with pytest.raises(TypeError, match="positional"):
            verify_reciprocity(p4, allowed, method)


def test_reciprocity_mobius_budget(p5):
    # the two lattice solves make C(5, 2) 2^(C(5, 2) - 1) = 5,120 steps each
    # on the 2^10 edge masks of K_5
    allowed = allowed_interval(make_group([7]), 1)
    with pytest.raises(BudgetExceededError, match="solve"):
        verify_reciprocity(p5, allowed, budget=10_239)
    assert verify_reciprocity(p5, allowed, budget=10_240).ok


# work of each per-member method over P_4 with f = 3, summed by hand over
# one representative of each class: the empty set, K3, C4, the diamond and
# K4; fourier adds per class the 3 min(2, 1) pairings of its character table
P4_METHOD_WORK = {
    "brute": 5 * 3**4,
    "cycle": 1 + 9 + 27 + 27 + 27,
    "fourier": 1 + 3 + 3 + 9 + 27 + 5 * 3 * 1,
}


@pytest.mark.parametrize("method", sorted(P4_METHOD_WORK))
def test_per_member_methods_check_the_summed_budget(p4, method):
    allowed = allowed_complement_identity(make_group([3]))
    work = P4_METHOD_WORK[method]
    with pytest.raises(BudgetExceededError, match=f"{method} method over 15"):
        gamma_vector(p4, allowed, method, budget=work - 1)
    assert gamma_vector(p4, allowed, method, budget=work).method == method


def test_per_member_methods_read_one_class_partition(p5, monkeypatch):
    # the classes come from one pass of canonical_bits over the members,
    # plus a label per unnamed class: at most |P_5| + 16 calls
    calls = []
    real = graphs_module.canonical_bits

    def spy(v, bits):
        calls.append(bits)
        return real(v, bits)

    monkeypatch.setattr(graphs_module, "canonical_bits", spy)
    monkeypatch.setattr(gamma_module, "canonical_bits", spy)
    allowed = allowed_interval(make_group([7]), 1)
    values = gamma_vector(p5, allowed, "cycle").values
    assert len(calls) <= len(p5) + 16
    assert values == gamma_vector(p5, allowed).values


def test_per_member_methods_run_each_member_above_the_cap(monkeypatch):
    # a hand-built poset at v = 7 has no canonical forms: one block per member
    monkeypatch.setattr(graphs_module, "_canonical_forms", {})
    k3 = EdgeSet.from_edges(7, [(0, 1), (1, 2), (0, 2)])
    poset = SubgraphPoset(7, (0, k3.bits), None)
    allowed = allowed_interval(make_group([5]), 1)
    for method in ("brute", "cycle"):
        assert gamma_vector(poset, allowed, method).values == (1, 0)
    assert gamma_vector(poset, allowed, "fourier").values == pytest.approx((1, 0), abs=1e-9)
    with pytest.raises(BudgetExceededError, match="cycle method over 2 edge sets in 2 classes"):
        gamma_vector(poset, allowed, "cycle", budget=5**2)  # charged 1 + 5^2
    assert 7 not in graphs_module._canonical_forms
    with pytest.raises(ValueError, match="unknown method 'exact'; want auto, brute, cycle"):
        gamma_vector(poset, allowed, "exact")


def test_gamma_plus_full_group_is_indicator(p4):
    g = make_group([3])
    everything = AllowedSet(g, (1 << g.order) - 1)
    plus = gamma_plus(gamma_vector(p4, everything), Fraction(1))
    assert plus.values[0] == 1
    assert all(x == 0 for x in plus.values[1:])


def test_gamma_plus_triangle_coordinate(p3):
    allowed = allowed_interval(make_group([7]), 1)
    vec = gamma_vector(p3, allowed)
    plus = gamma_plus(vec, allowed.alpha)
    assert plus.values[0] == 1
    assert plus.values[1] == vec.values[1] - allowed.alpha**3


def test_gamma_plus_reconstruction(p4):
    allowed = allowed_hamming(3, 1)
    vec = gamma_vector(p4, allowed)
    plus = gamma_plus(vec, allowed.alpha)
    back = apply(weighted_zeta_at(p4, allowed.alpha), plus.values)
    assert back == vec.values


@pytest.mark.parametrize(
    "v,orders,build",
    [
        (3, [5], lambda g: allowed_interval(g, 1)),
        (4, [7], lambda g: allowed_interval(g, 1)),
        (4, [2, 2, 2], lambda g: AllowedSet(g, allowed_hamming(3, 1).mask)),
        (4, [6], lambda g: allowed_explicit(g, [0, 3])),
    ],
)
def test_reciprocity_holds_exactly(p3, p4, v, orders, build):
    poset = p3 if v == 3 else p4
    allowed = build(make_group(orders))
    report = verify_reciprocity(poset, allowed)
    assert report.ok
    assert report.failing_indices() == ()
    assert len(report.per_coordinate) == len(poset)
    plus_bar = gamma_plus(report.gamma_complement, allowed.alpha_bar)
    assert report.rhs == tuple(
        (-1) ** size * x for size, x in zip(poset.sizes, plus_bar.values)
    )


# the Abelian groups of order 2 to 8, one per isomorphism class
SMALL_GROUPS = ([2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2])


def _symmetric_sets(orders):
    group = make_group(orders)
    neg = [group.neg(i) for i in range(group.order)]
    for mask in range(1 << group.order):
        if all(mask >> neg[i] & 1 for i in range(group.order) if mask >> i & 1):
            yield AllowedSet(group, mask)


def _assert_one_solve_matches_gamma_plus(poset, allowed):
    # lhs is J(alpha)^-1 Gamma_A, and rhs, signed back by (-1)^|H|, is
    # J(1 - alpha)^-1 Gamma_Abar, each by the bridge-extension route
    report = verify_reciprocity(poset, allowed)
    assert report.lhs == gamma_plus(report.gamma, allowed.alpha).values
    unsigned = tuple(-x if size & 1 else x for size, x in zip(poset.sizes, report.rhs))
    assert unsigned == gamma_plus(report.gamma_complement, allowed.alpha_bar).values


@pytest.mark.parametrize("v", [3, 4])
def test_one_solve_matches_gamma_plus_on_every_small_symmetric_set(request, v):
    poset = request.getfixturevalue(f"p{v}")
    for orders in SMALL_GROUPS:
        for allowed in _symmetric_sets(orders):
            _assert_one_solve_matches_gamma_plus(poset, allowed)


def test_one_solve_matches_gamma_plus_on_a_sample_at_v5(p5):
    every = [allowed for orders in SMALL_GROUPS for allowed in _symmetric_sets(orders)]
    for allowed in random.Random(32).sample(every, 40):
        _assert_one_solve_matches_gamma_plus(p5, allowed)


def _spy_inverse(monkeypatch):
    # the alphas of the _histogram_inverse calls, in order
    calls = []
    real = gamma_module._histogram_inverse

    def spy(gamma, alpha):
        calls.append(alpha)
        return real(gamma, alpha)

    monkeypatch.setattr(gamma_module, "_histogram_inverse", spy)
    return calls


def test_mirrored_sweeps_take_one_solve(p4, monkeypatch):
    calls = _spy_inverse(monkeypatch)
    allowed = allowed_interval(make_group([7]), 1)
    report = verify_reciprocity(p4, allowed)
    assert calls == [allowed.alpha]
    assert report.ok and report.rhs is report.lhs
    assert report.gamma_complement.histogram == report.gamma.histogram[::-1]


def test_a_complement_sweep_off_by_one_coloring_gets_its_own_solve(p4, monkeypatch):
    # one more coloring at the empty mask of the complement's histogram: the
    # sweeps no longer mirror, so the complement is solved at 1 - alpha, and
    # that solve is nonzero on the first bridged mask, {01}, the error the
    # two-solve route raised on the same vectors
    allowed = allowed_interval(make_group([7]), 1)
    real = gamma_module.gamma_vector

    def off_by_one(poset, a, method="auto", budget=gamma_module.DEFAULT_BUDGET):
        vec = real(poset, a, method, budget)
        if a != allowed.complement():
            return vec
        hist = list(vec.histogram)
        hist[0] += 1
        return GammaVector(vec.poset, None, vec.method, histogram=hist)

    monkeypatch.setattr(gamma_module, "gamma_vector", off_by_one)
    calls = _spy_inverse(monkeypatch)
    with pytest.raises(ArithmeticError, match="bridged EdgeSet\\(v=4;edges=01\\)"):
        verify_reciprocity(p4, allowed)
    assert calls == [allowed.alpha, allowed.alpha_bar]


def test_a_shared_side_is_compared_by_identity(p4, monkeypatch):
    report = verify_reciprocity(p4, allowed_interval(make_group([7]), 1))
    assert report.rhs is report.lhs
    calls = []
    real = Fraction.__eq__

    def spy(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(Fraction, "__eq__", spy)
    assert report.per_coordinate == (True,) * len(p4)
    assert calls == []


V6_SETS = {
    "Z7 interval:1": lambda: allowed_interval(make_group([7]), 1),
    "Z2^3 hamming:1": lambda: allowed_hamming(3, 1),
}


@pytest.mark.parametrize("name", sorted(V6_SETS))
def test_histogram_matches_cyclespace_on_p6_sample(p6, name):
    allowed = V6_SETS[name]()
    auto = gamma_vector(p6, allowed)
    for i in random.Random(6).sample(range(len(p6)), 10):
        assert auto.values[i] == gamma_cyclespace(p6.members[i], allowed)


@pytest.mark.parametrize("name", sorted(V6_SETS))
def test_reciprocity_holds_exactly_at_v6(p6, name):
    report = verify_reciprocity(p6, V6_SETS[name]())
    assert len(report.lhs) == len(p6) == 13667
    assert report.ok


@pytest.mark.parametrize("name", sorted(V6_SETS))
def test_transfer_law_holds_exactly_at_v6(p6, name):
    # M(alpha_bar) maps the complement vector onto the allowed vector
    allowed = V6_SETS[name]()
    vec_bar = gamma_vector(p6, allowed.complement())
    vec = apply_transfer(vec_bar, allowed.alpha_bar)
    assert vec.values == gamma_vector(p6, allowed).values


# ---------------------------------------------------------------------------
# the Boolean-lattice inverse against the poset forward substitution it
# replaced


def _forward_substitution(poset, gamma, r):
    # Y_H = L q^|H| (J(r)^-1 x)_H over the down-sets:
    # Y_H = n_H q^|H| - sum over E < H of p^(|H| - |E|) Y_E
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    common = lcm(*(x.denominator for x in gamma.values))
    sizes = poset.sizes
    out = []
    for h, down in enumerate(poset.down_sets):
        x = gamma.values[h]
        acc = x.numerator * (common // x.denominator) * q ** sizes[h]
        for e in down[:-1]:
            acc -= p ** (sizes[h] - sizes[e]) * out[e]
        out.append(acc)
    return out, common, q


def _fractions_oracle(poset, ys, common, q):
    return tuple(Fraction(y, common * q**size) for y, size in zip(ys, poset.sizes))


def _gamma_plus_by_substitution(gamma, r):
    return _fractions_oracle(gamma.poset, *_forward_substitution(gamma.poset, gamma, r))


def _verify_rhs_by_substitution(gamma_bar, r):
    poset = gamma_bar.poset
    ys, common, q = _forward_substitution(poset, gamma_bar, r)
    signed = [-y if size & 1 else y for y, size in zip(ys, poset.sizes)]
    return _fractions_oracle(poset, signed, common, q)


def _apply_transfer_by_substitution(poset, r, gamma_bar):
    # J(1 - r) (-1)^e J(r)^-1 over the down-sets
    r = Fraction(r)
    ys, common, q = _forward_substitution(poset, gamma_bar, r)
    sizes = poset.sizes
    signed = [-y if size & 1 else y for y, size in zip(ys, sizes)]
    up = q - r.numerator
    images = [
        sum(up ** (sizes[h] - sizes[e]) * signed[e] for e in down)
        for h, down in enumerate(poset.down_sets)
    ]
    return _fractions_oracle(poset, images, common, q)


def _assert_lattice_route_matches_substitution(poset, allowed, method):
    # gamma_plus and apply_transfer on the vectors of ``method``; with auto,
    # also verify_reciprocity's histogram solves
    g_a = gamma_vector(poset, allowed, method)
    g_bar = gamma_vector(poset, allowed.complement(), method)
    plus_a = gamma_plus(g_a, allowed.alpha).values
    assert plus_a == _gamma_plus_by_substitution(g_a, allowed.alpha)
    plus_bar = gamma_plus(g_bar, allowed.alpha_bar).values
    assert plus_bar == _gamma_plus_by_substitution(g_bar, allowed.alpha_bar)
    # the reciprocity law on the bridge extension of either method's values
    assert plus_a == tuple((-1) ** size * x for size, x in zip(poset.sizes, plus_bar))
    if method == "auto":
        report = verify_reciprocity(poset, allowed)
        assert report.ok
        assert report.lhs == plus_a
        assert report.rhs == _verify_rhs_by_substitution(g_bar, allowed.alpha_bar)
    image = apply_transfer(g_bar, allowed.alpha_bar)
    assert image.values == _apply_transfer_by_substitution(poset, allowed.alpha_bar, g_bar)
    assert image.values == g_a.values


# the shapes of the benchmark's verify5 sets: a size-4 symmetric set of each
# group law, cyclic, xor and mixed
VERIFY5_SETS = (
    lambda: allowed_explicit(make_group([7]), [2, 3, 4, 5]),
    lambda: allowed_explicit(make_group([2, 2, 2]), [2, 5, 6, 7]),
    lambda: allowed_explicit(make_group([2, 4]), [4, 5, 6, 7]),
)


@pytest.mark.parametrize("method", ["auto", "brute", "cycle"])
@pytest.mark.parametrize("v", [3, 4, 5])
def test_lattice_route_matches_forward_substitution(request, v, method):
    poset = request.getfixturevalue(f"p{v}")
    sets = [allowed_interval(make_group([5]), 1), allowed_hamming(2, 0)]
    if v == 5:
        sets += [make() for make in VERIFY5_SETS]
    for allowed in sets:
        _assert_lattice_route_matches_substitution(poset, allowed, method)


@pytest.mark.parametrize("name", sorted(V6_SETS))
def test_lattice_route_matches_forward_substitution_at_v6(p6, name):
    _assert_lattice_route_matches_substitution(p6, V6_SETS[name](), "auto")


@pytest.mark.parametrize("name", sorted(HISTOGRAM_GROUPS))
@pytest.mark.parametrize("v", [3, 4, 5])
def test_verify_on_the_empty_and_the_full_set_matches_forward_substitution(request, v, name):
    # alpha is 0 on one side of each, so that side's solve has step weight 0
    poset = request.getfixturevalue(f"p{v}")
    nothing, everything, _ = _histogram_sets(name)
    for allowed in (nothing, everything):
        _assert_lattice_route_matches_substitution(poset, allowed, "auto")


def test_apply_transfer_matches_forward_substitution_at_the_ends(p4):
    # r = 0 and r = 1 zero one of the two passes' weights; values over
    # unlike denominators, and plain ints
    mixed = GammaVector(p4, tuple(Fraction(1, k + 1) for k in range(len(p4))), "test")
    ints = GammaVector(p4, tuple(range(len(p4))), "test")
    for vec in (mixed, ints):
        for r in (Fraction(0), Fraction(2, 7), Fraction(1)):
            assert apply_transfer(vec, r).values == _apply_transfer_by_substitution(p4, r, vec)


# alpha != 1/2 on both sides, so every extension carries powers of p
BRIDGE_LAW_SETS = {
    "Z7 interval:1": lambda: allowed_interval(make_group([7]), 1),
    "Z2^3 hamming:2": lambda: allowed_hamming(3, 2),
    "Z2xZ4 {(1,0),(1,1),(1,3)}": lambda: allowed_explicit(make_group([2, 4]), [4, 5, 7]),
}


@pytest.mark.parametrize("name", sorted(BRIDGE_LAW_SETS))
@pytest.mark.parametrize("v", [3, 4, 5])
def test_bridge_extension_matches_the_histogram_at_every_mask(request, v, name):
    # Gamma(M) = alpha^(|M| - |core M|) Gamma(core M): the extension of the
    # P_v vector, X[M] = L q^|M| Gamma(M), against the histogram's superset
    # sums, f^(v - 1) Gamma(M), at every edge mask of K_v
    poset = request.getfixturevalue(f"p{v}")
    for allowed in (BRIDGE_LAW_SETS[name](), BRIDGE_LAW_SETS[name]().complement()):
        vec = gamma_vector(poset, allowed, "auto")
        p, q = allowed.alpha.numerator, allowed.alpha.denominator
        extended, common = _bridge_extension(vec, p, q)
        assert common == lcm(*(x.denominator for x in vec.values))
        assert len(extended) == 1 << comb(v, 2)
        colorings = allowed.group.order ** (v - 1)
        assert [x * colorings for x in extended] == [
            n * common * q ** mask.bit_count() for mask, n in enumerate(vec.counts)
        ]


def test_gamma_plus_checks_the_bridged_masks_vanish(p4):
    # cores that call the member K4 bridged, its core K4 minus its top edge:
    # the extension drops K4's own value, and the inverse is nonzero there
    broken = array("I", p4.cores)
    broken[-1] ^= 1 << (comb(4, 2) - 1)
    poset = graphs_module.SubgraphPoset(4, p4.masks, broken)
    values = gamma_vector(p4, allowed_interval(make_group([7]), 1)).values
    vec = GammaVector(poset, values, "histogram")
    with pytest.raises(ArithmeticError, match="bridged EdgeSet\\(v=4;edges=01,02,03,12,13,23\\)"):
        gamma_plus(vec, Fraction(1, 3))


def test_the_poset_keeps_the_one_cores_table_it_was_built_from(monkeypatch):
    # enumerate_poset computes the cores of K_v once, and every path that
    # reads cores afterwards reads that table; none builds the EdgeSets
    calls = []
    real = graphs_module.bridgeless_cores

    def spy(v, bits):
        calls.append((v, bits))
        return real(v, bits)

    monkeypatch.setattr(graphs_module, "bridgeless_cores", spy)
    poset = graphs_module.enumerate_poset(4)
    assert calls == [(4, (1 << 6) - 1)]
    allowed = allowed_interval(make_group([7]), 1)
    transfer_at(poset, allowed.alpha_bar)
    mobius_table.__wrapped__(poset)  # past the cache, which P_4 may have filled
    gamma_plus(gamma_vector(poset, allowed), allowed.alpha)
    apply_transfer(gamma_vector(poset, allowed.complement()), allowed.alpha_bar)
    verify_reciprocity(poset, allowed)
    assert len(calls) == 1
    assert "members" not in vars(poset)


def test_reciprocity_checks_the_fourier_lemma_on_the_histogram(p4, monkeypatch):
    # one extra coloring whose only allowed pair is the edge 01: its
    # superset sums break the bridge law at the empty set and at {01}, and
    # the histogram route's inverse is nonzero on the bridged {01}
    real = gamma_module._difference_histogram

    def extra(v, allowed, budget):
        hist = real(v, allowed, budget)
        hist[1] += 1
        return hist

    monkeypatch.setattr(gamma_module, "_difference_histogram", extra)
    with pytest.raises(ArithmeticError, match="bridged EdgeSet\\(v=4;edges=01\\)"):
        verify_reciprocity(p4, allowed_interval(make_group([7]), 1))


def test_histogram_reciprocity_reads_no_cores(p4):
    allowed = allowed_interval(make_group([7]), 1)
    by_cycle = gamma_vector(p4, allowed, "cycle")
    plus_by_cycle = gamma_plus(by_cycle, allowed.alpha)  # the extension route, with cores
    poset = graphs_module.SubgraphPoset(4, p4.masks, None)  # no cores to read
    report = verify_reciprocity(poset, allowed)
    assert report.ok
    assert report.rhs is report.lhs  # equal integer numerators share one tuple
    assert report.lhs == plus_by_cycle.values
    assert len(report.gamma.counts) == len(report.gamma_complement.counts) == 1 << 6
    assert by_cycle.counts is None


def test_histogram_reciprocity_reads_no_mask_index(p4, monkeypatch):
    # the solve checks its vanishing by counting nonzero entries, so no
    # mask -> member dict is built, on a pass or on a bridged failure
    def refuse(self):
        raise AssertionError("index_by_mask read")

    monkeypatch.setattr(SubgraphPoset, "index_by_mask", property(refuse))
    allowed = allowed_interval(make_group([7]), 1)
    assert verify_reciprocity(p4, allowed).ok
    real = gamma_module._difference_histogram

    def extra(v, a, budget):
        hist = real(v, a, budget)
        hist[1] += 1
        return hist

    monkeypatch.setattr(gamma_module, "_difference_histogram", extra)
    with pytest.raises(ArithmeticError, match="bridged EdgeSet\\(v=4;edges=01\\)"):
        verify_reciprocity(p4, allowed)


def test_reciprocity_reports_a_mismatch(p4, monkeypatch):
    # a stand-in complement of the same density and no automorphic image of
    # it, the subgroup {0, 1, 2, 3} for {0, 1, 3, 4}: each side is a true
    # histogram, so nothing raises, but the sides differ
    allowed = allowed_explicit(make_group([2, 2, 2]), [2, 5, 6, 7])
    stand_in = allowed_explicit(make_group([2, 2, 2]), [0, 1, 2, 3])
    monkeypatch.setattr(AllowedSet, "complement", lambda self: stand_in)
    report = verify_reciprocity(p4, allowed)
    assert not report.ok
    # one equality tuple, made once, behind ok, the pass count and the failures
    assert report.per_coordinate is report.per_coordinate
    assert report.passed == len(p4) - len(report.failing_indices()) < len(p4)
    assert report.lhs == _gamma_plus_by_substitution(report.gamma, allowed.alpha)
    assert report.rhs == _verify_rhs_by_substitution(report.gamma_complement, allowed.alpha_bar)


def test_reciprocity_report_dict(capsys, p3):
    # verify's JSON renders the report: alpha, ok, and one coordinate per member
    assert cli_module.main(["verify", "--v", "3", "--group", "Z5", "--allowed", "interval:1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["alpha"] == "2/5" and data["alpha_bar"] == "3/5"
    assert len(data["coordinates"]) == 2
    assert {"mask", "edges", "lhs", "rhs", "equal"} <= set(data["coordinates"][0])
    report = verify_reciprocity(p3, allowed_interval(make_group([5]), 1))
    assert [c["lhs"] for c in data["coordinates"]] == [str(x) for x in report.lhs]
    assert [c["rhs"] for c in data["coordinates"]] == [str(x) for x in report.rhs]


def test_apply_transfer_triangle_relation(p3):
    allowed = allowed_interval(make_group([9]), 2)
    ab = allowed.alpha_bar
    vec_bar = gamma_vector(p3, allowed.complement())
    vec = apply_transfer(vec_bar, ab)
    assert vec.values == gamma_vector(p3, allowed).values
    assert vec.values[1] == (1 - 3 * ab + 3 * ab**2) - vec_bar.values[1]


def test_apply_transfer_involution(p4):
    allowed = allowed_hamming(3, 1)
    vec_bar = gamma_vector(p4, allowed.complement())
    vec = apply_transfer(vec_bar, allowed.alpha_bar)
    back = apply_transfer(vec, allowed.alpha)
    assert back.values == vec_bar.values


@pytest.mark.parametrize("v", [4, 5])
def test_both_passes_match_their_matrices_on_signed_vectors(request, v):
    # gamma_plus against J(r)^-1 and apply_transfer against M(r), each
    # applied as a matrix, on seeded values over unlike denominators with
    # zeros and negative entries, which no coloring probability reaches
    poset = request.getfixturevalue(f"p{v}")
    rng = random.Random(v)
    values = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 13)) for _ in range(len(poset))]
    values[::4] = [Fraction(0)] * len(values[::4])
    assert min(values) < 0 and len({x.denominator for x in values}) > 2
    vec = GammaVector(poset, tuple(values), "test")
    for r in (Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(1)):
        assert gamma_plus(vec, r).values == apply(weighted_zeta_inverse_at(poset, r), values)
        image = apply_transfer(vec, r)
        assert image.values == apply(transfer_at(poset, r), values)
        assert apply_transfer(image, 1 - r).values == vec.values


def test_apply_transfer_reproduces_chromatic_scaling(p3, p4, p5):
    # the one-pass transfer and the subset expansion of the chromatic
    # polynomial read the same closed-form row at r = 1/f; both are checked
    # against the deletion-contraction oracle and against each other
    f = 5
    allowed = allowed_complement_identity(make_group([f]))
    for poset in (p3, p4, p5):
        vec = apply_transfer(gamma_vector(poset, allowed.complement()), allowed.alpha_bar)
        for i, member in enumerate(poset.members):
            expected = Fraction(chromatic_oracle(member)(f), f**member.v)
            assert vec.values[i] == expected
            assert Fraction(chromatic_via_transfer(member)(f), f**member.v) == expected


# ---------------------------------------------------------------------------
# main term, residual, chromatic specialization


def _main_term_oracle(edge_set, alpha_bar):
    # the interval-Mobius sum that main_term replaced
    members = bridgeless_subsets(edge_set.v, edge_set.bits)
    squeezed = low_positions(members)
    mu_table = mobius_recursion(down_sets_of(squeezed))
    e_top = edge_set.edge_count
    acc = Fraction(0)
    for g_mask, mu_g in zip(members, mu_table):
        mu = mu_g[0]
        if mu:
            eg = g_mask.bit_count()
            acc += (1 - alpha_bar) ** (e_top - eg) * (-1) ** eg * mu * alpha_bar**eg
    return acc


MAIN_TERM_POINTS = (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1))


def test_main_term_matches_interval_mobius(p5, p6):
    for member in p5.members:
        for ab in MAIN_TERM_POINTS:
            assert main_term(member, ab) == _main_term_oracle(member, ab)
    sample = [p6.members[i] for i in random.Random(6).sample(range(len(p6)), 12)]
    sample = [m for m in sample if m.edge_count <= 10] + [p6.members[-1]]  # K6 last
    for member in sample:
        main = main_term(member, Fraction(2, 7))
        assert isinstance(main, Fraction)
        assert main == _main_term_oracle(member, Fraction(2, 7))


def _forest_counts_oracle(edge_set):
    # S is a forest iff it has v - |S| components; no set of v or more
    # edges has that few
    v = edge_set.v
    places = [1 << n for n in range(edge_set.bits.bit_length()) if (edge_set.bits >> n) & 1]
    return [
        sum(1 for chosen in combinations(places, k) if components(EdgeSet(v, sum(chosen))) == v - k)
        for k in range(min(v - 1, len(places)) + 1)
    ]


def _nbc_counts_oracle(edge_set):
    # per size, the forests inside E that contain no broken circuit: no
    # circuit of E less its highest edge. The circuits are the connected
    # subsets whose vertices all have degree 0 or 2, found over all 2^|E|
    # subsets with one component more than a forest of that size
    v = edge_set.v
    places = [1 << n for n in range(edge_set.bits.bit_length()) if (edge_set.bits >> n) & 1]
    pairs = list(combinations(range(v), 2))
    touching = [sum(1 << n for n, pair in enumerate(pairs) if u in pair) for u in range(v)]
    subsets = [sum(chosen) for k in range(len(places) + 1) for chosen in combinations(places, k)]
    broken = [
        mask ^ (1 << mask.bit_length() - 1)
        for mask in subsets
        if mask
        and all((mask & t).bit_count() in (0, 2) for t in touching)
        and components(EdgeSet(v, mask)) == v - mask.bit_count() + 1
    ]
    counts = [0] * (min(v - 1, len(places)) + 1)
    for mask in subsets:
        k = mask.bit_count()
        if k < len(counts) and components(EdgeSet(v, mask)) == v - k:
            counts[k] += not any(b & ~mask == 0 for b in broken)
    return counts


def _random_edge_sets(seed, count):
    # edge sets on 1 to 9 vertices with at most 14 edges, bridges allowed
    rng = random.Random(seed)
    found = []
    for _ in range(count):
        v = rng.randint(1, 9)
        pairs = comb(v, 2)
        chosen = rng.sample(range(pairs), rng.randint(0, min(pairs, 14)))
        found.append(EdgeSet(v, sum(1 << n for n in chosen)))
    return found


def test_forest_counts_match_subset_brute_force(p5, p6):
    sample = [p6.members[i] for i in random.Random(11).sample(range(len(p6)), 8)]
    k6 = p6.members[-1]
    edge_sets = [*p5.members, *sample, k6, *_random_edge_sets(14, 40)]
    for edge_set in edge_sets:
        counts, nbc = _forest_counts(edge_set)
        assert counts == _forest_counts_oracle(edge_set), edge_set
        assert nbc == _nbc_counts_oracle(edge_set), edge_set


def test_main_term_spec_values(k3_v3, c4_v4):
    ab = Fraction(1, 5)
    assert main_term(k3_v3, ab) == 1 - 3 * ab + 3 * ab**2
    assert main_term(c4_v4, ab) == 1 - 4 * ab + 6 * ab**2 - 4 * ab**3


def test_residual_orders(k3_v3, c4_v4):
    for f in range(3, 10):
        allowed3 = allowed_complement_identity(make_group([f]))
        ab = Fraction(1, f)
        assert residual(k3_v3, allowed3) == -(ab**2)
        assert residual(c4_v4, allowed3) == ab**3
    empty = EdgeSet(3, 0)
    assert residual(empty, allowed_complement_identity(make_group([5]))) == 0


def test_residual_order_ratio(k3_v3, c4_v4):
    from groupcolor.gamma import residual_order_ratio

    for f in (4, 7, 11):
        allowed = allowed_complement_identity(make_group([f]))
        assert residual_order_ratio(k3_v3, allowed) == -1
        assert residual_order_ratio(c4_v4, allowed) == 1
    with pytest.raises(ValueError):
        residual_order_ratio(EdgeSet(3, 0), allowed_complement_identity(make_group([5])))


def test_main_term_rejects_bridges():
    bridge = EdgeSet.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        main_term(bridge, Fraction(1, 3))
    with pytest.raises(ValueError):
        chromatic_via_transfer(bridge)


def test_chromatic_via_transfer_examples(k3_v3, k4_v4):
    assert chromatic_via_transfer(k3_v3).render("f") == "2f - 3f^2 + f^3"
    assert chromatic_via_transfer(k4_v4) == chromatic_oracle(k4_v4)
    empty = EdgeSet(4, 0)
    assert chromatic_via_transfer(empty).render("f") == "f^4"


def test_chromatic_via_transfer_on_all_p4_members(p4):
    for member in p4.members:
        assert chromatic_via_transfer(member) == chromatic_oracle(member)


def test_chromatic_via_transfer_on_p5_and_a_p6_sample(p5, p6, monkeypatch):
    # isolated-vertex factors included; the uncached walk on every P_5
    # member, as _class_forest_counts memoizes nothing with POSET_CAP at 0
    with monkeypatch.context() as patch:
        patch.setattr(gamma_module, "POSET_CAP", 0)
        for member in p5.members:
            assert chromatic_via_transfer(member) == chromatic_oracle(member)
    for i in random.Random(6).sample(range(len(p6)), 10):
        member = p6.members[i]
        assert chromatic_via_transfer(member) == chromatic_oracle(member)


def _chromatic_interval_oracle(edge_set):
    # the interval solve that preceded the subset expansion: the bridgeless
    # subsets, their down-sets, and forward substitution of J(1/f) y = f^c
    # with polynomials packed at f = 2^(|E| + 2); it shares no step with
    # the expansion but bridgeless_subsets
    v, e_top = edge_set.v, edge_set.edge_count
    masks = bridgeless_subsets(v, edge_set.bits)
    width = e_top + 2
    f = 1 << width
    ys, total = [], 0
    squeezed = low_positions(masks)
    for mask, down in zip(masks, down_sets_of(squeezed)):
        size = mask.bit_count()
        y = (1 << width * (size + components(EdgeSet(v, mask)))) - sum(ys[h] for h in down[:-1])
        ys.append(y)
        total += (-1) ** size * (f - 1) ** (e_top - size) * y
    digits = []
    while total:
        d = total & (f - 1)
        if d >= f >> 1:
            d -= f
        digits.append(d)
        total = (total - d) >> width
    assert not any(digits[:e_top])
    return RationalPoly.of(digits[e_top:])


def test_chromatic_via_transfer_matches_the_interval_solve(p5, p6, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(gamma_module, "POSET_CAP", 0)  # the uncached walk
        for member in p5.members:
            assert chromatic_via_transfer(member) == _chromatic_interval_oracle(member)
    rng = random.Random(8)
    dense = [i for i in range(len(p6)) if p6.members[i].edge_count >= 12]
    picks = rng.sample(range(len(p6)), 8) + rng.sample(dense, 3) + [len(p6) - 1]  # K6 last
    assert p6.members[picks[-1]].edge_count == 15
    # the empty set, and sets with isolated vertices
    extra = [
        EdgeSet(1, 0),
        EdgeSet(6, 0),
        EdgeSet.from_edges(5, [(0, 1), (1, 2), (0, 2)]),
        EdgeSet.from_edges(6, [(1, 2), (2, 4), (4, 5), (1, 5), (2, 5)]),
    ]
    for member in [p6.members[i] for i in picks] + extra:
        assert chromatic_via_transfer(member) == _chromatic_interval_oracle(member)


def _chromatic_subset_oracle(edge_set):
    # Whitney's subset expansion before the broken-circuit cancellation:
    # P_E(f) = sum over M <= E of (-1)^|M| f^c(M), with c(M) = v - |M| +
    # nullity(M), as one signed tally of (|M|, nullity M) over the 2^|E|
    # masks. Removing the lowest edge k of M lowers the nullity by one
    # exactly when k lies on a cycle of M, that is, in core[M].
    v = edge_set.v
    _, core = bridgeless_cores(v, edge_set.bits)
    nullity = [0] * len(core)
    for k in reversed(range(edge_set.edge_count)):
        step = 1 << k
        nullity[step :: 2 * step] = [
            n + bool(step & c) for n, c in zip(nullity[:: 2 * step], core[step :: 2 * step])
        ]
    coeffs = [0] * (v + 1)
    for (size, n), count in Counter(zip(map(int.bit_count, range(len(core))), nullity)).items():
        coeffs[v - size + n] += -count if size & 1 else count
    return RationalPoly.of(coeffs)


def test_forest_walk_matches_the_subset_expansion_on_p6_classes_and_k7(p6):
    # one member of each of P_6's 77 classes, and K7, where v = 7 is above
    # the memo's cap: the broken-circuit-free forests give the polynomial of
    # the full 2^|E| subset expansion, and the walk counts every forest
    firsts = [p6.members[idxs[0]] for _, idxs in graphs_module.iso_class_blocks(p6)]
    assert len(firsts) == 77
    for member in firsts:
        poly = chromatic_via_transfer(member)
        assert poly == _chromatic_subset_oracle(member) == chromatic_oracle(member)
        assert _forest_counts(member)[0] == _forest_counts_oracle(member)
    k7 = EdgeSet(7, (1 << 21) - 1)
    assert chromatic_via_transfer(k7) == _chromatic_subset_oracle(k7) == chromatic_oracle(k7)


def test_chromatic_via_transfer_on_k7_in_bounded_time():
    # v = 7 has no memo, so this is the walk itself: 36,961 forests, where
    # the subset expansion tallies 2^21 masks; C(21, 3) - 35 of them have
    # three edges, and the 7! broken-circuit-free ones are the coefficients
    k7 = EdgeSet(7, (1 << 21) - 1)
    start = time.perf_counter()
    poly = chromatic_via_transfer(k7)
    assert time.perf_counter() - start < 1
    assert poly == chromatic_oracle(k7)
    assert poly.render("f") == "720f - 1764f^2 + 1624f^3 - 735f^4 + 175f^5 - 21f^6 + f^7"
    counts, nbc = _forest_counts(k7)
    assert counts == [1, 21, 210, 1295, 5250, 13377, 16807] and sum(counts) == 36961
    assert nbc == [1, 21, 175, 735, 1624, 1764, 720] and sum(nbc) == 5040


def test_forest_memo_is_one_walk_per_class_for_both_callers(p5, monkeypatch):
    # from an empty memo, in shuffled order, the two callers taking turns
    # to go first: every member equals both oracles whichever member of its
    # class was walked first, and by which caller
    memo = {}
    monkeypatch.setattr(gamma_module, "_forest_counts_by_class", memo)
    members = list(p5.members)
    random.Random(11).shuffle(members)
    ab = Fraction(2, 7)
    for i, member in enumerate(members):
        if i % 2:
            main, poly = main_term(member, ab), chromatic_via_transfer(member)
        else:
            poly, main = chromatic_via_transfer(member), main_term(member, ab)
        assert poly == chromatic_oracle(member)
        assert main == _main_term_oracle(member, ab)
    assert len(memo) == 16  # the isomorphism classes of P_5


def _relabeled_edge_set(edge_set, perm):
    return EdgeSet.from_edges(edge_set.v, [(perm[a], perm[b]) for a, b in edge_set.edges()])


def test_per_class_memos_answer_relabeled_images(p5, monkeypatch):
    rng = random.Random(12)
    ab = Fraction(2, 7)
    memo = {}
    monkeypatch.setattr(gamma_module, "_forest_counts_by_class", memo)
    for member in rng.sample(p5.members, 12):
        image = _relabeled_edge_set(member, rng.sample(range(5), 5))
        poly, main = chromatic_via_transfer(member), main_term(member, ab)
        size = len(memo)
        assert chromatic_via_transfer(image) == poly
        assert main_term(image, ab) == main
        assert len(memo) == size


def test_per_class_memos_skip_canonical_forms_above_v6(monkeypatch):
    # canonical_bits refuses v > 6, so the memos must not ask it for a key
    monkeypatch.setattr(graphs_module, "_canonical_forms", {})
    triangle = [(0, 1), (1, 2), (0, 2)]
    k4_above = [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    v8 = EdgeSet.from_edges(8, triangle + k4_above)
    assert chromatic_via_transfer(v8) == chromatic_oracle(v8)
    assert 8 not in graphs_module._canonical_forms
    v7 = EdgeSet.from_edges(7, triangle + [(a - 1, b - 1) for a, b in k4_above])
    assert main_term(v7, Fraction(1, 3)) == _main_term_oracle(v7, Fraction(1, 3))
    assert 7 not in graphs_module._canonical_forms


# ---------------------------------------------------------------------------
# bounds and worked-example laws


def test_probability_bounds_and_forest_bound(p4):
    for allowed in (
        allowed_hamming(3, 1),
        allowed_interval(make_group([7]), 1).complement(),
    ):
        vec = gamma_vector(p4, allowed)
        beta = allowed.alpha
        for i, member in enumerate(p4.members):
            assert 0 <= vec.values[i] <= 1
            assert vec.values[i] <= beta ** (member.v - components(member))
        assert vec.values[0] == 1


def test_interval_piecewise_law_spot(k3_v3):
    # both branches, including a point where the two pieces happen to agree
    cases = [(5, 1, "low"), (7, 2, "high"), (9, 2, "low"), (5, 2, "high")]
    for f, k, branch in cases:
        allowed = allowed_interval(make_group([f]), k)
        ab = allowed.alpha_bar
        got_bar = gamma_cyclespace(k3_v3, allowed.complement())
        got = gamma_cyclespace(k3_v3, allowed)
        if branch == "high":
            assert ab > Fraction(2, 3)
            assert got == 0
            assert got_bar == 1 - 3 * ab + 3 * ab**2
        else:
            assert ab <= Fraction(2, 3)
            assert got_bar == Fraction(3, 4) * ab**2 + Fraction(1, 4 * f**2)
            assert got == 1 - 3 * ab + Fraction(9, 4) * ab**2 - Fraction(1, 4 * f**2)


def test_triangle_gamma_from_pairs_agrees_with_bruteforce(k3_v3):
    # gamma_cyclespace fixes vertex 0 and counts the difference pairs of the
    # other two; the vertex brute force colors all three vertices, none fixed
    sets = [
        allowed_interval(make_group([11]), 3),
        allowed_hamming(4, 1).complement(),
        allowed_explicit(make_group([6]), [0, 3]),
        allowed_explicit(make_group([2, 4]), [(0, 1), (0, 3), (1, 0), (1, 2)]),
    ]
    for allowed in sets:
        assert gamma_cyclespace(k3_v3, allowed) == gamma_bruteforce(k3_v3, allowed)


def test_hamming_closed_forms(k3_v3):
    for n in range(1, 9):
        allowed = allowed_hamming(n, 1)
        bar_formula, published = hamming_k3_closed_form(n)
        consistent = hamming_k3_from_reciprocity(n)
        got_bar = gamma_cyclespace(k3_v3, allowed.complement())
        got = gamma_cyclespace(k3_v3, allowed)
        assert got_bar == bar_formula
        assert got == consistent
        # the published allowed-side form is short by exactly 2/4^n
        assert got - published == Fraction(2, 4**n)
        if n <= 6:
            assert gamma_bruteforce(k3_v3, allowed) == got


def test_hamming_degenerate_n1(k3_v3):
    allowed = allowed_hamming(1, 1)  # weight > 1 impossible: empty set
    assert allowed.size == 0
    assert gamma_cyclespace(k3_v3, allowed) == 0
    assert hamming_k3_from_reciprocity(1) == 0


def test_imaginary_residue_guard(k3_v3, monkeypatch):
    import groupcolor.gamma as gamma_mod
    import groupcolor.groups as groups_mod

    # the character table of the allowed set is made from these sums
    allowed = allowed_interval(make_group([5]), 1)
    monkeypatch.setattr(
        groups_mod, "character_sum", lambda a, p: complex(0, 1.0) if p else complex(a.size)
    )
    with pytest.raises(ArithmeticError, match="kernel"):
        gamma_mod.gamma_fourier(k3_v3, allowed)


def _gamma_values(p4):
    by_histogram = gamma_vector(p4, allowed_interval(make_group([7]), 1), "auto")
    assert by_histogram.counts is not None
    apart = GammaVector(SubgraphPoset(4, p4.masks, None), tuple(by_histogram.values),
                        by_histogram.method)
    return by_histogram, apart, GammaVector(p4, by_histogram.values, "cycle")


# per value class: two equal values built apart, and a third that differs in
# one compared field. The two posets differ in their cores and the two gamma
# vectors in their counts, which equality and hashing do not read.
_VALUE_CASES = {
    "EdgeSet": lambda p4: (
        EdgeSet(4, 0b111), EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3)]), EdgeSet(4, 0b110)
    ),
    "SubgraphPoset": lambda p4: (
        p4, SubgraphPoset(4, tuple(p4.masks), None), SubgraphPoset(4, p4.masks[:1], None)
    ),
    "FiniteAbelianGroup": lambda p4: (
        make_group([2, 4]), FiniteAbelianGroup((2, 4)), make_group([4, 2])
    ),
    "AllowedSet": lambda p4: (
        allowed_interval(make_group([7]), 1),
        allowed_explicit(make_group([7]), [2, 3, 4, 5]),
        allowed_interval(make_group([7]), 2),
    ),
    "RationalPoly": lambda p4: (
        RationalPoly.of([1, Fraction(1, 2), 0]), RationalPoly((1, Fraction(1, 2))), VARIABLE
    ),
    "PolyMatrix": lambda p4: (
        PolyMatrix(p4, tuple((1,) * 15 for _ in range(15))),
        PolyMatrix(SubgraphPoset(4, p4.masks, None), ((1,) * 15,) * 15),
        PolyMatrix(p4, ((0,) * 15,) * 15),
    ),
    "GammaVector": _gamma_values,
    "ReciprocityReport": lambda p4: (
        verify_reciprocity(p4, allowed_interval(make_group([7]), 1)),
        verify_reciprocity(p4, allowed_explicit(make_group([7]), [2, 3, 4, 5])),
        verify_reciprocity(p4, allowed_interval(make_group([7]), 2)),
    ),
}


@pytest.mark.parametrize("name", sorted(_VALUE_CASES))
def test_value_classes_compare_by_their_fields_and_stay_frozen(name, p4):
    value, twin, other = _VALUE_CASES[name](p4)
    assert type(value).__name__ == type(twin).__name__ == type(other).__name__ == name
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert value != other and value != name
    assert pickle.loads(pickle.dumps(value)) == value
    for field in (*type(value).__annotations__, "unset"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == twin
