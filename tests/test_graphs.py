"""Edge-set machinery, bridge detection, poset enumeration, and the
deletion-contraction chromatic oracle, cross-checked against networkx."""

import json
import math
import os
import random
import re
import subprocess
import sys
from array import array
from itertools import combinations, permutations
from math import comb
from operator import add, or_

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcolor.cli import main
import groupcolor.graphs as graphs_module
from groupcolor.graphs import (
    EdgeSet,
    SubgraphPoset,
    _canonical_forms,
    _circuits,
    _incident,
    _lattice_pass,
    _packed_pass,
    _relabelings,
    bridgeless_cores,
    bridgeless_subsets,
    canonical_bits,
    chromatic_oracle,
    class_label,
    components,
    down_sets_of,
    enumerate_poset,
    girth,
    is_isthmus_free,
    iso_class_blocks,
    vertex_pairs,
)
from groupcolor.posetlin import RationalPoly

from conftest import low_positions


def _nx_graph(edge_set: EdgeSet) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(edge_set.v))
    g.add_edges_from(edge_set.edges())
    return g


def test_vertex_pairs_lexicographic():
    assert vertex_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_edgeset_text_round_trip(c4_v4):
    text = c4_v4.to_text()
    assert text == "v=4;edges=01,03,12,23"
    assert EdgeSet.from_text(text) == c4_v4
    for mask_text in ("v=4;mask=0b101101", "v=4;mask=0x2d"):
        assert EdgeSet.from_text(mask_text) == c4_v4
    assert EdgeSet.from_text("v=3;edges=") == EdgeSet(3, 0)


def test_edgeset_text_round_trips_past_ten_vertices():
    # an endpoint of two digits has no edge token, so such a set is written
    # as its unpadded mask; sets inside vertices 0..9 keep their edge tokens
    for v in (11, 12):
        top = [(v - 3, v - 2), (v - 3, v - 1), (v - 2, v - 1)]
        for edges in (top, [(1, 2), (1, v - 1), (2, v - 1)], [(0, 10)], [(0, 1), (1, 9), (0, 9)]):
            edge_set = EdgeSet.from_edges(v, edges)
            text = edge_set.to_text()
            assert EdgeSet.from_text(text) == edge_set, text
            assert ("mask=0x" in text) == any(b > 9 for _, b in edges)
    triangle = EdgeSet.from_edges(12, [(9, 10), (9, 11), (10, 11)])
    assert triangle.to_text() == "v=12;mask=0x38000000000000000"
    assert EdgeSet.from_edges(12, [(0, 1), (1, 2)]).to_text() == "v=12;edges=01,12"


def test_edgeset_rejects_bad_input():
    with pytest.raises(ValueError):
        EdgeSet.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        EdgeSet.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        EdgeSet.from_edges(3, [(-1, 2)])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is repeated"):
        EdgeSet.from_edges(3, [(0, 1), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is repeated"):
        EdgeSet.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="repeated"):
        EdgeSet.from_text("v=3;edges=01,12,20,01")
    with pytest.raises(ValueError):
        EdgeSet(3, 1 << 3)
    with pytest.raises(ValueError):
        EdgeSet.from_text("v=3;edges=0x")
    with pytest.raises(ValueError):
        EdgeSet.from_text("edges=01")
    with pytest.raises(ValueError, match="'x' is not key=value"):
        EdgeSet.from_text("v=3;mask=0b111;x")
    with pytest.raises(ValueError, match="unknown field.*'colour'"):
        EdgeSet.from_text("v=3;edges=01;colour=2")
    with pytest.raises(ValueError, match="field v='x' is not an integer"):
        EdgeSet.from_text("v=x;edges=01")
    with pytest.raises(ValueError, match="field mask='zz' is not an integer"):
        EdgeSet.from_text("v=3;mask=zz")
    with pytest.raises(ValueError, match="not both"):
        EdgeSet.from_text("v=3;mask=0b111;edges=01")
    with pytest.raises(ValueError, match="repeats a field"):
        EdgeSet.from_text("v=3;v=4;edges=01")


@pytest.mark.parametrize("v", [*range(2, 41), 200])
def test_incident_matches_the_per_pair_loop(v):
    masks = [0] * v
    for n, (a, b) in enumerate(vertex_pairs(v)):
        masks[a] |= 1 << n
        masks[b] |= 1 << n
    assert _incident(v) == tuple(masks)


def test_components_examples(k4_v4):
    assert components(EdgeSet(4, 0)) == 4
    triangle = EdgeSet.from_edges(4, [(1, 2), (1, 3), (2, 3)])
    assert components(triangle) == 2
    assert components(k4_v4) == 1


def test_is_isthmus_free_examples(c4_v4):
    assert is_isthmus_free(EdgeSet(4, 0)) is True
    assert is_isthmus_free(EdgeSet.from_edges(3, [(0, 1)])) is False
    assert is_isthmus_free(c4_v4) is True
    pendant = EdgeSet.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert is_isthmus_free(pendant) is False


def test_girth_examples(k3_v3, c4_v4):
    assert girth(k3_v3) == 3
    assert girth(c4_v4) == 4
    assert girth(EdgeSet(4, 0)) == math.inf


def test_girth_matches_networkx_on_every_member_of_p6(p6):
    assert [girth(member) for member in p6.members] == [
        nx.girth(_nx_graph(member)) for member in p6.members
    ]


def test_edge_set_holds_two_slots():
    es = EdgeSet(3, 7)
    assert EdgeSet.__slots__ == ("v", "bits")
    with pytest.raises(AttributeError):
        es.__dict__


def test_poset_counts(p3, p4):
    assert len(p3) == 2
    assert len(p4) == 15
    assert len(enumerate_poset(2)) == 1
    assert len(enumerate_poset(6)) == 13667
    assert p3.members[0].bits == 0
    assert p4.members[0].bits == 0


def test_poset_rejects_out_of_cap():
    with pytest.raises(ValueError):
        enumerate_poset(1)
    with pytest.raises(ValueError):
        enumerate_poset(7)


@pytest.mark.parametrize("v", [2, 3, 4, 5])
def test_poset_matches_networkx_bridge_filter(v):
    expected = 0
    for bits in range(1 << comb(v, 2)):
        es = EdgeSet(v, bits)
        bridge_free = not any(True for _ in nx.bridges(_nx_graph(es)))
        assert is_isthmus_free(es) == bridge_free
        expected += bridge_free
    assert len(enumerate_poset(v)) == expected


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_bridgeless_subsets_of_complete_graph_is_the_poset(v):
    complete = (1 << comb(v, 2)) - 1
    # the plain filter: the full bridge test on every mask, no degree shortcut
    plain = [m for m in range(complete + 1) if is_isthmus_free(EdgeSet(v, m))]
    plain.sort(key=lambda m: (m.bit_count(), m))
    assert bridgeless_subsets(v, complete) == plain
    assert list(enumerate_poset(v).masks) == plain


def test_bridgeless_subsets_of_a_member_is_its_down_set(p4, p5):
    for poset in (p4, p5):
        for h in range(0, len(poset), 7 if poset.v == 5 else 1):
            below = [poset.members[e].bits for e in poset.down_sets[h]]
            assert bridgeless_subsets(poset.v, poset.members[h].bits) == below


def test_linear_extension_property(p4, p5):
    for poset in (p4, p5):
        for i in range(len(poset)):
            for j in range(len(poset)):
                if poset.leq(i, j):
                    assert i <= j


def _down_sets_oracle(index):
    # the submask walk: every submask of every member, looked up
    out = []
    for mask in index:
        below = []
        sub = mask
        while True:
            if sub in index:
                below.append(index[sub])
            if sub == 0:
                break
            sub = (sub - 1) & mask
        out.append(tuple(sorted(below)))
    return tuple(out)


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_down_sets_match_the_submask_walk(request, v):
    poset = request.getfixturevalue(f"p{v}") if v > 2 else enumerate_poset(2)
    assert poset.down_sets == _down_sets_oracle(poset.index_by_mask)
    if v == 6:
        assert sum(map(len, poset.down_sets)) == 1_614_537


# members of P_6 whose edges leave gaps in the edge positions: down_sets_of
# takes their intervals as they are or squeezed onto the lowest positions
V6_TOPS = {
    "K5": list(combinations(range(5), 2)),
    "wheel W5": [(0, k) for k in range(1, 6)] + [(k, k % 5 + 1) for k in range(1, 6)],
    "K3,3": [(a, b) for a in range(3) for b in range(3, 6)],
    "prism": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
}


@pytest.mark.parametrize("name", sorted(V6_TOPS))
def test_down_sets_of_intervals_match_the_submask_walk(name):
    bits = EdgeSet.from_edges(6, V6_TOPS[name]).bits
    masks = low_positions(bridgeless_subsets(6, bits))
    index = {m: i for i, m in enumerate(masks)}
    assert down_sets_of(masks) == _down_sets_oracle(index)


@pytest.mark.parametrize("name", sorted(V6_TOPS))
def test_down_sets_of_refuses_masks_off_the_lowest_positions(name):
    # at their own positions the intervals give the same rows; shifted past
    # the 15 positions of K_6 they are refused by the cap
    bits = EdgeSet.from_edges(6, V6_TOPS[name]).bits
    masks = bridgeless_subsets(6, bits)
    index = {m: i for i, m in enumerate(masks)}
    assert down_sets_of(masks) == _down_sets_oracle(index)
    past = [m << (16 - bits.bit_length()) for m in masks]
    with pytest.raises(ValueError, match="past the 15 edge positions of K_6"):
        down_sets_of(past)


def _complete(v):
    return (1 << comb(v, 2)) - 1


CIRCUIT_COUNTS = {
    "K4": (4, _complete(4), 7),
    "K5": (5, _complete(5), 37),
    "K6": (6, _complete(6), 197),
    "C5": (5, EdgeSet.from_edges(5, [(k, (k + 1) % 5) for k in range(5)]).bits, 1),
    "forest": (6, EdgeSet.from_edges(6, [(0, 1), (0, 2), (2, 3), (4, 5)]).bits, 0),
}


@pytest.mark.parametrize("name", sorted(CIRCUIT_COUNTS))
def test_circuits_lists_every_cycle_once(name):
    v, bits, count = CIRCUIT_COUNTS[name]
    cycles = _circuits(v, bits)
    assert len(cycles) == len(set(cycles)) == count
    for cycle in cycles:
        graph = _nx_graph(EdgeSet(v, cycle))
        graph.remove_nodes_from([u for u in range(v) if graph.degree(u) == 0])
        assert cycle & ~bits == 0
        assert all(d == 2 for _, d in graph.degree()) and nx.is_connected(graph)


# the bridged set: a triangle with a pendant path of three edges
CORE_TOPS = {
    **{name: V6_TOPS[name] for name in ("wheel W5", "K3,3", "prism")},
    "triangle and path": [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)],
}


@pytest.mark.parametrize("name", sorted(CORE_TOPS))
def test_bridgeless_cores_match_the_bridge_test(name):
    bits = EdgeSet.from_edges(6, CORE_TOPS[name]).bits
    places, core = bridgeless_cores(6, bits)
    assert len(core) == 1 << len(places) == 1 << bits.bit_count()

    def spread(local):
        return sum(1 << n for k, n in enumerate(places) if (local >> k) & 1)

    pairs = vertex_pairs(6)
    for mask in range(len(core)):
        edge_set = EdgeSet(6, spread(mask))
        assert (core[mask] == mask) == is_isthmus_free(edge_set)
        bridges = {tuple(sorted(e)) for e in nx.bridges(_nx_graph(edge_set))}
        kept = [pairs[n] for n in range(len(pairs)) if (spread(core[mask]) >> n) & 1]
        assert kept == [e for e in edge_set.edges() if e not in bridges]


def _per_bit_loop(values, bits, op, scale=1):
    values = list(values)
    for k in range(bits):
        for mask in range(len(values)):
            if (mask >> k) & 1:
                values[mask] = op(values[mask], scale * values[mask ^ (1 << k)])
    return values


@pytest.mark.parametrize("c", [-3, -1, 0, 1, 4])
def test_lattice_pass_weights_each_step(c):
    # values[M] += c values[M - k] at each bit k, on signed entries
    rng = random.Random(8 + c)
    for bits in range(7):
        values = [rng.randrange(-50, 1000) for _ in range(1 << bits)]
        passed = list(values)
        _lattice_pass(passed, c)
        assert passed == _per_bit_loop(values, bits, add, c)


def _list_cores(v, bits):
    # the list route the packed cores replaced: the cycles seeded into a
    # list and ORed over subsets by a per-bit loop
    places = [n for n in range(bits.bit_length()) if (bits >> n) & 1]
    local = {1 << n: 1 << k for k, n in enumerate(places)}
    core = [0] * (1 << len(places))
    for cycle in _circuits(v, bits):
        mask = sum(local[1 << n] for n in range(cycle.bit_length()) if (cycle >> n) & 1)
        core[mask] = mask
    return places, _per_bit_loop(core, len(places), or_)


def _random_edge_sets(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        v = rng.randrange(3, 7)
        yield v, rng.getrandbits(comb(v, 2))


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_packed_cores_match_the_list_pass_on_complete_graphs(v):
    bits = (1 << comb(v, 2)) - 1
    places, core = bridgeless_cores(v, bits)
    assert core.typecode == "I"
    assert (places, core.tolist()) == _list_cores(v, bits)


def test_packed_cores_match_the_list_pass_on_random_edge_sets():
    for v, bits in _random_edge_sets(20, 36):
        places, core = bridgeless_cores(v, bits)
        assert (places, core.tolist()) == _list_cores(v, bits)
        # and the spread fixed points are the list route's, sorted the same way
        want = [sum(1 << n for k, n in enumerate(places) if (m >> k) & 1)
                for m, kept in enumerate(_list_cores(v, bits)[1]) if kept == m]
        assert bridgeless_subsets(v, bits) == sorted(want, key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("width", [4, 8, 16])
def test_packed_pass_matches_a_per_bit_loop(width):
    # the subset OR pass on seeded entries that fill their lanes
    rng = random.Random(width)
    for bits in range(13):
        values = [rng.randrange(1 << (8 * width)) for _ in range(1 << bits)]
        got = _packed_pass(values, width)
        assert list(got) == _per_bit_loop(values, bits, or_)
        assert type(got) is (list if width == 16 else array)


def test_packed_pass_keeps_its_input():
    values = array("I", range(16))
    _packed_pass(values, 4)
    assert values == array("I", range(16))


def test_down_sets_in_plain_mask_order(p5):
    masks = sorted(m.bits for m in p5.members)
    rows = down_sets_of(masks)
    assert rows == _down_sets_oracle({m: i for i, m in enumerate(masks)})
    assert rows != p5.down_sets


def test_down_sets_of_takes_a_family_not_closed_under_union():
    # {01} and {02} are members, their union is not
    family = [0, 0b01, 0b10]
    assert down_sets_of(family) == ((0,), (0, 1), (0, 2))
    assert down_sets_of(family + [0b11]) == ((0,), (0, 1), (0, 2), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="repeated"):
        down_sets_of(family + [0b01])
    with pytest.raises(ValueError, match="negative"):
        down_sets_of(family + [-1])


def test_down_sets_of_random_families_match_the_submask_walk():
    # any order, gaps in the positions, no closure under union, any size
    rng = random.Random(37)
    for _ in range(200):
        width = rng.randrange(16)
        family = rng.sample(range(1 << width), rng.randrange(min(1 << width, 60) + 1))
        if rng.random() < 0.5:  # leave a gap at each position not in a random mask
            gaps = rng.getrandbits(15)
            family = [m & gaps for m in family]
            family = list(dict.fromkeys(family))
        index = {m: i for i, m in enumerate(family)}
        assert down_sets_of(family) == _down_sets_oracle(index)
    assert down_sets_of([]) == ()


def test_down_sets_refuse_p7():
    # P_7's rows would hold 1,555,541,665 pairs: the cap refuses a poset on
    # 7 vertices whose members pass position 14 before any table is built
    bits = EdgeSet.from_edges(7, [(4, 5), (4, 6), (5, 6)]).bits
    poset = SubgraphPoset(7, tuple(bridgeless_subsets(7, bits)), bridgeless_cores(7, bits)[1])
    with pytest.raises(ValueError, match="past the 15 edge positions of K_6"):
        poset.down_sets
    assert down_sets_of([0, 1 << 14]) == ((0,), (0, 1))


def test_down_sets_read_no_mask_index(monkeypatch):
    # the rows come from the masks alone
    def refuse(poset):
        raise AssertionError("index_by_mask read")

    expected = {v: _down_sets_oracle(enumerate_poset(v).index_by_mask) for v in (3, 4, 5)}
    monkeypatch.setattr(SubgraphPoset, "index_by_mask", property(refuse))
    for v, rows in expected.items():
        assert enumerate_poset(v).down_sets == rows


_DOWN_SETS_RSS = '''
import resource, sys
from groupcolor.graphs import enumerate_poset
poset = enumerate_poset(6)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rows = poset.down_sets
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
own = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
print(len(set(map(id, (p for row in rows for p in row)))), (after - before) * 1024 / own)
'''


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_down_sets_of_p6_grow_the_peak_rss_by_about_their_own_size():
    # in a fresh process, so the high-water mark is the build's own: the
    # gathers of one low half at a time, and one int object per position
    # shared by every row
    src = os.path.dirname(os.path.dirname(graphs_module.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _DOWN_SETS_RSS],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    distinct, ratio = out.stdout.split()
    assert int(distinct) == 13_667
    assert float(ratio) <= 1.15


def test_sorted_by_edge_count_then_mask(p5):
    keys = [(m.edge_count, m.bits) for m in p5.members]
    assert keys == sorted(keys)


def test_girth_and_cycles_on_poset_members(p4, p5):
    for poset in (p4, p5):
        for member in poset.members:
            if member.edge_count == 0:
                assert girth(member) == math.inf
                continue
            g = girth(member)
            assert g <= member.edge_count
            assert g == nx.girth(_nx_graph(member))


def test_components_match_networkx(p5):
    for member in p5.members:
        assert components(member) == nx.number_connected_components(_nx_graph(member))


def test_iso_class_sizes(p3, p4):
    assert [len(ix) for _, ix in iso_class_blocks(p3)] == [1, 1]
    blocks = iso_class_blocks(p4)
    assert [len(ix) for _, ix in blocks] == [1, 6, 3, 4, 1]
    assert [label for label, _ in blocks] == ["K4", "diamond", "C4", "K3", "empty"]


def test_cycle_class_labels_match_networkx(p6):
    # every 2-regular member of P_6 is a disjoint union of cycles, named by
    # the cycle lengths networkx finds as component sizes; no golden hash
    # pins these labels at v = 6
    seen = set()
    for member in p6.members:
        graph = _nx_graph(member)
        graph.remove_nodes_from([u for u, d in graph.degree if d == 0])
        if member.edge_count == 0 or any(d != 2 for _, d in graph.degree):
            continue
        lengths = sorted(map(len, nx.connected_components(graph)), reverse=True)
        expected = "K3" if lengths == [3] else "+".join(f"C{n}" for n in lengths)
        assert class_label(6, member.bits) == expected
        seen.add(expected)
    assert seen == {"K3", "C4", "C5", "C6", "C3+C3"}


def _class_label_oracle(v, bits):
    """class_label as it read an EdgeSet and its adjacency lists, with the
    cycle lengths of a 2-regular set taken as networkx component sizes."""
    es = EdgeSet(v, bits)
    e = es.edge_count
    if e == 0:
        return "empty"
    adj = [[] for _ in range(v)]
    for a, b in es.edges():
        adj[a].append(b)
        adj[b].append(a)
    active = [u for u in range(v) if adj[u]]
    na = len(active)
    if all(len(adj[u]) == 2 for u in active):
        graph = nx.Graph(es.edges())
        cycles = sorted(map(len, nx.connected_components(graph)), reverse=True)
        return "+".join(f"C{n}" for n in cycles) if cycles != [3] else "K3"
    if e == comb(na, 2):
        return f"K{na}"
    if na == 4 and e == 5:
        return "diamond"
    degs = sorted((len(adj[u]) for u in active), reverse=True)
    if na == 5 and e == 6 and degs == [4, 2, 2, 2, 2]:
        return "bowtie"
    return f"g{na}v{e}e_{canonical_bits(v, bits):x}"


def test_class_label_matches_the_edge_set_oracle_on_every_mask():
    # every mask of K_2 .. K_6, bridged ones included: 33,866 in all
    checked = 0
    for v in range(2, 7):
        for bits in range(1 << comb(v, 2)):
            assert class_label(v, bits) == _class_label_oracle(v, bits), (v, bits)
            checked += 1
    assert checked == 33866


def test_class_label_refuses_what_edge_set_refuses():
    bad = ((0, 0), (-2, 0), (0, 1), (1, 1), (3, 0b1000), (3, 1 << 10), (4, -1),
           (4, 0b1000000111), (6, 1 << 15))
    for v, bits in bad:
        with pytest.raises(ValueError) as raised:
            EdgeSet(v, bits)
        for mask_only in (class_label, canonical_bits):
            with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
                mask_only(v, bits)
    assert class_label(1, 0) == "empty"
    assert canonical_bits(1, 0) == 0


def test_iso_class_incidence_patterns(p4):
    blocks = dict(iso_class_blocks(p4))
    for c4 in blocks["C4"]:
        assert sum(1 for d in blocks["diamond"] if p4.leq(c4, d)) == 2
    for tri in blocks["K3"]:
        assert sum(1 for d in blocks["diamond"] if p4.leq(tri, d)) == 3
    for dia in blocks["diamond"]:
        inside_c4 = sum(1 for c in blocks["C4"] if p4.leq(c, dia))
        inside_tri = sum(1 for t in blocks["K3"] if p4.leq(t, dia))
        assert inside_c4 == 1 and inside_tri == 2


def test_canonical_bits_is_relabeling_invariant():
    es = EdgeSet.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    relabeled = EdgeSet.from_edges(4, [(2, 0), (0, 3), (3, 1), (2, 1)])
    assert canonical_bits(4, es.bits) == canonical_bits(4, relabeled.bits)


def _canonical_oracle(v, bits):
    """The permutation loop canonical_bits replaced: relabel every edge under
    every vertex permutation and keep the smallest mask."""
    pairs = vertex_pairs(v)
    index = {p: n for n, p in enumerate(pairs)}
    edges = [pairs[n] for n in range(len(pairs)) if (bits >> n) & 1]
    best = bits
    for perm in permutations(range(v)):
        relabeled = 0
        for a, b in edges:
            x, y = perm[a], perm[b]
            relabeled |= 1 << index[(min(x, y), max(x, y))]
        best = min(best, relabeled)
    return best


def test_canonical_bits_matches_permutation_loop(p5, p6):
    for member in p5.members:
        assert canonical_bits(5, member.bits) == _canonical_oracle(5, member.bits)
    for i in random.Random(6).sample(range(len(p6)), 40):
        bits = p6.members[i].bits
        assert canonical_bits(6, bits) == _canonical_oracle(6, bits)
    # edge sets with bridges, and with fewer than two edges
    for bits in (0, 1, 1 << 14, 0b111, 0b100000000000011):
        assert canonical_bits(6, bits) == _canonical_oracle(6, bits)


def _relabeled(v, bits, perm):
    # the image of an edge mask under one vertex permutation
    pairs = vertex_pairs(v)
    index = {p: n for n, p in enumerate(pairs)}
    image = 0
    for n, (a, b) in enumerate(pairs):
        if (bits >> n) & 1:
            x, y = perm[a], perm[b]
            image |= 1 << index[(min(x, y), max(x, y))]
    return image


def _lanes(column, v):
    # the 16-bit lanes of one packed _relabelings column, lane k first
    width = 2 * math.factorial(v)
    data = column.to_bytes(width, sys.byteorder)
    return [int.from_bytes(data[2 * k : 2 * k + 2], sys.byteorder) for k in range(width // 2)]


@pytest.mark.parametrize("v", [3, 4, 5, 6])
def test_relabelings_columns_match_permutation_loop(v):
    pairs = vertex_pairs(v)
    columns = _relabelings(v)
    assert len(columns) == len(pairs)
    per_permutation = [
        tuple(_relabeled(v, 1 << n, perm) for n in range(len(pairs)))
        for perm in permutations(range(v))
    ]
    assert list(zip(*(_lanes(column, v) for column in columns))) == per_permutation


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_relabelings_pack_each_permutation_in_its_lane(v):
    # the ints themselves: per edge position, one lane per permutation,
    # written lane by lane in native byte order
    perms = list(permutations(range(v)))
    expected = []
    for n in range(comb(v, 2)):
        lanes = array("H", (_relabeled(v, 1 << n, perm) for perm in perms))
        expected.append(int.from_bytes(lanes.tobytes(), sys.byteorder))
    assert _relabelings(v) == tuple(expected)


@pytest.mark.parametrize("v", [1, 2, 3, 4, 5])
def test_canonical_bits_matches_permutation_loop_on_every_mask(v):
    _canonical_forms.clear()
    for bits in range(1 << comb(v, 2)):
        assert canonical_bits(v, bits) == _canonical_oracle(v, bits)


def test_canonical_bits_memoizes_each_orbit_mask_once(monkeypatch):
    # the 720 lanes of a triangle's sweep hold its 20 images, each 36 times
    forms = array("H", bytes(2 << comb(6, 2)))
    monkeypatch.setitem(_canonical_forms, 6, forms)
    triangle = EdgeSet.from_edges(6, [(3, 4), (4, 5), (3, 5)]).bits
    assert canonical_bits(6, triangle) == 0b100011
    swept = [bits for bits, canon in enumerate(forms) if canon]
    assert len(swept) == comb(6, 3)
    assert {forms[bits] for bits in swept} == {0b100011}
    assert all(_canonical_oracle(6, bits) == 0b100011 for bits in swept)


def test_canonical_forms_of_v6_are_one_flat_table(p6, monkeypatch):
    # one 16-bit entry per edge mask of K_6, made on the first sweep and
    # never grown; the swept entries are exactly the members of P_6, whose
    # orbits stay inside the poset
    monkeypatch.delitem(_canonical_forms, 6, raising=False)
    iso_class_blocks(p6)
    forms = _canonical_forms[6]
    assert isinstance(forms, array) and forms.typecode == "H"
    assert len(forms) == 2**15
    assert [bits for bits, canon in enumerate(forms) if canon] == sorted(set(p6.masks) - {0})
    with pytest.raises(ValueError, match="out of range"):
        canonical_bits(6, 1 << 15 | 0b11)


def test_canonical_bits_refuses_v_above_the_cap():
    _canonical_forms.pop(7, None)
    # a triangle plus a pendant edge: no named class, so class_label needs
    # the canonical form
    bits = EdgeSet.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3)]).bits
    with pytest.raises(ValueError, match="v <= 6"):
        canonical_bits(7, 0b11)
    with pytest.raises(ValueError, match="v <= 6"):
        class_label(7, bits)
    assert 7 not in _canonical_forms
    assert class_label(7, EdgeSet.from_edges(7, [(0, 1), (1, 2), (0, 2)]).bits) == "K3"


def test_canonical_bits_does_not_depend_on_call_order(p6):
    # with the memo emptied, a relabeled image of each mask is asked first,
    # so the mask itself is answered from the orbit its image swept
    rng = random.Random(10)
    sample = [p6.members[i].bits for i in rng.sample(range(len(p6)), 30)]
    bridged = [0b111, 0b100000000000011, 0b110000000000111, 0b000100010001111]
    _canonical_forms.clear()
    for bits in sample + bridged:
        image = _relabeled(6, bits, rng.sample(range(6), 6))
        for mask in (image, bits):
            assert canonical_bits(6, mask) == _canonical_oracle(6, mask)


def _orbit_oracle(v, bits):
    return {_relabeled(v, bits, perm) for perm in permutations(range(v))}


def test_iso_class_blocks_are_the_orbits(p5, p6):
    for poset, classes in ((p5, 16), (p6, 77)):
        blocks = iso_class_blocks(poset)
        assert len(blocks) == classes
        for _, idxs in blocks:
            masks = {poset.members[i].bits for i in idxs}
            canon = canonical_bits(poset.v, poset.members[idxs[0]].bits)
            assert masks == _orbit_oracle(poset.v, canon)
            assert canon == min(masks)
        assert sorted(i for _, idxs in blocks for i in idxs) == list(range(len(poset)))


def test_chromatic_oracle_classics(k3_v3, k4_v4, c4_v4):
    assert chromatic_oracle(k3_v3) == RationalPoly.of([0, 2, -3, 1])  # f(f-1)(f-2)
    assert chromatic_oracle(k4_v4) == RationalPoly.of([0, -6, 11, -6, 1])
    assert chromatic_oracle(EdgeSet(4, 0)) == RationalPoly.monomial(4)
    # C4: (f-1)^4 + (f-1)
    assert chromatic_oracle(c4_v4) == RationalPoly.of([0, -3, 6, -4, 1])


def test_chromatic_oracle_handles_bridges_and_isolated_vertices():
    # single edge plus two isolated vertices: f(f-1) * f^2
    edge = EdgeSet.from_edges(4, [(0, 1)])
    assert chromatic_oracle(edge) == RationalPoly.of([0, 0, 0, -1, 1])


def test_chromatic_oracle_matches_networkx_on_p4(p4):
    try:
        from networkx.algorithms.polynomials import chromatic_polynomial
    except ImportError:
        pytest.skip("networkx without chromatic_polynomial")
    import sympy

    f = sympy.Symbol("x")
    for member in p4.members:
        ours = chromatic_oracle(member)
        theirs = sympy.Poly(chromatic_polynomial(_nx_graph(member)), f)
        coeffs = list(reversed(theirs.all_coeffs()))
        assert [int(c) for c in coeffs] == [int(c) for c in ours.coeffs]


def _poset_json(capsys, v):
    assert main(["poset", "--v", str(v)]) == 0
    return json.loads(capsys.readouterr().out)


def test_poset_json_shape(capsys):
    data = _poset_json(capsys, 4)
    assert data["count"] == 15
    assert data["members"][0]["girth"] == "inf"
    assert data["members"][-1]["iso_class"] == "K4"
    assert {"index", "mask", "edges", "edge_count", "components", "girth", "iso_class"} <= set(
        data["members"][0]
    )


def test_poset_rows_match_per_member_girth_and_components(capsys, p5):
    # the rows take both from one member per class
    rows = _poset_json(capsys, 5)["members"]
    assert [row["mask"] for row in rows] == list(p5.masks)
    for row, member in zip(rows, p5.members):
        g = girth(member)
        assert row["girth"] == ("inf" if g == math.inf else g)
        assert row["components"] == components(member)
        assert row["edges"] == member.to_text() and row["edge_count"] == member.edge_count


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_bridge_detection_matches_networkx(v, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << comb(v, 2)) - 1))
    es = EdgeSet(v, bits)
    has_bridge = any(True for _ in nx.bridges(_nx_graph(es)))
    assert is_isthmus_free(es) == (not has_bridge)
