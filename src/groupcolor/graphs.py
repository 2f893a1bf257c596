"""Labeled graphs on a fixed vertex set, stored as edge bitmasks, and the
poset of bridgeless (isthmus-free) edge sets ordered by inclusion, held as
its member masks and the core table of K_v they were read from.

Edge index order is lexicographic on pairs (i, j) with i < j, 0-based, so
bitmask encodings are stable across runs. Isolated vertices always count
as connected components.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations, permutations, repeat
from math import comb
from operator import is_not, itemgetter, mul, or_

from ._frozen import Frozen
from .posetlin import RationalPoly

POSET_CAP = 6
# verify alone reaches P_7, 1,137,508 members: its check reads the member
# masks and the cores table, never a canonical form, a down-set or an EdgeSet
VERIFY_CAP = 7


@lru_cache(maxsize=None)
def vertex_pairs(v: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(v), 2))


def _int_field(fields: dict[str, str], key: str, base: int) -> int:
    # one integer field of EdgeSet.from_text, named in its error
    try:
        return int(fields[key], base)
    except ValueError:
        raise ValueError(f"edge set field {key}={fields[key]!r} is not an integer") from None


def _check_edge_bits(v: int, bits: int) -> None:
    # EdgeSet's checks, shared with the functions that read a bare mask
    if v < 1:
        raise ValueError("need at least one vertex")
    if bits < 0 or bits.bit_length() > comb(v, 2):
        raise ValueError(f"edge bitmask {bits:#b} out of range for v={v}")


class EdgeSet(Frozen):
    """Subset of the unordered vertex pairs on v labeled vertices: two
    slots, the vertex count and the edge bitmask, and no instance dict."""

    __slots__ = ("v", "bits")
    _fields = __slots__
    v: int
    bits: int

    def __init__(self, v: int, bits: int):
        _check_edge_bits(v, bits)
        # set directly, not through _set: one EdgeSet per member of P_6
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "bits", bits)

    def __reduce__(self):
        # copy and pickle rebuild through __init__: a slot cannot be set afterwards
        return type(self), (self.v, self.bits)

    @classmethod
    def from_edges(cls, v: int, edges) -> "EdgeSet":
        bits = 0
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop edge ({a},{a}) not allowed")
            a, b = min(a, b), max(a, b)
            if not 0 <= a < b < v:
                raise ValueError(f"edge {(a, b)} out of range for v={v}")
            # the position of (a, b) in vertex_pairs(v)
            bit = 1 << (a * (2 * v - a - 1) // 2 + b - a - 1)
            if bits & bit:
                raise ValueError(f"edge {(a, b)} is repeated")
            bits |= bit
        return cls(v, bits)

    @classmethod
    def from_text(cls, text: str) -> "EdgeSet":
        """Parse "v=4;edges=01,02,12" or "v=4;mask=0b000111"."""
        parts = [part for part in text.strip().split(";") if part]
        for part in parts:
            if "=" not in part:
                raise ValueError(f"edge set field {part!r} is not key=value: {text!r}")
        fields = dict(part.split("=", 1) for part in parts)
        unknown = [key for key in fields if key not in ("v", "edges", "mask")]
        if unknown:
            names = ", ".join(map(repr, unknown))
            raise ValueError(f"edge set text has unknown field(s) {names}: {text!r}")
        if len(fields) < len(parts):
            raise ValueError(f"edge set text repeats a field: {text!r}")
        if "v" not in fields:
            raise ValueError(f"edge set text needs a v= field: {text!r}")
        if "mask" in fields and "edges" in fields:
            raise ValueError(f"edge set text takes edges= or mask=, not both: {text!r}")
        v = _int_field(fields, "v", 10)
        if "mask" in fields:
            return cls(v, _int_field(fields, "mask", 0))
        if "edges" in fields:
            spec = fields["edges"].strip()
            edges = []
            if spec:
                for token in spec.split(","):
                    token = token.strip()
                    if len(token) != 2 or not token.isdigit():
                        raise ValueError(f"bad edge token {token!r} (want e.g. 01)")
                    edges.append((int(token[0]), int(token[1])))
            return cls.from_edges(v, edges)
        raise ValueError(f"edge set text needs edges= or mask=: {text!r}")

    def to_text(self) -> str:
        """"v=4;edges=01,03,12,23" when every endpoint is one digit, else
        the unpadded mask form "v=12;mask=0x..."; from_text reads both."""
        edges = self.edges()
        if self.v > 10 and any(b > 9 for _, b in edges):
            return f"v={self.v};mask={self.bits:#x}"
        tokens = ",".join(f"{a}{b}" for a, b in edges)
        return f"v={self.v};edges={tokens}"

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        pairs = vertex_pairs(self.v)
        return tuple(pairs[n] for n in range(len(pairs)) if (self.bits >> n) & 1)

    def __repr__(self):
        return f"EdgeSet({self.to_text()})"


@lru_cache(maxsize=None)
def _incident(v: int) -> tuple[int, ...]:
    # per vertex a, the mask of the vertex pairs that touch it: the block of
    # pairs (a, b > a) from start[a], and the pair (x, a) of each x < a, set
    # in a byte buffer so that the table costs its v C(v, 2) output bits
    start = [x * (2 * v - x - 1) // 2 for x in range(v)]
    masks = []
    for a in range(v):
        buf = bytearray((comb(v, 2) + 7) // 8)
        for n in (start[x] + a - x - 1 for x in range(a)):
            buf[n >> 3] |= 1 << (n & 7)
        masks.append(int.from_bytes(buf, "little") | ((1 << (v - a - 1)) - 1) << start[a])
    return tuple(masks)


def _spanning_forest(v: int, bits: int) -> tuple[list[int], int]:
    """One DFS over the edge bitmask: for each vertex the edge mask of its
    forest path to its component root (0 exactly at a root, the lowest
    vertex of its component), and the mask of the forest edges."""
    pairs = vertex_pairs(v)
    incident = _incident(v)
    path: list[int] = [-1] * v
    tree = 0
    for root in range(v):
        if path[root] >= 0:
            continue
        path[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            out = incident[u] & bits & ~tree
            while out:
                low = out & -out
                out ^= low
                a, b = pairs[low.bit_length() - 1]
                w = b if a == u else a
                if path[w] < 0:
                    path[w] = path[u] | low
                    tree |= low
                    stack.append(w)
    return path, tree


def components(edge_set: EdgeSet) -> int:
    """Number of connected components, isolated vertices included."""
    path, _ = _spanning_forest(edge_set.v, edge_set.bits)
    return path.count(0)


def is_isthmus_free(edge_set: EdgeSet) -> bool:
    """True iff every edge lies on a cycle: the fundamental cycles of a
    spanning forest cover the edge set."""
    path, tree = _spanning_forest(edge_set.v, edge_set.bits)
    pairs = vertex_pairs(edge_set.v)
    covered = rest = edge_set.bits & ~tree
    while rest:
        low = rest & -rest
        rest ^= low
        a, b = pairs[low.bit_length() - 1]
        covered |= path[a] ^ path[b]
    return covered == edge_set.bits


def girth(edge_set: EdgeSet):
    """Length of the shortest cycle; math.inf for forests. Each edge (a, b)
    closes a cycle one longer than the shortest path from a to b that
    avoids it, found by BFS over neighbour lists built from the edges."""
    edges = edge_set.edges()
    adj: list[list[int]] = [[] for _ in range(edge_set.v)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    best = math.inf
    for a, b in edges:
        # BFS distance a -> b avoiding the edge itself
        dist = {a: 0}
        frontier = [a]
        while frontier and b not in dist:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist and (u, w) != (a, b):
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if b in dist:
            best = min(best, dist[b] + 1)
    return best


class SubgraphPoset(Frozen):
    """All bridgeless edge sets on v vertices, sorted by (edge count, bitmask).

    The sort order is a linear extension of inclusion: if E is a subset of
    H then index(E) <= index(H). The empty graph is always member 0.
    ``cores`` is the ``bridgeless_cores`` of K_v whose fixed points are the
    ``masks``; equality and hashing read ``v`` and ``masks`` only.
    """

    _fields = ("v", "masks")
    v: int
    masks: tuple[int, ...]
    cores: tuple[list[int], array]

    def __init__(self, v: int, masks: tuple[int, ...], cores: tuple[list[int], array]):
        self._set(v=v, masks=masks, cores=cores)

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def members(self) -> tuple[EdgeSet, ...]:
        return tuple(EdgeSet(self.v, mask) for mask in self.masks)

    @cached_property
    def index_by_mask(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.masks)}

    def index_of(self, edge_set: EdgeSet) -> int:
        if edge_set.v != self.v:
            raise ValueError("edge set on wrong vertex count for this poset")
        try:
            return self.index_by_mask[edge_set.bits]
        except KeyError:
            raise ValueError(f"{edge_set!r} is not isthmus-free") from None

    def leq(self, i: int, j: int) -> bool:
        return self.masks[i] & ~self.masks[j] == 0

    @cached_property
    def down_sets(self) -> tuple[tuple[int, ...], ...]:
        """For each member, the sorted indices of all members below it, built
        by ``down_sets_of`` from the masks alone; no ``index_by_mask`` is
        built."""
        return down_sets_of(self.masks)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.masks))


def _lattice_pass(values: list, op, scale: int = 1) -> None:
    """One Yates pass over the Boolean lattice, in place, on a list of any
    numbers. The list holds one value per mask of n bits, so its length 2^n
    gives n. For each bit k below n in turn, values[M] = op(values[M],
    scale * values[M - k]) at every M holding bit k. It keeps the scaled
    rational passes, whose entries have no cheap bound for a packed lane:
    ``sub`` at scale p, the inverse weighted zeta of ``gamma_plus``, and
    ``add`` at scale q, the transfer pass of ``apply_transfer``. Every pass
    over non-negative integers runs in ``_packed_pass`` instead.

    The masks holding bit k are updated from masks without it, so each step
    is a ``map`` over list slices: one slice per block of 2^(k+1) masks when
    the blocks are fewer than the offsets inside one, else one strided
    slice per offset.
    """
    size = len(values)
    weigh = (lambda lower: lower) if scale == 1 else (lambda lower: map(mul, lower, repeat(scale)))
    for k in range(size.bit_length() - 1):
        step = 1 << k
        span = 2 * step
        if step <= size // span:
            for j in range(step):
                values[step + j :: span] = map(op, values[step + j :: span], weigh(values[j::span]))
        else:
            for block in range(step, size, span):
                values[block : block + step] = map(
                    op, values[block : block + step], weigh(values[block - step : block])
                )


# Packed lanes. Lattice passes over non-negative integers run in packed
# lanes: the 2^n entries become one int whose lane M, of a fixed number of
# bytes, holds entry M, and each bit's step moves every lane across the bit
# with one shift and one AND and combines it with one OR or one addition
# over the whole int. An OR never carries; an addition does not while every
# sum fits its lane, which the caller's lane width must ensure. The passes:
# the cores' OR, the spread of local masks onto edge positions and the
# histogram's superset sums (gamma).
_LANE_CODES = {4: "I", 8: "Q"}  # array codes of the unsigned lanes by bytes


def _pack_lanes(values, width: int) -> int:
    # one int holding values[M], none negative, in lane M of width bytes,
    # lane 0 in the lowest bytes; array refuses a negative entry
    code = _LANE_CODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(n.to_bytes(width, "little") for n in values), "little")
    lanes = array(code, values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack_lanes(packed: int, count: int, width: int, signed: bool):
    # the count lanes of width bytes of packed, read as unsigned or as two's
    # complement integers: an array for 4- and 8-byte lanes, else a list
    raw = packed.to_bytes(count * width, "little")
    code = _LANE_CODES.get(width)
    if code is None:
        starts = range(0, len(raw), width)
        return [int.from_bytes(raw[i : i + width], "little", signed=signed) for i in starts]
    lanes = array(code.lower() if signed else code)
    lanes.frombytes(raw)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _lane_steps(count: int, width: int):
    # per bit k of count = 2^n lanes of width bytes, from the highest down:
    # the shift by 2^k lanes, and the int whose lanes are all ones at the
    # masks without bit k and zero at those with it. The highest bit's lanes
    # without it are one low block, and each lower bit's mask is the one
    # above XORed with itself shifted up by the new bit's lanes, so each is
    # built in its own step and none is kept
    half = 8 * width * count >> 1
    keep = (1 << half) - 1
    for k in reversed(range(count.bit_length() - 1)):
        shift = 8 * width << k
        if shift < half:
            keep ^= keep << shift
        yield shift, keep


def _packed_pass(values, op, width: int, supersets: bool = False):
    """One Yates pass over the 2^n non-negative integers of ``values`` in
    packed lanes of ``width`` bytes (see "Packed lanes" above): with
    ``op`` ``or_`` or ``add``, at each bit k every mask M holding k takes
    op(values[M], values[M - k]), the subset pass, or with ``supersets``
    every mask M without k takes op(values[M], values[M + k]). Returns the
    lanes read back, an array for 4- and 8-byte lanes."""
    packed = _pack_lanes(values, width)
    for shift, keep in _lane_steps(len(values), width):
        if supersets:
            packed = op(packed, (packed >> shift) & keep)
        else:
            packed = op(packed, (packed & keep) << shift)
    return _unpack_lanes(packed, len(values), width, signed=False)


def _circuits(v: int, bits: int) -> list[int]:
    """Every cycle of the edge set ``bits`` on v vertices, once, as an edge
    mask. A cycle is found from its lowest vertex s by a DFS over simple
    paths through higher vertices; of its two directions only the one
    whose first vertex after s is lower than its last is kept."""
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(v)]
    for n, (a, b) in enumerate(vertex_pairs(v)):
        if (bits >> n) & 1:
            nbrs[a].append((b, 1 << n))
            nbrs[b].append((a, 1 << n))
    found = []
    for s in range(v):
        for first, edge in nbrs[s]:
            if first < s:
                continue
            stack = [(first, edge, 1 << first)]
            while stack:
                u, path, seen = stack.pop()
                for w, e in nbrs[u]:
                    if w == s:
                        if u > first:
                            found.append(path | e)
                    elif w > s and not (seen >> w) & 1:
                        stack.append((w, path | e, seen | 1 << w))
    return found


def bridgeless_cores(v: int, bits: int) -> tuple[list[int], array]:
    """The bridgeless core of every subset of the edge set ``bits``: the
    union of the cycles inside it, which is the subset minus its bridges.

    Masks are local: bit k stands for edge position ``places[k]``, the k-th
    edge of ``bits``. ``core`` is seeded with C at every cycle C (from
    ``_circuits``) and then ORed over subsets in one packed pass
    (``_packed_pass``), so ``core[M]`` is the OR of the cycles inside M, and
    M is bridgeless iff ``core[M] == M``. The table is an ``array('I')``,
    4 bytes a mask: 8 MiB on the 2^21 masks of K_7.
    """
    places = [n for n in range(bits.bit_length()) if (bits >> n) & 1]
    local = {1 << n: 1 << k for k, n in enumerate(places)}
    core = array("I", bytes(4 << len(places)))
    for cycle in _circuits(v, bits):
        mask = 0
        while cycle:
            low = cycle & -cycle
            cycle ^= low
            mask |= local[low]
        core[mask] = mask
    return places, _packed_pass(core, or_, 4)


def _fixed_points(places: list[int], core: array) -> list[int]:
    """The masks equal to their ``bridgeless_cores`` core, spread back onto
    the edge positions and sorted by (edge count, mask): a linear extension
    of inclusion with the empty set first. The local masks are spread by a
    packed OR pass over their lattice."""
    # a comprehension over the table gathers the 1,137,508 members of P_7
    # in about 0.21 s with the sort, against 0.26 s by compress into a list
    # and 0.31 s into an array('I') (2-vCPU VM, Python 3.11)
    found = [mask for mask, kept in enumerate(core) if kept == mask]
    if places != list(range(len(places))):  # not the lowest positions: spread the local masks
        width = 4 if places[-1] < 32 else 8 * (places[-1] // 64 + 1)  # a lane holds every mask
        spread = [0] * len(core)
        for k, n in enumerate(places):
            spread[1 << k] = 1 << n
        found = list(map(_packed_pass(spread, or_, width).__getitem__, found))
    found.sort(key=int.bit_count)  # stable, and spreading keeps mask order
    return found


def bridgeless_subsets(v: int, bits: int) -> list[int]:
    """Bitmasks of every bridgeless subset of the edge set ``bits`` on v
    vertices, sorted by (edge count, mask): the fixed points of its cores."""
    return _fixed_points(*bridgeless_cores(v, bits))


def _submask_getter(m: int) -> itemgetter:
    # the entries of a sequence at the submasks of m, always as a sequence:
    # at m = 0 a slice, as one index would return the entry itself
    subs = [m]
    while subs[-1]:
        subs.append((subs[-1] - 1) & m)
    return itemgetter(*subs) if m else itemgetter(slice(0, 1))


def down_sets_of(masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Down-sets of a family of distinct edge bitmasks, in the family's
    order: for each member, the sorted positions of the members that are
    subsets of it. The family may come in any order, leave gaps in the edge
    positions and need not be closed under union; the empty family gives
    ``()``. A negative or repeated member raises ValueError, and so does a
    member past the C(POSET_CAP, 2) = 15 edge positions of K_6: the rows of
    P_7 would hold 1,555,541,665 pairs.

    A mask-to-position table is split into rows by the high half of the
    bits. For each low half l that some member holds, one ``itemgetter``
    per row gathers the positions of the members whose low half lies
    inside l, and each gather is sorted. A member with halves (h, l) chains
    the gathers of l in the rows inside h, and one sort merges those sorted
    runs into its tuple.
    """
    if min(masks, default=0) < 0:
        raise ValueError(f"member {min(masks):#b} is negative")
    top = max(masks, default=0)
    cap, bits = comb(POSET_CAP, 2), top.bit_length()
    if bits > cap:
        raise ValueError(f"member {top:#b} is past the {cap} edge positions of K_{POSET_CAP}")
    low = bits // 2
    low_bits = (1 << low) - 1
    position: list[int | None] = [None] * (1 << bits)
    by_low: dict[int, list[int]] = {}  # positions by low half
    for p, mask in enumerate(masks):
        if position[mask] is not None:
            raise ValueError(f"member {mask:#b} is repeated")
        position[mask] = p
        by_low.setdefault(mask & low_bits, []).append(p)
    rows = [position[h << low : (h + 1) << low] for h in range(1 << (bits - low))]
    below = {high: _submask_getter(high) for high in {mask >> low for mask in masks}}
    present = partial(is_not, None)
    out: list = [None] * len(masks)
    for rest, batch in by_low.items():
        # the gathers of one low half at a time, dropped once its members are built
        inside = _submask_getter(rest)
        gathers = [sorted(filter(present, inside(row))) for row in rows]
        for p in batch:
            out[p] = tuple(sorted(chain.from_iterable(below[masks[p] >> low](gathers))))
    return tuple(out)


def enumerate_poset(v: int, cap: int = POSET_CAP) -> SubgraphPoset:
    """Enumerate every bridgeless edge set on v labeled vertices, 2 <= v <= cap.

    The cap is POSET_CAP for every command but verify, which passes
    VERIFY_CAP: past POSET_CAP no canonical form exists, so the poset
    serves the checks that read only its masks and cores."""
    if not 2 <= v <= cap:
        raise ValueError(f"v must be in 2..{cap}, got {v}")
    places, core = bridgeless_cores(v, (1 << comb(v, 2)) - 1)
    return SubgraphPoset(v, tuple(_fixed_points(places, core)), (places, core))


@lru_cache(maxsize=None)
def _relabelings(v: int) -> tuple[int, ...]:
    """Packed column table of the v! vertex relabelings, v <= POSET_CAP:
    for each edge position n, one int whose 16-bit lane k (native byte
    order) is the bit of n's image under permutation k, in
    ``permutations`` order. C(v, 2) <= 15 edge bits fit one lane.

    Built with byte arithmetic, whole columns at a time: column a holds
    the image of vertex a under every permutation, one byte each. For a
    pair (a, b), column a scaled by v plus column b, added as little-endian
    ints, gives the byte x*v + y of each image pair {x, y}; no byte reaches
    v^2 <= 36, so nothing carries. Two ``bytes.translate`` tables turn
    those bytes into the low and the high byte of each lane's edge bit."""
    width = math.factorial(v)
    columns = [bytes(column) for column in zip(*permutations(range(v)))]
    times_v = bytes(x * v for x in range(v)).ljust(256, b"\0")
    scaled = [int.from_bytes(column.translate(times_v), "little") for column in columns]
    plain = [int.from_bytes(column, "little") for column in columns]
    bit_of = [0] * 256  # bit_of[x * v + y]: the bit of the pair {x, y}
    for n, (a, b) in enumerate(vertex_pairs(v)):
        bit_of[a * v + b] = bit_of[b * v + a] = 1 << n
    low = bytes(bit & 0xFF for bit in bit_of)
    high = bytes(bit >> 8 for bit in bit_of)
    first, second = (low, high) if sys.byteorder == "little" else (high, low)
    table = []
    lanes = bytearray(2 * width)
    for a, b in vertex_pairs(v):
        pair_bytes = (scaled[a] + plain[b]).to_bytes(width, "little")
        lanes[0::2] = pair_bytes.translate(first)
        lanes[1::2] = pair_bytes.translate(second)
        table.append(int.from_bytes(lanes, sys.byteorder))
    return tuple(table)


# per v, a table of the 2^C(v, 2) edge masks holding the canonical form of
# every mask whose orbit has been swept; 0 marks an orbit not swept yet, as
# a swept orbit has two or more edges and so a minimum of at least 3
_canonical_forms: dict[int, array] = {}


def canonical_bits(v: int, bits: int) -> int:
    """Minimum bitmask over all vertex relabelings; class representative.

    Only for v <= POSET_CAP: above it the relabeling table would hold
    C(v, 2) v! lanes (163M at v = 10), so a larger v raises ValueError,
    and so do a v below 1 and a mask outside the C(v, 2) edge positions,
    as in EdgeSet. Those two are checked only for a mask of at most one
    edge and for a mask outside the memo table of v, which spans exactly
    the valid masks, so a hit is one index after that range check.

    On the first mask of a class, its whole orbit is swept at once: one
    big-int OR per edge of the mask over the packed ``_relabelings``
    columns puts every image of the mask in its own lane, and one decode
    reads the lanes back. Each image repeats once per automorphism, so the
    lanes are first reduced to the orbit's distinct masks; the minimum is
    taken over those and written into the table at each of them, so each
    later member of the class is one index. The table of v is an
    array("H") of 2^C(v, 2) entries, made on the first mask of two or more
    edges at that v: 64 KiB at v = 6.
    """
    if v > POSET_CAP:
        raise ValueError(f"canonical forms need v <= {POSET_CAP}, got v={v}")
    if bits & (bits - 1) == 0:
        _check_edge_bits(v, bits)
        return min(bits, 1)  # no edge, or one edge relabeled onto (0, 1)
    forms = _canonical_forms.get(v)
    if forms is None or not 0 <= bits < len(forms):
        _check_edge_bits(v, bits)  # raises for a mask outside a made table
        forms = _canonical_forms[v] = array("H", bytes(2 << comb(v, 2)))
    canon = forms[bits]
    if not canon:
        orbit = 0
        for n, column in enumerate(_relabelings(v)):
            if (bits >> n) & 1:
                orbit |= column
        lanes = array("H")
        lanes.frombytes(orbit.to_bytes(2 * math.factorial(v), sys.byteorder))
        distinct = set(lanes)
        canon = min(distinct)
        for image in distinct:
            forms[image] = canon
    return canon


def class_label(v: int, bits: int) -> str:
    """Human name for the isomorphism class of a bridgeless edge set.

    Read from the mask alone: each vertex degree is the size of the mask
    ANDed with the vertex's ``_incident`` mask, and a set whose active
    vertices all have degree 2 is named by its cycles' lengths. A v below 1
    or a mask outside the C(v, 2) edge positions raises ValueError, as
    EdgeSet does. A class with no name is labeled by its canonical form, so
    for it v must be at most POSET_CAP (``canonical_bits`` raises ValueError
    above).
    """
    _check_edge_bits(v, bits)  # building an EdgeSet is what this avoids
    if not bits:
        return "empty"
    degs = sorted(((bits & mask).bit_count() for mask in _incident(v)), reverse=True)
    while not degs[-1]:
        degs.pop()
    na, e = len(degs), bits.bit_count()
    if degs[0] == degs[-1] == 2:  # every component is one circuit
        cycles = sorted(map(int.bit_count, _circuits(v, bits)), reverse=True)
        return "+".join(f"C{n}" for n in cycles) if cycles != [3] else "K3"
    if e == comb(na, 2):
        return f"K{na}"
    if na == 4 and e == 5:
        return "diamond"
    if na == 5 and e == 6 and degs == [4, 2, 2, 2, 2]:
        return "bowtie"
    return f"g{na}v{e}e_{canonical_bits(v, bits):x}"


def iso_class_blocks(poset: SubgraphPoset) -> list[tuple[str, tuple[int, ...]]]:
    """Partition poset indices by graph isomorphism class.

    Classes come out in display order: descending edge count, then by
    canonical bitmask, so the complete graph is first and empty is last.
    """
    groups: dict[int, list[int]] = {}
    for i, mask in enumerate(poset.masks):
        groups.setdefault(canonical_bits(poset.v, mask), []).append(i)
    keyed = sorted(groups.items(), key=lambda kv: (-kv[0].bit_count(), kv[0]))
    return [(class_label(poset.v, canon), tuple(idxs)) for canon, idxs in keyed]


def class_rows(blocks, size: int, row_of) -> list:
    """One entry per poset member, in member order, from one row per class:
    ``row_of(label, idxs)`` is called once per block of ``blocks``, as
    ``iso_class_blocks`` gives them, and every member of the block gets
    its row."""
    rows = [None] * size
    for label, idxs in blocks:
        row = row_of(label, idxs)
        for i in idxs:
            rows[i] = row
    return rows


@lru_cache(maxsize=None)
def _chromatic(v: int, edges: frozenset[tuple[int, int]]) -> RationalPoly:
    if not edges:
        return RationalPoly.monomial(v)
    u, w = min(edges)
    deleted = edges - {(u, w)}
    # contract w into u, relabel vertices above w down by one
    def relabel(x: int) -> int:
        if x == w:
            return u
        return x - 1 if x > w else x
    contracted = set()
    for a, b in deleted:
        a2, b2 = relabel(a), relabel(b)
        if a2 != b2:
            contracted.add((min(a2, b2), max(a2, b2)))
    return _chromatic(v, deleted) - _chromatic(v - 1, frozenset(contracted))


def chromatic_oracle(edge_set: EdgeSet) -> RationalPoly:
    """Chromatic polynomial by deletion-contraction; bridges are fine here.

    Isolated vertices each contribute one factor of the color count.
    """
    return _chromatic(edge_set.v, frozenset(edge_set.edges()))

