"""Workload definitions, seeded input generation and the exact work counts
the benchmark asserts.

Every input a workload hands the library comes from ``random.Random(seed)``,
so one seed gives the same inputs on every run. The seed picks which
elements, members and rationals are used, never how many: runtime depends on
allowed-set density (the edge checks short-circuit) and local Mobius cost
grows steeply with edge count, so sizes are fixed per workload and the seed
only moves the inputs within them. The verify5 sets go further: each is the
image of a fixed set under a seeded group automorphism. An automorphism maps
colorings to colorings and allowed edges to allowed edges, so every seed
makes exactly the same edge checks and the benchmark's runs of different
seeds time the same work.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

DEFAULT_SEED = 1

# Exact counts per vertex count v: poset members, comparable pairs (sum of
# down-set sizes), nonzero Mobius entries, and chain terms of one transfer_at
# evaluation. v = 6 has no Mobius or chain counts: the Mobius table does not
# finish there today.
EXPECTED = {
    3: {"members": 2, "pairs": 3, "mobius_entries": 3, "chain_terms": 4},
    4: {"members": 15, "pairs": 60, "mobius_entries": 60, "chain_terms": 154},
    5: {"members": 314, "pairs": 5299, "mobius_entries": 5299, "chain_terms": 35596},
    6: {"members": 13667, "pairs": 1614537},
}

# One group per group-law mode: cyclic, xor, and the mixed add-table path,
# each with the size-4 symmetric set whose automorphic images verify5 draws.
# Every such set of Z7 is in one orbit; {2, 5, 6, 7} of Z2^3 is in the orbit
# of hamming:1; {4, 5, 6, 7} of Z2xZ4 is the coset (1, *).
VERIFY_GROUPS = ((7,), (2, 2, 2), (2, 4))
VERIFY_BASE_SETS = ((2, 3, 4, 5), (2, 5, 6, 7), (4, 5, 6, 7))

WORKLOADS = {
    "verify5": {
        "kind": "session",
        "v": 5,
        "spot_checks": 3,
        # 2 x (sum over P_5 of 7^(5-c) + 2 x sum of 8^(5-c))
        "colorings": 5_500_304,
    },
    "cli5": {"kind": "cli", "v": 5},
    "poset6": {
        "kind": "session",
        "v": 6,
        "iso_sample": 200,
        "local_per_size": 6,
        "local_max_edges": 12,
        "cycle_sample": 100,
        "cycle_oracle": 5,
    },
}

# Same workloads at v = 4 with small samples, for the smoke test.
SMOKE = {
    "verify5": {**WORKLOADS["verify5"], "v": 4, "spot_checks": 2, "colorings": 28_762},
    "cli5": {"kind": "cli", "v": 4},
    "poset6": {
        "kind": "session",
        "v": 4,
        "iso_sample": 8,
        "local_per_size": 2,
        "local_max_edges": 6,
        "cycle_sample": 8,
        "cycle_oracle": 2,
    },
}


def config(name: str, smoke: bool = False) -> dict:
    return (SMOKE if smoke else WORKLOADS)[name]


def symmetric_set(rng: random.Random, group, size: int) -> list[int]:
    """Seeded element indices of a symmetric set A = -A with |A| = size and
    0 not in A, so A is neither empty nor the whole group."""
    orbits = sorted({tuple(sorted({i, group.neg(i)})) for i in range(1, group.order)})
    while True:
        rng.shuffle(orbits)
        chosen: list[int] = []
        for orbit in orbits:
            if len(chosen) + len(orbit) <= size:
                chosen.extend(orbit)
        if len(chosen) == size:
            return sorted(chosen)


def _multiple(group, g: int, k: int) -> int:
    acc = 0
    for _ in range(k):
        acc = group.add(acc, g)
    return acc


def automorphisms(group) -> list[tuple[int, ...]]:
    """Every automorphism of the group, as a permutation of element indices.
    A homomorphism is fixed by the images of the unit vectors, and the image
    of the unit of a factor of order n must have order dividing n."""
    orders = group.cyclic_orders
    choices = [[g for g in range(group.order) if _multiple(group, g, n) == 0] for n in orders]
    found = []
    for images in product(*choices):
        perm = []
        for i in range(group.order):
            acc = 0
            for r, g in zip(group.residues_of(i), images):
                acc = group.add(acc, _multiple(group, g, r))
            perm.append(acc)
        if len(set(perm)) == group.order:
            found.append(tuple(perm))
    return found


def verify_set(rng: random.Random, group, base) -> list[int]:
    """The image of the symmetric set ``base`` under a seeded automorphism:
    symmetric, without 0, and of the same size, so proper."""
    perm = rng.choice(automorphisms(group))
    return sorted(perm[i] for i in base)


def seeded_rational(rng: random.Random) -> Fraction:
    """A rational strictly between 0 and 1 with denominator 11. One prime
    denominator keeps the size of the exact arithmetic the same for every
    seed."""
    return Fraction(rng.randint(1, 10), 11)


def cli_commands(seed: int, v: int) -> list[list[str]]:
    """The cli5 job list: one argv per fresh CLI process."""
    from groupcolor.groups import make_group

    rng = random.Random(seed)
    q1 = seeded_rational(rng)
    q2 = q1
    while q2 == q1:
        q2 = seeded_rational(rng)
    z6 = symmetric_set(rng, make_group([6]), 3)
    allowed = "set:{" + ",".join(str(i) for i in z6) + "}"
    return [
        ["matrix", "--v", str(v), "--which", "M", "--r", str(q1)],
        ["matrix", "--v", str(v), "--which", "M", "--r", str(q2)],
        ["matrix", "--v", "4", "--which", "M", "--errata"],
        ["chromatic", "--v", str(v)],
        ["poset", "--v", str(v)],
        ["examples", "--which", "all"],
        ["verify", "--v", "4", "--group", "Z6", "--allowed", allowed],
    ]


def relabel(bits: int, perm: list[int], pairs) -> int:
    """The edge set ``bits`` with vertex u renamed perm[u]; ``pairs`` lists
    the vertex pair of each bit, smaller vertex first."""
    index = {pair: n for n, pair in enumerate(pairs)}
    out = 0
    for n, (a, b) in enumerate(pairs):
        if (bits >> n) & 1:
            out |= 1 << index[tuple(sorted((perm[a], perm[b])))]
    return out


def poset_samples(rng: random.Random, poset, cfg: dict) -> dict:
    """Member samples for poset6: uniform for iso classes and cycle-space
    gammas, a fixed number per edge count for the local Mobius jobs.

    The samples are drawn once, from DEFAULT_SEED, and the seed renames the
    vertices of every sampled member by one seeded permutation. A renamed
    member is isomorphic to the original, so its interval, local Mobius
    function and coboundary image have the same sizes: every seed does the
    same work, while the library sees different edge sets."""
    base = random.Random(DEFAULT_SEED)
    n = len(poset)
    by_size: dict[int, list[int]] = {}
    for i, size in enumerate(poset.sizes):
        if 0 < size <= cfg["local_max_edges"]:
            by_size.setdefault(size, []).append(i)
    local = []
    for size in sorted(by_size):
        local.extend(base.sample(by_size[size], min(cfg["local_per_size"], len(by_size[size]))))
    iso = base.sample(range(n), min(cfg["iso_sample"], n))
    cycle = base.sample(range(n), min(cfg["cycle_sample"], n))

    perm = list(range(poset.v))
    rng.shuffle(perm)
    pairs = [tuple(pair) for pair in combinations(range(poset.v), 2)]
    position = {member.bits: i for i, member in enumerate(poset.members)}

    def renamed(indices):
        return [position[relabel(poset.members[i].bits, perm, pairs)] for i in indices]

    cycle = renamed(cycle)
    return {
        "iso": renamed(iso),
        "local": renamed(local),
        "alpha_bar": Fraction(rng.randint(1, 6), 7),
        "cycle": cycle,
        "cycle_oracle": rng.sample(cycle, min(cfg["cycle_oracle"], len(cycle))),
    }
