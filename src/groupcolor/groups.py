"""Finite Abelian groups, their characters, and symmetric allowed-difference sets.

Groups are products of cyclic factors Z/n_1 x ... x Z/n_m. An element is
its index 0..f-1 in a mixed-radix encoding (first factor most significant),
so index 0 is always the identity and all tables are reproducible. The
group is self-dual: the character indexed p pairs with the element q
through the residues of both indices (pairing_by_index). The group law is
translate on bitmasks of indices: two masked shifts per cyclic factor. The
index law add reads it on a mixed group and is (a + b) % f on a cyclic one
and a ^ b on Z2^n; neg is one digit rule, each residue r to (-r) % n.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import prod
from operator import add, floordiv, mod, mul

from ._frozen import Frozen

MAX_GROUP_ORDER = 4096


class FiniteAbelianGroup(Frozen):
    """Product of cyclic groups; houses the color set of size ``order``."""

    _fields = ("cyclic_orders",)
    cyclic_orders: tuple[int, ...]

    def __init__(self, cyclic_orders: tuple[int, ...]):
        if len(cyclic_orders) == 0:
            raise ValueError("group needs at least one cyclic factor")
        bad = [n for n in cyclic_orders if n < 2]
        if bad:
            raise ValueError(f"cyclic orders must be >= 2, got {bad}")
        self._set(cyclic_orders=cyclic_orders)

    @cached_property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        # mixed-radix place values, most significant factor first
        weights = []
        w = 1
        for n in reversed(self.cyclic_orders):
            weights.append(w)
            w *= n
        return tuple(reversed(weights))

    def residues_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range 0..{self.order - 1}")
        out = []
        for n, w in zip(self.cyclic_orders, self._weights):
            out.append((index // w) % n)
        return tuple(out)

    def index_of(self, residues: tuple[int, ...]) -> int:
        if len(residues) != len(self.cyclic_orders):
            raise ValueError("residue tuple has wrong length for this group")
        idx = 0
        for r, n, w in zip(residues, self.cyclic_orders, self._weights):
            if not 0 <= r < n:
                raise ValueError(f"residue {r} out of range 0..{n - 1} in {tuple(residues)}")
            idx += r * w
        return idx

    @cached_property
    def _mode(self) -> str:
        if len(self.cyclic_orders) == 1:
            return "cyclic"
        if all(n == 2 for n in self.cyclic_orders):
            return "xor"
        return "mixed"

    def add(self, a: int, b: int) -> int:
        """Group law on element indices; a mixed group reads it from translate."""
        if self._mode == "cyclic":
            return (a + b) % self.order
        if self._mode == "xor":
            return a ^ b
        return self.translate(1 << a, b).bit_length() - 1

    @cached_property
    def _neg_table(self) -> tuple[int, ...]:
        # negs[i] is -i in the leading factors read so far; one more factor
        # of order n sends the index i * n + r to negs[i] * n + (-r) % n
        negs = [0]
        for n in self.cyclic_orders:
            negs = [x * n + (-r) % n for x in negs for r in range(n)]
        return tuple(negs)

    @cached_property
    def _translation_lows(self) -> tuple[tuple[int, ...], ...]:
        # per cyclic factor of order n and place value w, and per shift t:
        # the mask of the indices whose residue there is below n - t, the
        # ones that move up by t*w without wrapping around the factor
        f = self.order
        lows = []
        for n, w in zip(self.cyclic_orders, self._weights):
            tile = sum(1 << k for k in range(0, f, n * w))
            lows.append(tuple(((1 << (n - t) * w) - 1) * tile for t in range(n)))
        return tuple(lows)

    def translate(self, mask: int, g: int) -> int:
        """Move a bitmask over element indices by g: bit x goes to bit
        x + g. Two masked shifts per cyclic factor, no per-element work."""
        factors = zip(self.cyclic_orders, self._weights, self._translation_lows)
        for (n, w, lows), t in zip(factors, self.residues_of(g)):
            if t:
                low = lows[t]
                mask = ((mask & low) << t * w) | ((mask & ~low) >> (n - t) * w)
        return mask

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    @cached_property
    def _roots(self) -> tuple[complex, ...]:
        # exp(2 pi i k / L) for k below L, the lcm of the cyclic orders; k / L
        # is correctly rounded, as float(Fraction(k, L)) is, so each root is
        # the one of the exact phase
        period = math.lcm(*self.cyclic_orders)
        return tuple(cmath.exp(2j * math.pi * (k / period)) for k in range(period))

    def _pairings(self, p: int, qs) -> map:
        # the pairings of the character p with the element indices qs, in
        # order: the root at k = sum_i p_i q_i (L / n_i) mod L, each residue
        # q_i read from the indices digit by digit
        period = len(self._roots)
        ks = repeat(0)
        for pi, n, w in zip(self.residues_of(p), self.cyclic_orders, self._weights):
            digits = map(mod, map(floordiv, qs, repeat(w)), repeat(n))
            ks = map(add, ks, map(mul, digits, repeat(pi * (period // n))))
        return map(self._roots.__getitem__, map(mod, ks, repeat(period)))

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.cyclic_orders)})"


def pairing_by_index(group: FiniteAbelianGroup, p: int, q: int) -> complex:
    """Unit-modulus pairing exp(2*pi*i * sum_i p_i q_i / n_i) of the
    character p with the element q, both element indices. The phase is
    k / L for the integer k = sum_i p_i q_i (L / n_i) mod L, L = lcm(n_i),
    and its root is read from one table per group."""
    group.residues_of(q)  # ValueError for an index outside the group
    (pairing,) = group._pairings(p, (q,))
    return pairing


class AllowedSet(Frozen):
    """Symmetric subset A = -A of a group, stored as a membership bitmask."""

    _fields = ("group", "mask")
    group: FiniteAbelianGroup
    mask: int

    def __init__(self, group: FiniteAbelianGroup, mask: int):
        f = group.order
        if not 0 <= mask < (1 << f):
            raise ValueError("membership mask out of range for group order")
        for i in range(f):
            if (mask >> i) & 1 and not (mask >> group.neg(i)) & 1:
                el = group.residues_of(i)
                raise ValueError(
                    f"allowed set is not symmetric: {el} is in A but its negation is not"
                )
        self._set(group=group, mask=mask)

    @cached_property
    def size(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def alpha(self) -> Fraction:
        """Density |A| / f as an exact rational."""
        return Fraction(self.size, self.group.order)

    @property
    def alpha_bar(self) -> Fraction:
        return 1 - self.alpha

    def complement(self) -> "AllowedSet":
        full = (1 << self.group.order) - 1
        return AllowedSet(self.group, self.mask ^ full)

    def contains_index(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """rows[a] is the bitmask of the colors b with b - a allowed, the
        set a + A: the edge check of a coloring with color a at one end."""
        translate = self.group.translate
        return tuple(translate(self.mask, a) for a in range(self.group.order))

    @cached_property
    def character_table(self) -> tuple[complex, ...]:
        """character_sum(self, p) for every character index p, built once
        per allowed set: every gamma_fourier call over it reads this one
        table."""
        return tuple(character_sum(self, p) for p in range(self.group.order))

    def __contains__(self, item) -> bool:
        """Membership of an element index or a residue tuple, False for a non-element."""
        try:
            index = item if isinstance(item, int) else self.group.index_of(tuple(item))
        except ValueError:  # residues out of range, or a tuple of the wrong length
            return False
        return index >= 0 and self.contains_index(index)

    def indices(self) -> tuple[int, ...]:
        return self._sides[0]

    @cached_property
    def _sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # the element indices of A and of its complement, listed once per set
        inside, outside = [], []
        for i in range(self.group.order):
            (inside if (self.mask >> i) & 1 else outside).append(i)
        return tuple(inside), tuple(outside)

    def __repr__(self):
        return f"AllowedSet(size={self.size}, f={self.group.order})"


def make_group(cyclic_orders) -> FiniteAbelianGroup:
    """Build a product of cyclic groups; rejects cyclic orders < 2, and a
    group order above MAX_GROUP_ORDER as soon as the running product passes it."""
    group = FiniteAbelianGroup(tuple(int(n) for n in cyclic_orders))
    order = 1
    for n in group.cyclic_orders:
        order *= n
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"group order exceeds cap {MAX_GROUP_ORDER}")
    return group


def allowed_interval(group: FiniteAbelianGroup, k: int) -> AllowedSet:
    """For cyclic Z/f: allow differences x with k < x < f - k.

    The complement is the interval [-k, k] of size 2k + 1, so the allowed
    set consists of the colors at circular distance more than k.
    """
    if len(group.cyclic_orders) != 1:
        raise ValueError("interval allowed sets need a single cyclic factor")
    f = group.order
    if k < 0:
        raise ValueError("k must be >= 0")
    if 2 * k + 1 > f:
        raise ValueError(f"2k+1 = {2 * k + 1} exceeds group order {f}")
    mask = 0
    for x in range(f):
        if k < x < f - k:
            mask |= 1 << x
    return AllowedSet(group, mask)


def allowed_hamming(n: int, k: int) -> AllowedSet:
    """In (Z/2)^n: allow differences of Hamming weight strictly above k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    group = make_group([2] * n)
    # the residues of an index of Z2^n are its bits
    mask = sum(1 << i for i in range(group.order) if i.bit_count() > k)
    return AllowedSet(group, mask)


def allowed_complement_identity(group: FiniteAbelianGroup) -> AllowedSet:
    """A = F - {0}: all differences except equality (proper colorings)."""
    full = (1 << group.order) - 1
    return AllowedSet(group, full ^ 1)


def allowed_explicit(group: FiniteAbelianGroup, elements) -> AllowedSet:
    """Allowed set from listed elements, each an index or a residue tuple.

    An index out of range or a tuple of the wrong length raises ValueError,
    any other spec TypeError. Symmetry A = -A is validated; the offending
    element is reported.
    """
    mask = 0
    for spec in elements:
        if isinstance(spec, (tuple, list)):
            spec = group.index_of(spec)
        elif not isinstance(spec, int):
            raise TypeError(f"cannot interpret {spec!r} as a group element")
        elif not 0 <= spec < group.order:
            raise ValueError(f"element index {spec} out of range 0..{group.order - 1}")
        mask |= 1 << spec
    return AllowedSet(group, mask)


def character_sum(allowed: AllowedSet, p: int) -> complex:
    """sum_{q in A} <p, q> over the allowed set, for the character index p,
    in min(|A|, f - |A|) pairings. The characters of p sum to f [p = 0] over
    the whole group, so when the complement is smaller the sum over A is
    that less the sum over the complement."""
    group = allowed.group
    inside, outside = allowed._sides
    if len(inside) <= len(outside):
        return sum(group._pairings(p, inside))
    whole = group.order if p == 0 else 0
    return whole - sum(group._pairings(p, outside))
