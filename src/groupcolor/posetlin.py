"""Exact rational polynomials and the incidence-algebra matrices on the
poset of bridgeless edge sets: zeta, Mobius, the edge-weighted zeta matrix
and the reciprocity transfer matrix built from it.

Each builder takes the point r as an exact rational or as a RationalPoly;
passing VARIABLE gives the symbolic matrix, and every matrix is a PolyMatrix
whose entries live in the ring r came from. Every builder reads one integer
tally per member H, from one walk over the edge masks M inside H and their
stored cores, never an EdgeSet: T[d] at E <= H is the signed count of the
masks with core E and |M| = |E| + d, mu(E, H) is (-1)^|H| sum_d T[d] and
M(r)(H, E) the integer polynomial sum_d T[d] r^d. J(r) and J(r)^-1 read the
Mobius table's keys at H, the E <= H, so J(r) sets r^(|H| - |M|) where M is
its own core. No builder reads the poset's down-sets; the vector paths in
gamma apply J(r)^-1 and M(r) by weighted Yates passes over K_v instead.

Matrix orientation: entry(h, e) multiplies coordinate e and contributes to
coordinate h, so (M x)_H = sum_E entry(H, E) x_E. With the empty graph
first in the linear extension, every matrix here is lower triangular, with
support on the comparable pairs E <= H.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from ._frozen import Frozen

if TYPE_CHECKING:  # pragma: no cover
    from .graphs import SubgraphPoset


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RationalPoly(Frozen):
    """Dense univariate polynomial with exact coefficients, int or Fraction.

    Coefficients are ascending; no trailing zeros are stored, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use RationalPoly.of")
        self._set(coeffs=coeffs)

    @classmethod
    def of(cls, coefficients) -> "RationalPoly":
        coeffs = [c if isinstance(c, int) else _as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "RationalPoly":
        return cls.of([c])

    @classmethod
    def monomial(cls, power: int, c=1) -> "RationalPoly":
        if power < 0:
            raise ValueError("negative power")
        return cls.of([0] * power + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            other = RationalPoly.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly.of(out)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RationalPoly":
        return self + (-other)

    def __rsub__(self, other) -> "RationalPoly":
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return RationalPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly.of(out)

    __rmul__ = __mul__

    def scale(self, c) -> "RationalPoly":
        if not isinstance(c, int):
            c = _as_fraction(c)
        return RationalPoly.of([c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "RationalPoly":
        if n < 0:
            raise ValueError("negative power")
        result = RationalPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def render(self, var: str = "r") -> str:
        """Canonical ascending form, e.g. "1 - 5r + 10r^2 - 8r^3"."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                vk = var if k == 1 else f"{var}^{k}"
                if mag == 1:
                    body = vk
                elif mag.denominator == 1:
                    body = f"{mag}{vk}"
                else:
                    body = f"({mag}){vk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RationalPoly({self.render()})"


# the formal variable itself
VARIABLE = RationalPoly.monomial(1)


def _ring_element(r):
    """A builder's point: a RationalPoly, or an exact rational as Fraction."""
    return r if isinstance(r, RationalPoly) else _as_fraction(r)


class PolyMatrix(Frozen):
    """Square matrix indexed by a subgraph poset, with entries that are all
    Fractions or all RationalPolys."""

    _fields = ("poset", "entries")
    poset: "SubgraphPoset"
    entries: tuple[tuple, ...]

    def __init__(self, poset: "SubgraphPoset", entries: tuple[tuple, ...]):
        n = len(poset)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entry grid does not match poset size")
        self._set(poset=poset, entries=entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, h: int, e: int):
        return self.entries[h][e]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Product over the nonzero entries of each row of both factors."""
        if other.poset is not self.poset and other.poset != self.poset:
            raise ValueError("matrices over different posets")
        zero = self.entries[0][0] * other.entries[0][0] * 0
        other_rows = [[(e, b) for e, b in enumerate(row) if b] for row in other.entries]
        rows = []
        for a_row in self.entries:
            out = [zero] * self.n
            for g, a in enumerate(a_row):
                if a:
                    for e, b in other_rows[g]:
                        out[e] = out[e] + a * b
            rows.append(tuple(out))
        return PolyMatrix(self.poset, tuple(rows))

    def render_rows(self, paper_order: bool = False) -> list[list[str]]:
        """Rows of entry strings, polynomials in r; paper_order lists the
        complete graph first (reversed linear extension) for side-by-side
        comparison."""
        idx = range(self.n - 1, -1, -1) if paper_order else range(self.n)
        return [[str(self.entries[h][e]) for e in idx] for h in idx]

    def is_identity(self) -> bool:
        return not any(
            x - 1 if h == e else x
            for h, row in enumerate(self.entries)
            for e, x in enumerate(row)
        )


def _tally(poset: "SubgraphPoset", h: int) -> dict[int, list[int]]:
    """T[d] for each member E <= H = member h, keyed by E: the sum of
    (-1)^|M| over the edge masks M <= H with core M = E and |M| - |E| = d."""
    core = poset.cores
    index, sizes = poset.index_by_mask, poset.sizes
    top = poset.masks[h]
    tally: dict[int, list[int]] = {}
    m = top
    while True:
        e = index[core[m]]
        if e not in tally:
            tally[e] = [0] * (sizes[h] - sizes[e] + 1)
        size = m.bit_count()
        tally[e][size - sizes[e]] += -1 if size & 1 else 1
        if not m:
            return tally
        m = (m - 1) & top


@lru_cache(maxsize=None)
def mobius_table(poset: "SubgraphPoset") -> tuple[dict[int, int], ...]:
    """mu(E, H) for every pair E <= H, one dict per H keyed by E: the sum
    over edge masks M <= H with core M = E of (-1)^(|H| - |M|), by Rota's
    closure theorem for the interior operator M -> core M ("On the
    foundations of combinatorial theory I", 1964), read off the tally."""
    return tuple(
        {e: (-1) ** top * sum(t) for e, t in _tally(poset, h).items()}
        for h, top in enumerate(poset.sizes)
    )


def _power_table(x, max_power: int) -> list:
    out = [x**0]
    for _ in range(max_power):
        out.append(out[-1] * x)
    return out


def _on_mobius_keys(poset: "SubgraphPoset", r, times_mu: bool) -> PolyMatrix:
    """entry(H, E) = r^(|H| - |E|), times mu(E, H) if times_mu, at every key
    E of mobius_table(poset)[H]."""
    r = _ring_element(r)
    sizes = poset.sizes
    powers = _power_table(r, max(sizes))
    rows = [[r * 0] * len(poset) for _ in sizes]
    for row, top, mu_h in zip(rows, sizes, mobius_table(poset)):
        for e, mu in mu_h.items():
            row[e] = powers[top - sizes[e]] * mu if times_mu else powers[top - sizes[e]]
    return PolyMatrix(poset, tuple(map(tuple, rows)))


def weighted_zeta_at(poset: "SubgraphPoset", r) -> PolyMatrix:
    """Edge-weighted zeta J(r): entry(H, E) = r^(|H| - |E|) when E <= H.
    The keys of the Mobius table at H are exactly those E: each is the core
    of a mask inside H, and each E <= H is the core of the mask E itself."""
    return _on_mobius_keys(poset, r, False)


def weighted_zeta_inverse_at(poset: "SubgraphPoset", r) -> PolyMatrix:
    """Inverse of J(r): entry(H, E) = mu(E, H) r^(|H| - |E|), at the same
    keys E <= H of the Mobius table."""
    return _on_mobius_keys(poset, r, True)


def zeta_matrix(poset: "SubgraphPoset") -> PolyMatrix:
    """Containment indicator: entry(H, E) = 1 iff E is a subgraph of H; J(1)."""
    return weighted_zeta_at(poset, 1)


def mobius_matrix(poset: "SubgraphPoset") -> PolyMatrix:
    """Exact inverse of the zeta matrix; entries are Mobius values."""
    return weighted_zeta_inverse_at(poset, 1)


def transfer_at(poset: "SubgraphPoset", r) -> PolyMatrix:
    """Reciprocity transfer matrix M(r) = J(1 - r) (-1)^e J(r)^(-1): entry
    (H, E) sums (-1)^|M| r^(|M| - |E|) over the edge masks M <= H with
    core M = E: sum_d T[d] r^d, one route for every ring. It meets
    M(r) J(r) = J(1 - r) (-1)^e, which fixes it: a bridgeless E lies inside
    M exactly when it lies inside core M, so row H of M(r) J(r) at E is a
    binomial sum over the masks between E and H."""
    r = _ring_element(r)
    powers = _power_table(r, max(poset.sizes))
    zero = r * 0
    rows = [[zero] * len(poset) for _ in poset.sizes]
    for h, row in enumerate(rows):
        for e, t in _tally(poset, h).items():
            row[e] = sum([c * x for c, x in zip(t, powers) if c], zero)
    return PolyMatrix(poset, tuple(map(tuple, rows)))
