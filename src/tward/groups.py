"""Finite group recognition, enumeration up to isomorphism (n <= 12), and the
counting functions q(n) and p(n)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import StructureError
from .perms import (
    Perm,
    PermGroup,
    automorphism_group,
    compose,
    conjugacy_classes,
    identity_perm,
)
from .tables import CayleyTable, table_isomorphic

MAX_GROUP_ORDER = 12

# classical number of groups of order n, used as a test fixture only
CLASSICAL_GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5)


@dataclass(frozen=True)
class FiniteGroup:
    """A group presented by its Cayley table, with identity 0.  Construction
    checks the group axioms and raises StructureError naming the first that
    fails."""

    table: CayleyTable

    def __post_init__(self):
        ident = _group_identity(self.table)
        if ident != 0:
            raise StructureError(f"the identity is {ident}, not 0")

    @property
    def n(self) -> int:
        return self.table.n

    def mul(self, x: int, y: int) -> int:
        return self.table.rows[x][y]

    def inv(self, x: int) -> int:
        return self.table.rows[x].index(0)

    def is_abelian(self) -> bool:
        r = self.table.rows
        return all(r[x][y] == r[y][x] for x in range(self.n) for y in range(x))

    def to_text(self) -> str:
        return self.table.to_text(comments=["identity 0"])

    @cached_property
    def automorphisms(self) -> PermGroup:
        """Aut(G), computed once per group object."""
        return automorphism_group(self.table)

    @cached_property
    def automorphism_reps(self) -> tuple[Perm, ...]:
        """The least member of each conjugacy class of Aut(G), in the order
        of conjugacy_classes: one twisted Ward quasigroup class each."""
        return tuple(c.representative for c in conjugacy_classes(self.automorphisms))


def _group_identity(t: CayleyTable) -> int:
    """The identity of a group table, in the table's own labels.  Raises
    StructureError naming the first failing axiom."""
    if not t.is_quasigroup:
        raise StructureError("not a quasigroup")
    n = t.n
    rows = t.rows
    # columns are permutations, so at most one row is the identity row
    ident = next((e for e, row in enumerate(rows) if row == tuple(range(n))), None)
    if ident is None or any(rows[x][ident] != x for x in range(n)):
        raise StructureError("no two-sided identity element")
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    raise StructureError(
                        f"associativity fails at ({x},{y},{z}): "
                        f"({x}*{y})*{z} = {rows[xy][z]} but {x}*({y}*{z}) = {rows[x][rows[y][z]]}"
                    )
    return ident


def as_group(t: CayleyTable) -> FiniteGroup:
    """The group of t in its own labels, whose identity must be 0: an
    automorphism given with it is read in the same labels.  Raises
    StructureError naming the first failing axiom."""
    return FiniteGroup(t)


def is_group(t: CayleyTable) -> bool:
    """True iff t is a group table, with its identity at any label."""
    try:
        _group_identity(t)
        return True
    except StructureError:
        return False


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _inner_automorphism(g: FiniteGroup, h0: int) -> Perm:
    ih0 = g.inv(h0)
    return tuple(g.mul(g.mul(h0, h), ih0) for h in range(g.n))


def _cyclic_extension_table(h: FiniteGroup, p: int, powers: list[Perm], h0: int) -> CayleyTable:
    """Group on H x C_p from the extension datum (alpha, h0) with
    alpha(h0) = h0 and alpha^p = conjugation by h0; powers[i] is alpha^i.

    Element (a, i) gets label i*|H| + a; (a,i)(b,j) = (a alpha^i(b) h0^k, i+j-kp).
    """
    m = h.n
    n = m * p
    rows = [[0] * n for _ in range(n)]
    for i in range(p):
        for a in range(m):
            x = i * m + a
            for j in range(p):
                for b in range(m):
                    y = j * m + b
                    c = h.mul(a, powers[i][b])
                    if i + j >= p:
                        c = h.mul(c, h0)
                    rows[x][y] = ((i + j) % p) * m + c
    return CayleyTable.from_rows(rows)


@lru_cache(maxsize=None)
def enumerate_groups(n: int) -> tuple[FiniteGroup, ...]:
    """All groups of order n up to isomorphism, 1 <= n <= 12.

    Built recursively: every group of solvable order has a normal subgroup of
    prime index p, hence arises as a cyclic extension of a group of order n/p
    by an automorphism alpha and an element h0 with alpha(h0) = h0 and
    alpha^p equal to conjugation by h0.  All orders <= 12 are solvable.
    """
    if not (1 <= n <= MAX_GROUP_ORDER):
        raise ValueError(f"group enumeration supports 1 <= n <= {MAX_GROUP_ORDER}")
    if n == 1:
        return (FiniteGroup(CayleyTable.from_rows([[0]])),)
    found: list[FiniteGroup] = []
    for p in (d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)):
        for h in enumerate_groups(n // p):
            inner = [_inner_automorphism(h, h0) for h0 in range(h.n)]
            for alpha in sorted(h.automorphisms.elements):
                powers = [identity_perm(h.n)]
                for _ in range(p):
                    powers.append(compose(alpha, powers[-1]))
                for h0 in range(h.n):
                    if alpha[h0] != h0 or powers[p] != inner[h0]:
                        continue
                    g = as_group(_cyclic_extension_table(h, p, powers, h0))
                    if not any(table_isomorphic(g.table, other.table) for other in found):
                        found.append(g)
    found.sort(key=lambda g: g.table.rows)
    return tuple(found)


def q_count(n: int) -> int:
    """Number of twisted Ward quasigroups of order n up to isomorphism:
    the sum of conjugacy-class counts of Aut(G) over groups G of order n."""
    return sum(len(g.automorphism_reps) for g in enumerate_groups(n))


def partition_number(n: int) -> int:
    """Partitions of n into nonincreasing positive parts, by dynamic
    programming over the largest part."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]
