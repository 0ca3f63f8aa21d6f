"""Permutations on {0..n-1} and small explicit permutation groups."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ClosureOverflowError, StructureError
from .tables import CayleyTable, _perm_arrays, cycle_type, find_all_isomorphisms

Perm = tuple[int, ...]

CLOSURE_CAP = 10**6


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(f: Perm, g: Perm) -> Perm:
    """f after g: (f o g)(i) = f(g(i))."""
    return tuple(map(f.__getitem__, g))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


@lru_cache(maxsize=4)
def least_conjugate_rows(n: int) -> np.ndarray:
    """For each row p of _perm_arrays(n)[1] (lex order), the first row of p's cycle type,
    keyed by the fixed points of p, p^2, ..., p^n as digits in base n + 1."""
    lex = _perm_arrays(n)[1]
    key = np.zeros(len(lex), dtype=np.int64)
    power = lex
    for _ in range(n):
        key = key * (n + 1) + (power == np.arange(n)).sum(axis=1)
        power = np.take_along_axis(lex, power, axis=1)
    first: dict[int, int] = {}
    return np.array([first.setdefault(k, r) for r, k in enumerate(key.tolist())])


def format_perm(p: Perm) -> str:
    return " ".join(str(v) for v in p)


def parse_perm(text: str) -> Perm:
    p = tuple(int(v) for v in text.split())
    if not is_perm(p):
        raise ValueError(f"{text!r} is not a permutation")
    return p


@dataclass(frozen=True)
class PermGroup:
    degree: int
    elements: frozenset[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements


def closure(generators: Iterable[Perm], degree: int) -> PermGroup:
    """Group generated by the given permutations, as an explicit element set.

    Breadth-first orbit of the identity under right multiplication.
    """
    gens = tuple(dict.fromkeys(tuple(g) for g in generators))
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise ValueError("generators must be permutations of the stated degree")
    elems = {identity_perm(degree)}
    frontier = list(elems)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                p = compose(h, g)
                if p not in elems:
                    elems.add(p)
                    if len(elems) > CLOSURE_CAP:
                        raise ClosureOverflowError(CLOSURE_CAP)
                    new.append(p)
        frontier = new
    return PermGroup(degree, frozenset(elems))


@dataclass(frozen=True)
class MultiplicationGroups:
    lmlt: PermGroup
    dis_plus: PermGroup
    dis_minus: PermGroup
    dis: PermGroup


def multiplication_groups(t: CayleyTable) -> MultiplicationGroups:
    """Left multiplication group and the three displacement groups of a left
    quasigroup.  Dis+ and Dis- use the fixed-base generators L_e L_x^{-1} and
    L_x^{-1} L_e with e = 0."""
    n, rows, ld = t.n, t.rows, t._ldiv_rows  # ld first: StructureError before any closure
    lmlt = closure(rows, n)
    plus_gens = [compose(rows[0], inv) for inv in ld]
    minus_gens = [compose(inv, rows[0]) for inv in ld]
    dis_plus = closure(plus_gens, n)
    dis_minus = closure(minus_gens, n)
    dis = closure(plus_gens + minus_gens, n)
    return MultiplicationGroups(lmlt, dis_plus, dis_minus, dis)


def is_regular(g: PermGroup) -> bool:
    """True iff g acts regularly: |g| = degree and g is transitive on 0."""
    if g.order != g.degree:
        return False
    return {p[0] for p in g.elements} == set(range(g.degree))


def is_group_isotope(t: CayleyTable) -> bool:
    """A quasigroup is isotopic to a group iff Dis+ acts regularly."""
    if not t.is_quasigroup:
        raise StructureError("group isotopy test requires a quasigroup")
    return is_regular(multiplication_groups(t).dis_plus)


def automorphism_group(t: CayleyTable) -> PermGroup:
    """All permutations pi with pi(x*y) = pi(x)*pi(y), as a PermGroup."""
    return PermGroup(t.n, frozenset(find_all_isomorphisms(t, t)))


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Perm
    size: int


def conjugacy_classes(g: PermGroup) -> list[ConjugacyClass]:
    """Conjugacy classes of g, sorted by (size, least representative)."""
    remaining = set(g.elements)
    pairs = [(h, inverse(h)) for h in g.elements]
    classes = []
    while remaining:
        x = min(remaining)  # least of its class: the whole class still remains
        orbit = {compose(compose(h, x), h_inv) for h, h_inv in pairs}
        remaining -= orbit
        classes.append(ConjugacyClass(x, len(orbit)))
    classes.sort(key=lambda c: (c.size, c.representative))
    return classes
