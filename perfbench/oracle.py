"""Reference computations that check the program's results.

Everything here is written from the definitions with numpy and shares no
code with ``tward``: identity verdicts with their first failing triple,
left division, the Cayley and squaring kernels, congruences, brute-force
canonical forms and automorphism counts, group axioms, the twisted Ward
quasigroup of a group presentation, and an isomorphism search driven by a
generating set.  Tables are numpy arrays ``T`` with ``T[x, y] = x*y``.
"""
from __future__ import annotations

import itertools

import numpy as np

# Published counts: ell(1..6) twisted Ward left quasigroups, q(1..11) twisted
# Ward quasigroups, p(1..11) partitions, all up to isomorphism.
ELL = (1, 3, 5, 14, 11, 31)
Q = (1, 1, 2, 5, 4, 5, 6, 25, 14, 9, 10)
P = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56)

KINDS = ("rack", "rump", "twisted_ward", "ward", "rack_div", "rump_div", "twisted_ward_div")

# The correspondence between braiding kinds and identities: a left
# quasigroup t satisfies the identity iff to_braiding(t, kind) is a braiding,
# and the division form iff induced_bullet(t, kind) is one.
BRAIDING_IDENTITY = {"derived": "rack", "involutive": "rump", "idempotent": "twisted_ward"}
BRAIDING_DIV_IDENTITY = {
    "derived": "rack_div",
    "involutive": "rump_div",
    "idempotent": "twisted_ward_div",
}


def as_array(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.intp)


def is_left_quasigroup(T: np.ndarray) -> bool:
    n = len(T)
    return bool((np.sort(T, axis=1) == np.arange(n)).all())


def is_quasigroup(T: np.ndarray) -> bool:
    return is_left_quasigroup(T) and is_left_quasigroup(T.T)


def is_permutational(T: np.ndarray) -> bool:
    return bool((T == T[0]).all())


def _sides(S: np.ndarray, kind: str):
    """Both sides of an identity over a stack ``S`` of shape (B, n, n), as
    arrays that broadcast to (B, n, n, n) indexed [b, x, y, z].

    The division forms are YB1, x o (y o z) = (x o y) o ((x . y) o z), for
    the bullet that induced_bullet attaches to the circle operation: x for
    derived, (x o y) \\ x for involutive, (x o y) \\ (x o y) for idempotent.
    """
    B, n, _ = S.shape
    b = np.arange(B).reshape(B, 1, 1, 1)
    x = np.arange(n).reshape(1, n, 1, 1)
    y = x.reshape(1, 1, n, 1)
    z = x.reshape(1, 1, 1, n)

    def op(u, v):
        return S[b, u, v]

    xy, xz, yz = op(x, y), op(x, z), op(y, z)
    if kind == "rack":
        return op(xy, xz), op(x, yz)
    if kind == "rump":
        return op(xy, xz), op(op(y, x), yz)
    if kind == "twisted_ward":
        return op(xy, xz), op(op(y, y), yz)
    if kind == "ward":
        return op(xy, xz), yz
    D = np.argsort(S, axis=2)  # D[b, u, v] = u \ v when row u is a permutation
    if kind == "rack_div":
        bullet = x
    elif kind == "rump_div":
        bullet = D[b, xy, x]
    elif kind == "twisted_ward_div":
        bullet = D[b, xy, xy]
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    return op(x, yz), op(xy, op(bullet, z))


def verdict(T: np.ndarray, kind: str):
    """(holds, first failing (x, y, z) in x, y, z order or None)."""
    n = len(T)
    lhs, rhs = _sides(T[None], kind)
    bad = np.broadcast_to(lhs != rhs, (1, n, n, n)).reshape(-1)
    if not bad.any():
        return True, None
    x, y, z = np.unravel_index(int(bad.argmax()), (n, n, n))
    return False, (int(x), int(y), int(z))


def holds_batched(S: np.ndarray, kind: str, chunk: int = 16384) -> np.ndarray:
    """Verdict of one identity for every table of a (B, n, n) stack."""
    out = np.empty(len(S), dtype=bool)
    for lo in range(0, len(S), chunk):
        part = S[lo : lo + chunk]
        lhs, rhs = _sides(part, kind)
        out[lo : lo + chunk] = (lhs == rhs).all(axis=(1, 2, 3))
    return out


def blocks_of(labels) -> tuple[tuple[int, ...], ...]:
    """Classes of equal labels, each sorted, ordered by their least element."""
    classes: dict = {}
    for x, lab in enumerate(labels):
        classes.setdefault(lab, []).append(x)
    return tuple(sorted(tuple(c) for c in classes.values()))


def cayley_blocks(T: np.ndarray):
    """Classes of elements with equal left translations (rows)."""
    return blocks_of(tuple(row) for row in T.tolist())


def squaring_blocks(T: np.ndarray):
    """Classes of elements with equal squares x*x."""
    return blocks_of(np.diagonal(T).tolist())


def is_congruence(T: np.ndarray, blocks) -> bool:
    """Blocks compatible with * and with left division."""
    n = len(T)
    block_of = np.empty(n, dtype=np.intp)
    for i, block in enumerate(blocks):
        block_of[list(block)] = i
    k = len(blocks)
    key = (block_of[:, None] * k + block_of[None, :]).ravel()
    for table in (T, np.argsort(T, axis=1)):
        pairs = set(zip(key.tolist(), block_of[table].ravel().tolist()))
        if len(pairs) != len(set(key.tolist())):
            return False
    return True


def relabelings(T: np.ndarray) -> np.ndarray:
    """All n! tables p.T with (p.T)[p(x), p(y)] = p(T[x, y]), flattened."""
    n = len(T)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    invs = np.argsort(perms, axis=1)
    k = np.arange(len(perms)).reshape(-1, 1, 1)
    out = perms[k, T[invs[:, :, None], invs[:, None, :]]]
    return out.reshape(len(perms), n * n)


def canonical_rows(T: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling, by brute force (small n only)."""
    n = len(T)
    flat = relabelings(T)
    least = flat[np.lexsort(flat.T[::-1])[0]]
    return tuple(tuple(r) for r in least.reshape(n, n).tolist())


def automorphism_count(T: np.ndarray) -> int:
    return int((relabelings(T) == T.reshape(-1)).all(axis=1).sum())


def is_group_with_identity_0(G: np.ndarray) -> bool:
    n = len(G)
    e = np.arange(n)
    if not (is_quasigroup(G) and (G[0] == e).all() and (G[:, 0] == e).all()):
        return False
    return bool((G[G[:, :, None], e[None, None, :]] == G[e[:, None, None], G[None, :, :]]).all())


def is_automorphism(G: np.ndarray, psi) -> bool:
    psi = np.asarray(psi, dtype=np.intp)
    n = len(G)
    if sorted(psi.tolist()) != list(range(n)):
        return False
    return bool((psi[G] == G[psi[:, None], psi[None, :]]).all())


def twq_table(G: np.ndarray, psi, c: int) -> np.ndarray:
    """x*y = c . psi(x^-1 y) in the group G (identity 0)."""
    psi = np.asarray(psi, dtype=np.intp)
    inv = np.argmax(G == 0, axis=1)
    n = len(G)
    return G[c, psi[G[inv[:, None], np.arange(n)[None, :]]]]


def _generators(T: np.ndarray) -> list[int]:
    """A generating set of (X, *), chosen greedily."""
    gens: list[int] = []
    span: set[int] = set()
    for e in range(len(T)):
        if e not in span:
            gens.append(e)
            span = _closure(T, gens)
    return gens


def _closure(T: np.ndarray, elems) -> set[int]:
    span = set(elems)
    while True:
        new = {int(T[a, b]) for a in span for b in span} - span
        if not new:
            return span
        span |= new


def _extend(T1, T2, images: dict[int, int]) -> dict[int, int] | None:
    """Close a partial map under m(a*b) = m(a)*m(b); None on a clash."""
    m = dict(images)
    changed = True
    while changed:
        changed = False
        for a, ma in list(m.items()):
            for b, mb in list(m.items()):
                c, mc = int(T1[a, b]), int(T2[ma, mb])
                seen = m.get(c)
                if seen is None:
                    m[c] = mc
                    changed = True
                elif seen != mc:
                    return None
    if len(set(m.values())) != len(m):
        return None
    return m


def isomorphism(T1: np.ndarray, T2: np.ndarray) -> tuple[int, ...] | None:
    """Some bijection m with m(x*y) = m(x)*m(y), found by backtracking over
    the images of a generating set of T1; None if there is none."""
    n = len(T1)
    if len(T2) != n:
        return None
    gens = _generators(T1)

    def rec(i: int, partial: dict[int, int]):
        if i == len(gens):
            m = np.array([partial[x] for x in range(n)], dtype=np.intp)
            if (m[T1] == T2[m[:, None], m[None, :]]).all():
                return tuple(m.tolist())
            return None
        for v in range(n):
            ext = _extend(T1, T2, {**partial, gens[i]: v})
            if ext is not None:
                found = rec(i + 1, ext)
                if found is not None:
                    return found
        return None

    return rec(0, {})
