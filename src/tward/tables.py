"""Cayley-table algebra for finite binary operations on {0..n-1}.

A table ``t`` stores ``t[x][y] = x*y``.  Left quasigroups are tables whose
rows are permutations; quasigroups additionally have permutation columns.
Everything here is immutable and safe to share.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import IdentityViolationError, StructureError

# Each identity reads L_a L_b = L_c L_d as maps of z, with L_a the row of a, (a, b, c, d)
# computed from (rows, ld, x, y) and ld the left division rows; c = None is the identity map.
# check_identity skips a pair (x, y) with (a, b) == (c, d), where both sides are the same
# map and no z can fail: x = y for rump and twisted_ward, y = x for an idempotent x for
# rack and rack_div, y = x ldiv x for rump_div and twisted_ward_div.
_TRANSLATIONS = {
    "rack": lambda r, ld, x, y: (r[x][y], x, x, y),
    "rump": lambda r, ld, x, y: (r[x][y], x, r[y][x], y),
    "twisted_ward": lambda r, ld, x, y: (r[x][y], x, r[y][y], y),
    "ward": lambda r, ld, x, y: (r[x][y], x, None, y),
    "rack_div": lambda r, ld, x, y: (x, y, r[x][y], x),
    "rump_div": lambda r, ld, x, y: (x, y, (c := r[x][y]), ld[c][x]),
    "twisted_ward_div": lambda r, ld, x, y: (x, y, (c := r[x][y]), ld[c][c]),
}
IDENTITY_KINDS = tuple(_TRANSLATIONS)
# Below this order check_identity and braidings.is_braiding scan every row in Python; from it,
# row x = 0 only, where almost every failing table fails, and a table that passes it is judged
# in one numpy pass over all n^3 triples (is_braiding runs that pass at every order once its
# scan holds).  The pass costs several microseconds at any n: below order 7 that is more than
# check_identity's full scan of a holding table.
_ARRAY_ORDER = 7


@lru_cache(maxsize=None)
def _carrier(n: int) -> frozenset:
    return frozenset(range(n))


def _index(v) -> int:
    """v as an int, for an integer v (numpy integers and bools pass); ValueError otherwise."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"entry {v!r} is not an integer") from None


def _check_row(row: Sequence, n: int) -> None:
    """Raise ValueError at an entry that is not an integer in 0..n-1 (numpy integers pass)."""
    for v in row:
        if not (0 <= _index(v) < n):
            raise ValueError(f"entry {v} out of range 0..{n - 1}")


@dataclass(frozen=True)
class CayleyTable:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.rows
        n = len(rows)
        carrier = _carrier(n)
        lq = True
        # rows other than a tuple of int tuples (lists, an ndarray, numpy integers) are
        # stored converted, so that every table hashes and compares by its entries
        exact = type(rows) is tuple
        for row in rows:
            if len(row) != n:
                raise ValueError("table is not square")
            if type(row) is not tuple:
                exact = False
            try:
                s = set(row)
                # sum() of Python ints is an int; a float, Fraction or numpy entry changes its type
                ints = s <= carrier and type(sum(row)) is int
            except TypeError:  # an unhashable entry or an unsummable mix
                ints = False
            if not ints:
                _check_row(row, n)
                exact = False
            lq = lq and len(s) == n
        if not exact:
            object.__setattr__(self, "rows", tuple(tuple(int(v) for v in row) for row in rows))
        # the validation pass has decided the flag; prime its cache
        object.__setattr__(self, "is_left_quasigroup", lq)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "CayleyTable":
        return cls(tuple(tuple(map(_index, row)) for row in rows))

    @classmethod
    def _derived(cls, rows: tuple[tuple[int, ...], ...]) -> "CayleyTable":
        """A table over rows computed from a validated table, built without
        validation: the caller guarantees a square tuple of int tuples over
        0..n-1."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @cached_property
    def is_left_quasigroup(self) -> bool:
        """Every row is a permutation."""
        n = len(self.rows)
        return all(len(set(row)) == n for row in self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def op(self, x: int, y: int) -> int:
        self._check_range(x, y)
        return self.rows[x][y]

    def _check_range(self, *elems: int) -> None:
        for e in elems:
            if not (0 <= e < self.n):
                raise ValueError(f"element {e} out of range 0..{self.n - 1}")

    @cached_property
    def _ldiv_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows inverted, x ldiv y = _ldiv_rows[x][y]; StructureError unless a left quasigroup."""
        _require_lq(self)
        n = len(self.rows)
        out = []
        for row in self.rows:
            inv = [0] * n
            for i, v in enumerate(row):
                inv[v] = i
            out.append(tuple(inv))
        return tuple(out)

    @cached_property
    def _row_profiles(self) -> tuple[tuple[bool, tuple[int, ...], bool], ...]:
        """Per x, invariants of row x under relabeling: whether it is a permutation,
        its cycle type or else its sorted value multiplicities, and whether x is idempotent."""
        return tuple(
            (perm, cycle_type(row) if perm else tuple(sorted(map(row.count, set(row)))), row[x] == x)
            for x, row in enumerate(self.rows)
            for perm in (self.is_left_quasigroup or len(set(row)) == len(row),)
        )

    @cached_property
    def is_quasigroup(self) -> bool:
        return self.is_left_quasigroup and all(
            len(set(col)) == self.n for col in self.columns()
        )

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows))

    def ldiv(self, x: int, y: int) -> int:
        """The unique z with x*z = y, in a left quasigroup."""
        self._check_range(x, y)
        return self._ldiv_rows[x][y]

    def rdiv(self, x: int, y: int) -> Optional[int]:
        """Some z with z*y = x, or None when column y does not contain x.

        When column y is a permutation the z is unique.
        """
        self._check_range(x, y)
        for z in range(self.n):
            if self.rows[z][y] == x:
                return z
        return None

    def relabel(self, pi: Sequence[int]) -> "CayleyTable":
        """Simultaneous relabeling: new[pi(x)][pi(y)] = pi(old[x][y])."""
        pi = tuple(map(_index, pi))
        if sorted(pi) != list(range(self.n)):
            raise ValueError("relabeling is not a permutation of the carrier")
        inv = sorted(range(self.n), key=pi.__getitem__)  # pi^-1: new[i][j] = pi(old[inv i][inv j])
        rows = [self.rows[x] for x in inv]
        return CayleyTable._derived(tuple(tuple([pi[row[y]] for y in inv]) for row in rows))

    def to_text(self, comments: Sequence[str] = ()) -> str:
        lines = [f"# {c}" for c in comments]
        lines.append(str(self.n))
        lines.extend(" ".join(f"{v:d}" for v in row) for row in self.rows)  # bools as ints
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "CayleyTable":
        data = _data_lines(text)
        if not data:
            raise ValueError("empty table file")
        try:
            n = int(data[0])
        except ValueError:
            raise ValueError(f"expected element count, got {data[0]!r}") from None
        if n < 1:
            raise ValueError(f"element count must be at least 1, got {n}")
        if len(data) != n + 1:
            raise ValueError(f"expected {n} rows, got {len(data) - 1}")
        rows = []
        for ln in data[1 : n + 1]:
            row = [int(v) for v in ln.split()]
            if len(row) != n:
                raise ValueError(f"row {ln!r} does not have {n} entries")
            rows.append(row)
        return cls.from_rows(rows)


def _data_lines(text: str) -> list[str]:
    """Lines that are not blank, '#' comments or the CLI's 'RESULT:' line."""
    return [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith(("#", "RESULT:"))]


@dataclass(frozen=True)
class StructureFlags:
    is_left_quasigroup: bool
    is_quasigroup: bool
    is_permutational: bool
    is_faithful: bool


def classify_structure(t: CayleyTable) -> StructureFlags:
    rows = t.rows
    return StructureFlags(
        is_left_quasigroup=t.is_left_quasigroup,
        is_quasigroup=t.is_quasigroup,
        is_permutational=all(r == rows[0] for r in rows),
        is_faithful=len(set(rows)) == t.n,
    )


def _require_lq(t: CayleyTable) -> None:
    if not t.is_left_quasigroup:
        raise StructureError("table is not a left quasigroup")


class _ArrayRows:
    """Reads rows[x][y] as array[x, y], so that the _TRANSLATIONS formulas
    evaluate on index arrays x and y."""

    __slots__ = ("array", "x")

    def __init__(self, array: np.ndarray, x=None):
        self.array, self.x = array, x

    def __getitem__(self, i):
        return _ArrayRows(self.array, i) if self.x is None else self.array[self.x, i]


@lru_cache(maxsize=None)
def _triple_grids(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays x, y and z that broadcast to the n^3 triples (x, y, z) in
    xyz order, read-only: every caller shares them."""
    a = np.arange(n, dtype=np.intp)
    a.flags.writeable = False
    return a[:, None, None], a[None, :, None], a


def _first_failing_triple(rows, ld, translations) -> Optional[tuple[int, int, int]]:
    """The first triple in xyz order where L_a L_b = L_c L_d fails, or None,
    with (a, b, c, d) read from translations for all pairs (x, y) at once."""
    n = len(rows)
    table = np.array(rows, dtype=np.intp)
    x, y, z = _triple_grids(n)
    ld = None if ld is None else _ArrayRows(np.array(ld, dtype=np.intp))
    a, b, c, d = translations(_ArrayRows(table), ld, x, y)
    right = table[d, z]
    if c is not None:
        right = table[c, right]
    bad = (table[a, table[b, z]] != right).ravel()  # one side varies with x and y: n^3 entries
    i = int(bad.argmax())
    return (i // (n * n), i // n % n, i % n) if bad[i] else None


def check_identity(t: CayleyTable, kind: str, witness: bool = False):
    """Check one of the named identities over all n^3 triples (x, y, z).

    Row x = 0 is scanned in Python and stops at its first failing triple.
    Below order _ARRAY_ORDER the scan goes on through every row; from it, a
    table that passes row 0 is judged in one numpy pass that finds the first
    failing triple in xyz order, the one the scan would stop at.

    With ``witness=True`` returns (verdict, first failing triple or None).
    """
    try:
        translations = _TRANSLATIONS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown identity kind {kind!r}") from None
    _require_lq(t)
    rows = t.rows
    n = len(rows)
    ld = t._ldiv_rows if kind.endswith("_div") else None
    identity = range(n)
    for x in range(n if n < _ARRAY_ORDER else 1):
        for y in range(n):
            a, b, c, d = translations(rows, ld, x, y)
            if a == c and b == d:  # the same map on both sides
                continue
            A, B, D = rows[a], rows[b], rows[d]
            C = identity if c is None else rows[c]
            for z in range(n):
                if A[B[z]] != C[D[z]]:
                    return (False, (x, y, z)) if witness else False
    wit = None if n < _ARRAY_ORDER else _first_failing_triple(rows, ld, translations)
    return (wit is None, wit) if witness else wit is None


@dataclass(frozen=True)
class Partition:
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for v in block:
                if v in seen:
                    raise ValueError(f"element {v} in two blocks")
                seen.add(v)
        if seen != set(range(len(seen))):
            raise ValueError("blocks do not cover a range 0..n-1")

    @classmethod
    def from_assignment(cls, labels: Sequence) -> "Partition":
        by_label: dict = {}
        for x, lab in enumerate(labels):
            by_label.setdefault(lab, []).append(x)
        blocks = sorted((tuple(sorted(b)) for b in by_label.values()), key=lambda b: b[0])
        return cls(tuple(blocks))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, block in enumerate(self.blocks):
            for v in block:
                out[v] = i
        return tuple(out)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def cayley_kernel(t: CayleyTable) -> Partition:
    """x ~ y iff the rows (left translations) of x and y coincide."""
    _require_lq(t)
    return Partition.from_assignment(t.rows)


def squaring_map(t: CayleyTable) -> tuple[int, ...]:
    _require_lq(t)
    return tuple(t.rows[x][x] for x in range(t.n))


def squaring_kernel(t: CayleyTable) -> Partition:
    """x == y iff x*x = y*y."""
    return Partition.from_assignment(squaring_map(t))


def is_congruence(t: CayleyTable, p: Partition) -> bool:
    """True iff the blocks of p are compatible with * and with left division.

    Only * is checked, as in a finite left quasigroup that implies left
    division: if y ~ y' then x*y ~ x*y', so L_x maps blocks into blocks and,
    being onto, permutes the finitely many blocks; if x ~ x' and y ~ y', then
    x*(x ldiv y) = y ~ y' = x'*(x' ldiv y') ~ x*(x' ldiv y'), so x ldiv y ~
    x' ldiv y' as the map L_x induces on blocks is injective."""
    _require_lq(t)
    if p.n != t.n:
        raise ValueError("partition size does not match the table")
    bo = p.block_of
    seen: dict[tuple[int, int], int] = {}
    for x, row in enumerate(t.rows):
        bx = bo[x]
        for y, v in enumerate(row):
            b = bo[v]
            if seen.setdefault((bx, bo[y]), b) != b:
                return False
    return True


@dataclass(frozen=True)
class KernelReport:
    block_sizes_sim: tuple[int, ...]
    block_sizes_equiv: tuple[int, ...]
    product_law_holds: bool


def kernel_size_report(t: CayleyTable) -> KernelReport:
    """Block sizes of the Cayley and squaring kernels of a twisted Ward left
    quasigroup, and whether n equals (#sim blocks) * (#equiv blocks)."""
    if not check_identity(t, "twisted_ward"):
        raise IdentityViolationError("table is not a twisted Ward left quasigroup")
    sim = cayley_kernel(t)
    equiv = squaring_kernel(t)
    return KernelReport(
        block_sizes_sim=sim.block_sizes(),
        block_sizes_equiv=equiv.block_sizes(),
        product_law_holds=t.n == len(sim.blocks) * len(equiv.blocks),
    )


def quadrangle_criterion(t: CayleyTable) -> bool:
    """Quadrangle criterion for quasigroups (equivalent to group isotopy).

    For each pair (a1, a2) put alpha = L_{a2}^{-1} L_{a1}; the criterion holds
    iff for all b1, b2 the agreement set {c : b1*c = b2*alpha(c)} is empty or
    everything.  This replaces the naive scan over eight variables.
    """
    if not t.is_quasigroup:
        raise StructureError("quadrangle criterion requires a quasigroup")
    n = t.n
    rows = t.rows
    ld = t._ldiv_rows
    alphas = {tuple(ld[a2][rows[a1][c]] for c in range(n)) for a1 in range(n) for a2 in range(n)}
    for alpha in alphas:
        for b1 in range(n):
            r1 = rows[b1]
            for b2 in range(n):
                r2 = rows[b2]
                agree = sum(1 for c in range(n) if r1[c] == r2[alpha[c]])
                if agree not in (0, n):
                    return False
    return True


# ---------------------------------------------------------------------------
# Canonical forms and isomorphism
#
# The canonical form of t is the row-major lexicographically least table
# among all n! simultaneous relabelings of t.  _least_entries finds it with
# one filter: it starts from the relabelings that give the least entry (0, 0),
# found in closed form, and, entry by entry in row-major order, keeps only
# the relabelings whose entry there is least.  Isomorphisms are found by a
# separate depth-first search over partial maps.
# ---------------------------------------------------------------------------


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a permutation in nonincreasing order."""
    n = len(p)
    seen = [False] * n
    lens = []
    for s in range(n):
        if not seen[s]:
            c, j = 0, s
            while not seen[j]:
                seen[j] = True
                j = p[j]
                c += 1
            lens.append(c)
    return tuple(sorted(lens, reverse=True))


@lru_cache(maxsize=4)
def _perm_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of degree n, one per row, and their inverses.

    invs lists the permutations in lexicographic order and perms[r] is the
    inverse of invs[r], so the rows with a given pi^-1(0), and with a given
    pair (pi^-1(0), pi^-1(1)), are contiguous.  Degree k is built from
    degree k - 1 one block per first entry f: a lexicographic row is f
    followed by a degree k - 1 row with the entries from f up shifted by
    one, and its inverse is the degree k - 1 inverse plus one, with 0
    inserted at position f.
    """
    invs = perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        m = len(invs)
        lex = np.empty((k * m, k), dtype=np.uint8)
        inv = np.empty_like(lex)
        shifted = perms + 1
        for f in range(k):
            block = slice(f * m, (f + 1) * m)
            lex[block, 0] = f
            lex[block, 1:] = invs + (invs >= f)
            inv[block, :f] = shifted[:, :f]
            inv[block, f] = 0
            inv[block, f + 1 :] = shifted[:, f:]
        invs, perms = lex, inv
    return perms, invs


def _least_entries(t: CayleyTable):
    """Yield the entries of canonical_form(t) in row-major order.

    Entry (i, j) of the relabeling by pi is pi(t[pi^-1(i)][pi^-1(j)]).  The
    relabelings that survive each entry are those whose prefix is least, so
    the identity survives for as long as t's own prefix is least.  Entry
    (0, 0) is pi(t[a][a]) with a = pi^-1(0): it is 0 where a is idempotent,
    and otherwise at least 1, reached where pi^-1(1) = t[a][a].  Either way
    its survivors are blocks of _perm_arrays' rows.
    """
    n = t.n
    if n == 0:
        return
    perms, invs = _perm_arrays(n)
    diagonal = [t.rows[a][a] for a in range(n)]
    idempotents = [a for a, b in enumerate(diagonal) if a == b]
    if idempotents:
        least, size, blocks = 0, len(perms) // n, idempotents
    else:  # n >= 2; the block of (a, b) is number b - (b > a) of the n - 1 within block a
        least, size = 1, len(perms) // (n * (n - 1))
        blocks = [a * (n - 1) + b - (b > a) for a, b in enumerate(diagonal)]
    keep = (np.array(blocks)[:, None] * size + np.arange(size)).ravel()
    yield least
    T = np.array(t.rows, dtype=np.uint8)
    for k in range(1, n * n):
        i, j = divmod(k, n)
        vals = perms[keep, T[invs[keep, i], invs[keep, j]]]
        least = vals.min()
        keep = keep[vals == least]
        yield int(least)


def canonical_form(t: CayleyTable) -> CayleyTable:
    """Lexicographically least table among all n! simultaneous relabelings."""
    entries = list(_least_entries(t))
    n = t.n
    rows = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
    return CayleyTable._derived(rows)


def is_self_canonical(t: CayleyTable) -> bool:
    """True iff t equals its own canonical form; stops at the first entry
    where some relabeling is less than t."""
    own = itertools.chain.from_iterable(t.rows)
    return all(a == b for a, b in zip(_least_entries(t), own))


def find_isomorphism(t1: CayleyTable, t2: CayleyTable) -> Optional[tuple[int, ...]]:
    return next(find_all_isomorphisms(t1, t2), None)


def find_all_isomorphisms(t1: CayleyTable, t2: CayleyTable):
    """Yield every bijection pi with pi(x*y) = pi(x)*'pi(y), as an image tuple.

    A depth-first loop over a stack of nodes (images, queue): the parent's
    images, None where unset, and the pairs x -> y the node sets.  Setting a
    pair queues the products it forces; a conflict drops the node.  The
    candidate images of x are the elements whose rows have the same invariants
    under relabeling (CayleyTable._row_profiles).

    An isomorphism pi maps row x onto row pi(x) relabeled, so p2[pi(x)] =
    p1[x] for every x: the two tables' profiles are the same multiset.
    Tables whose multisets differ (orders included) are decided without a
    search, and otherwise every x has a candidate.
    """
    p1, p2 = t1._row_profiles, t2._row_profiles
    if sorted(p1) != sorted(p2):
        return
    n = t1.n
    cands = [[y for y in range(n) if p2[y] == p1[x]] for x in range(n)]
    r1, r2 = t1.rows, t2.rows
    stack: list[tuple[list[Optional[int]], list[tuple[int, int]]]] = [([None] * n, [])]
    while stack:
        images, queue = stack.pop()
        images = images.copy()
        used = set(images)
        while queue:
            a, b = queue.pop()
            cur = images[a]
            if cur is not None:
                if cur != b:
                    break
                continue
            if b in used or b not in cands[a]:
                break
            images[a] = b
            used.add(b)
            for c in range(n):
                ic = images[c]
                if ic is None:
                    continue
                queue.append((r1[a][c], r2[b][ic]))
                queue.append((r1[c][a], r2[ic][b]))
        else:  # no conflict
            if None not in images:
                yield tuple(images)
                continue
            x = images.index(None)
            for y in reversed(cands[x]):
                if y not in used:
                    stack.append((images, [(x, y)]))


def table_isomorphic(t1: CayleyTable, t2: CayleyTable) -> bool:
    return find_isomorphism(t1, t2) is not None
