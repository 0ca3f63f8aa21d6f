"""Exhaustive isomorphism-free enumeration of twisted Ward left quasigroups.

The search assigns rows (left translations) as whole permutations.  In
translation form the defining identity (x*y)*(x*z) = (y*y)*(y*z) says that
for each y the composite C_y = L_{x*y} L_x is the same for every x.  A node
holds the rows set so far and, for each y, C_y once propagation learns it
from a pair of set rows; every set x then forces L_{x*y} = C_y L_x^{-1},
which fixes most rows once a few are chosen.  Isomorph rejection keeps a
completed table only if it equals its own canonical form; the search space
is cut beforehand by three sound facts about canonical tables: row 0 is the
least conjugate of any row, every row is lexicographically >= row 0, and
row 1 is least under the relabelings that fix 0 and 1 and commute with
row 0.  With S_n held once per order in lexicographic order, a row is its
row number, a root is a row r that is its own least conjugate, and a row is
allowed (a candidate) exactly when its least conjugate is >= r.

The third fact: a relabeling pi maps a table with rows L_x to the table
with rows L'_{pi(x)} = pi L_x pi^{-1}.  If pi fixes 0 and 1 and pi r = r pi
for the root r, the relabeled table has rows r, pi q pi^{-1}, ... where the
table has rows r, q, ....  A self-canonical table is <= each of its
relabelings, compared row by row, and the two tables agree in row 0, so
q <= pi q pi^{-1}.  The search applies this at the root's branch point,
where row 1 is the first unset row (propagating row 0 sets no other row);
it removes only subtrees whose leaves are not self-canonical, so the canonical
check still decides every leaf and the accepted tables do not change.  In lex
order the rows that start 0, 1 are the first (n-2)! rows of S_n, so these pi
are a slice of S_n's rows.

The search below a root is one loop over a stack of nodes, each a value
(rows, comp, k): each row's number (-1 while unset), the C_y known to its
parent, and the row k it set, which starts propagation on a copy of comp.

Propagation runs on a worklist of newly set rows; each set row is popped
once, in the node that sets it.  When row k is popped, for each y: if C_y is
unknown and row k*y is set, C_y is learned from the pair (k, k*y) and one
sweep over the set rows forces L_{x*y} for every x; if C_y is known, only
x = k is forced.  A forced row must be allowed (a lookup in the root's mask)
and joins the worklist.  Three facts make this enough:

- Sound: a pair (x, x*y) of set rows is compared with C_y by the sweep that
  learns C_y or when row x is popped.  At a leaf every row is set, so the
  last row popped learns every C_y still unknown from (k, k*y) and its sweep
  checks every pair: every leaf satisfies the identity.
- Complete: a learned C_y is that of every table below the node that
  satisfies the identity, so no such table is lost, whatever the order of
  the worklist; learning fewer composites can only prune less.
- Same work: also learning C_y from any set x with x*y = k, run beside this
  rule from every node of every root for every n <= 9, gave the same
  verdict, rows and known composites at each node, so the same nodes and
  leaves.

At a branch point the first unset row j is tried only with the candidates
that survive the same rule with x = j, applied to all candidates at once in
numpy: for every y with C_y known, the forced row C_y q^{-1} must be
allowed, must equal the row at q(y) if that row is set, and must equal q
itself if q(y) = j.  The filter drops only candidates that propagation would
reject at once, so the leaves and the tables handed to the canonical check
are the same as without it.

The identity root is built, not searched.  Suppose some row is the identity,
L_e = id.  With x = e the identity L_{x*y} L_x = L_{y*y} L_y reads
L_y = L_{y*y} L_y, so L_{y*y} = id for every y, and then
L_{x*y} = L_y L_x^{-1}.  So the rows form a group H: they contain id and
L_y L_x^{-1} for any two of them.  H acts on X semiregularly: if
L_y(x) = y*x = x, then L_x = L_x L_y^{-1} and L_y = id.  In the orbit of a
point b the rows L_{y*b} = L_b L_y^{-1} run over all of H once, so each of
the k = n/|H| orbits has one base point b_i with row id.  Label the point
g(b_i) as (g, i); its row is L_{y*b_i} = g^{-1} for L_y = g, so
(g, i)*(g', j) = (g^{-1} g', j).  The table is LD(H) x P_k, the left
division of H times the projection x*y = y on k points.  Conversely every
such product satisfies the identity and has an identity row, and its rows
form a copy of H, so distinct groups give distinct classes: the identity
root holds one table per group of order m | n.  It holds exactly the tables
with an identity row, as the identity is the least permutation and the only
one of its cycle type.  ``_search_root`` can still search it, as an oracle.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .construct import TwqSpec, build_permutational, build_twq, direct_product
from .errors import BudgetExceededError, ConsistencyError
from .groups import _is_prime, enumerate_groups, partition_number, q_count
# cycle_type is not called here but stays importable: the benchmark's tracer patches it
from .perms import Perm, compose, cycle_type, identity_perm, least_conjugate_rows
from .tables import CayleyTable, _perm_arrays, canonical_form, classify_structure, is_self_canonical

MAX_ENUM_ORDER = 9
DEFAULT_BUDGET = 600.0


@dataclass(frozen=True)
class RootStats:
    """The work of the search below one root (first row)."""

    root: Perm
    nodes: int
    leaves: int
    accepted: int
    seconds: float

    def stats_line(self) -> str:
        # a searched root visits at least one node, a built one none
        work = f"nodes {self.nodes} leaves {self.leaves}" if self.nodes else "built"
        return (
            f"root {','.join(map(str, self.root))} {work} "
            f"accepted {self.accepted} seconds {self.seconds:.3f}"
        )


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    total: int
    permutational_count: int
    quasigroup_count: int
    neither_count: int
    representatives: tuple[CayleyTable, ...]
    nodes: int = 0
    leaves: int = 0
    roots: tuple[RootStats, ...] = ()

    def summary_line(self) -> str:
        return (
            f"{self.n} {self.total} {self.permutational_count} "
            f"{self.quasigroup_count} {self.neither_count}"
        )


def _roots(n: int) -> list[Perm]:
    """Candidate first rows: the rows that are their own least conjugate, in lex order."""
    least = least_conjugate_rows(n)
    return list(map(tuple, _perm_arrays(n)[1][least == np.arange(len(least))].tolist()))


@lru_cache(maxsize=2)
def _order_tables(n: int) -> tuple[tuple[Perm, ...], tuple[Perm, ...], dict[Perm, int], np.ndarray, np.ndarray]:
    """S_n in lex order, shared by every root of order n: the rows as tuples, the
    inverse of each row by row number, the row number of each row, the base-n
    place values and the rows' base-n codes, sorted as the rows are."""
    invs, lex = _perm_arrays(n)
    rows = tuple(map(tuple, lex.tolist()))
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = lex @ powers
    # an inverse is a row too, so it shares that row's tuple
    inverses = tuple(map(rows.__getitem__, np.searchsorted(codes, invs @ powers).tolist()))
    return rows, inverses, {q: r for r, q in enumerate(rows)}, powers, codes


def _least_row1(n: int, root: Perm, idx: np.ndarray) -> np.ndarray:
    """The rows q among the row numbers idx with q <= pi q pi^-1 for every
    relabeling pi that fixes 0 and 1 and commutes with root: the only rows
    that can be row 1 of a self-canonical table whose row 0 is root."""
    CI, C = _perm_arrays(n)
    powers, codes = _order_tables(n)[3:]
    # the rows that start 0, 1 come first in lex order, the identity first of all
    stab = slice(1, math.factorial(max(n - 2, 0)))
    r = np.array(root)
    fixers = (C[stab][:, r] == r[C[stab]]).all(axis=1)
    # idx never empties: pi fixes the root's own row, which survivors keeps
    for pi, pinv in zip(C[stab][fixers], CI[stab][fixers]):
        idx = idx[pi[C[idx][:, pinv]] @ powers >= codes[idx]]
    return idx


def _search_root(
    n: int, root: Perm, deadline: float | None
) -> tuple[list[tuple[tuple[int, ...], ...]], RootStats]:
    """All self-canonical twisted Ward left quasigroup tables with first row
    equal to ``root``, with the nodes and leaves visited and the seconds taken."""
    began = perf_counter()
    perms, inverses, row_of, powers, codes = _order_tables(n)
    CI, C = _perm_arrays(n)
    # a row is allowed below root r iff its least conjugate is row r or later
    allowed = least_conjugate_rows(n) >= row_of[root]
    cands = np.flatnonzero(allowed)
    results: list[tuple[tuple[int, ...], ...]] = []
    nodes = leaves = 0

    def propagate(rows: list[int], comp: list[Perm | None], queue: list[int]) -> bool:
        while queue:
            k = queue.pop()
            lk = perms[rows[k]]
            for y in range(n):
                cy = comp[y]
                if cy is not None:
                    xs: range | tuple[int] = (k,)
                else:
                    # learn C_y from (k, k*y)
                    rky = rows[lk[y]]
                    if rky < 0:
                        continue
                    cy = comp[y] = compose(perms[rky], lk)
                    xs = range(n)
                for x in xs:
                    rx = rows[x]
                    if rx < 0:
                        continue
                    forced = row_of[compose(cy, inverses[rx])]
                    target = perms[rx][y]
                    cur = rows[target]
                    if cur < 0:
                        if not allowed[forced]:
                            return False
                        rows[target] = forced
                        queue.append(target)
                    elif cur != forced:
                        return False
        return True

    def survivors(rows: list[int], comp: list[Perm | None], j: int) -> np.ndarray:
        """Row numbers of the candidates for row j that pass the rule with
        x = j against every known C_y."""
        # row number of each set row; -1 marks an unset row, -2 the branch row j
        want_of = np.array(rows)
        want_of[j] = -2
        idx = cands
        for y, cy in enumerate(comp):
            if cy is None or not len(idx):
                continue
            # row number of each forced row C_y q^{-1}, a permutation, so its code is found
            forced = np.searchsorted(codes, np.array(cy, dtype=np.intp)[CI[idx]] @ powers)
            want = want_of[C[idx, y]]
            idx = idx[
                allowed[forced]
                & ((want < 0) | (want == forced))
                & ((want != -2) | (forced == idx))
            ]
        return idx

    start = [row_of[root]] + [-1] * (n - 1)
    stack: list[tuple[list[int], list[Perm | None], int]] = [(start, [None] * n, 0)]
    while stack:
        # polled on the first node, so a root never starts past the deadline
        if deadline is not None and nodes % 256 == 0 and time.monotonic() >= deadline:
            raise BudgetExceededError(
                f"enumeration budget exceeded at order {n}", nodes=nodes, leaves=leaves
            )
        nodes += 1
        rows, comp, k = stack.pop()
        comp = list(comp)
        if not propagate(rows, comp, [k]):
            continue
        if -1 not in rows:
            leaves += 1
            table = CayleyTable._derived(tuple(map(perms.__getitem__, rows)))
            if is_self_canonical(table):
                results.append(table.rows)
            continue
        # children in reverse, so they pop in candidate order; they share comp
        j = rows.index(-1)
        idx = survivors(rows, comp, j)
        if j == 1:  # only at the root: propagating row 0 sets no other row
            idx = _least_row1(n, root, idx)
        for i in reversed(idx.tolist()):
            stack.append((rows[:j] + [i] + rows[j + 1 :], comp, j))
    return results, RootStats(root, nodes, leaves, len(results), perf_counter() - began)


def _identity_root(
    n: int, root: Perm, deadline: float | None
) -> tuple[list[tuple[tuple[int, ...], ...]], RootStats]:
    """The canonical tables below the identity root ``root``, built rather
    than searched: LD(H) x P_k for each group H of order m | n, k = n // m.
    Like a searched root, it never starts past the deadline."""
    if deadline is not None and time.monotonic() >= deadline:
        raise BudgetExceededError(f"enumeration budget exceeded at order {n}")
    began = perf_counter()
    rows = [
        canonical_form(direct_product(
            build_twq(TwqSpec(h, identity_perm(m), 0)),
            build_permutational(n // m, identity_perm(n // m)),
        )).rows
        for m in range(1, n + 1)
        if n % m == 0
        for h in enumerate_groups(m)
    ]
    return rows, RootStats(root, 0, 0, len(rows), perf_counter() - began)


def _kind(t: CayleyTable) -> str:
    """The part of ell(n) a representative counts in: "permutational" first
    (so the order-1 table, both kinds, is permutational), else "quasigroup",
    else "neither"."""
    flags = classify_structure(t)
    if flags.is_permutational:
        return "permutational"
    return "quasigroup" if flags.is_quasigroup else "neither"


def enumerate_tw_left_quasigroups(
    n: int,
    budget_seconds: float | None = DEFAULT_BUDGET,
    threads: int = 1,
) -> EnumerationReport:
    """All twisted Ward left quasigroups of order n up to isomorphism.

    The identity root comes first and is built; every other root is
    searched.  Every root shares one absolute deadline, serially and across
    workers, and a root never starts past it; a BudgetExceededError reports
    the number of roots finished as completed, and the nodes and leaves of
    those roots and of the interrupted one.
    """
    if not (1 <= n <= MAX_ENUM_ORDER):
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget must be nonnegative, got {budget_seconds}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    # the identity is the least row of S_n, so it is the first root
    identity, *roots = _roots(n)
    all_rows, identity_stats = _identity_root(n, identity, deadline)
    stats = [identity_stats]
    parallel = threads > 1 and len(roots) > 1
    with ProcessPoolExecutor(min(threads, len(roots))) if parallel else contextlib.nullcontext() as pool:
        jobs = (itertools.repeat(n), roots, itertools.repeat(deadline))
        try:
            for rows, root_stats in (pool.map if parallel else map)(_search_root, *jobs):
                all_rows.extend(rows)
                stats.append(root_stats)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"enumeration budget exceeded at order {n}",
                completed=len(stats),
                nodes=sum(r.nodes for r in stats) + exc.nodes,
                leaves=sum(r.leaves for r in stats) + exc.leaves,
            ) from exc
    tables = [CayleyTable._derived(rows) for rows in sorted(all_rows)]
    kinds = Counter(map(_kind, tables))
    return EnumerationReport(
        n=n,
        total=len(tables),
        permutational_count=kinds["permutational"],
        quasigroup_count=kinds["quasigroup"],
        neither_count=kinds["neither"],
        representatives=tuple(tables),
        nodes=sum(r.nodes for r in stats),
        leaves=sum(r.leaves for r in stats),
        roots=tuple(stats),
    )


def twq_catalog_specs(n: int):
    """One TwqSpec per isomorphism class of twisted Ward quasigroups of order
    n: all groups of order n crossed with conjugacy-class representatives of
    their automorphism groups, constant 0."""
    return [
        TwqSpec(group=g, psi=psi, c=0)
        for g in enumerate_groups(n)
        for psi in g.automorphism_reps
    ]


def enumerate_tw_quasigroups(n: int, cross_check: bool | None = None) -> tuple[CayleyTable, ...]:
    """Canonical representatives of all twisted Ward quasigroups of order n.

    Pipeline (b) builds them from the group catalog; with cross_check
    (default: automatic for n <= 6) the enumeration-filter pipeline (a) must
    agree in count.  The catalog holds one spec per class, so its distinct
    canonical forms must number len(specs) = q(n).
    """
    specs = twq_catalog_specs(n)
    by_canon: dict[tuple, CayleyTable] = {}
    for spec in specs:
        c = canonical_form(build_twq(spec))
        by_canon[c.rows] = c
    reps = tuple(by_canon[rows] for rows in sorted(by_canon))
    if len(reps) != len(specs):
        raise ConsistencyError(
            f"catalog pipeline found {len(reps)} classes, q({n}) = {len(specs)}"
        )
    if cross_check is None:
        cross_check = n <= 6
    if cross_check:
        report = enumerate_tw_left_quasigroups(n)
        filtered = [t for t in report.representatives if t.is_quasigroup]
        if len(filtered) != len(reps):
            raise ConsistencyError(
                f"pipelines disagree at order {n}: search filter found "
                f"{len(filtered)}, catalog found {len(reps)}; "
                f"search: {[t.rows for t in filtered]}; catalog: {[t.rows for t in reps]}"
            )
    return reps


@dataclass(frozen=True)
class DichotomyReport:
    n: int
    holds: bool
    permutational_count: int
    quasigroup_count: int
    witnesses: tuple[CayleyTable, ...]


def dichotomy_report(
    n: int, budget_seconds: float | None = DEFAULT_BUDGET, threads: int = 1
) -> DichotomyReport:
    """Check that every twisted Ward left quasigroup of prime order n is
    permutational or a quasigroup; counterexamples are attached."""
    if not _is_prime(n):
        raise ValueError(f"{n} is not prime")
    report = enumerate_tw_left_quasigroups(n, budget_seconds, threads)
    witnesses = tuple(t for t in report.representatives if _kind(t) == "neither")
    return DichotomyReport(
        n=n,
        holds=not witnesses,
        permutational_count=report.permutational_count,
        quasigroup_count=report.quasigroup_count,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class CountsRow:
    n: int
    ell: int | None
    q: int
    p: int


def counts_row(
    n: int, with_ell: bool = True, budget_seconds: float = DEFAULT_BUDGET, threads: int = 1
) -> CountsRow:
    """One row of the classification table.  ell is computed by exhaustive
    enumeration when requested and within range, else left unknown."""
    q = q_count(n)
    p = partition_number(n)
    ell = None
    if with_ell and n <= MAX_ENUM_ORDER:
        ell = enumerate_tw_left_quasigroups(n, budget_seconds, threads).total
    if ell is not None and _is_prime(n) and ell != q + p:
        raise ConsistencyError(f"prime-order identity ell = q + p fails at n = {n}")
    return CountsRow(n=n, ell=ell, q=q, p=p)
