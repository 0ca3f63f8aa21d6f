"""Exhaustive isomorphism-free enumeration of twisted Ward left quasigroups.

The search assigns rows (left translations) as whole permutations.  In
translation form the defining identity (x*y)*(x*z) = (y*y)*(y*z) says that
for each y the composite C_y = L_{x*y} L_x is the same for every x.  A node
holds the rows set so far and, for each y, C_y once some set row x has its
row L_{x*y} set too; every other set x then forces L_{x*y} = C_y L_x^{-1},
which fixes most rows once a few are chosen.  Isomorph rejection keeps a
completed table only if it equals its own canonical form; the search space
is cut beforehand by two sound facts about canonical tables: row 0 is the
least conjugate of any row, and every row is lexicographically >= row 0.
The rows that pass both facts are the candidates of a root, and a row is
allowed exactly when it is a candidate.

Propagation runs on a worklist of newly set rows.  A node's parent is already
at a fixpoint: every pair (x, x*y) of set rows agrees with a known C_y.  So
for a new row k and each y, only pairs that involve k can teach or break
anything.  If C_y is unknown, it is learned from a pair with k as x, that
is (k, k*y), or with k as x*y, that is any set x with x*y = k; once learned,
one sweep over the set rows forces L_{x*y} for every x.  If C_y is known,
only x = k is forced: a pair (x, k) was checked when x was popped, or by the
sweep that learned C_y.  A forced row must be allowed (one dict lookup) and
joins the worklist.  The fixpoint is unique, so the order of the worklist
does not change the leaves.

At a branch point the first unset row j is tried only with the candidates
that survive the same rule with x = j, applied to all candidates at once in
numpy: for every y with C_y known, the forced row C_y q^{-1} must be
allowed, must equal the row at q(y) if that row is set, and must equal q
itself if q(y) = j.  The filter drops only candidates that propagation would
reject at once, so the leaves and the tables handed to the canonical check
are the same as without it.
"""
from __future__ import annotations

import contextlib
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .construct import TwqSpec, build_twq
from .errors import BudgetExceededError, ConsistencyError
from .groups import enumerate_groups, partition_number, q_count
from .perms import Perm, compose, cycle_type, inverse, min_conjugates
from .tables import CayleyTable, canonical_form, classify_structure, is_self_canonical

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
        return (
            f"root {','.join(map(str, self.root))} nodes {self.nodes} "
            f"leaves {self.leaves} accepted {self.accepted} seconds {self.seconds:.3f}"
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
    """Candidate first rows: least conjugates, one per cycle type."""
    return sorted(min_conjugates(n).values())


@lru_cache(maxsize=4)
def _least_conjugate_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    """Every permutation of degree n in lexicographic order, each with the
    least conjugate of its cycle type."""
    mc = min_conjugates(n)
    return tuple((q, mc[cycle_type(q)]) for q in itertools.permutations(range(n)))


def _search_root(
    n: int, root: Perm, deadline: float | None
) -> tuple[list[tuple[tuple[int, ...], ...]], int, int]:
    """All self-canonical twisted Ward left quasigroup tables with first row
    equal to ``root``, with the number of nodes and of leaves visited."""
    cands = [q for q, least in _least_conjugate_pairs(n) if q >= root and least >= root]
    inverses = {q: inverse(q) for q in cands}
    # vectorized form of the candidates; they are in lex order, so their
    # base-n codes are already sorted
    C = np.array(cands, dtype=np.intp)
    CI = np.argsort(C, axis=1)
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = C @ powers
    code_of = dict(zip(cands, codes.tolist()))
    results: list[tuple[tuple[int, ...], ...]] = []
    nodes = leaves = 0

    def propagate(rows: list[Perm | None], comp: list[Perm | None], queue: list[int]) -> bool:
        while queue:
            k = queue.pop()
            lk = rows[k]
            for y in range(n):
                cy = comp[y]
                if cy is not None:
                    xs: range | tuple[int] = (k,)
                else:
                    # learn C_y from (k, k*y), else from some (x, k) with x*y = k
                    lky = rows[lk[y]]
                    if lky is not None:
                        cy = compose(lky, lk)
                    else:
                        lx = next((r for r in rows if r is not None and r[y] == k), None)
                        if lx is None:
                            continue
                        cy = compose(lk, lx)
                    comp[y] = cy
                    xs = range(n)
                for x in xs:
                    lx = rows[x]
                    if lx is None:
                        continue
                    forced = compose(cy, inverses[lx])
                    target = lx[y]
                    cur = rows[target]
                    if cur is None:
                        if forced not in code_of:
                            return False
                        rows[target] = forced
                        queue.append(target)
                    elif cur != forced:
                        return False
        return True

    def survivors(rows: list[Perm | None], comp: list[Perm | None], j: int) -> np.ndarray:
        """Indices of the candidates for row j that pass the rule with x = j
        against every known C_y."""
        # code of each set row; -1 marks an unset row, -2 the branch row j
        row_code = np.array(
            [-1 if r is None else code_of[r] for r in rows], dtype=np.int64
        )
        row_code[j] = -2
        idx = np.arange(len(cands))
        for y, cy in enumerate(comp):
            if cy is None or not len(idx):
                continue
            # forced rows C_y q^{-1} of the candidates q that survive so far
            fc = np.array(cy, dtype=np.intp)[CI[idx]] @ powers
            pos = np.minimum(np.searchsorted(codes, fc), len(codes) - 1)
            want = row_code[C[idx, y]]
            idx = idx[
                (codes[pos] == fc)
                & ((want < 0) | (want == fc))
                & ((want != -2) | (fc == codes[idx]))
            ]
        return idx

    def rec(rows: list[Perm | None], comp: list[Perm | None], k: int) -> None:
        nonlocal nodes, leaves
        # polled on the first node, so a root never starts past the deadline
        if deadline is not None and nodes % 256 == 0 and time.monotonic() >= deadline:
            raise BudgetExceededError(
                f"enumeration budget exceeded at order {n}", nodes=nodes, leaves=leaves
            )
        nodes += 1
        rows = list(rows)
        comp = list(comp)
        if not propagate(rows, comp, [k]):
            return
        if None not in rows:
            leaves += 1
            table = CayleyTable._derived(tuple(rows), True)  # type: ignore[arg-type]
            if is_self_canonical(table):
                results.append(table.rows)
            return
        j = rows.index(None)
        for i in survivors(rows, comp, j).tolist():
            rows[j] = cands[i]
            rec(rows, comp, j)

    start: list[Perm | None] = [None] * n
    start[0] = root
    rec(start, [None] * n, 0)
    return results, nodes, leaves


def _timed_root(
    n: int, root: Perm, deadline: float | None
) -> tuple[list[tuple[tuple[int, ...], ...]], RootStats]:
    """``_search_root`` with its counts and seconds as a RootStats."""
    began = perf_counter()
    rows, nodes, leaves = _search_root(n, root, deadline)
    return rows, RootStats(root, nodes, leaves, len(rows), perf_counter() - began)


def enumerate_tw_left_quasigroups(
    n: int,
    budget_seconds: float | None = DEFAULT_BUDGET,
    threads: int = 1,
) -> EnumerationReport:
    """All twisted Ward left quasigroups of order n up to isomorphism.

    Every root shares one absolute deadline, serially and across workers; a
    BudgetExceededError reports the number of roots finished as completed, and
    the nodes and leaves of those roots and of the interrupted one.
    """
    if not (1 <= n <= MAX_ENUM_ORDER):
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")
    if budget_seconds is not None and budget_seconds < 0:
        raise ValueError(f"budget must be nonnegative, got {budget_seconds}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    roots = _roots(n)
    parallel = threads > 1 and len(roots) > 1
    all_rows: list[tuple[tuple[int, ...], ...]] = []
    stats: list[RootStats] = []
    with ProcessPoolExecutor(threads) if parallel else contextlib.nullcontext() as pool:
        jobs = (itertools.repeat(n), roots, itertools.repeat(deadline))
        try:
            for rows, root_stats in (pool.map if parallel else map)(_timed_root, *jobs):
                all_rows.extend(rows)
                stats.append(root_stats)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"enumeration budget exceeded at order {n}",
                completed=len(stats),
                nodes=sum(r.nodes for r in stats) + exc.nodes,
                leaves=sum(r.leaves for r in stats) + exc.leaves,
            ) from exc
    tables = [CayleyTable._derived(rows, True) for rows in sorted(set(all_rows))]
    perm = quasi = neither = 0
    for t in tables:
        flags = classify_structure(t)
        if flags.is_permutational:
            perm += 1
        elif flags.is_quasigroup:
            quasi += 1
        else:
            neither += 1
    return EnumerationReport(
        n=n,
        total=len(tables),
        permutational_count=perm,
        quasigroup_count=quasi,
        neither_count=neither,
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


def enumerate_tw_quasigroups(
    n: int,
    budget_seconds: float | None = DEFAULT_BUDGET,
    threads: int = 1,
    cross_check: bool | None = None,
) -> tuple[CayleyTable, ...]:
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
        report = enumerate_tw_left_quasigroups(n, budget_seconds, threads)
        filtered = [t for t in report.representatives if t.is_quasigroup]
        if len(filtered) != len(reps):
            raise ConsistencyError(
                f"pipelines disagree at order {n}: search filter found "
                f"{len(filtered)}, catalog found {len(reps)}; "
                f"search: {[t.rows for t in filtered]}; catalog: {[t.rows for t in reps]}"
            )
    return reps


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


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
    witnesses = tuple(
        t
        for t in report.representatives
        if not classify_structure(t).is_permutational and not t.is_quasigroup
    )
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
