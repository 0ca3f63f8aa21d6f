import concurrent.futures
import dataclasses
import functools
import gc
import itertools
import types

import numpy as np
import pytest

from tward import (
    check_identity,
    dichotomy_report,
    enumerate_tw_left_quasigroups,
    enumerate_tw_quasigroups,
    table_isomorphic,
    twq_catalog_specs,
)
from conftest import (
    CYCLIC3,
    TABLE4,
    product_forms,
    reference_min_conjugates,
    search_finds_table4,
    squares_share_a_row,
)
from tward import search
from tward.construct import build_permutational
from tward.errors import BudgetExceededError, ConsistencyError
from tward.perms import compose, cycle_type, inverse, least_conjugate_rows
from tward.tables import CayleyTable, is_self_canonical

ELL_EXPECTED = {1: 1, 2: 3, 3: 5, 4: 14, 5: 11, 6: 31}


@functools.cache
def _reference_leaves(n, root):
    """Every complete table the full-sweep search reaches from ``root``.

    Each node re-sweeps all (x, y) pairs with the translation form
    L_{x*y} = L_{y*y} L_y L_x^{-1} until nothing changes, and branches on the
    first unset row over every candidate; no worklist, no candidate filter
    and no row-1 rule.
    """
    mc = reference_min_conjugates(n)
    cands = [
        q
        for q in itertools.permutations(range(n))
        if q >= root and mc[cycle_type(q)] >= root
    ]
    leaves = []

    def propagate(rows):
        changed = True
        while changed:
            changed = False
            for y in range(n):
                ly = rows[y]
                if ly is None or rows[ly[y]] is None:
                    continue
                ny = compose(rows[ly[y]], ly)
                for x in range(n):
                    lx = rows[x]
                    if lx is None:
                        continue
                    forced = compose(ny, inverse(lx))
                    cur = rows[lx[y]]
                    if cur is None:
                        if forced < root or mc[cycle_type(forced)] < root:
                            return False
                        rows[lx[y]] = forced
                        changed = True
                    elif cur != forced:
                        return False
        return True

    def rec(rows):
        rows = list(rows)
        if not propagate(rows):
            return
        if None not in rows:
            leaves.append(tuple(rows))
            return
        j = rows.index(None)
        for q in cands:
            rows[j] = q
            rec(rows)

    rec([root] + [None] * (n - 1))
    return tuple(leaves)


@functools.cache
def _row1_fixers(n, root):
    """Every relabeling pi that fixes 0 and 1 and commutes with root, by
    itertools over all of S_n."""
    return [
        pi
        for pi in itertools.permutations(range(n))
        if pi[:2] == tuple(range(min(n, 2))) and compose(pi, root) == compose(root, pi)
    ]


def _row1_rule(n, root, q):
    """q <= pi q pi^-1 for every relabeling pi that fixes 0 and 1 and
    commutes with root."""
    return all(q <= compose(compose(pi, q), inverse(pi)) for pi in _row1_fixers(n, root))


def test_search_matches_full_sweep_reference(monkeypatch):
    """The search checks a subset of the full-sweep search's leaves and
    accepts the same tables; every leaf it no longer reaches breaks the row-1
    rule and is not self-canonical."""
    checked = []

    def recording(table):
        checked.append(table.rows)
        return is_self_canonical(table)

    monkeypatch.setattr(search, "is_self_canonical", recording)
    for n in range(1, 7):
        for root in search._roots(n):
            checked.clear()
            rows, stats = search._search_root(n, root, None)
            nodes, leaves = stats.nodes, stats.leaves
            assert (stats.root, stats.accepted) == (root, len(rows))
            expected = _reference_leaves(n, root)
            assert set(checked) <= set(expected) and leaves == len(checked) == len(set(checked))
            accepted = [t for t in expected if is_self_canonical(CayleyTable(t))]
            assert sorted(rows) == sorted(accepted)
            for t in set(expected) - set(checked):
                assert not _row1_rule(n, root, t[1]) and not is_self_canonical(CayleyTable(t))
            assert nodes >= leaves


def test_built_identity_root_matches_its_search():
    """The identity root's tables, built as LD(H) x P_k, are the tables the
    search accepts below it."""
    for n in range(1, 8):
        identity = search._roots(n)[0]
        assert identity == tuple(range(n))
        rows = search._search_root(n, identity, None)[0]
        built, stats = search._identity_root(n, identity, None)
        assert sorted(built) == sorted(rows)
        assert (stats.root, stats.nodes, stats.leaves, stats.accepted) == (identity, 0, 0, len(rows))


# classes whose squares share one row: the sum over m | n of q(m) p(n/m)
PRODUCT_COUNTS = {1: 1, 2: 3, 3: 5, 4: 12, 5: 11, 6: 23, 7: 21}


def test_one_square_row_tables_are_the_products(enum_reports):
    """The tables of a report whose squares all share one row are the
    products TWQ(K, phi) x Perm(k, pi), one per pair of classes."""
    for n, count in PRODUCT_COUNTS.items():
        forms = product_forms(n)
        assert len(forms) == len(set(forms)) == count
        reps = enum_reports(n).representatives
        assert set(forms) == {t.rows for t in reps if squares_share_a_row(t)}


def test_row1_rule_matches_brute_force():
    """The search's row-1 filter keeps exactly the allowed rows that the
    itertools rule keeps, below every root."""
    for n in range(1, 8):
        perms = search._order_tables(n)[0]
        for root in search._roots(n):
            allowed = np.flatnonzero(least_conjugate_rows(n) >= perms.index(root))
            kept = search._least_row1(n, root, allowed)
            assert [perms[i] for i in kept] == [
                perms[i] for i in allowed if _row1_rule(n, root, perms[i])
            ]


@pytest.mark.parametrize("deadline", [None, 0.0])
def test_search_root_leaves_no_cyclic_garbage(deadline):
    gc.collect()
    gc.disable()
    try:
        for root in search._roots(5):
            try:
                search._search_root(5, root, deadline)
            except BudgetExceededError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_counters(enum_reports):
    report = enum_reports(6)
    assert report.leaves == 66
    # below the searched roots, without the row-1 rule the search visits
    # 5,625 nodes and 101 leaves, and the search that learns C_y only from
    # x = y 9,220 nodes; with the identity root searched too these were
    # 8,269, 302 and 14,184, and the full-sweep search without the candidate
    # filter visited 451,999 nodes
    assert report.leaves <= report.nodes <= 3_443


# (nodes, leaves) of each root, in the order of search._roots(n), of the
# search that learns C_y only from x = y, that is from L_y and L_{y*y}
X_EQUALS_Y_COUNTS = {
    1: [(1, 1)],
    2: [(3, 2), (2, 1)],
    3: [(8, 2), (7, 2), (4, 1)],
    4: [(39, 11), (33, 5), (16, 2), (22, 5), (10, 3)],
    5: [(256, 7), (141, 1), (102, 1), (129, 3), (65, 3), (52, 1), (53, 1)],
    6: [
        (4964, 201), (1862, 13), (809, 9), (2083, 29), (1024, 5), (606, 1),
        (384, 1), (1548, 25), (386, 1), (345, 13), (173, 4),
    ],
}


def test_per_root_counts_no_worse_than_x_equals_y_rule(enum_reports):
    """The search that learns C_y only from x = y reaches the full-sweep
    search's leaves; learning C_y from (k, k*y), with the row-1 rule, reaches
    no more leaves through no more nodes, below every root."""
    for n, expected in X_EQUALS_Y_COUNTS.items():
        report = enum_reports(n)
        assert [r.root for r in report.roots] == search._roots(n)
        for stats, (nodes, leaves) in zip(report.roots, expected, strict=True):
            assert len(_reference_leaves(n, stats.root)) == leaves
            assert stats.leaves <= leaves and stats.nodes <= nodes


# (nodes, leaves, accepted) of each root, in the order of search._roots(n);
# the identity root comes first, built, with no nodes and no leaves
PER_ROOT_COUNTS = {
    1: [(0, 0, 1)],
    2: [(0, 0, 2), (2, 1, 1)],
    3: [(0, 0, 2), (6, 2, 2), (3, 1, 1)],
    4: [(0, 0, 4), (21, 5, 4), (12, 2, 2), (9, 4, 2), (6, 3, 2)],
    5: [(0, 0, 2), (97, 1, 1), (54, 1, 1), (55, 2, 2), (47, 3, 3), (14, 1, 1), (13, 1, 1)],
    6: [
        (0, 0, 5), (973, 11, 2), (470, 9, 3), (712, 14, 7), (500, 5, 2), (242, 1, 1),
        (270, 1, 1), (130, 11, 4), (58, 1, 1), (39, 9, 3), (49, 4, 2),
    ],
    7: [
        (0, 0, 2), (8024, 1, 1), (5577, 1, 1), (6664, 1, 1), (5395, 1, 1), (4890, 1, 1),
        (3126, 1, 1), (1994, 2, 2), (1907, 1, 1), (1216, 3, 3), (1914, 3, 3), (797, 1, 1),
        (416, 1, 1), (177, 1, 1), (247, 1, 1),
    ],
}


def test_per_root_counts_pinned(enum_reports):
    for n, expected in PER_ROOT_COUNTS.items():
        assert [(r.nodes, r.leaves, r.accepted) for r in enum_reports(n).roots] == expected


def test_report_sums_its_roots(enum_reports):
    for n in range(1, 7):
        report = enum_reports(n)
        assert sum(r.nodes for r in report.roots) == report.nodes
        assert sum(r.leaves for r in report.roots) == report.leaves
        # accepted tables of two roots differ in row 0
        assert sum(r.accepted for r in report.roots) == report.total
        assert all(r.seconds >= 0 for r in report.roots)


def test_small_counts(enum_reports):
    for n, expect in ELL_EXPECTED.items():
        assert enum_reports(n).total == expect


def test_representatives_are_valid_and_canonical(enum_reports):
    for n in (3, 4, 5):
        report = enum_reports(n)
        reps = report.representatives
        assert len(reps) == report.total
        for t in reps:
            assert t.is_left_quasigroup
            assert check_identity(t, "twisted_ward")
            assert is_self_canonical(t)
        assert report.total == (
            report.permutational_count + report.quasigroup_count + report.neither_count
        )


def test_representatives_pairwise_nonisomorphic(enum_reports):
    reps = enum_reports(4).representatives
    for i, t1 in enumerate(reps):
        for t2 in reps[i + 1 :]:
            assert not table_isomorphic(t1, t2)


def test_catalog_specs_count():
    assert len(twq_catalog_specs(4)) == 5
    assert len(twq_catalog_specs(5)) == 4


def test_quasigroup_pipeline_cross_check():
    reps = enumerate_tw_quasigroups(5, cross_check=True)
    assert len(reps) == 4
    for t in reps:
        assert t.is_quasigroup
        assert check_identity(t, "twisted_ward")


def test_catalog_merging_two_classes_raises(monkeypatch):
    first, second = enumerate_tw_quasigroups(4, cross_check=False)[:2]
    real = search.canonical_form

    def merged(t):
        c = real(t)
        return first if c == second else c

    monkeypatch.setattr(search, "canonical_form", merged)
    with pytest.raises(ConsistencyError, match="catalog pipeline found 4 classes"):
        enumerate_tw_quasigroups(4, cross_check=False)


def test_search_dropping_a_quasigroup_raises(monkeypatch):
    real = search.enumerate_tw_left_quasigroups

    def drop_one(n, budget_seconds=None, threads=1):
        report = real(n, budget_seconds, threads)
        reps = list(report.representatives)
        reps.remove(next(t for t in reps if t.is_quasigroup))
        return dataclasses.replace(report, representatives=tuple(reps))

    monkeypatch.setattr(search, "enumerate_tw_left_quasigroups", drop_one)
    with pytest.raises(ConsistencyError, match="pipelines disagree"):
        enumerate_tw_quasigroups(4, cross_check=True)


def test_cross_check_runs_automatically_to_order_6(monkeypatch):
    """With cross_check omitted, the search pipeline runs at n = 6 and not
    at n = 7."""
    calls = []
    real = search.enumerate_tw_left_quasigroups

    def counted(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(search, "enumerate_tw_left_quasigroups", counted)
    enumerate_tw_quasigroups(6)
    enumerate_tw_quasigroups(7)
    assert calls == [6]


def test_dichotomy_small():
    for p in (2, 3, 5):
        report = dichotomy_report(p)
        assert report.holds and not report.witnesses
    with pytest.raises(ValueError):
        dichotomy_report(6)


def test_dichotomy_fails_with_witness(monkeypatch):
    search_finds_table4(monkeypatch)
    report = dichotomy_report(5)
    assert not report.holds
    assert report.witnesses == (TABLE4,)


@pytest.mark.parametrize(
    "table, kind",
    [
        (TABLE4, "neither"),
        (CYCLIC3, "quasigroup"),
        (build_permutational(3, (1, 2, 0)), "permutational"),
        # both a quasigroup and permutational: it counts in p(1)
        (CayleyTable.from_rows([[0]]), "permutational"),
    ],
)
def test_kind(table, kind):
    assert search._kind(table) == kind


def test_order_bounds():
    with pytest.raises(ValueError):
        enumerate_tw_left_quasigroups(0)
    with pytest.raises(ValueError):
        enumerate_tw_left_quasigroups(20)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_tw_left_quasigroups(7, budget_seconds=0.01)


@pytest.mark.parametrize("threads", [1, 2])
def test_zero_budget_finishes_no_root(threads):
    """Not even the built identity root, the only root at n = 1."""
    for n in (1, 2, 3):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_tw_left_quasigroups(n, budget_seconds=0, threads=threads)
        assert info.value.completed == 0
        assert info.value.nodes == info.value.leaves == 0


def test_budget_error_counts_partial_work(monkeypatch):
    """With a clock that advances one tick per poll, the deadline falls on a
    known poll: the error reports the nodes of the finished roots plus the
    256 per poll passed in the interrupted root."""
    n = 6
    # the built identity root polls once, before it starts, and visits no node
    per_root = [search.RootStats((), 0, 0, 0, 0.0)] + [
        search._search_root(n, root, None)[1] for root in search._roots(n)[1:]
    ]
    # a searched root that visits k nodes polls at nodes 0, 256, ... below k
    root_polls = [1] + [-(-r.nodes // 256) for r in per_root[1:]]
    # the identity root's poll, one inside root 1, one inside root 2, and the last
    first, second = root_polls[1:3]
    for polls in (1, 2 + first // 2, 2 + first + second // 2, sum(root_polls)):
        ticks = itertools.count()
        monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        with pytest.raises(BudgetExceededError) as info:
            enumerate_tw_left_quasigroups(n, budget_seconds=polls)
        left, done = polls - 1, 0
        while left >= root_polls[done]:
            left -= root_polls[done]
            done += 1
        exc = info.value
        assert exc.completed == done
        assert exc.nodes == sum(r.nodes for r in per_root[:done]) + 256 * left
        finished_leaves = sum(r.leaves for r in per_root[:done])
        assert finished_leaves <= exc.leaves <= finished_leaves + per_root[done].leaves


def test_budget_and_threads_validated():
    for budget in (-1, float("nan")):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            enumerate_tw_left_quasigroups(3, budget_seconds=budget)
    with pytest.raises(ValueError):
        enumerate_tw_left_quasigroups(3, threads=0)


@pytest.mark.parametrize("budget", [None, float("inf")])
def test_unbounded_budget_runs(budget):
    assert enumerate_tw_left_quasigroups(3, budget_seconds=budget).total == ELL_EXPECTED[3]


def test_threaded_run_matches_serial(enum_reports):
    serial = enum_reports(5)
    parallel = enumerate_tw_left_quasigroups(5, threads=2)
    assert parallel.total == serial.total
    assert parallel.representatives == serial.representatives
    assert (parallel.nodes, parallel.leaves) == (serial.nodes, serial.leaves)

    def counts(report):
        return [(r.root, r.nodes, r.leaves, r.accepted) for r in report.roots]

    assert counts(parallel) == counts(serial)


@pytest.mark.parametrize("n", [1, 2])
def test_no_pool_for_one_searched_root(monkeypatch, enum_reports, n):
    """At n = 1 the built identity root is the only root, at n = 2 one
    root is left to search: two threads start no pool and give the serial
    report."""

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} was started")

    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    serial = enum_reports(n)
    parallel = enumerate_tw_left_quasigroups(n, threads=2)
    assert parallel.summary_line() == serial.summary_line()
    assert parallel.representatives == serial.representatives

    def counts(report):
        return [(r.root, r.nodes, r.leaves, r.accepted) for r in report.roots]

    assert counts(parallel) == counts(serial)
    assert [c[1:] for c in counts(serial)] == PER_ROOT_COUNTS[n]


def test_workers_capped_by_roots(monkeypatch, enum_reports):
    """No more workers are asked for than there are roots; the stand-in runs
    the roots in this process, so no process is started."""
    asked = []

    def in_process(workers):
        asked.append(workers)
        return concurrent.futures.ThreadPoolExecutor(1)

    monkeypatch.setattr(search, "ProcessPoolExecutor", in_process)
    report = enumerate_tw_left_quasigroups(3, threads=64)
    assert asked and asked[0] <= len(search._roots(3))
    assert report.representatives == enum_reports(3).representatives


def test_counts_row_threads(enum_reports):
    serial = search.counts_row(6)
    assert serial.ell == enum_reports(6).total
    assert search.counts_row(6, threads=2) == serial


def test_summary_line(enum_reports):
    assert enum_reports(5).summary_line() == "5 11 7 4 0"
