import dataclasses
import itertools
import types

import pytest

from tward import (
    check_identity,
    dichotomy_report,
    enumerate_tw_left_quasigroups,
    enumerate_tw_quasigroups,
    table_isomorphic,
    twq_catalog_specs,
)
from tward import search
from tward.errors import BudgetExceededError, ConsistencyError
from tward.perms import compose, cycle_type, inverse, min_conjugates
from tward.tables import CayleyTable, is_self_canonical

ELL_EXPECTED = {1: 1, 2: 3, 3: 5, 4: 14, 5: 11, 6: 31}


def _reference_leaves(n, root):
    """Every complete table the full-sweep search reaches from ``root``.

    Each node re-sweeps all (x, y) pairs with the translation form
    L_{x*y} = L_{y*y} L_y L_x^{-1} until nothing changes, and branches on the
    first unset row over every candidate; no worklist and no candidate filter.
    """
    mc = min_conjugates(n)
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
    return leaves


def test_search_matches_full_sweep_reference(monkeypatch):
    checked = []

    def recording(table):
        checked.append(table.rows)
        return is_self_canonical(table)

    monkeypatch.setattr(search, "is_self_canonical", recording)
    for n in range(1, 7):
        for root in search._roots(n):
            checked.clear()
            rows, nodes, leaves = search._search_root(n, root, None)
            expected = _reference_leaves(n, root)
            assert sorted(checked) == sorted(expected) and leaves == len(expected)
            accepted = [t for t in expected if is_self_canonical(CayleyTable(t))]
            assert sorted(rows) == sorted(accepted)
            assert nodes >= leaves


def test_search_counters(enum_reports):
    report = enum_reports(6)
    assert report.leaves == 302
    # the full-sweep search without the candidate filter visits 451,999
    # nodes, the search that learns C_y only from x = y 14,184
    assert report.leaves <= report.nodes <= 8_269


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
    """Learning C_y from any row reaches the same leaves below every root,
    through no more nodes."""
    for n, expected in X_EQUALS_Y_COUNTS.items():
        report = enum_reports(n)
        assert [r.root for r in report.roots] == search._roots(n)
        for stats, (nodes, leaves) in zip(report.roots, expected, strict=True):
            assert stats.leaves == leaves and stats.nodes <= nodes


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


def test_dichotomy_small():
    for p in (2, 3, 5):
        report = dichotomy_report(p)
        assert report.holds and not report.witnesses
    with pytest.raises(ValueError):
        dichotomy_report(6)


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
    with pytest.raises(BudgetExceededError) as info:
        enumerate_tw_left_quasigroups(3, budget_seconds=0, threads=threads)
    assert info.value.completed == 0
    assert info.value.nodes == info.value.leaves == 0


def test_budget_error_counts_partial_work(monkeypatch):
    """With a clock that advances one tick per poll, the deadline falls on a
    known poll: the error reports the nodes of the finished roots plus the
    256 per poll passed in the interrupted root."""
    n = 6
    per_root = [search._search_root(n, root, None) for root in search._roots(n)]
    for polls in (1, 5, 21, 30):  # root 0 polls 11 times, root 1 6 times, all 40
        ticks = itertools.count()
        monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        with pytest.raises(BudgetExceededError) as info:
            enumerate_tw_left_quasigroups(n, budget_seconds=polls)
        # a root that visits k nodes polls at nodes 0, 256, ... below k
        left, done = polls - 1, 0
        while left >= -(-per_root[done][1] // 256):
            left -= -(-per_root[done][1] // 256)
            done += 1
        exc = info.value
        assert exc.completed == done
        assert exc.nodes == sum(r[1] for r in per_root[:done]) + 256 * left
        finished_leaves = sum(r[2] for r in per_root[:done])
        assert finished_leaves <= exc.leaves <= finished_leaves + per_root[done][2]


def test_budget_and_threads_validated():
    with pytest.raises(ValueError):
        enumerate_tw_left_quasigroups(3, budget_seconds=-1)
    with pytest.raises(ValueError):
        enumerate_tw_left_quasigroups(3, threads=0)


def test_threaded_run_matches_serial(enum_reports):
    serial = enum_reports(5)
    parallel = enumerate_tw_left_quasigroups(5, threads=2)
    assert parallel.total == serial.total
    assert parallel.representatives == serial.representatives
    assert (parallel.nodes, parallel.leaves) == (serial.nodes, serial.leaves)

    def counts(report):
        return [(r.root, r.nodes, r.leaves, r.accepted) for r in report.roots]

    assert counts(parallel) == counts(serial)


def test_counts_row_threads(enum_reports):
    serial = search.counts_row(6)
    assert serial.ell == enum_reports(6).total
    assert search.counts_row(6, threads=2) == serial


def test_summary_line(enum_reports):
    assert enum_reports(5).summary_line() == "5 11 7 4 0"
