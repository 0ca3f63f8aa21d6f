"""ell(9) = 64 = 30 + 14 + 20.

``ell9_representatives.txt`` holds the 64 canonical representatives of the
twisted Ward left quasigroups of order 9, in the format of
``ell8_representatives.txt``.  The fast test checks the fixture against
facts that do not come from the search: p(9), the catalog's q(9), and the
50 products TWQ(K, phi) x Perm(k, pi), among them the 4 built tables of the
identity root.  The slow test reproduces the fixture with the search.
"""
import time

import pytest

from conftest import fixture_tables, product_forms, squares_share_a_row
from tward import (
    check_identity,
    classify_structure,
    enumerate_tw_left_quasigroups,
    enumerate_tw_quasigroups,
    kernel_size_report,
    partition_number,
    q_count,
)
from tward import search
from tward.tables import is_self_canonical


def test_ell9_fixture_against_independent_facts():
    tables = fixture_tables(9)
    assert len(tables) == 64
    # sorted and self-canonical, so pairwise non-isomorphic
    assert [t.rows for t in tables] == sorted({t.rows for t in tables})
    assert all(is_self_canonical(t) for t in tables)
    for t in tables:
        assert t.is_left_quasigroup and check_identity(t, "twisted_ward")
        assert kernel_size_report(t).product_law_holds
    permutational = [t for t in tables if classify_structure(t).is_permutational]
    assert len(permutational) == partition_number(9) == 30
    quasigroups = [t for t in tables if t.is_quasigroup]
    assert quasigroups == list(enumerate_tw_quasigroups(9, cross_check=False))
    assert len(quasigroups) == q_count(9) == 14
    forms = product_forms(9)
    assert len(forms) == len(set(forms)) == 50
    assert set(forms) == {t.rows for t in tables if squares_share_a_row(t)}
    built = search._identity_root(9, tuple(range(9)), None)[0]
    assert sorted(built) == [t.rows for t in tables if t.rows[0] == tuple(range(9))]
    assert len(built) == 4


@pytest.mark.slow
def test_ell9_law_free_search():
    start = time.monotonic()
    report = enumerate_tw_left_quasigroups(9, budget_seconds=3600, threads=2)
    assert time.monotonic() - start < 3600
    assert report.summary_line() == "9 64 30 14 20"
    assert (report.nodes, report.leaves) == (12_666_455, 402)
    assert list(report.representatives) == fixture_tables(9)
