"""ell(8) = 93 = 22 + 25 + 46.

``ell8_representatives.txt`` holds the 93 canonical representatives of the
twisted Ward left quasigroups of order 8, one table per line, each row as a
string of digits.  The fast tests check the fixture against facts that do
not come from the search; the slow tests reproduce it with the search.
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
)
from tward import search
from tward.tables import is_self_canonical

IDENTITY = tuple(range(8))


def test_ell8_fixture_against_independent_facts():
    tables = fixture_tables(8)
    assert len(tables) == 93
    # sorted and self-canonical, so pairwise non-isomorphic
    assert [t.rows for t in tables] == sorted({t.rows for t in tables})
    assert all(is_self_canonical(t) for t in tables)
    for t in tables:
        assert t.is_left_quasigroup and check_identity(t, "twisted_ward")
        assert kernel_size_report(t).product_law_holds
    permutational = [t for t in tables if classify_structure(t).is_permutational]
    assert len(permutational) == partition_number(8) == 22
    quasigroups = [t for t in tables if t.is_quasigroup]
    assert quasigroups == list(enumerate_tw_quasigroups(8, cross_check=False))
    assert len(quasigroups) == 25


def test_ell8_products_and_identity_root():
    """The 62 tables whose squares share one row are the products
    TWQ(K, phi) x Perm(k, pi); the 9 with an identity row are the built
    identity root."""
    tables = fixture_tables(8)
    forms = product_forms(8)
    assert len(forms) == len(set(forms)) == 62
    assert set(forms) == {t.rows for t in tables if squares_share_a_row(t)}
    built = search._identity_root(8, IDENTITY, None)[0]
    assert sorted(built) == [t.rows for t in tables if t.rows[0] == IDENTITY]
    assert len(built) == 9


@pytest.mark.slow
def test_ell8_identity_root_search():
    rows, stats = search._search_root(8, IDENTITY, None)
    assert sorted(rows) == sorted(search._identity_root(8, IDENTITY, None)[0])
    assert (stats.nodes, stats.leaves) == (84_079, 985)


@pytest.mark.slow
def test_ell8_law_free_search():
    start = time.monotonic()
    report = enumerate_tw_left_quasigroups(8, budget_seconds=3600, threads=2)
    assert time.monotonic() - start < 3600
    assert report.summary_line() == "8 93 22 25 46"
    # the identity root is built; searched too, it added 84,079 nodes and 985 leaves
    assert (report.nodes, report.leaves) == (790_235, 593)
    assert list(report.representatives) == fixture_tables(8)
