"""ell(8) = 93 = 22 + 25 + 46.

``ell8_representatives.txt`` holds the 93 canonical representatives of the
twisted Ward left quasigroups of order 8, one table per line, each row as a
string of digits.  The fast test checks the fixture against facts that do
not come from the search; the slow test reproduces it with the search.
"""
import time
from pathlib import Path

import pytest

from tward import (
    CayleyTable,
    check_identity,
    classify_structure,
    enumerate_tw_left_quasigroups,
    enumerate_tw_quasigroups,
    kernel_size_report,
    partition_number,
)
from tward.tables import is_self_canonical

FIXTURE = Path(__file__).with_name("ell8_representatives.txt")


def fixture_tables():
    return [
        CayleyTable.from_rows([[int(c) for c in row] for row in line.split()])
        for line in FIXTURE.read_text().splitlines()
    ]


def test_ell8_fixture_against_independent_facts():
    tables = fixture_tables()
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


@pytest.mark.slow
def test_ell8_law_free_search():
    start = time.monotonic()
    report = enumerate_tw_left_quasigroups(8, budget_seconds=3600, threads=2)
    assert time.monotonic() - start < 3600
    assert report.summary_line() == "8 93 22 25 46"
    assert (report.nodes, report.leaves) == (874_314, 1_578)
    assert list(report.representatives) == fixture_tables()
