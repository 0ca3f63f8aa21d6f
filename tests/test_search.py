import pytest

from tward import (
    check_identity,
    dichotomy_report,
    enumerate_tw_left_quasigroups,
    enumerate_tw_quasigroups,
    table_isomorphic,
    twq_catalog_specs,
)
from tward.errors import BudgetExceededError
from tward.tables import is_self_canonical

ELL_EXPECTED = {1: 1, 2: 3, 3: 5, 4: 14, 5: 11, 6: 31}


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


def test_summary_line(enum_reports):
    assert enum_reports(5).summary_line() == "5 11 7 4 0"
