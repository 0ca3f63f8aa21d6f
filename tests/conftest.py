import itertools

import pytest

from tward import CayleyTable


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a long run, skipped unless --runslow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; give --runslow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

# 4-element twisted Ward left quasigroup that is neither permutational nor a
# quasigroup; its row-equality kernel is not a congruence.
TABLE4 = CayleyTable.from_rows(
    [
        [0, 2, 1, 3],
        [0, 2, 1, 3],
        [3, 1, 2, 0],
        [3, 1, 2, 0],
    ]
)

# 6-element twisted Ward left quasigroup with kernel block counts 3 and 2.
_R1 = [1, 0, 3, 2, 4, 5]
_R2 = [2, 3, 0, 1, 5, 4]
TABLE6 = CayleyTable.from_rows([_R1, _R2, _R1, _R2, _R1, _R2])

CYCLIC3 = CayleyTable.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


@pytest.fixture
def table4():
    return TABLE4


@pytest.fixture
def table6():
    return TABLE6


@pytest.fixture
def cyclic3():
    return CYCLIC3


def all_left_quasigroups(n):
    """Every left quasigroup table of order n: all n-tuples of rows that are
    permutations."""
    perms = list(itertools.permutations(range(n)))
    for rows in itertools.product(perms, repeat=n):
        yield CayleyTable(rows)


@pytest.fixture(scope="session")
def enum_reports():
    """Shared enumeration results, computed once per session on demand."""
    from tward import enumerate_tw_left_quasigroups

    cache = {}

    def get(n, budget=600.0, threads=1):
        if n not in cache:
            cache[n] = enumerate_tw_left_quasigroups(n, budget_seconds=budget, threads=threads)
        return cache[n]

    return get
