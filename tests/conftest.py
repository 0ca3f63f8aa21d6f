import itertools
import random
from pathlib import Path

import pytest

from tward import (
    CayleyTable,
    build_permutational,
    build_twq,
    canonical_form,
    direct_product,
    twq_catalog_specs,
)
from tward.perms import cycle_type


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

# the cyclic group of order 3 written with its identity at 2; inversion is 1 0 2
CYCLIC3_IDENTITY_2 = CayleyTable.from_rows([[1, 2, 0], [2, 0, 1], [0, 1, 2]])


@pytest.fixture
def table4():
    return TABLE4


@pytest.fixture
def table6():
    return TABLE6


@pytest.fixture
def cyclic3():
    return CYCLIC3


def search_finds_table4(monkeypatch):
    """Make every enumeration report the one representative TABLE4, which is
    neither permutational nor a quasigroup: a failing dichotomy."""
    from tward import search

    report = search.EnumerationReport(
        n=4, total=1, permutational_count=0, quasigroup_count=0, neither_count=1,
        representatives=(TABLE4,),
    )
    monkeypatch.setattr(search, "enumerate_tw_left_quasigroups", lambda n, budget, threads: report)


def all_left_quasigroups(n):
    """Every left quasigroup table of order n: all n-tuples of rows that are
    permutations."""
    perms = list(itertools.permutations(range(n)))
    for rows in itertools.product(perms, repeat=n):
        yield CayleyTable(rows)


def twisted_ward_rows(n):
    """Twisted Ward left quasigroups of order n: affine x*y = c + a(y - x)
    mod n for two units a, permutational x*y = y + 1 mod n and, for composite
    n, the direct product of an affine and a permutational factor."""
    def affine(m, a):
        return [[(1 + a * (y - x)) % m for y in range(m)] for x in range(m)]

    def permutational(m):
        return [[(y + 1) % m for y in range(m)] for _ in range(m)]

    def product(ra, rb):
        na, nb = len(ra), len(rb)
        return [
            [ra[x1][y1] * nb + rb[x2][y2] for y1 in range(na) for y2 in range(nb)]
            for x1 in range(na)
            for x2 in range(nb)
        ]

    found = [affine(n, 1), affine(n, -1), permutational(n)]
    p = next((d for d in range(2, n) if n % d == 0), None)
    if p is not None:
        found.append(product(affine(p, -1), permutational(n // p)))
    return found


def fails_after_row_0(n):
    """x*y = y with entries n - 2 and n - 1 of row n - 1 swapped, for n >= 3:
    every identity and the idempotent braiding hold on rows 0 to n - 3 and
    fail in one of the last two rows."""
    rows = [list(range(n)) for _ in range(n)]
    rows[n - 1][n - 2], rows[n - 1][n - 1] = n - 1, n - 2
    return CayleyTable.from_rows(rows)


def checker_tables(n):
    """Left quasigroups of order n >= 3 for the identity and braiding checkers:
    the tables of twisted_ward_rows(n) and x*y = y, which satisfies all seven
    identities; each of them with two entries of row 1, or of row n - 1,
    swapped (for x*y = y the second is fails_after_row_0(n)); and three
    seeded random left quasigroups."""
    bases = twisted_ward_rows(n) + [[list(range(n)) for _ in range(n)]]
    tables = []
    for rows in bases:
        tables.append(CayleyTable.from_rows(rows))
        for k, i, j in ((1, 0, 1), (n - 1, n - 2, n - 1)):
            near = [list(row) for row in rows]
            near[k][i], near[k][j] = near[k][j], near[k][i]
            tables.append(CayleyTable.from_rows(near))
    rng = random.Random(f"checker-tables-{n}")
    tables += [CayleyTable(tuple(tuple(rng.sample(range(n), n)) for _ in range(n))) for _ in range(3)]
    return tables


def reference_min_conjugates(n):
    """Least permutation of each cycle type of degree n, keyed by the type:
    permutations() yields lexicographic order, so the first one of each."""
    best = {}
    for p in itertools.permutations(range(n)):
        best.setdefault(cycle_type(p), p)
    return best


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


def _partitions(k, largest=None):
    """The partitions of k into nonincreasing parts, each at most ``largest``."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def _with_cycles(parts):
    """A permutation whose cycles have the lengths ``parts``."""
    perm, start = [], 0
    for size in parts:
        perm += list(range(start + 1, start + size)) + [start]
        start += size
    return tuple(perm)


def product_forms(n):
    """Canonical rows of TWQ(K, phi) x Perm(k, pi) for every m | n, every
    catalog spec of order m and one pi per partition of k = n // m: by the
    product structure fact, one table per class whose squares share a row."""
    return [
        canonical_form(direct_product(build_twq(spec), build_permutational(n // m, _with_cycles(parts)))).rows
        for m in range(1, n + 1)
        if n % m == 0
        for spec in twq_catalog_specs(m)
        for parts in _partitions(n // m)
    ]


def squares_share_a_row(t):
    """True iff every square y*y has the same row."""
    return len({t.rows[t.rows[y][y]] for y in range(t.n)}) == 1


def fixture_tables(n):
    """The tables of ``ell<n>_representatives.txt``: one table per line, each
    row as a string of digits."""
    text = Path(__file__).with_name(f"ell{n}_representatives.txt").read_text()
    return [
        CayleyTable.from_rows([[int(c) for c in row] for row in line.split()])
        for line in text.splitlines()
    ]
