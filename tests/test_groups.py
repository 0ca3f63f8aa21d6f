import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tward import (
    CayleyTable,
    TwqSpec,
    as_group,
    automorphism_group,
    build_twq,
    canonical_form,
    conjugacy_classes,
    counts_row,
    enumerate_groups,
    is_group,
    partition_number,
    q_count,
    table_isomorphic,
)
from tward.errors import ConsistencyError, StructureError
from tward.groups import CLASSICAL_GROUP_COUNTS, MAX_GROUP_ORDER, FiniteGroup
from tward.perms import compose, inverse

from conftest import CYCLIC3_IDENTITY_2

Q_EXPECTED = (1, 1, 2, 5, 4, 5, 6, 25, 14, 9, 10)
P_EXPECTED = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56)


def test_as_group_validates(cyclic3, table4):
    g = as_group(cyclic3)
    assert g.n == 3 and g.inv(1) == 2
    assert g.is_abelian()
    with pytest.raises(StructureError):
        as_group(table4)
    # quasigroup without an identity element
    with pytest.raises(StructureError):
        as_group(CayleyTable.from_rows([[1, 0, 2], [0, 2, 1], [2, 1, 0]]))


def test_as_group_rejects_identity_not_0():
    """A group is read in its own labels: written with its identity at 1
    or 2 it is a group, but as_group does not relabel it."""
    z2 = CayleyTable.from_rows([[1, 0], [0, 1]])
    for t, e in ((z2, 1), (CYCLIC3_IDENTITY_2, 2)):
        assert is_group(t)
        with pytest.raises(StructureError, match=rf"^the identity is {e}, not 0$"):
            as_group(t)


@pytest.mark.parametrize("n", [0, MAX_GROUP_ORDER + 1])
def test_enumerate_groups_order_bounds(n):
    with pytest.raises(ValueError, match="group enumeration supports"):
        enumerate_groups(n)


# a latin square with identity 0 that is not associative: a loop, not a group
NONASSOCIATIVE_LOOP = CayleyTable.from_rows(
    [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
)


def test_nonassociative_rejected():
    assert not is_group(NONASSOCIATIVE_LOOP)


def test_finite_group_rejects_nonassociative_loop():
    """Identity 0 and latin rows are not enough: no FiniteGroup, hence no
    TwqSpec and no build_twq table, exists over the loop."""
    with pytest.raises(StructureError, match="^associativity fails at"):
        FiniteGroup(NONASSOCIATIVE_LOOP)
    spec_text = NONASSOCIATIVE_LOOP.to_text() + "# psi\n0 1 2 3 4\n# c\n0\n"
    with pytest.raises(StructureError, match="^associativity fails at"):
        TwqSpec.parse(spec_text)


def test_group_counts_per_order():
    for n in range(1, MAX_GROUP_ORDER + 1):
        assert len(enumerate_groups(n)) == CLASSICAL_GROUP_COUNTS[n - 1]


def test_enumerated_groups_are_pairwise_nonisomorphic():
    for n in (6, 8, 12):
        cat = enumerate_groups(n)
        for i, g in enumerate(cat):
            assert is_group(g.table)
            for h in cat[i + 1 :]:
                assert not table_isomorphic(g.table, h.table)


def test_abelian_breakdown_order8():
    cat = enumerate_groups(8)
    assert sum(1 for g in cat if g.is_abelian()) == 3


def test_q_counts():
    for n, expect in enumerate(Q_EXPECTED, start=1):
        assert q_count(n) == expect


def test_partition_numbers():
    for n, expect in enumerate(P_EXPECTED, start=1):
        assert partition_number(n) == expect
    assert partition_number(0) == 1
    with pytest.raises(ValueError):
        partition_number(-1)


@given(st.integers(1, 30))
@settings(deadline=None)
def test_partition_recurrence(n):
    # p(n) - p(n-1) counts partitions with all parts >= 2; cross-check via
    # the conjugate identity p(n, parts >= 2) = p(n) - p(n - 1)
    def slow(n, least):
        if n == 0:
            return 1
        return sum(slow(n - k, k) for k in range(least, n + 1))

    assert partition_number(n) == slow(n, 1)


def test_q_count_from_all_automorphisms():
    """q(n) again from the isomorphism theorem: twisted Ward quasigroups over
    G with automorphisms psi, psi' are isomorphic iff psi, psi' are conjugate,
    so the distinct canonical forms over every (G, psi) number q(n)."""
    for n in range(1, 10):
        forms = set()
        for g in enumerate_groups(n):
            for psi in automorphism_group(g.table).elements:
                forms.add(canonical_form(build_twq(TwqSpec(g, psi, 0))).rows)
        assert len(forms) == q_count(n), n
        # the constant is immaterial: x -> cx is an isomorphism onto the c-twist
        g = enumerate_groups(n)[-1]
        psi = max(automorphism_group(g.table).elements)
        plain, twisted = (canonical_form(build_twq(TwqSpec(g, psi, c))) for c in (0, n - 1))
        assert plain == twisted


def test_conjugacy_classes_of_catalog_automorphisms():
    """conjugacy_classes on each Aut(G) of order <= 8 against the partition
    of Aut(G) into the orbits of conjugation, found by brute force."""
    for n in range(1, 9):
        for g in enumerate_groups(n):
            aut = g.automorphisms.elements
            classes = conjugacy_classes(g.automorphisms)
            orbit = {x: frozenset(compose(compose(h, x), inverse(h)) for h in aut) for x in aut}
            members = [orbit[c.representative] for c in classes]
            for c, cls in zip(classes, members):
                assert all(orbit[y] == cls for y in cls)  # closed under conjugation
                assert (c.size, c.representative) == (len(cls), min(cls))
            assert sum(map(len, members)) == len(aut) and frozenset().union(*members) == aut
            assert set(members) == set(orbit.values())
            assert classes == sorted(classes, key=lambda c: (c.size, c.representative))


# sha256 of repr((rows, automorphism_reps)) over the catalog groups of orders 1..12
CATALOG_DIGEST = "44dde78d5128ccd0640130c80eba80e98852ac048f58a1de53f5d05d3cf5e124"


def test_catalog_pinned():
    """The catalog's tables and class representatives are unchanged."""
    digest = hashlib.sha256()
    for n in range(1, MAX_GROUP_ORDER + 1):
        for g in enumerate_groups(n):
            digest.update(repr((g.table.rows, g.automorphism_reps)).encode())
    assert digest.hexdigest() == CATALOG_DIGEST


def test_one_automorphism_group_per_catalog_group(monkeypatch):
    from tward import groups, search

    calls = []
    real = groups.automorphism_group

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(groups, "automorphism_group", counted)
    enumerate_groups.cache_clear()
    for n in range(1, 10):
        q_count(n)
        search.twq_catalog_specs(n)
        search.twq_catalog_specs(n)
        search.enumerate_tw_quasigroups(n, cross_check=False)
    assert len(calls) == sum(CLASSICAL_GROUP_COUNTS[:9]) == 16


def test_counts_row():
    row = counts_row(5, budget_seconds=120.0)
    assert (row.n, row.ell, row.q, row.p) == (5, 11, 4, 7)
    row10 = counts_row(10, with_ell=False)
    assert row10.ell is None and row10.q == 9 and row10.p == 42


def test_counts_row_prime_identity_failure(monkeypatch):
    from tward import search

    real = search.enumerate_tw_left_quasigroups

    def off_by_one(n, budget_seconds=None, threads=1):
        report = real(n, budget_seconds=budget_seconds, threads=threads)
        return dataclasses.replace(report, total=report.total + 1)

    monkeypatch.setattr(search, "enumerate_tw_left_quasigroups", off_by_one)
    with pytest.raises(ConsistencyError):
        counts_row(5)


def test_group_table_identity_normalized():
    with pytest.raises(StructureError, match="^the identity is 1, not 0$"):
        FiniteGroup(CayleyTable.from_rows([[1, 0], [0, 1]]))


def test_group_table_must_be_a_quasigroup():
    """Row 0 is the identity row in both: in the first 1*1 = 1 leaves 1
    without an inverse, in the second every row is a permutation but column
    0 repeats 0."""
    for rows in (((0, 1), (1, 1)), ((0, 1), (0, 1))):
        with pytest.raises(StructureError, match="^not a quasigroup$"):
            FiniteGroup(CayleyTable(rows))
