import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tward import (
    BlockFamily,
    CayleyTable,
    TwqSpec,
    as_group,
    build_affine,
    build_block,
    build_permutational,
    build_twq,
    check_identity,
    decompose_block,
    recover_structure,
    table_isomorphic,
    twq_spec_isomorphic,
)
from tward.construct import BlockRejectionError, _isotope
from tward.errors import IdentityViolationError
from tward.groups import enumerate_groups
from tward.perms import compose, identity_perm
from tward.search import twq_catalog_specs
from tward.tables import find_all_isomorphisms


def _cyclic_group(n):
    return as_group(
        CayleyTable.from_rows([[(x + y) % n for y in range(n)] for x in range(n)])
    )


def test_twq_spec_validation(cyclic3):
    g = as_group(cyclic3)
    with pytest.raises(ValueError):
        TwqSpec(group=g, psi=(1, 0, 2), c=0)  # not an automorphism
    with pytest.raises(ValueError):
        TwqSpec(group=g, psi=(0, 1, 2), c=5)


@pytest.mark.parametrize(
    "text",
    ["1\n0\n", "1\n0\n# psi\n", "1\n0\n# psi\n0\n# c\n"],
    ids=["no-markers", "nothing-after-psi", "nothing-after-c"],
)
def test_twq_spec_parse_missing_parts(text):
    with pytest.raises(ValueError):
        TwqSpec.parse(text)


def test_build_twq_small(cyclic3):
    g = as_group(cyclic3)
    t_id = build_twq(TwqSpec(group=g, psi=(0, 1, 2), c=0))
    assert t_id.rows == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    t_neg = build_twq(TwqSpec(group=g, psi=(0, 2, 1), c=0))
    assert t_neg.rows == ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    for t in (t_id, t_neg):
        assert t.is_quasigroup
        assert check_identity(t, "twisted_ward")
    assert not table_isomorphic(t_id, t_neg)


def test_twq_constant_twist_is_isomorphic(cyclic3):
    g = as_group(cyclic3)
    base = build_twq(TwqSpec(group=g, psi=(0, 2, 1), c=0))
    for c in (1, 2):
        twisted = build_twq(TwqSpec(group=g, psi=(0, 2, 1), c=c))
        assert table_isomorphic(base, twisted)


def test_twq_spec_text_round_trip(cyclic3):
    spec = TwqSpec(group=as_group(cyclic3), psi=(0, 2, 1), c=1)
    parsed = TwqSpec.parse(spec.to_text())
    assert parsed.group.table == spec.group.table
    assert parsed.psi == spec.psi and parsed.c == spec.c


def test_build_affine():
    g = _cyclic_group(4)
    # phi = -psi always satisfies phi psi = psi phi and phi^2 + phi psi = 0
    res = build_affine(g, (0, 3, 2, 1), (0, 1, 2, 3), 1)
    assert res.twisted_ward
    assert check_identity(res.table, "twisted_ward")
    # phi = identity breaks the algebraic conditions
    res2 = build_affine(g, (0, 1, 2, 3), (0, 1, 2, 3), 0)
    assert not res2.twisted_ward
    assert not check_identity(res2.table, "twisted_ward")


def test_build_affine_rejects_bad_input():
    g = _cyclic_group(4)
    with pytest.raises(ValueError):
        build_affine(g, (0, 1, 1, 0), (0, 1, 2, 3), 0)  # not an endomorphism
    s3 = as_group(
        CayleyTable.from_rows(
            [
                [0, 1, 2, 3, 4, 5],
                [1, 0, 4, 5, 2, 3],
                [2, 5, 0, 4, 3, 1],
                [3, 4, 5, 0, 1, 2],
                [4, 3, 1, 2, 5, 0],
                [5, 2, 3, 1, 0, 4],
            ]
        )
    )
    with pytest.raises(ValueError):
        build_affine(s3, identity_perm(6), identity_perm(6), 0)


def test_build_permutational():
    t = build_permutational(3, (2, 0, 1))
    assert t.rows == ((2, 0, 1),) * 3
    assert check_identity(t, "twisted_ward")
    with pytest.raises(ValueError):
        build_permutational(3, (0, 0, 1))


def test_build_permutational_order_zero_raises():
    with pytest.raises(ValueError, match="at least 1"):
        build_permutational(0, ())


def test_block_round_trip(table4, table6):
    for t in (table4, table6):
        fam = decompose_block(t)
        rebuilt = build_block(fam)
        assert table_isomorphic(rebuilt, t)
        assert check_identity(rebuilt, "twisted_ward")


def test_block_rejection():
    # singleton blocks carrying a cyclic-shift table: composites depend on x
    fam = BlockFamily(x_size=3, a_size=1, maps=((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    with pytest.raises(BlockRejectionError) as exc:
        build_block(fam)
    assert len(exc.value.witness) == 4


def test_decompose_needs_identity(cyclic3):
    with pytest.raises(IdentityViolationError):
        decompose_block(cyclic3)


def test_recover_structure(cyclic3):
    g = as_group(cyclic3)
    for psi in ((0, 1, 2), (0, 2, 1)):
        for c in range(3):
            spec = TwqSpec(group=g, psi=psi, c=c)
            t = build_twq(spec)
            rec = recover_structure(t)
            assert rec.c == 0
            assert table_isomorphic(build_twq(rec), t)
            assert twq_spec_isomorphic(rec, TwqSpec(group=g, psi=psi, c=0))


def test_recover_rejects_non_quasigroup(table4):
    with pytest.raises(IdentityViolationError):
        recover_structure(table4)


def test_spec_isomorphism_separates_automorphisms():
    g = _cyclic_group(5)
    # 2x and 3x are inverse automorphisms, hence conjugate in Aut(Z5)=Z4 only
    # if equal; 2x vs 4x: 4 = 2^2, distinct classes in the abelian Aut group
    two = TwqSpec(group=g, psi=tuple(2 * x % 5 for x in range(5)), c=0)
    four = TwqSpec(group=g, psi=tuple(4 * x % 5 for x in range(5)), c=0)
    assert not twq_spec_isomorphic(two, four)
    assert twq_spec_isomorphic(two, two)
    assert not table_isomorphic(build_twq(two), build_twq(four))


@given(st.integers(2, 6), st.data())
@settings(max_examples=25, deadline=None)
def test_catalog_tables_are_twisted_ward_quasigroups(n, data):
    groups = enumerate_groups(n)
    g = groups[data.draw(st.integers(0, len(groups) - 1))]
    from tward.perms import automorphism_group

    aut = sorted(automorphism_group(g.table).elements)
    psi = aut[data.draw(st.integers(0, len(aut) - 1))]
    c = data.draw(st.integers(0, n - 1))
    t = build_twq(TwqSpec(group=g, psi=psi, c=c))
    assert t.is_quasigroup
    assert check_identity(t, "twisted_ward")


def _reference_spec_isomorphic(s1, s2):
    """Spec isomorphism by enumerating every group isomorphism G1 -> G2."""
    if s1.group.n != s2.group.n:
        return False
    for theta in find_all_isomorphisms(s1.group.table, s2.group.table):
        if compose(theta, s1.psi) == compose(s2.psi, theta):
            return True
    return False


def _assert_spec_isomorphism_agrees(firsts, seconds):
    for a in firsts:
        for b in seconds:
            assert twq_spec_isomorphic(a, b) == _reference_spec_isomorphic(a, b)


@pytest.mark.parametrize("n", range(1, 10))
def test_spec_isomorphism_matches_reference_on_catalog_pairs(n):
    specs = twq_catalog_specs(n)
    _assert_spec_isomorphism_agrees(specs, specs)
    # the catalog holds one spec per class
    assert [[twq_spec_isomorphic(a, b) for b in specs] for a in specs] == [
        [a is b for b in specs] for a in specs
    ]


@pytest.mark.parametrize("n", range(2, 10))
def test_spec_isomorphism_matches_reference_on_recovered_groups(n):
    """Specs recovered from relabeled tables hold new group objects, with
    tables other than the catalog's, whose automorphisms are not cached yet."""
    rng = random.Random(f"recovered-{n}")
    specs = twq_catalog_specs(n)
    recovered = []
    for s in specs:
        pi = list(range(n))
        rng.shuffle(pi)
        recovered.append(recover_structure(build_twq(s).relabel(pi)))
    if n >= 4:  # below 4 every group of order n has one table with identity 0
        assert any(r.group.table != s.group.table for r, s in zip(recovered, specs))
    _assert_spec_isomorphism_agrees(recovered, specs)
    _assert_spec_isomorphism_agrees(specs, recovered)
    for i, r in enumerate(recovered):
        assert [twq_spec_isomorphic(r, s) for s in specs] == [j == i for j in range(len(specs))]


@pytest.mark.parametrize("n", [4, 8])
def test_spec_isomorphism_over_non_isomorphic_groups(n):
    specs = twq_catalog_specs(n)
    pairs = [(a, b) for a in specs for b in specs if a.group is not b.group]
    assert pairs
    for a, b in pairs:
        assert not twq_spec_isomorphic(a, b)
        assert not _reference_spec_isomorphic(a, b)


def _reference_build_twq(spec):
    """x*y = c . psi(x^{-1} y) entry by entry, with the group's own inverse."""
    g, psi, c = spec.group, spec.psi, spec.c
    n = g.n
    return CayleyTable.from_rows(
        [[g.mul(c, psi[g.mul(g.inv(x), y)]) for y in range(n)] for x in range(n)]
    )


def _reference_isotope(t, e):
    """x <> y = (x rdiv e)*(e ldiv y), with one rdiv scan per element."""
    n = t.n
    re = [t.rdiv(x, e) for x in range(n)]
    le = t._ldiv_rows[e]
    return CayleyTable.from_rows([[t.rows[re[x]][le[y]] for y in range(n)] for x in range(n)])


def _assert_build_twq_agrees(spec):
    for c in range(spec.group.n):
        twisted = TwqSpec(group=spec.group, psi=spec.psi, c=c)
        assert build_twq(twisted).rows == _reference_build_twq(twisted).rows


@pytest.mark.parametrize("n", range(1, 10))
def test_build_twq_matches_reference(n):
    """On every catalog spec, and on specs over groups recovered from
    relabeled tables (new group objects, other tables), for every c."""
    rng = random.Random(f"build-{n}")
    for s in twq_catalog_specs(n):
        _assert_build_twq_agrees(s)
        pi = list(range(n))
        rng.shuffle(pi)
        _assert_build_twq_agrees(recover_structure(build_twq(s).relabel(pi)))


@pytest.mark.parametrize("n", range(1, 9))
def test_isotope_matches_reference(n):
    for s in twq_catalog_specs(n):
        t = build_twq(s)
        for e in range(n):
            assert _isotope(t, e).rows == _reference_isotope(t, e).rows
