import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tward import (
    CayleyTable,
    automorphism_group,
    closure,
    conjugacy_classes,
    dis_element_form,
    is_regular,
)
from conftest import reference_min_conjugates
from tward import search
from tward.errors import ClosureOverflowError, IdentityViolationError, StructureError
from tward.groups import partition_number
from tward.perms import (
    compose,
    cycle_type,
    format_perm,
    identity_perm,
    inverse,
    is_group_isotope,
    is_perm,
    least_conjugate_rows,
    multiplication_groups,
    parse_perm,
)

perm5 = st.integers(1, 5).flatmap(lambda n: st.permutations(range(n)).map(tuple))


@given(perm5)
def test_inverse_round_trip(p):
    assert compose(p, inverse(p)) == identity_perm(len(p))
    assert compose(inverse(p), p) == identity_perm(len(p))


@given(perm5, st.data())
@settings(deadline=None)
def test_compose_associative(p, data):
    n = len(p)
    q = tuple(data.draw(st.permutations(range(n))))
    r = tuple(data.draw(st.permutations(range(n))))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 3, 0)) == (4,)
    assert cycle_type(identity_perm(4)) == (1, 1, 1, 1)


@pytest.mark.parametrize("n", range(8))
def test_least_conjugates_match_reference(n):
    mc = reference_min_conjugates(n)
    assert search._roots(n) == sorted(mc.values())
    perms = list(itertools.permutations(range(n)))
    row_of = {p: r for r, p in enumerate(perms)}
    assert least_conjugate_rows(n).tolist() == [row_of[mc[cycle_type(p)]] for p in perms]


@pytest.mark.parametrize("n", range(9))
def test_one_least_conjugate_per_partition(n):
    assert len(search._roots(n)) == partition_number(n)


def test_roots_cover_all_cycle_types():
    by_type = {cycle_type(p): p for p in search._roots(4)}
    assert set(by_type) == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}
    assert by_type[(4,)] == (1, 2, 3, 0)


def test_perm_text_round_trip():
    p = (2, 0, 1)
    assert parse_perm(format_perm(p)) == p
    with pytest.raises(ValueError):
        parse_perm("0 0 1")
    assert is_perm((1, 0)) and not is_perm((1, 1))


def test_closure_symmetric_group(monkeypatch):
    g = closure([(1, 0, 2), (1, 2, 0)], 3)
    assert g.order == 6
    assert (2, 1, 0) in g
    monkeypatch.setattr("tward.perms.CLOSURE_CAP", 10)
    with pytest.raises(ClosureOverflowError, match="cap of 10 elements"):
        closure([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 5)


def test_closure_rejects_bad_generators():
    with pytest.raises(ValueError):
        closure([(0, 0)], 2)
    with pytest.raises(ValueError):
        closure([(0, 1)], 3)


def test_multiplication_groups(table4, cyclic3):
    mg = multiplication_groups(table4)
    assert mg.lmlt.order == 4
    assert mg.dis_plus.order == mg.dis_minus.order == mg.dis.order == 2
    assert not is_regular(mg.dis_plus)
    mg3 = multiplication_groups(cyclic3)
    assert mg3.lmlt.order == 3
    assert is_regular(mg3.dis_plus)
    assert is_group_isotope(cyclic3)


def test_multiplication_groups_need_their_structure(table4):
    with pytest.raises(StructureError, match="not a left quasigroup"):
        multiplication_groups(CayleyTable.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(StructureError, match="requires a quasigroup"):
        is_group_isotope(table4)  # a left quasigroup, not a quasigroup


def test_dis_element_form(cyclic3):
    # a twisted Ward quasigroup: x*y = psi(-x+y) on Z3 with psi = negation
    twq = CayleyTable.from_rows([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    form = dis_element_form(twq)
    assert form.verified and form.e == 0
    with pytest.raises(IdentityViolationError):
        dis_element_form(cyclic3)


def test_automorphism_group(cyclic3, table4):
    aut = automorphism_group(cyclic3)
    assert aut.order == 2
    assert closure(aut.elements, 3).elements == aut.elements
    aut4 = automorphism_group(table4)
    assert closure(aut4.elements, 4).elements == aut4.elements


def test_conjugacy_classes():
    s3 = closure([(1, 0, 2), (1, 2, 0)], 3)
    classes = conjugacy_classes(s3)
    assert [c.size for c in classes] == [1, 2, 3]
    assert classes[0].representative == (0, 1, 2)
    assert sum(c.size for c in classes) == 6
