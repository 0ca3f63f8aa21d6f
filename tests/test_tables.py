import gc
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tward import (
    CayleyTable,
    Partition,
    canonical_form,
    cayley_kernel,
    check_identity,
    classify_structure,
    is_congruence,
    kernel_size_report,
    quadrangle_criterion,
    squaring_kernel,
    squaring_map,
    table_isomorphic,
)
from tward.construct import build_twq
from tward.errors import IdentityViolationError, StructureError
from tward.groups import enumerate_groups
from tward.perms import automorphism_group
from tward.search import twq_catalog_specs
from tward.tables import (
    IDENTITY_KINDS,
    _perm_arrays,
    find_all_isomorphisms,
    find_isomorphism,
    is_self_canonical,
)

from conftest import all_left_quasigroups, checker_tables


def random_perm_rows(n):
    perm = st.permutations(range(n)).map(tuple)
    return st.tuples(*([perm] * n))


def left_quasigroups(max_n=4):
    return st.integers(2, max_n).flatmap(random_perm_rows).map(CayleyTable)


def test_table_validation():
    with pytest.raises(ValueError):
        CayleyTable.from_rows([[0, 1], [0]])
    with pytest.raises(ValueError):
        CayleyTable.from_rows([[0, 2], [0, 1]])


def test_parse_round_trip(table4):
    text = table4.to_text(comments=["demo"])
    assert text.startswith("# demo\n4\n")
    assert CayleyTable.parse(text) == table4


def test_bool_entries_are_written_as_ints():
    t = CayleyTable(((0, True), (True, 0)))
    assert t.to_text() == "2\n0 1\n1 0\n"
    assert CayleyTable.parse(t.to_text()) == t


def test_parse_errors():
    with pytest.raises(ValueError):
        CayleyTable.parse("")
    with pytest.raises(ValueError):
        CayleyTable.parse("x\n0")
    with pytest.raises(ValueError):
        CayleyTable.parse("2\n0 1")
    with pytest.raises(ValueError):
        CayleyTable.parse("2\n0 1\n1")
    with pytest.raises(ValueError):
        CayleyTable.parse("0\n")
    with pytest.raises(ValueError):
        CayleyTable.parse("1\n0\n0")
    assert CayleyTable.parse("# c\n1\n0\n# trailing comment\n") == CayleyTable(((0,),))
    # the CLI writes a RESULT line before a table; it reads back like a comment
    assert CayleyTable.parse("RESULT: ok\n1\n0\n") == CayleyTable(((0,),))


@pytest.mark.parametrize(
    "rows",
    [((0, 1.5), (1, 0)), ((0, 1.0), (1, 0)), ((0, "1"), (1, 0)), ((0, None), (1, 0)), ((0, [1]), (1, 0))],
    ids=["float", "integral-float", "string", "none", "unhashable"],
)
def test_non_integer_entries_rejected(rows):
    with pytest.raises(ValueError):
        CayleyTable(rows)


def test_from_rows_rejects_what_the_constructor_rejects():
    for rows in (
        [[0, 1.5], [1, 0]], [[0, 1.0], [1, 0]], [[0, np.float64(1)], [1, 0]], [["0", "1"], ["1", "0"]],
        [[0, None], [1, 0]], [[0, [1]], [1, 0]], [[0, {1}], [1, 0]],
        [[0, 2], [1, 0]], [[0, -1], [1, 0]], [[0, np.int64(2)], [1, 0]],
        [[0, 1], [0]], [[0, 1, 2], [1, 0], [2, 1, 0]], [[0, 1]],
    ):  # non-integer, unhashable, out-of-range entries and ragged rows: ValueError, no other type
        with pytest.raises(ValueError):
            CayleyTable(tuple(map(tuple, rows)))
        with pytest.raises(ValueError):
            CayleyTable(rows)
        with pytest.raises(ValueError):
            CayleyTable.from_rows(rows)
        with pytest.raises(ValueError):
            CayleyTable.from_rows(iter(rows))
    with pytest.raises(ValueError):
        CayleyTable(((0, 1), (1, 0))).relabel((1.0, 0.0))


def test_numpy_integer_entries_accepted():
    rows = np.array([[1, 0], [1, 0]], dtype=np.int64)
    assert CayleyTable.from_rows(rows) == CayleyTable(((1, 0), (1, 0)))
    # bools are integers too, and from_rows keeps them as bools
    assert CayleyTable.from_rows([[True, False], [True, False]]).rows == ((1, 0), (1, 0))
    assert all(type(v) is int for row in CayleyTable.from_rows(rows).rows for v in row)
    t = CayleyTable(tuple(tuple(r) for r in rows))
    assert t.is_left_quasigroup and check_identity(t, "rack")


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 2], [1, 2, 0], [0, 0, 1]],
        ((1, 0, 2), (0, 2, 1), (2, 1, 0)),
        np.array([[2, 0, 1], [2, 0, 1], [1, 2, 0]], dtype=np.int64),
        np.array([[0, 1, 2], [0, 1, 2], [0, 1, 2]], dtype=np.uint8),
        [[np.int32(0), 1, 2], [1, np.uint16(2), 0], [2, 0, np.int64(1)]],
        ((True, False), (False, True)),
        [[0, True], [True, 1]],
    ],
    ids=["lists", "tuples", "numpy-int64", "numpy-uint8", "mixed-numpy-and-int", "bools", "bools-and-ints"],
)
def test_from_rows_agrees_with_the_constructor(rows):
    t = CayleyTable(rows)
    for given in (rows, list(rows), (row for row in rows), [(v for v in row) for row in rows]):
        u = CayleyTable.from_rows(given)
        assert u.rows == t.rows and u == t and hash(u) == hash(t)
        assert u.is_left_quasigroup == t.is_left_quasigroup == all(len(set(r)) == len(r) for r in t.rows)
        if type(rows) is tuple:  # the constructor keeps tuple rows of ints and bools as given
            assert [type(v) for r in u.rows for v in r] == [type(v) for r in rows for v in r]


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],
        np.array([[0, 1], [1, 0]], dtype=np.uint8),
        tuple(tuple(r) for r in np.array([[0, 1], [1, 0]], dtype=np.int64)),
        ([0, 1], (1, 0)),
    ],
    ids=["list-rows", "ndarray", "numpy-int-tuples", "mixed-rows"],
)
def test_rows_other_than_int_tuples_are_stored_as_int_tuples(rows):
    t = CayleyTable(rows)
    assert t == CayleyTable.from_rows(rows) == CayleyTable(((0, 1), (1, 0)))
    assert hash(t) == hash(CayleyTable.from_rows(rows))
    assert type(t.rows) is tuple and all(type(r) is tuple for r in t.rows)
    assert all(type(v) is int for r in t.rows for v in r)
    assert t.is_quasigroup


def test_int_tuple_rows_are_kept_as_given():
    rows = ((0, 1), (1, 0))
    assert CayleyTable(rows).rows is rows


def test_left_quasigroup_flag_needs_no_division_rows():
    for entries in itertools.product(range(2), repeat=4):
        t = CayleyTable((entries[:2], entries[2:]))
        assert t.is_left_quasigroup == all(sorted(r) == [0, 1] for r in t.rows)
    t = CayleyTable(((1, 0, 2), (0, 1, 2), (2, 1, 0)))
    assert check_identity(t, "twisted_ward") is False
    assert "_ldiv_rows" not in vars(t)


def test_divisions(cyclic3):
    for x in range(3):
        for y in range(3):
            assert cyclic3.op(x, cyclic3.ldiv(x, y)) == y
            z = cyclic3.rdiv(x, y)
            assert cyclic3.op(z, y) == x
    assert cyclic3.ldiv(1, 0) == 2  # 1*2 = 0


def test_rdiv_missing():
    t = CayleyTable.from_rows([[0, 0], [0, 1]])
    assert t.rdiv(1, 0) is None


def test_ldiv_requires_permutation_row():
    t = CayleyTable.from_rows([[0, 0], [0, 1]])
    with pytest.raises(StructureError):
        t.ldiv(0, 1)
    # row 1 is a permutation, but only a left quasigroup has left division
    with pytest.raises(StructureError, match="not a left quasigroup"):
        t.ldiv(1, 0)


def test_structure_flags(table4, cyclic3):
    f4 = classify_structure(table4)
    assert f4.is_left_quasigroup and not f4.is_quasigroup
    assert not f4.is_permutational and not f4.is_faithful
    f3 = classify_structure(cyclic3)
    assert f3.is_quasigroup and f3.is_faithful and not f3.is_permutational
    fp = classify_structure(CayleyTable.from_rows([[1, 0], [1, 0]]))
    assert fp.is_permutational and not fp.is_faithful


def test_identity_checks(table4, table6, cyclic3):
    assert check_identity(table4, "twisted_ward")
    assert check_identity(table6, "twisted_ward")
    assert not check_identity(table4, "rack")
    # group left division x*y = -x + y satisfies the Ward law
    sub3 = CayleyTable.from_rows([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert check_identity(sub3, "ward")
    assert check_identity(sub3, "twisted_ward")
    assert not check_identity(cyclic3, "twisted_ward")
    holds, wit = check_identity(cyclic3, "twisted_ward", witness=True)
    assert not holds
    x, y, z = wit
    r = cyclic3.rows
    assert r[r[x][y]][r[x][z]] != r[r[y][y]][r[y][z]]


def test_unknown_identity(table4):
    """An unknown kind raises ValueError whatever its type, unhashable ones too."""
    for kind in ("nope", ["rack"], {"rack"}, ("rack",), None, 3):
        with pytest.raises(ValueError, match="unknown identity kind"):
            check_identity(table4, kind)


def _reference_check_identity(t, kind):
    """The per-triple checker the table-driven check_identity replaced: both
    sides of the identity evaluated directly for each (x, y, z)."""
    n = t.n
    rows = t.rows
    ld = t._ldiv_rows

    def sides(x, y, z):
        if kind == "rack":
            return rows[rows[x][y]][rows[x][z]], rows[x][rows[y][z]]
        if kind == "rump":
            return rows[rows[x][y]][rows[x][z]], rows[rows[y][x]][rows[y][z]]
        if kind == "twisted_ward":
            return rows[rows[x][y]][rows[x][z]], rows[rows[y][y]][rows[y][z]]
        if kind == "ward":
            return rows[rows[x][y]][rows[x][z]], rows[y][z]
        xy = rows[x][y]
        if kind == "rack_div":
            return rows[x][rows[y][z]], rows[xy][rows[x][z]]
        if kind == "rump_div":
            return rows[x][rows[y][z]], rows[xy][rows[ld[xy][x]][z]]
        assert kind == "twisted_ward_div"
        return rows[x][rows[y][z]], rows[xy][rows[ld[xy][xy]][z]]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs, rhs = sides(x, y, z)
                if lhs != rhs:
                    return False, (x, y, z)
    return True, None


def assert_identities_match_reference(t):
    for kind in IDENTITY_KINDS:
        expected = _reference_check_identity(t, kind)
        assert check_identity(t, kind, witness=True) == expected, kind
        assert check_identity(t, kind) == expected[0]


def test_identities_match_reference_on_all_order1_and_order2_left_quasigroups():
    for n in (1, 2):
        for t in all_left_quasigroups(n):
            assert_identities_match_reference(t)


def test_identities_match_reference_on_all_order3_left_quasigroups():
    tables = list(all_left_quasigroups(3))
    assert len(tables) == 216 and len(IDENTITY_KINDS) == 7
    holds = dict.fromkeys(IDENTITY_KINDS, 0)
    for t in tables:
        assert_identities_match_reference(t)
        for kind in IDENTITY_KINDS:
            holds[kind] += check_identity(t, kind)
    # every kind both holds and fails somewhere, so verdicts and witnesses are both compared
    assert all(0 < h < 216 for h in holds.values()), holds


@given(left_quasigroups(max_n=6))
@settings(max_examples=150, deadline=None)
def test_identities_match_reference_on_drawn_tables(t):
    assert_identities_match_reference(t)


@pytest.mark.parametrize("n", range(7, 13))
def test_identities_match_reference_past_the_drawn_orders(n):
    """At the orders left_quasigroups never draws, every kind holds on some
    table and fails on another after row 0; witnesses are plain ints."""
    holds, fails_after_row_0 = set(), set()
    for t in checker_tables(n):
        assert_identities_match_reference(t)
        for kind in IDENTITY_KINDS:
            verdict, wit = check_identity(t, kind, witness=True)
            assert type(verdict) is bool
            if verdict:
                holds.add(kind)
            else:
                assert all(type(v) is int for v in wit), wit
                if wit[0] >= 1:
                    fails_after_row_0.add(kind)
    assert holds == fails_after_row_0 == set(IDENTITY_KINDS)


@given(left_quasigroups(), st.data())
@settings(max_examples=60, deadline=None)
def test_identities_invariant_under_relabeling(t, data):
    pi = data.draw(st.permutations(range(t.n)))
    s = t.relabel(pi)
    for kind in IDENTITY_KINDS:
        assert check_identity(t, kind) == check_identity(s, kind)


def test_partition_basics():
    p = Partition.from_assignment(["a", "b", "a", "c"])
    assert p.blocks == ((0, 2), (1,), (3,))
    assert p.block_of == (0, 1, 0, 2)
    assert p.block_sizes() == (2, 1, 1)
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))
    # against a sort-based reference on seeded labelings
    rng = random.Random("partition-labels")
    alphabets = (range(4), "abcd", ((0, "a"), (1, "b"), (0, "b")))
    for _ in range(300):
        labels = [rng.choice(alphabets[rng.randrange(3)]) for _ in range(rng.randint(0, 12))]
        blocks = {}
        for x, lab in enumerate(labels):
            blocks.setdefault(lab, set()).add(x)
        reference = sorted(tuple(sorted(b)) for b in blocks.values())
        assert Partition.from_assignment(labels).blocks == tuple(reference), labels


@pytest.mark.parametrize(
    "blocks, message",
    [(((0, 1), ()), "empty block"), (((0, 2),), "do not cover"), (((1,), (2,)), "do not cover")],
)
def test_partition_rejects_bad_blocks(blocks, message):
    with pytest.raises(ValueError, match=message):
        Partition(blocks)


# a table whose row 2 is not a permutation, so no left quasigroup
NOT_LQ = CayleyTable.from_rows([[0, 1, 2], [1, 2, 0], [0, 0, 1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda t: check_identity(t, "twisted_ward"),
        cayley_kernel,
        squaring_map,
        squaring_kernel,
        lambda t: is_congruence(t, Partition(((0, 1, 2),))),
        kernel_size_report,
    ],
    ids=["check_identity", "cayley_kernel", "squaring_map", "squaring_kernel", "is_congruence", "kernel_size_report"],
)
def test_left_quasigroup_checks_refuse_other_tables(call):
    with pytest.raises(StructureError, match="not a left quasigroup"):
        call(NOT_LQ)


def test_congruence_needs_a_partition_of_the_carrier(table4):
    with pytest.raises(ValueError, match="partition size"):
        is_congruence(table4, Partition(((0, 1, 2),)))


def test_kernels(table4, table6):
    assert cayley_kernel(table4).blocks == ((0, 1), (2, 3))
    assert squaring_kernel(table4).blocks == ((0, 3), (1, 2))
    assert squaring_map(table4) == (0, 2, 2, 0)
    assert cayley_kernel(table6).blocks == ((0, 2, 4), (1, 3, 5))
    assert squaring_kernel(table6).blocks == ((0, 3), (1, 2), (4, 5))


def test_congruence_verdicts(table4, table6):
    # squared-equality classes are compatible with the operation, row-equality
    # classes need not be
    assert is_congruence(table4, squaring_kernel(table4))
    assert not is_congruence(table4, cayley_kernel(table4))
    assert is_congruence(table6, squaring_kernel(table6))
    assert not is_congruence(table6, cayley_kernel(table6))


def _reference_is_congruence(t, p):
    """Two passes over all related pairs: the blocks are compatible with *
    and with left division."""
    bo = p.block_of
    n = t.n
    related = [(x, x2) for x in range(n) for x2 in range(n) if bo[x] == bo[x2]]
    return all(
        bo[op(x, y)] == bo[op(x2, y2)]
        for op in (t.op, t.ldiv)
        for x, x2 in related
        for y, y2 in related
    )


def _set_partitions(n):
    """Every partition of {0..n-1}, as block labels in restricted growth form."""
    labels = [[]]
    for _ in range(n):
        labels = [lab + [b] for lab in labels for b in range(max(lab, default=-1) + 2)]
    return [Partition.from_assignment(lab) for lab in labels]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_congruence_matches_two_pass_reference_on_every_partition(n):
    partitions = _set_partitions(n)
    for t in all_left_quasigroups(n):
        for p in partitions:
            assert is_congruence(t, p) == _reference_is_congruence(t, p), (t.rows, p.blocks)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_congruence_matches_two_pass_reference_on_seeded_tables(n):
    rng = random.Random(f"congruence-{n}")
    for _ in range(25):
        t = CayleyTable(tuple(tuple(rng.sample(range(n), n)) for _ in range(n)))
        for k in range(1, n + 1):
            p = Partition.from_assignment([rng.randrange(k) for _ in range(n)])
            assert is_congruence(t, p) == _reference_is_congruence(t, p), (t.rows, p.blocks)


def test_congruence_matches_two_pass_reference_on_kernels(enum_reports):
    verdicts = []
    for n in range(1, 7):
        for t in enum_reports(n).representatives:
            for p in (cayley_kernel(t), squaring_kernel(t)):
                verdicts.append(is_congruence(t, p))
                assert verdicts[-1] == _reference_is_congruence(t, p), (t.rows, p.blocks)
    assert True in verdicts and False in verdicts


def _reference_row_profiles(t):
    """Per row, from the row alone: whether it is a permutation, its cycle
    lengths or else its value multiplicities (both sorted), and whether x*x = x."""
    n = t.n
    out = []
    for x, row in enumerate(t.rows):
        perm = sorted(row) == list(range(n))
        if perm:
            lengths, seen = [], set()
            for s in range(n):
                length, j = 0, s
                while j not in seen:
                    seen.add(j)
                    j = row[j]
                    length += 1
                if length:
                    lengths.append(length)
            shape = tuple(sorted(lengths, reverse=True))
        else:
            shape = tuple(sorted(row.count(v) for v in set(row)))
        out.append((perm, shape, row[x] == x))
    return tuple(out)


def test_row_profiles_match_reference():
    tables = [build_twq(s) for n in range(1, 9) for s in twq_catalog_specs(n)]
    rng = random.Random("row-profiles")
    for n in range(2, 8):
        for _ in range(10):
            rows = [rng.sample(range(n), n) for _ in range(n)]
            rows[rng.randrange(n)] = [rng.randrange(n - 1) for _ in range(n)]  # not a permutation
            tables.append(CayleyTable.from_rows(rows))
    assert any(t.is_left_quasigroup for t in tables) and not all(t.is_left_quasigroup for t in tables)
    for t in tables:
        assert t._row_profiles == _reference_row_profiles(t), t.rows


def test_kernel_size_report(table4, table6, cyclic3):
    r4 = kernel_size_report(table4)
    assert r4.block_sizes_sim == (2, 2)
    assert r4.block_sizes_equiv == (2, 2)
    assert r4.product_law_holds
    r6 = kernel_size_report(table6)
    assert r6.block_sizes_sim == (3, 3)
    assert r6.block_sizes_equiv == (2, 2, 2)
    assert r6.product_law_holds
    with pytest.raises(IdentityViolationError):
        kernel_size_report(cyclic3)


def test_quadrangle_criterion(cyclic3):
    assert quadrangle_criterion(cyclic3)
    # smallest quasigroup not isotopic to a group
    q5 = CayleyTable.from_rows(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )
    assert not quadrangle_criterion(q5)
    with pytest.raises(StructureError, match="requires a quasigroup"):
        quadrangle_criterion(CayleyTable.from_rows([[0, 1], [0, 1]]))  # a left quasigroup only


def test_canonical_form_properties(table4, table6):
    not_lq = CayleyTable.from_rows([[1, 1, 0], [2, 0, 1], [0, 0, 0]])
    for t in (table4, table6, not_lq):
        c = canonical_form(t)
        assert table_isomorphic(c, t)
        assert is_self_canonical(c)
        assert c.rows <= t.rows
        # built without validation: its flag must be the one validation gives
        assert c.is_left_quasigroup == CayleyTable(c.rows).is_left_quasigroup


@given(left_quasigroups(), st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_relabeling_invariant(t, data):
    pi = data.draw(st.permutations(range(t.n)))
    assert canonical_form(t) == canonical_form(t.relabel(pi))


def test_relabel_round_trip(table4):
    pi = [2, 0, 3, 1]
    inv = [pi.index(i) for i in range(4)]
    assert table4.relabel(pi).relabel(inv) == table4


def test_relabel_matches_its_definition():
    """new[pi(x)][pi(y)] = pi(old[x][y]) on seeded tables of order 1..9, left
    quasigroups or not; the relabeled table keeps its left-quasigroup flag."""
    rng = random.Random("relabel")
    for i in range(90):
        n = 1 + i % 9
        if i % 2:
            rows = [rng.sample(range(n), n) for _ in range(n)]
        else:
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        t = CayleyTable.from_rows(rows)
        pi = rng.sample(range(n), n)
        new = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                new[pi[x]][pi[y]] = pi[rows[x][y]]
        s = t.relabel(pi)
        assert s == CayleyTable.from_rows(new)
        assert s.is_left_quasigroup == t.is_left_quasigroup


@pytest.mark.parametrize("pi", [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 3, 4], [1, 2, 3, 4], [-1, 0, 1, 2]])
def test_relabel_rejects_a_non_permutation(table4, pi):
    with pytest.raises(ValueError, match="not a permutation of the carrier"):
        table4.relabel(pi)


@pytest.mark.parametrize("x, y", [(3, 0), (0, 3), (-1, 0)])
def test_elements_out_of_range_rejected(cyclic3, x, y):
    for method in (cyclic3.op, cyclic3.ldiv, cyclic3.rdiv):
        with pytest.raises(ValueError, match="out of range 0..2"):
            method(x, y)


def test_isomorphism_search(table4, cyclic3):
    assert table_isomorphic(table4, table4.relabel([3, 1, 0, 2]))
    assert not table_isomorphic(table4, cyclic3)
    # cyclic group of order 3: automorphism count is 2
    autos = list(find_all_isomorphisms(cyclic3, cyclic3))
    assert sorted(autos) == [(0, 1, 2), (0, 2, 1)]


def brute_isomorphisms(t, u):
    """Plain oracle: the relabelings of t that give u, in lexicographic order."""
    return [s for s in itertools.permutations(range(t.n)) if t.relabel(s) == u]


def test_isomorphism_search_on_binary_operations_of_order_3():
    """Every 50th binary operation of order 3, most of them with rows that are
    not permutations, is isomorphic to each of its relabelings, the search
    yields exactly the isomorphisms in lexicographic order, and its
    automorphisms are the relabelings that fix it."""
    perms = list(itertools.permutations(range(3)))
    for flat in list(itertools.product(range(3), repeat=9))[::50]:
        t = CayleyTable((flat[0:3], flat[3:6], flat[6:9]))
        for pi in perms:
            u = t.relabel(pi)
            assert table_isomorphic(t, u), (t.rows, pi)
            assert list(find_all_isomorphisms(t, u)) == brute_isomorphisms(t, u), (t.rows, pi)
        assert automorphism_group(t).elements == {pi for pi in perms if t.relabel(pi) == t}


def test_isomorphism_search_on_sampled_left_quasigroups_of_order_4():
    """A seeded sample of order-4 left quasigroups, each paired with relabelings
    of itself and with the other tables: the search yields exactly the
    isomorphisms, in lexicographic order."""
    rng = random.Random(4)
    perms = list(itertools.permutations(range(4)))
    sample = [CayleyTable(tuple(rng.choice(perms) for _ in range(4))) for _ in range(100)]
    for i, t in enumerate(sample):
        others = [t.relabel(pi) for pi in rng.sample(perms, 8)] + sample[i : i + 12]
        for u in others:
            assert list(find_all_isomorphisms(t, u)) == brute_isomorphisms(t, u), (t.rows, u.rows)


def test_isomorphism_search_leaves_no_cyclic_garbage():
    tables = [g.table for n in (6, 8) for g in enumerate_groups(n)]
    gc.collect()
    gc.disable()
    try:
        for t in tables:
            for u in tables:
                find_isomorphism(t, u)
                table_isomorphic(t, u)
            list(find_all_isomorphisms(t, t))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exhaustive_iso_agrees_with_canonical_form():
    perms = list(itertools.permutations(range(3)))
    tables = [CayleyTable(rows) for rows in itertools.product(perms, repeat=3)]
    sample = tables[::37]
    for t1 in sample[:12]:
        for t2 in sample[:12]:
            assert table_isomorphic(t1, t2) == (canonical_form(t1) == canonical_form(t2))


def test_iso_agrees_with_canonical_form_on_catalog_tables_of_order_8():
    """All ordered pairs of order-8 catalog tables: the search finds an
    isomorphism exactly when the canonical forms agree, and some pairs that
    it must search (equal multisets of row profiles) are not isomorphic."""
    tables = [build_twq(s) for s in twq_catalog_specs(8)]
    canon = [canonical_form(t) for t in tables]
    same_profiles = []
    for t1, c1 in zip(tables, canon):
        for t2, c2 in zip(tables, canon):
            assert table_isomorphic(t1, t2) == (c1 == c2)
            if sorted(t1._row_profiles) == sorted(t2._row_profiles) and c1 != c2:
                same_profiles.append((t1, t2))
    assert same_profiles


def test_isomorphism_search_reads_no_division_rows():
    """The row profiles of a left quasigroup come from its rows: neither
    table_isomorphic nor automorphism_group inverts a row."""
    for n in (6, 8):
        for s in twq_catalog_specs(n):
            a = build_twq(s)
            b = a.relabel(list(range(n))[::-1])
            assert table_isomorphic(a, b)
            assert automorphism_group(a).order >= 1
            assert "_ldiv_rows" not in vars(a) and "_ldiv_rows" not in vars(b)


@pytest.mark.parametrize("n", [8, 9])
def test_relabeled_catalog_tables_are_isomorphic(n):
    rng = random.Random(f"relabel-{n}")
    for s in twq_catalog_specs(n):
        t = build_twq(s)
        pi = list(range(n))
        rng.shuffle(pi)
        u = t.relabel(pi)
        assert table_isomorphic(t, u)
        assert t.relabel(find_isomorphism(t, u)) == u


def brute_canonical_form(t):
    """Plain oracle: the least relabeled table over all n! permutations."""
    return CayleyTable(min(t.relabel(pi).rows for pi in itertools.permutations(range(t.n))))


def assert_canonical_agrees(t):
    c = brute_canonical_form(t)
    assert canonical_form(t) == c
    assert is_self_canonical(t) == (c == t)


@pytest.mark.parametrize("n", range(1, 10))
def test_perm_arrays_hold_every_permutation_and_its_inverse(n):
    perms, invs = _perm_arrays(n)
    assert perms.shape == invs.shape == (math.factorial(n), n)
    ident = np.arange(n)
    assert (np.sort(perms, axis=1) == ident).all()
    codes = perms.astype(np.int64) @ (n ** ident[::-1])
    assert len(np.unique(codes)) == len(perms)
    rows = np.arange(len(perms))[:, None]
    assert (perms[rows, invs] == ident).all()
    assert (invs[rows, perms] == ident).all()


def test_canonical_form_matches_oracle_on_all_order3_left_quasigroups():
    tables = list(all_left_quasigroups(3))
    assert len(tables) == 216
    for t in tables:
        assert_canonical_agrees(t)


def test_canonical_form_matches_oracle_on_non_left_quasigroups():
    sample = [
        CayleyTable(tuple(entries[i : i + 3] for i in (0, 3, 6)))
        for entries in itertools.islice(itertools.product(range(3), repeat=9), 0, None, 89)
    ]
    sample = [t for t in sample if not t.is_left_quasigroup]
    assert len(sample) > 200
    for t in sample:
        assert_canonical_agrees(t)


@given(left_quasigroups(max_n=5))
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_oracle_on_drawn_tables(t):
    assert_canonical_agrees(t)


def test_canonical_form_matches_oracle_on_representatives(enum_reports):
    for n in range(1, 7):
        for t in enum_reports(n).representatives:
            assert_canonical_agrees(t)


def _reference_perm_arrays(n):
    """All permutations of degree n in itertools order, and their inverses."""
    count = math.factorial(n)
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, dtype=np.uint8, count=n * count).reshape(count, n)
    invs = np.empty_like(perms)
    rows = np.arange(count)
    for j in range(n):
        invs[rows, perms[:, j]] = j
    return perms, invs


def _reference_least_entries(t):
    """The entries of the canonical form, filtered from all n! relabelings
    starting at entry (0, 0)."""
    n = t.n
    perms, invs = _reference_perm_arrays(n)
    T = np.array(t.rows, dtype=np.uint8)
    keep = np.arange(len(perms))
    for i in range(n):
        for j in range(n):
            vals = perms[keep, T[invs[keep, i], invs[keep, j]]]
            least = vals.min()
            keep = keep[vals == least]
            yield int(least)


def assert_canonical_matches_reference_filter(t):
    entries = list(_reference_least_entries(t))
    n = t.n
    assert canonical_form(t).rows == tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
    own = [v for row in t.rows for v in row]
    assert is_self_canonical(t) == (entries == own)


@pytest.mark.parametrize("n", range(1, 10))
def test_perm_arrays_are_the_reference_arrays_swapped(n):
    perms, invs = _perm_arrays(n)
    ref_perms, ref_invs = _reference_perm_arrays(n)
    assert invs.dtype == perms.dtype == np.uint8
    assert invs.tobytes() == ref_perms.tobytes() and invs.shape == ref_perms.shape
    assert perms.tobytes() == ref_invs.tobytes() and perms.shape == ref_invs.shape


def test_canonical_form_of_orders_0_and_1():
    empty = CayleyTable(())
    assert canonical_form(empty) == empty and canonical_form(empty).rows == ()
    assert is_self_canonical(empty)
    one = CayleyTable(((0,),))
    assert canonical_form(one) == one
    assert is_self_canonical(one)


@pytest.mark.parametrize("n", range(1, 10))
def test_canonical_form_matches_reference_filter_on_catalog_tables(n):
    for spec in twq_catalog_specs(n):
        t = build_twq(spec)
        assert_canonical_matches_reference_filter(t)
        assert_canonical_matches_reference_filter(canonical_form(t))


@pytest.mark.parametrize("n", range(2, 8))
def test_canonical_form_matches_reference_filter_without_idempotents(n):
    """Tables where no t[a][a] = a: the least entry (0, 0) is 1."""
    rng = np.random.default_rng(n)
    for lq in (True, False):
        for _ in range(12):
            if lq:
                rows = [rng.permutation(n) for _ in range(n)]
                for a in range(n):  # swap a fixed point off the diagonal
                    if rows[a][a] == a:
                        b = (a + 1) % n
                        rows[a][a], rows[a][b] = rows[a][b], rows[a][a]
            else:
                rows = [(rng.integers(1, n, size=n) + a) % n for a in range(n)]
            t = CayleyTable.from_rows(rows)
            assert all(t.rows[a][a] != a for a in range(n)) and t.is_left_quasigroup == lq
            assert canonical_form(t).rows[0][0] == 1
            assert_canonical_matches_reference_filter(t)
            assert_canonical_matches_reference_filter(canonical_form(t))
