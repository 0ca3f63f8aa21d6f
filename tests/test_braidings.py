import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tward import (
    Braiding,
    CayleyTable,
    check_identity,
    from_braiding,
    induced_bullet,
    is_braiding,
    properties,
    to_braiding,
)
from tward.braidings import BRAID_KINDS, _check_composed_maps, _composed_maps_agree_at, matching_identity
from tward.errors import ConsistencyError, StructureError

from conftest import all_left_quasigroups, checker_tables, fails_after_row_0, twisted_ward_rows


def small_left_quasigroups(max_n=4, min_n=2):
    def rows(n):
        perm = st.permutations(range(n)).map(tuple)
        return st.tuples(*([perm] * n))

    return st.integers(min_n, max_n).flatmap(rows).map(CayleyTable)


def test_braiding_text_round_trip(table4):
    b = to_braiding(table4, "idempotent")
    assert Braiding.parse(b.to_text()) == b
    with pytest.raises(ValueError):
        Braiding.parse(table4.to_text())  # missing bullet block


def test_braiding_with_bool_entries_round_trips():
    t = CayleyTable(((0, True), (True, 0)))
    b = Braiding(circ=t, bullet=t)
    assert b.to_text() == "2\n0 1\n1 0\n# bullet\n0 1\n1 0\n"
    assert Braiding.parse(b.to_text()) == b


def test_braiding_size_mismatch(table4, cyclic3):
    with pytest.raises(ValueError):
        Braiding(circ=table4, bullet=cyclic3)


def test_flip_is_a_braiding():
    n = 3
    circ = CayleyTable.from_rows([[y for y in range(n)] for _ in range(n)])
    bullet = CayleyTable.from_rows([[x for _ in range(n)] for x in range(n)])
    flip = Braiding(circ=circ, bullet=bullet)
    assert is_braiding(flip)
    p = properties(flip)
    assert p.involutive and not p.idempotent
    # both component families are bijective, so the flip is nondegenerate
    assert p.left_nondegenerate and p.nondegenerate
    assert not p.latin


def test_identity_map_is_idempotent_braiding():
    n = 3
    circ = CayleyTable.from_rows([[x for _ in range(n)] for x in range(n)])
    bullet = CayleyTable.from_rows([[y for y in range(n)] for _ in range(n)])
    r = Braiding(circ=circ, bullet=bullet)
    assert is_braiding(r)
    p = properties(r)
    assert p.idempotent and p.involutive  # r = id has r^2 = id = r
    assert not p.left_nondegenerate  # circ rows are constant


def test_derived_braiding_from_rack():
    # x*y = -y over Z3 is a rack (latin quandle-like check by identity)
    t = CayleyTable.from_rows([[0, 2, 1]] * 3)
    assert check_identity(t, "rack")
    b = to_braiding(t, "derived")
    assert is_braiding(b)
    assert properties(b).derived


def test_idempotent_braiding_round_trip(table4, table6):
    for t in (table4, table6):
        b = to_braiding(t, "idempotent")
        assert is_braiding(b)
        p = properties(b)
        assert p.idempotent and not p.nondegenerate
        assert from_braiding(b) == t
        # r^2 = r pointwise
        for x in range(t.n):
            for y in range(t.n):
                u, v = b.apply(x, y)
                assert b.apply(u, v) == (u, v)


def test_braiding_failure_witness(cyclic3):
    b = to_braiding(cyclic3, "idempotent")
    ok, wit = is_braiding(b, witness=True)
    assert not ok
    assert wit[0] in {"YB1", "YB2", "YB3"} and len(wit[1]) == 3


def test_braiding_requires_left_quasigroup():
    t = CayleyTable.from_rows([[0, 0], [0, 1]])
    with pytest.raises(StructureError):
        to_braiding(t, "idempotent")
    with pytest.raises(StructureError):
        induced_bullet(t, "derived")
    with pytest.raises(ValueError):
        to_braiding(CayleyTable.from_rows([[0, 1], [1, 0]]), "nope")
    with pytest.raises(ValueError, match="unknown braiding kind"):
        induced_bullet(CayleyTable.from_rows([[0, 1], [1, 0]]), "nope")
    with pytest.raises(StructureError, match="not a left quasigroup"):
        from_braiding(Braiding(circ=t, bullet=t))


def test_matching_identity_names():
    assert matching_identity("idempotent") == "twisted_ward"
    assert matching_identity("derived") == "rack"
    assert matching_identity("involutive") == "rump"
    assert matching_identity("idempotent", division_form=True) == "twisted_ward_div"
    # an unknown kind raises ValueError whatever its type, unhashable ones too
    for kind in ("flat", ["idempotent"], {"idempotent"}, ("idempotent",), None, 3):
        for division_form in (False, True):
            with pytest.raises(ValueError, match="unknown braiding kind"):
                matching_identity(kind, division_form)


@given(small_left_quasigroups())
@settings(max_examples=80, deadline=None)
def test_correspondence_property(t):
    """For random left quasigroups, each braiding kind solves the Yang-Baxter
    equation exactly when the matching identity holds, in both the
    division-based and the direct reading of the table."""
    for kind in BRAID_KINDS:
        assert is_braiding(to_braiding(t, kind)) == check_identity(
            t, matching_identity(kind)
        )
        assert is_braiding(induced_bullet(t, kind)) == check_identity(
            t, matching_identity(kind, division_form=True)
        )


@given(small_left_quasigroups())
@settings(max_examples=40, deadline=None)
def test_from_braiding_inverts_to_braiding(t):
    for kind in BRAID_KINDS:
        assert from_braiding(to_braiding(t, kind)) == t


def _reference_braiding(circ, kind):
    """The braiding with circle operation circ, built entry by entry from the
    definitions through the validating constructor."""
    n = circ.n
    bullet = {
        "derived": lambda x, y: x,
        "involutive": lambda x, y: circ.ldiv(circ.op(x, y), x),
        "idempotent": lambda x, y: circ.ldiv(circ.op(x, y), circ.op(x, y)),
    }[kind]
    rows = [[bullet(x, y) for y in range(n)] for x in range(n)]
    return Braiding(circ=CayleyTable(circ.rows), bullet=CayleyTable.from_rows(rows))


def assert_builders_match_reference(t):
    """to_braiding and induced_bullet build their tables without validation;
    each table must equal, and carry the same cached structure as, the table
    validation builds from the same rows."""
    division = CayleyTable.from_rows([[t.ldiv(x, y) for y in range(t.n)] for x in range(t.n)])
    for kind in BRAID_KINDS:
        for b, ref in (
            (to_braiding(t, kind), _reference_braiding(division, kind)),
            (induced_bullet(t, kind), _reference_braiding(t, kind)),
        ):
            assert b == ref
            for got, want in ((b.circ, ref.circ), (b.bullet, ref.bullet)):
                assert got.is_left_quasigroup == want.is_left_quasigroup
                if want.is_left_quasigroup:
                    assert got._ldiv_rows == want._ldiv_rows
                else:  # only a left quasigroup has division rows
                    for table in (got, want):
                        with pytest.raises(StructureError, match="not a left quasigroup"):
                            table._ldiv_rows
                assert got.is_quasigroup == want.is_quasigroup
            assert properties(b) == properties(ref)
        back = from_braiding(to_braiding(t, kind))
        assert back == t and back.is_left_quasigroup
        assert back._ldiv_rows == division.rows
        # a table given list rows comes back as a hashable table of int tuples
        back = from_braiding(to_braiding(CayleyTable([list(row) for row in t.rows]), kind))
        assert back == t and hash(back) == hash(t)
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in back.rows)


def test_built_tables_compute_their_flag_when_it_is_first_read(table4, cyclic3):
    """The builders leave the left-quasigroup flag of the tables they build to
    the table, which computes it from its rows when it is first read."""
    for t in (table4, cyclic3, CayleyTable(((0,),))):
        for kind in BRAID_KINDS:
            circle = to_braiding(t, kind)
            for built in (circle.circ, circle.bullet, induced_bullet(t, kind).bullet):
                assert "is_left_quasigroup" not in vars(built)
                assert built.is_left_quasigroup == CayleyTable(built.rows).is_left_quasigroup


def test_builders_match_reference_on_all_small_left_quasigroups():
    for n in (0, 1, 2, 3):  # 1 + 1 + 4 + 216 tables
        for t in all_left_quasigroups(n):
            assert_builders_match_reference(t)


@given(small_left_quasigroups(max_n=6, min_n=1))
@settings(max_examples=150, deadline=None)
def test_builders_match_reference(t):
    assert_builders_match_reference(t)


def _reference_component_identities(b):
    """YB1-YB3 evaluated per triple, as before the rows were hoisted."""
    n = b.n
    o = b.circ.rows
    u = b.bullet.rows
    for x in range(n):
        for y in range(n):
            xy, xby = o[x][y], u[x][y]
            for z in range(n):
                if o[x][o[y][z]] != o[xy][o[xby][z]]:
                    return False, ("YB1", (x, y, z))
                if u[xy][o[xby][z]] != o[u[x][o[y][z]]][u[y][z]]:
                    return False, ("YB2", (x, y, z))
                if u[xby][z] != u[u[x][o[y][z]]][u[y][z]]:
                    return False, ("YB3", (x, y, z))
    return True, None


def _reference_composed_at(b, t):
    """(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r) at the point triple t."""

    def r1(t):
        a, b_, c = t
        p, q = b.apply(a, b_)
        return (p, q, c)

    def r2(t):
        a, b_, c = t
        p, q = b.apply(b_, c)
        return (a, p, q)

    return r1(r2(r1(t))) == r2(r1(r2(t)))


def _reference_composed_maps(b):
    """(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r) on point triples."""
    return all(_reference_composed_at(b, t) for t in itertools.product(range(b.n), repeat=3))


def arbitrary_tables(n):
    """Tables of order n >= 1 whose rows are permutations, constant rows or
    arbitrary rows."""
    row = st.one_of(
        st.permutations(range(n)).map(tuple),
        st.integers(0, n - 1).map(lambda v: (v,) * n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
    )
    return st.lists(row, min_size=n, max_size=n).map(lambda rows: CayleyTable(tuple(rows)))


@st.composite
def braiding_pairs(draw, max_n=5):
    """(circ, bullet) pairs: arbitrary rows (constant rows included), and the
    braidings of left quasigroups, most of which fail and some of which hold."""
    n = draw(st.integers(1, max_n))
    table = arbitrary_tables(n)
    if draw(st.booleans()):
        return Braiding(circ=draw(table), bullet=draw(table))
    t = draw(small_left_quasigroups(max_n))
    build = draw(st.sampled_from([to_braiding, induced_bullet]))
    return build(t, draw(st.sampled_from(BRAID_KINDS)))


def assert_braiding_matches_reference(b):
    expected = _reference_component_identities(b)
    assert _reference_composed_maps(b) == expected[0]
    assert _check_composed_maps(b) == expected
    for t in itertools.product(range(b.n), repeat=3):
        assert _composed_maps_agree_at(b, t) == _reference_composed_at(b, t), t
    assert is_braiding(b, witness=True) == expected
    assert is_braiding(b) == expected[0]


@given(braiding_pairs())
@settings(max_examples=400, deadline=None)
def test_braiding_checks_match_reference(b):
    assert_braiding_matches_reference(b)


def test_braiding_checks_match_reference_on_fixed_pairs():
    n = 3
    identity_map = Braiding(  # r = id, whose circ rows are constant
        circ=CayleyTable.from_rows([[x] * n for x in range(n)]),
        bullet=CayleyTable.from_rows([list(range(n))] * n),
    )
    flip = Braiding(circ=identity_map.bullet, bullet=identity_map.circ)
    verdicts = []
    for b in (identity_map, flip):
        assert_braiding_matches_reference(b)
        verdicts.append(is_braiding(b))
    for rows in itertools.product(itertools.permutations(range(3)), repeat=3):
        for kind in BRAID_KINDS:
            for b in (to_braiding(CayleyTable(rows), kind), induced_bullet(CayleyTable(rows), kind)):
                assert_braiding_matches_reference(b)
                verdicts.append(is_braiding(b))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 9, 10, 11, 12])
def test_composed_maps_match_reference_past_the_drawn_orders(n):
    """At the orders braiding_pairs never draws: the braidings of both
    builders and all three kinds of twisted Ward tables, and of the same
    tables with one row rotated into another permutation; and, at n > 0, the
    identity map and the flip, whose circ or bullet rows are constant."""
    tables = []
    for rows in twisted_ward_rows(n):
        t = CayleyTable.from_rows(rows)
        assert check_identity(t, "twisted_ward")
        tables.append(t)
        if n > 1:
            rows[n // 2] = rows[n // 2][1:] + rows[n // 2][:1]
            tables.append(CayleyTable.from_rows(rows))
    builders = (to_braiding, induced_bullet)
    braidings = [build(t, kind) for t in tables for build in builders for kind in BRAID_KINDS]
    if n:
        identity_map = Braiding(
            circ=CayleyTable.from_rows([[x] * n for x in range(n)]),
            bullet=CayleyTable.from_rows([list(range(n))] * n),
        )
        braidings += [identity_map, Braiding(circ=identity_map.bullet, bullet=identity_map.circ)]
    verdicts = []
    for b in braidings:
        assert _check_composed_maps(b) == _reference_component_identities(b)
        verdicts.append(_check_composed_maps(b)[0])
        assert verdicts[-1] == _reference_composed_maps(b)
        assert is_braiding(b) == verdicts[-1]
    assert set(verdicts) == ({True} if n <= 1 else {True, False})


def projection_pairs(n):
    """(circ, bullet) pairs of order n >= 3 with the projection x o y = x as
    circ, which satisfies YB1: a bullet that fails YB2 alone, at x = 2, and
    one that fails YB3 alone, at x = 1."""
    projection = CayleyTable(tuple((x,) * n for x in range(n)))
    zero = (0,) * n
    yb2 = CayleyTable((zero,) * 2 + ((1,) + zero[1:],) + (zero,) * (n - 3))
    yb3 = CayleyTable((tuple(range(n)),) + (zero,) * (n - 1))
    return (projection, yb2), (projection, yb3)


@given(arbitrary_tables(9), arbitrary_tables(9))
@example(*projection_pairs(9)[0])
@example(*projection_pairs(9)[1])
@settings(max_examples=60, deadline=None)
def test_composed_maps_match_reference_on_arbitrary_pairs_of_order_9(circ, bullet):
    b = Braiding(circ=circ, bullet=bullet)
    assert _check_composed_maps(b)[0] == _reference_composed_maps(b)
    assert _check_composed_maps(b) == _reference_component_identities(b)


@pytest.mark.parametrize("n", range(7, 13))
def test_is_braiding_matches_reference_past_the_drawn_orders(n):
    """The braidings of both builders and all three kinds of checker_tables(n),
    and the projection pairs: each of YB1, YB2 and YB3 fails after row 0 on
    some of them, and witnesses are plain ints."""
    braidings = [build(t, kind) for t in checker_tables(n) for build in (to_braiding, induced_bullet)
                 for kind in BRAID_KINDS]
    braidings += [Braiding(circ=circ, bullet=bullet) for circ, bullet in projection_pairs(n)]
    verdicts, fails_after_row_0 = set(), set()
    for b in braidings:
        expected = _reference_component_identities(b)
        assert is_braiding(b, witness=True) == expected
        holds = is_braiding(b)
        assert type(holds) is bool and holds == expected[0]
        verdicts.add(holds)
        if not holds:
            name, point = expected[1]
            assert all(type(v) is int for v in is_braiding(b, witness=True)[1][1])
            if point[0] >= 1:
                fails_after_row_0.add(name)
    assert verdicts == {True, False}
    assert fails_after_row_0 == {"YB1", "YB2", "YB3"}


def _row_0_holds(b):
    """YB1-YB3 hold at every point (0, y, z)."""
    holds, wit = _reference_component_identities(b)
    return holds or wit[1][0] > 0


def test_is_braiding_scans_the_composed_maps_only_when_the_components_hold(monkeypatch):
    """Below order 7 a failing verdict is confirmed at its witness alone, a
    holding one by the full composed scan: the scan raises if it is given a
    failing braiding.  From order 7 the scan runs exactly on the braidings
    whose components hold on row 0."""
    from tward import braidings

    original = braidings._check_composed_maps
    scanned = []

    def scan(b):
        if not (_row_0_holds(b) if b.n >= 7 else _reference_component_identities(b)[0]):
            raise AssertionError("full composed-map scan of a braiding that fails where it was scanned")
        scanned.append(b)
        return original(b)

    monkeypatch.setattr(braidings, "_check_composed_maps", scan)
    verdicts = set()
    for t in all_left_quasigroups(3):
        for kind in BRAID_KINDS:
            for b in (to_braiding(t, kind), induced_bullet(t, kind)):
                scanned.clear()
                holds = is_braiding(b)
                assert scanned == ([b] if holds else [])
                verdicts.add(holds)
    assert verdicts == {True, False}
    scans = set()
    for t in checker_tables(9):
        for kind in BRAID_KINDS:
            for b in (to_braiding(t, kind), induced_bullet(t, kind)):
                scanned.clear()
                holds = is_braiding(b)
                assert scanned == ([b] if _row_0_holds(b) else [])
                scans.add((holds, bool(scanned)))
    assert scans == {(True, True), (False, True), (False, False)}


def _order_9_tables():
    """x*y = 1 + x - y mod 9, whose idempotent braiding holds; x*y = y with
    two entries of row 8 swapped, whose fails after row 0; and a seeded random
    left quasigroup, whose fails in row 0."""
    rng = random.Random("order-9-oracles")
    return (
        CayleyTable.from_rows([[(1 + x - y) % 9 for y in range(9)] for x in range(9)]),
        fails_after_row_0(9),
        CayleyTable(tuple(tuple(rng.sample(range(9), 9)) for _ in range(9))),
    )


@pytest.mark.parametrize("checker", ["_check_component_identities", "_check_composed_maps", "_composed_maps_agree_at"])
def test_braiding_oracles_disagreeing_raise(monkeypatch, table4, cyclic3, checker):
    """A flipped verdict from either half raises.  The idempotent braiding of
    table4 holds, so it reaches the full composed scan; that of cyclic3 fails,
    so it reaches the point check at the components' witness instead.  At
    order 9 the components' half scans row 0 alone, and a failure the
    composed maps find is confirmed by the components' scan of its row; a
    flip of the composed maps from failing to holding after row 0 is not
    caught, since no other check reads those rows."""
    from tward import braidings

    hold9, late9, early9 = _order_9_tables()
    original = getattr(braidings, checker)
    if checker == "_composed_maps_agree_at":

        def flipped(b, point):
            return not original(b, point)

        tables = (cyclic3, early9)
    else:

        def flipped(b, *args):  # a failing verdict needs a point for the point check
            holds, _ = original(b, *args)
            return (False, ("YB1", (0, 0, 0))) if holds else (True, None)

        if checker == "_check_component_identities":
            tables = (table4, cyclic3, hold9, late9, early9)
        else:
            tables = (table4, hold9)
    monkeypatch.setattr(braidings, checker, flipped)
    for t in tables:
        with pytest.raises(ConsistencyError):
            is_braiding(to_braiding(t, "idempotent"))


@pytest.mark.parametrize("shift", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
def test_composed_witness_confirmed_by_its_row(monkeypatch, shift):
    """From order 7 a composed-map witness that is not where the components'
    scan of its row stops raises, whether it moves within the row or to
    another row."""
    from tward import braidings

    late9 = _order_9_tables()[1]
    b = to_braiding(late9, "idempotent")
    assert is_braiding(b, witness=True) == (False, ("YB1", (8, 0, 7)))
    original = braidings._check_composed_maps

    def moved(b):
        holds, (name, point) = original(b)
        return holds, (name, tuple((v - s) % 9 for v, s in zip(point, shift)))

    monkeypatch.setattr(braidings, "_check_composed_maps", moved)
    with pytest.raises(ConsistencyError):
        is_braiding(b)
