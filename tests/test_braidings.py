import itertools

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

from conftest import all_left_quasigroups


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
                assert got._ldiv_rows == want._ldiv_rows
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
    assert _check_composed_maps(b) == expected[0]
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


def _twisted_ward_rows(n):
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


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 9, 10, 11, 12])
def test_composed_maps_match_reference_past_the_drawn_orders(n):
    """At the orders braiding_pairs never draws: the braidings of both
    builders and all three kinds of twisted Ward tables, and of the same
    tables with one row rotated into another permutation; and, at n > 0, the
    identity map and the flip, whose circ or bullet rows are constant."""
    tables = []
    for rows in _twisted_ward_rows(n):
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
        verdicts.append(_check_composed_maps(b))
        assert verdicts[-1] == _reference_composed_maps(b) == _reference_component_identities(b)[0]
        assert is_braiding(b) == verdicts[-1]
    assert set(verdicts) == ({True} if n <= 1 else {True, False})


_PROJECTION_9 = CayleyTable(tuple((x,) * 9 for x in range(9)))  # x o y = x satisfies YB1
_ZERO_ROW_9 = (0,) * 9


@given(arbitrary_tables(9), arbitrary_tables(9))
# with the projection as circ, a bullet that fails YB2 alone and one that fails YB3 alone
@example(_PROJECTION_9, CayleyTable((_ZERO_ROW_9,) * 2 + ((1,) + (0,) * 8,) + (_ZERO_ROW_9,) * 6))
@example(_PROJECTION_9, CayleyTable((tuple(range(9)),) + (_ZERO_ROW_9,) * 8))
@settings(max_examples=60, deadline=None)
def test_composed_maps_match_reference_on_arbitrary_pairs_of_order_9(circ, bullet):
    b = Braiding(circ=circ, bullet=bullet)
    assert _check_composed_maps(b) == _reference_composed_maps(b)


def test_is_braiding_scans_the_composed_maps_only_when_the_components_hold(monkeypatch):
    """A failing verdict is confirmed at its witness alone, a holding one by
    the full composed scan: the scan raises if it is given a failing braiding."""
    from tward import braidings

    original = braidings._check_composed_maps
    scanned = []

    def scan(b):
        if not _reference_component_identities(b)[0]:
            raise AssertionError("full composed-map scan of a failing braiding")
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


@pytest.mark.parametrize("checker", ["_check_component_identities", "_check_composed_maps", "_composed_maps_agree_at"])
def test_braiding_oracles_disagreeing_raise(monkeypatch, table4, cyclic3, checker):
    """A flipped verdict from either half raises.  The idempotent braiding of
    table4 holds, so it reaches the full composed scan; that of cyclic3 fails,
    so it reaches the point check at the components' witness instead."""
    from tward import braidings

    original = getattr(braidings, checker)
    if checker == "_check_component_identities":

        def flipped(b, witness):  # a failing verdict needs a point for the point check
            holds, _ = original(b, witness)
            return (False, ("YB1", (0, 0, 0))) if holds else (True, None)

        tables = (table4, cyclic3)
    else:

        def flipped(b, *args):
            return not original(b, *args)

        tables = (table4,) if checker == "_check_composed_maps" else (cyclic3,)
    monkeypatch.setattr(braidings, checker, flipped)
    for t in tables:
        with pytest.raises(ConsistencyError):
            is_braiding(to_braiding(t, "idempotent"))
