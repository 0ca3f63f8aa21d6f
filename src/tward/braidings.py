"""Set-theoretic Yang-Baxter maps r(x,y) = (x o y, x . y) held as two tables,
with the three correspondences to left-quasigroup identities."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConsistencyError
from .tables import _ARRAY_ORDER, CayleyTable, check_identity

# the identity matching each kind; its division form adds "_div" to the name
_KIND_IDENTITY = {"derived": "rack", "involutive": "rump", "idempotent": "twisted_ward"}
BRAID_KINDS = tuple(_KIND_IDENTITY)


@dataclass(frozen=True)
class Braiding:
    circ: CayleyTable
    bullet: CayleyTable

    def __post_init__(self):
        if len(self.circ.rows) != len(self.bullet.rows):
            raise ValueError("circ and bullet tables must have the same size")

    @property
    def n(self) -> int:
        return self.circ.n

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.circ.rows[x][y], self.bullet.rows[x][y]

    def to_text(self) -> str:
        bullet_rows = self.bullet.to_text().partition("\n")[2]  # no second order line
        return f"{self.circ.to_text()}# bullet\n{bullet_rows}"

    @classmethod
    def parse(cls, text: str) -> "Braiding":
        lines = text.splitlines()
        try:
            split = next(i for i, ln in enumerate(lines) if ln.strip() == "# bullet")
        except StopIteration:
            raise ValueError("missing '# bullet' separator") from None
        circ = CayleyTable.parse("\n".join(lines[:split]))
        bullet = CayleyTable.parse("\n".join([str(circ.n)] + lines[split + 1 :]))
        return cls(circ=circ, bullet=bullet)


def _check_component_identities(b: Braiding, xs: range):
    """YB1-YB3 over the triples with x in xs: (True, None), or False and the
    first failing equation and triple."""
    o = b.circ.rows
    u = b.bullet.rows
    n = len(o)
    for x in xs:
        ox, ux = o[x], u[x]
        for y in range(n):
            oy, uy = o[y], u[y]
            xy, xby = ox[y], ux[y]
            oxy, uxy, oxby, uxby = o[xy], u[xy], o[xby], u[xby]
            for z in range(n):
                oyz = oy[z]
                if ox[oyz] != oxy[oxby[z]]:
                    return False, ("YB1", (x, y, z))
                w, uyz = ux[oyz], uy[z]
                if uxy[oxby[z]] != o[w][uyz]:
                    return False, ("YB2", (x, y, z))
                if uxby[z] != u[w][uyz]:
                    return False, ("YB3", (x, y, z))
    return True, None


@lru_cache(maxsize=None)
def _point_codes(n: int) -> tuple[np.ndarray, ...]:
    """Over the n^3 points (x, y, z) in xyz order, the arrays x*n + y,
    y*n + z, x*n and z, read-only: every caller shares them."""
    x, y, z = np.indices((n, n, n), dtype=np.intp).reshape(3, -1)
    codes = (x * n + y, y * n + z, x * n, z)
    for a in codes:
        a.flags.writeable = False
    return codes


def _check_composed_maps(b: Braiding):
    """(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r) on all points at once,
    with r applied as a black box: two flat arrays over pair codes,
    o[a*n + b] = a o b and u[a*n + b] = a . b, gathered at each of the six
    steps for all n^3 points, then the three coordinates compared.  Returns
    (True, None), or False and the first failing point in xyz order with the
    first coordinate that differs there: the three coordinates of the two
    sides are the two sides of YB1, YB2 and YB3, so this is the components'
    witness."""
    n = b.n
    if not n:  # no points
        return True, None
    o = np.fromiter(chain.from_iterable(b.circ.rows), dtype=np.intp, count=n * n)
    u = np.fromiter(chain.from_iterable(b.bullet.rows), dtype=np.intp, count=n * n)
    xy, yz, xn, z = _point_codes(n)
    p1, p2 = o[xy], u[xy]  # (r x 1)(x, y, z) = (p1, p2, z)
    pz = p2 * n + z
    q1, q2 = o[pz], u[pz]  # (1 x r): (p1, q1, q2)
    pq = p1 * n + q1
    l1, l2 = o[pq], u[pq]  # (r x 1): (l1, l2, q2)
    s1, s2 = o[yz], u[yz]  # (1 x r)(x, y, z) = (x, s1, s2)
    xs = xn + s1
    t1, t2 = o[xs], u[xs]  # (r x 1): (t1, t2, s2)
    ts = t2 * n + s2
    m1, m2 = o[ts], u[ts]  # (1 x r): (t1, m1, m2)
    yb1, yb2, yb3 = l1 != t1, l2 != m1, q2 != m2
    bad = yb1 | yb2 | yb3
    i = int(bad.argmax())
    if not bad[i]:
        return True, None
    name = "YB1" if yb1[i] else "YB2" if yb2[i] else "YB3"
    return False, (name, (i // (n * n), i // n % n, i % n))


def _composed_maps_agree_at(b: Braiding, point: tuple[int, int, int]) -> bool:
    """(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r) at one point, with r
    applied as a black box.  The three coordinates of the two sides are the
    two sides of YB1, YB2 and YB3 at that point."""
    r = b.apply
    x, y, z = point
    p1, p2 = r(x, y)
    q1, q2 = r(p2, z)
    l1, l2 = r(p1, q1)
    s1, s2 = r(y, z)
    t1, t2 = r(x, s1)
    m1, m2 = r(t2, s2)
    return l1 == t1 and l2 == m1 and q2 == m2


def is_braiding(b: Braiding, witness: bool = False):
    """True iff b solves the Yang-Baxter equation.

    Runs the component identities YB1-YB3 and the composed-map equation; the
    two verdicts must agree (internal oracle).  The components are scanned in
    Python, over every row below order _ARRAY_ORDER and over row 0 from it.
    A failure there is confirmed at its witness alone, where the composed maps
    must differ: their three coordinates at a point are the two sides of YB1,
    YB2 and YB3.  Otherwise the composed maps, checked on all points in one
    numpy pass, decide, and a failure they find is confirmed by the
    components' scan of its row, which must stop at the same witness (below
    order _ARRAY_ORDER that row has passed, so this raises).  From order
    _ARRAY_ORDER, past row 0, a holding verdict rests on the composed maps
    alone."""
    n = b.n
    holds, wit = _check_component_identities(b, range(n if n < _ARRAY_ORDER else 1))
    if not holds:
        agree = not _composed_maps_agree_at(b, wit[1])
    else:
        holds, wit = _check_composed_maps(b)
        agree = holds or _check_component_identities(b, range(wit[1][0], wit[1][0] + 1)) == (False, wit)
    if not agree:
        raise ConsistencyError("YB1-YB3 verdict disagrees with the composed-map check")
    return (holds, wit) if witness else holds


@dataclass(frozen=True)
class BraidingProperties:
    derived: bool
    involutive: bool
    idempotent: bool
    left_nondegenerate: bool
    nondegenerate: bool
    latin: bool


def properties(b: Braiding) -> BraidingProperties:
    n = b.n
    derived = all(b.bullet.rows[x][y] == x for x in range(n) for y in range(n))
    images = [((x, y), b.apply(x, y)) for x in range(n) for y in range(n)]
    involutive = all(b.apply(*r) == xy for xy, r in images)
    idempotent = all(b.apply(*r) == r for _, r in images)
    left_nd = b.circ.is_left_quasigroup
    right_qg = all(len(set(col)) == n for col in b.bullet.columns())
    return BraidingProperties(
        derived=derived,
        involutive=involutive,
        idempotent=idempotent,
        left_nondegenerate=left_nd,
        nondegenerate=left_nd and right_qg,
        latin=b.circ.is_quasigroup,
    )


@lru_cache(maxsize=None)
def _projection_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the derived bullet x . y = x."""
    return tuple((x,) * n for x in range(n))


def _with_bullet(circ: CayleyTable, ld, kind: str) -> Braiding:
    """Braiding with circle operation circ and the bullet of the kind, where
    circ is a left quasigroup and ld its left division: derived x, involutive
    (x o y) ld x, idempotent (x o y) ld (x o y)."""
    rows = circ.rows
    n = len(rows)
    if kind == "derived":
        bullet = _projection_rows(n)
    elif kind == "involutive":
        # row x reads column x of ld at the entries of row x of circ
        bullet = tuple([tuple([ld[v][x] for v in row]) for x, row in enumerate(rows)])
    else:
        square = [ld[c][c] for c in range(n)]
        bullet = tuple([tuple([square[v] for v in row]) for row in rows])
    return Braiding(circ=circ, bullet=CayleyTable._derived(bullet))


def to_braiding(t: CayleyTable, kind: str) -> Braiding:
    """r(x,y) = (x ldiv y, bullet) with the bullet matching the kind:
    derived x, involutive (x ldiv y)*x, idempotent (x ldiv y)*(x ldiv y).

    The result solves the Yang-Baxter equation iff t satisfies the matching
    identity (rack / rump / twisted Ward)."""
    if kind not in BRAID_KINDS:
        raise ValueError(f"unknown braiding kind {kind!r}")
    return _with_bullet(CayleyTable._derived(t._ldiv_rows), t.rows, kind)


def from_braiding(b: Braiding) -> CayleyTable:
    """Recover the left quasigroup x*y = x ldiv_circ y of a left nondegenerate braiding."""
    return CayleyTable._derived(b.circ._ldiv_rows)


def induced_bullet(t_circ: CayleyTable, kind: str) -> Braiding:
    """Interpret t_circ directly as the circle operation and attach the bullet
    forced by the kind: derived x, involutive (x o y) ldiv x, idempotent
    (x o y) ldiv (x o y).

    The result solves the Yang-Baxter equation iff t_circ satisfies the
    matching division-form identity."""
    if kind not in BRAID_KINDS:
        raise ValueError(f"unknown braiding kind {kind!r}")
    return _with_bullet(t_circ, t_circ._ldiv_rows, kind)


def matching_identity(kind: str, division_form: bool = False) -> str:
    """Name of the left-quasigroup identity paired with a braiding kind."""
    try:
        name = _KIND_IDENTITY[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown braiding kind {kind!r}") from None
    return name + ("_div" if division_form else "")
