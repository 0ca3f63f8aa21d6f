"""Set-theoretic Yang-Baxter maps r(x,y) = (x o y, x . y) held as two tables,
with the three correspondences to left-quasigroup identities."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, StructureError
from .tables import CayleyTable, check_identity

BRAID_KINDS = ("derived", "involutive", "idempotent")

_KIND_IDENTITY = {
    "derived": "rack",
    "involutive": "rump",
    "idempotent": "twisted_ward",
}

_KIND_DIV_IDENTITY = {
    "derived": "rack_div",
    "involutive": "rump_div",
    "idempotent": "twisted_ward_div",
}


@dataclass(frozen=True)
class Braiding:
    circ: CayleyTable
    bullet: CayleyTable

    def __post_init__(self):
        if self.circ.n != self.bullet.n:
            raise ValueError("circ and bullet tables must have the same size")

    @property
    def n(self) -> int:
        return self.circ.n

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.circ.rows[x][y], self.bullet.rows[x][y]

    def to_text(self, comments=()) -> str:
        lines = [f"# {c}" for c in comments]
        lines.append(str(self.n))
        lines.extend(" ".join(str(v) for v in row) for row in self.circ.rows)
        lines.append("# bullet")
        lines.extend(" ".join(str(v) for v in row) for row in self.bullet.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Braiding":
        lines = text.splitlines()
        try:
            split = next(i for i, ln in enumerate(lines) if ln.strip() == "# bullet")
        except StopIteration:
            raise ValueError("missing '# bullet' separator") from None
        circ = CayleyTable.parse("\n".join(lines[:split]))
        bullet_rows = [ln for ln in lines[split + 1 :] if ln.strip() and not ln.lstrip().startswith("#")]
        bullet = CayleyTable.parse("\n".join([str(circ.n)] + bullet_rows))
        return cls(circ=circ, bullet=bullet)


def _check_component_identities(b: Braiding, witness: bool):
    """YB1-YB3 over all triples."""
    n = b.n
    o = b.circ.rows
    u = b.bullet.rows
    for x in range(n):
        for y in range(n):
            xy, xby = o[x][y], u[x][y]
            for z in range(n):
                if o[x][o[y][z]] != o[xy][o[xby][z]]:
                    return False, ("YB1", (x, y, z)) if witness else None
                if u[xy][o[xby][z]] != o[u[x][o[y][z]]][u[y][z]]:
                    return False, ("YB2", (x, y, z)) if witness else None
                if u[xby][z] != u[u[x][o[y][z]]][u[y][z]]:
                    return False, ("YB3", (x, y, z)) if witness else None
    return True, None


def _check_composed_maps(b: Braiding) -> bool:
    """(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r) on all points."""
    n = b.n

    def r1(t):
        a, b_, c = t
        p, q = b.apply(a, b_)
        return (p, q, c)

    def r2(t):
        a, b_, c = t
        p, q = b.apply(b_, c)
        return (a, p, q)

    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                if r1(r2(r1(t))) != r2(r1(r2(t))):
                    return False
    return True


def is_braiding(b: Braiding, witness: bool = False):
    """True iff b solves the Yang-Baxter equation.

    Runs both the component identities YB1-YB3 and the composed-map equation;
    the two verdicts must agree (internal oracle)."""
    by_identities, wit = _check_component_identities(b, witness)
    by_composition = _check_composed_maps(b)
    if by_identities != by_composition:
        raise ConsistencyError(
            "YB1-YB3 verdict disagrees with the composed-map check"
        )
    return (by_identities, wit) if witness else by_identities


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
    involutive = True
    idempotent = True
    for x in range(n):
        for y in range(n):
            p, q = b.apply(x, y)
            pp = b.apply(p, q)
            involutive = involutive and pp == (x, y)
            idempotent = idempotent and pp == (p, q)
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


def _with_bullet(circ: CayleyTable, ld, kind: str) -> Braiding:
    """Braiding with circle operation circ and the bullet of the kind, where
    ld is the left division of circ: derived x, involutive (x o y) ld x,
    idempotent (x o y) ld (x o y)."""
    rows = enumerate(circ.rows)
    if kind == "derived":
        bullet = tuple((x,) * len(row) for x, row in rows)
    elif kind == "involutive":
        bullet = tuple(tuple(ld[c][x] for c in row) for x, row in rows)
    else:
        bullet = tuple(tuple(ld[c][c] for c in row) for _, row in rows)
    return Braiding(circ=circ, bullet=CayleyTable(bullet))


def to_braiding(t: CayleyTable, kind: str) -> Braiding:
    """r(x,y) = (x ldiv y, bullet) with the bullet matching the kind:
    derived x, involutive (x ldiv y)*x, idempotent (x ldiv y)*(x ldiv y).

    The result solves the Yang-Baxter equation iff t satisfies the matching
    identity (rack / rump / twisted Ward)."""
    if kind not in BRAID_KINDS:
        raise ValueError(f"unknown braiding kind {kind!r}")
    if not t.is_left_quasigroup:
        raise StructureError("braiding construction requires a left quasigroup")
    return _with_bullet(CayleyTable(t._ldiv_rows), t.rows, kind)


def from_braiding(b: Braiding) -> CayleyTable:
    """Recover the left quasigroup x*y = x ldiv_circ y."""
    if not b.circ.is_left_quasigroup:
        raise StructureError("recovery requires a left nondegenerate braiding")
    return CayleyTable.from_rows([list(b.circ._ldiv_rows[x]) for x in range(b.n)])


def induced_bullet(t_circ: CayleyTable, kind: str) -> Braiding:
    """Interpret t_circ directly as the circle operation and attach the bullet
    forced by the kind: derived x, involutive (x o y) ldiv x, idempotent
    (x o y) ldiv (x o y).

    The result solves the Yang-Baxter equation iff t_circ satisfies the
    matching division-form identity."""
    if kind not in BRAID_KINDS:
        raise ValueError(f"unknown braiding kind {kind!r}")
    if not t_circ.is_left_quasigroup:
        raise StructureError("induced bullet requires a left quasigroup")
    return _with_bullet(t_circ, t_circ._ldiv_rows, kind)


def matching_identity(kind: str, division_form: bool = False) -> str:
    """Name of the left-quasigroup identity paired with a braiding kind."""
    table = _KIND_DIV_IDENTITY if division_form else _KIND_IDENTITY
    if kind not in table:
        raise ValueError(f"unknown braiding kind {kind!r}")
    return table[kind]
