"""Builders for twisted Ward (left) quasigroups, structure recovery and
presentation-level isomorphism."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AlgebraError, ConsistencyError, IdentityViolationError
from .groups import FiniteGroup, as_group, is_group
from .perms import (
    Perm,
    compose,
    format_perm,
    inverse,
    is_perm,
    multiplication_groups,
    parse_perm,
)
from .tables import (
    CayleyTable,
    cayley_kernel,
    check_identity,
    cycle_type,
    find_isomorphism,
)


class BlockRejectionError(AlgebraError):
    """The block family does not define a twisted Ward left quasigroup;
    carries a dependence witness (x1, x2, y, b)."""

    def __init__(self, witness: tuple[int, int, int, int]):
        super().__init__(f"composite translation depends on x: witness {witness}")
        self.witness = witness


def _is_endomorphism(g: FiniteGroup, phi: Sequence[int]) -> bool:
    r = g.table.rows
    return all(phi[r[x][y]] == r[phi[x]][phi[y]] for x in range(g.n) for y in range(g.n))


def _is_group_automorphism(g: FiniteGroup, psi: Sequence[int]) -> bool:
    return len(psi) == g.n and is_perm(psi) and _is_endomorphism(g, psi)


@dataclass(frozen=True)
class TwqSpec:
    """Presentation (group, automorphism psi, constant c) of the twisted Ward
    quasigroup x*y = c . psi(x^{-1} y)."""

    group: FiniteGroup
    psi: Perm
    c: int

    def __post_init__(self):
        if not _is_group_automorphism(self.group, self.psi):
            raise ValueError("psi is not an automorphism of the group")
        if not (0 <= self.c < self.group.n):
            raise ValueError("constant c out of range")

    def to_text(self) -> str:
        return self.group.to_text() + f"# psi\n{format_perm(self.psi)}\n# c\n{self.c}\n"

    @classmethod
    def parse(cls, text: str) -> "TwqSpec":
        lines = text.splitlines()
        at: dict[str, int] = {}
        for marker in ("psi", "c"):
            idx = next((i for i, ln in enumerate(lines) if ln.strip() == f"# {marker}"), None)
            if idx is None or idx + 1 == len(lines) or not lines[idx + 1].strip():
                raise ValueError(f"spec text needs a '# {marker}' line followed by its value")
            at[marker] = idx
        table = CayleyTable.parse("\n".join(lines[: at["psi"]]))
        psi = parse_perm(lines[at["psi"] + 1])
        c = int(lines[at["c"] + 1])
        return cls(group=as_group(table), psi=psi, c=c)


def build_twq(spec: TwqSpec) -> CayleyTable:
    """Table of x*y = c . psi(x^{-1} y): row x twists the left division row
    of x in the group."""
    cr, psi = spec.group.table.rows[spec.c], spec.psi
    return CayleyTable.from_rows([[cr[psi[d]] for d in ld] for ld in spec.group.table._ldiv_rows])


@dataclass(frozen=True)
class AffineResult:
    table: CayleyTable
    twisted_ward: bool


def build_affine(
    group: FiniteGroup, phi: Sequence[int], psi: Perm, c: int
) -> AffineResult:
    """x*y = phi(x) + psi(y) + c over an abelian group.

    phi is an arbitrary endomorphism given by its image sequence.  The result
    is tagged twisted Ward iff phi psi = psi phi and phi^2 + phi psi = 0,
    verified pointwise (never trusted).
    """
    if not group.is_abelian():
        raise ValueError("affine construction requires an abelian group")
    n = group.n
    if not (0 <= c < n):
        raise ValueError("constant c out of range")
    if len(phi) != n or any(not (0 <= v < n) for v in phi):
        raise ValueError("phi image sequence out of range")
    if not _is_endomorphism(group, phi):
        raise ValueError("phi is not an endomorphism")
    if not _is_group_automorphism(group, psi):
        raise ValueError("psi is not an automorphism")
    r = group.table.rows
    rows = [[r[r[phi[x]][psi[y]]][c] for y in range(n)] for x in range(n)]
    commute = all(phi[psi[x]] == psi[phi[x]] for x in range(n))
    null = all(r[phi[phi[x]]][phi[psi[x]]] == 0 for x in range(n))
    tagged = commute and null
    table = CayleyTable.from_rows(rows)
    if tagged != check_identity(table, "twisted_ward"):
        raise ConsistencyError("affine tagging disagrees with the identity check")
    return AffineResult(table=table, twisted_ward=tagged)


def build_permutational(n: int, f: Perm) -> CayleyTable:
    """x*y = f(y): every row equals f."""
    if n < 1:  # an order-0 table is no table
        raise ValueError(f"element count must be at least 1, got {n}")
    if len(f) != n or not is_perm(f):
        raise ValueError("f must be a permutation of degree n")
    return CayleyTable.from_rows([list(f)] * n)


def direct_product(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    """(x, i)*(y, j) = (x*y, i*j), the pair (x, i) labeled x*|b| + i."""
    k = b.n
    return CayleyTable.from_rows(
        [[ay * k + bj for ay in ar for bj in br] for ar in a.rows for br in b.rows]
    )


@dataclass(frozen=True)
class BlockFamily:
    """Family of bijections f_x of X x A defining (x,a)*(y,b) = f_x(y,b).

    The product carrier is flattened as x*a_size + a.
    """

    x_size: int
    a_size: int
    maps: tuple[Perm, ...]

    def __post_init__(self):
        if self.x_size < 1 or self.a_size < 1:
            raise ValueError(f"block sizes must be at least 1, got {self.x_size} {self.a_size}")
        if len(self.maps) != self.x_size:
            raise ValueError("need one bijection per element of X")
        m = self.x_size * self.a_size
        for f in self.maps:
            if len(f) != m or not is_perm(f):
                raise ValueError("each f_x must be a bijection of X x A")


def build_block(fam: BlockFamily) -> CayleyTable:
    """Table (x,a)*(y,b) = f_x(y,b), accepted iff f_{f_x^[1](y,b)} o f_x is
    independent of x; rejection carries a witness."""
    d = fam.a_size
    m = fam.x_size * d
    for flat in range(m):
        composite: Optional[Perm] = None
        first_x: Optional[int] = None
        for x in range(fam.x_size):
            comp = compose(fam.maps[fam.maps[x][flat] // d], fam.maps[x])
            if composite is None:
                composite, first_x = comp, x
            elif comp != composite:
                raise BlockRejectionError((first_x, x, flat // d, flat % d))
    rows = [[fam.maps[x // d][flat] for flat in range(m)] for x in range(m)]
    return CayleyTable.from_rows(rows)


def decompose_block(t: CayleyTable) -> BlockFamily:
    """Represent a finite twisted Ward left quasigroup as a block family over
    its Cayley-kernel blocks (uniform size), A-fibers ordered by element."""
    if not check_identity(t, "twisted_ward"):
        raise IdentityViolationError("block decomposition needs a twisted Ward left quasigroup")
    kernel = cayley_kernel(t)
    sizes = set(kernel.block_sizes())
    if len(sizes) != 1:
        raise ConsistencyError("Cayley-kernel blocks of a twisted Ward left quasigroup must be uniform")
    d = sizes.pop()
    blocks = kernel.blocks
    k = len(blocks)
    # carrier bijection: element blocks[x][a] <-> flat index x*d + a
    to_flat = [0] * t.n
    for x, block in enumerate(blocks):
        for a, elem in enumerate(block):
            to_flat[elem] = x * d + a
    from_flat = inverse(tuple(to_flat))
    maps = []
    for x in range(k):
        rep = blocks[x][0]
        maps.append(tuple(to_flat[t.rows[rep][from_flat[i]]] for i in range(k * d)))
    return BlockFamily(x_size=k, a_size=d, maps=tuple(maps))


def _isotope(t: CayleyTable, e: int) -> CayleyTable:
    """The isotope x <> y = (x rdiv e)*(e ldiv y) of a quasigroup; right
    division by e inverts column e."""
    re = inverse([row[e] for row in t.rows])
    le = t._ldiv_rows[e]
    return CayleyTable.from_rows([[t.rows[z][d] for d in le] for z in re])


@dataclass(frozen=True)
class DisElementForm:
    e: int
    verified: bool


def dis_element_form(t: CayleyTable) -> DisElementForm:
    """For a twisted Ward quasigroup: verify Dis = {L_x^{-1} L_e : x} with e
    the unique square, and that (x rdiv e)*(e ldiv y) is a group operation."""
    if not t.is_quasigroup or not check_identity(t, "twisted_ward"):
        raise IdentityViolationError("table is not a twisted Ward quasigroup")
    # z = y in the identity gives (x*y)*(x*y) = (y*y)*(y*y), and x*y runs over X
    e = t.rows[0][0]
    wanted = {compose(inv, t.rows[e]) for inv in t._ldiv_rows}
    ok = multiplication_groups(t).dis.elements == frozenset(wanted)
    return DisElementForm(e=e, verified=ok and is_group(_isotope(t, e)))


def recover_structure(t: CayleyTable) -> TwqSpec:
    """Recover a (group, psi, c) presentation of a twisted Ward quasigroup.

    e is the unique square.  After relabeling by the transposition (0 e), the
    group is the isotope x <> y = (x rdiv 0)*(0 ldiv y) with identity 0, psi
    is the left translation by 0, and c = 0.  The presentation is verified by
    rebuilding: build_twq(spec), relabeled back by (0 e), is the table as given.
    """
    if not t.is_quasigroup or not check_identity(t, "twisted_ward"):
        raise IdentityViolationError("structure recovery needs a twisted Ward quasigroup")
    e = t.rows[0][0]
    tau = [{0: e, e: 0}.get(x, x) for x in range(t.n)]
    u = t.relabel(tau)
    spec = TwqSpec(group=as_group(_isotope(u, 0)), psi=u.rows[0], c=0)
    if build_twq(spec).relabel(tau) != t:
        raise ConsistencyError("recovered presentation does not reproduce the table")
    return spec


def twq_spec_isomorphic(s1: TwqSpec, s2: TwqSpec) -> bool:
    """True iff some group isomorphism transports psi1 to psi2; the constants
    are immaterial (x -> cx is always an isomorphism onto the c-twist).

    A theta with theta psi1 theta^-1 = psi2 makes psi1 and psi2 conjugate
    permutations, so their cycle types agree (and with them the orders);
    psi1 and psi2 of different cycle types are decided without a search.
    Otherwise every isomorphism G1 -> G2 is theta0 o alpha with theta0 one of
    them and alpha in Aut(G1), and theta0 alpha psi1 = psi2 theta0 alpha
    reads alpha psi1 = target alpha with target = theta0^-1 psi2 theta0, so
    one isomorphism search and the cached Aut(G1) decide.
    """
    psi1, psi2 = s1.psi, s2.psi
    if cycle_type(psi1) != cycle_type(psi2):
        return False
    theta0 = find_isomorphism(s1.group.table, s2.group.table)
    if theta0 is None:
        return False
    target = compose(inverse(theta0), compose(psi2, theta0))
    return any(compose(alpha, psi1) == compose(target, alpha) for alpha in s1.group.automorphisms.elements)
