"""The four workloads: seeded inputs, the timed calls into tward, and the
checks of their results against the reference computations in ``oracle``.

Each workload has three parts.  ``make_*`` builds the inputs from the seed
as plain Python rows.  ``run_*`` makes the calls into tward; it is the only
timed part, and it records one operation per call whose result is checked
(an operation fails when the call raises).  ``check_*`` compares the
results with the oracle and with properties the mathematics guarantees, and
returns a list of problems, empty when every result is right.
"""
from __future__ import annotations

import itertools
import random
import sys
from math import factorial, gcd

import numpy as np

import oracle

KINDS = oracle.KINDS
BRAID_KINDS = tuple(oracle.BRAIDING_IDENTITY)


class Ops:
    """Operations attempted and failed in one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            print(f"operation failed: {fn.__name__}: {exc!r}", file=sys.stderr)
            return None


def _perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _relabel(rows, pi):
    n = len(rows)
    new = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new[pi[x]][pi[y]] = pi[rows[x][y]]
    return new


# ---------------------------------------------------------------------------
# enumerate: ell(1..6) by exhaustive search
# ---------------------------------------------------------------------------

ENUM_ORDERS = range(1, 7)


def make_enumerate(seed: int):
    return {"orders": list(ENUM_ORDERS)}


def run_enumerate(tw, inputs, ops: Ops):
    enum = tw.enumerate_tw_left_quasigroups
    return {n: ops.call(enum, n) for n in inputs["orders"]}


def check_enumerate(inputs, reports) -> list[str]:
    problems = []
    for n in inputs["orders"]:
        r = reports[n]
        if r is None:
            continue
        reps = [oracle.as_array(t.rows) for t in r.representatives]
        perm = sum(oracle.is_permutational(T) for T in reps)
        quasi = sum(oracle.is_quasigroup(T) for T in reps)
        # the report files the order-1 table, both kinds, as permutational
        both = sum(oracle.is_quasigroup(T) and oracle.is_permutational(T) for T in reps)
        expect = {
            "total": (r.total, len(reps), oracle.ELL[n - 1]),
            "permutational": (r.permutational_count, perm, oracle.P[n - 1]),
            "quasigroup": (r.quasigroup_count + both, quasi, oracle.Q[n - 1]),
            "neither": (r.neither_count, len(reps) - perm - quasi + both),
        }
        for what, values in expect.items():
            if len(set(values)) != 1:
                problems.append(f"n={n}: {what} counts disagree (report, oracle, published) {values}")
        if all(n % d for d in range(2, n)) and n > 1 and r.neither_count != 0:
            problems.append(f"n={n}: prime order but {r.neither_count} neither")
        for T in reps:
            if not oracle.is_left_quasigroup(T) or not oracle.verdict(T, "twisted_ward")[0]:
                problems.append(f"n={n}: representative {T.tolist()} is not twisted Ward")
            k, m = len(oracle.cayley_blocks(T)), len(oracle.squaring_blocks(T))
            if k * m != n:
                problems.append(f"n={n}: kernel law fails, {k} * {m} != {n}")
        if len({oracle.canonical_rows(T) for T in reps}) != len(reps):
            problems.append(f"n={n}: two representatives are isomorphic")
    return problems


# ---------------------------------------------------------------------------
# catalog: q(n), the group-catalog pipeline and its isomorphism tests
# ---------------------------------------------------------------------------

Q_ORDERS = range(1, 12)
CATALOG_ORDERS = range(1, 10)


def make_catalog(seed: int):
    return {"q_orders": list(Q_ORDERS), "orders": list(CATALOG_ORDERS)}


def run_catalog(tw, inputs, ops: Ops):
    q = {n: ops.call(tw.q_count, n) for n in inputs["q_orders"]}
    reps = {
        n: ops.call(tw.enumerate_tw_quasigroups, n, cross_check=False) or ()
        for n in inputs["orders"]
    }
    round_trips = []
    for n in inputs["orders"]:
        for t in reps[n]:
            spec = ops.call(tw.recover_structure, t)
            same = ops.call(lambda: tw.table_isomorphic(tw.build_twq(spec), t))
            round_trips.append((t, spec, same))
    pairs = {}
    for n in inputs["orders"]:
        specs = tw.twq_catalog_specs(n)
        built = [tw.build_twq(s) for s in specs]
        spec_iso = [[ops.call(tw.twq_spec_isomorphic, a, b) for b in specs] for a in specs]
        table_iso = [[ops.call(tw.table_isomorphic, a, b) for b in built] for a in built]
        pairs[n] = (specs, spec_iso, table_iso)
    return {"q": q, "reps": reps, "round_trips": round_trips, "pairs": pairs}


def _spec_problems(spec) -> list[str]:
    G = oracle.as_array(spec.group.table.rows)
    if not oracle.is_group_with_identity_0(G):
        return [f"recovered group {G.tolist()} is not a group with identity 0"]
    if not oracle.is_automorphism(G, spec.psi):
        return [f"psi {spec.psi} is not an automorphism of {G.tolist()}"]
    return []


def check_catalog(inputs, out) -> list[str]:
    problems = []
    for n, q in out["q"].items():
        if q != oracle.Q[n - 1]:
            problems.append(f"q({n}) = {q}, published {oracle.Q[n - 1]}")
    for n, reps in out["reps"].items():
        if len(reps) != oracle.Q[n - 1]:
            problems.append(f"n={n}: {len(reps)} quasigroup classes, q = {oracle.Q[n - 1]}")
        for t in reps:
            T = oracle.as_array(t.rows)
            if not oracle.is_quasigroup(T) or not oracle.verdict(T, "twisted_ward")[0]:
                problems.append(f"n={n}: representative {T.tolist()} is not a twisted Ward quasigroup")
    for t, spec, same in out["round_trips"]:
        T = oracle.as_array(t.rows)
        if spec is None:
            continue
        bad = _spec_problems(spec)
        if not bad:
            rebuilt = oracle.twq_table(oracle.as_array(spec.group.table.rows), spec.psi, spec.c)
            if oracle.isomorphism(rebuilt, T) is None:
                bad.append(f"rebuilt table of {T.tolist()} is not isomorphic to it")
        if same is not True:
            bad.append(f"program says the round trip of {T.tolist()} fails")
        problems += bad
    for n, (specs, spec_iso, table_iso) in out["pairs"].items():
        # the catalog lists one presentation per class, so both isomorphism
        # tests must give the identity matrix
        if len(specs) != oracle.Q[n - 1]:
            problems.append(f"n={n}: catalog has {len(specs)} specs, q = {oracle.Q[n - 1]}")
        eye = [[i == j for j in range(len(specs))] for i in range(len(specs))]
        if spec_iso != eye or table_iso != eye:
            problems.append(f"n={n}: spec or table isomorphism is not the identity relation")
        for spec in specs:
            problems += _spec_problems(spec)
    return problems


# ---------------------------------------------------------------------------
# verify: identities, braidings and kernels on seeded tables up to order 12
# ---------------------------------------------------------------------------

VERIFY_TABLES = 720
NEAR_MISS_EVERY = 3  # every third table has one row replaced
# Orders and families follow a fixed cycle, so that every seed asks for the
# same amount of work; the seed picks the parameters, relabelings and
# near-miss rows.  A shape is an order n or a product of orders (a, b).
VERIFY_SHAPES = [(n,) for n in range(2, 13)] + [
    (a, b) for a in range(2, 7) for b in range(2, 7) if a * b <= 12
]
FAMILIES = ("perm", "affine")


def _family_table(rng: random.Random, family: str, n: int):
    """A twisted Ward left quasigroup of order n: permutational x*y = f(y),
    or affine x*y = c + a(y - x) mod n with a a unit."""
    if family == "perm":
        f = _perm(rng, n)
        return [list(f) for _ in range(n)]
    a = rng.choice([u for u in range(1, n) if gcd(u, n) == 1])
    c = rng.randrange(n)
    return [[(c + a * (y - x)) % n for y in range(n)] for x in range(n)]


def _product(rows_a, rows_b):
    na, nb = len(rows_a), len(rows_b)
    return [
        [rows_a[x1][y1] * nb + rows_b[x2][y2] for y1 in range(na) for y2 in range(nb)]
        for x1 in range(na)
        for x2 in range(nb)
    ]


def make_verify(seed: int):
    rng = random.Random(f"verify-{seed}")
    tables = []
    for i in range(VERIFY_TABLES):
        shape = VERIFY_SHAPES[i % len(VERIFY_SHAPES)]
        cycle = i // len(VERIFY_SHAPES)
        families = [FAMILIES[(cycle >> j) % 2] for j in range(len(shape))]
        factors = [_family_table(rng, f, n) for f, n in zip(families, shape)]
        rows = factors[0] if len(factors) == 1 else _product(*factors)
        n = len(rows)
        rows = _relabel(rows, _perm(rng, n))
        near_miss = i % NEAR_MISS_EVERY == NEAR_MISS_EVERY - 1
        if near_miss:
            x = rng.randrange(n)
            new = _perm(rng, n)
            while list(new) == rows[x]:
                new = _perm(rng, n)
            rows[x] = list(new)
        family = "x".join(families)
        tables.append({"family": family, "near_miss": near_miss, "rows": [tuple(r) for r in rows]})
    return {"tables": tables}


def run_verify(tw, inputs, ops: Ops):
    out = []
    for spec in inputs["tables"]:
        t = tw.CayleyTable(tuple(spec["rows"]))
        res = {
            "identities": {k: ops.call(tw.check_identity, t, k, witness=True) for k in KINDS},
            "braiding": {k: ops.call(lambda: tw.is_braiding(tw.to_braiding(t, k))) for k in BRAID_KINDS},
            "braiding_div": {
                k: ops.call(lambda: tw.is_braiding(tw.induced_bullet(t, k))) for k in BRAID_KINDS
            },
        }
        sim = ops.call(tw.cayley_kernel, t)
        equiv = ops.call(tw.squaring_kernel, t)
        res["sim"] = sim and sim.blocks
        res["equiv"] = equiv and equiv.blocks
        res["sim_congruence"] = sim and ops.call(tw.is_congruence, t, sim)
        res["equiv_congruence"] = equiv and ops.call(tw.is_congruence, t, equiv)
        ops.attempted += 1
        try:
            res["report"] = tw.kernel_size_report(t)
        except tw.IdentityViolationError:
            res["report"] = "not twisted Ward"  # the right answer on a near-miss
        except Exception as exc:
            ops.failed += 1
            print(f"operation failed: kernel_size_report: {exc!r}", file=sys.stderr)
            res["report"] = None
        out.append(res)
    return out


def check_verify(inputs, results) -> list[str]:
    problems = []
    for i, (spec, res) in enumerate(zip(inputs["tables"], results)):
        T = oracle.as_array(spec["rows"])
        n = len(T)
        where = f"table {i} ({spec['family']}, n={n}{', near-miss' if spec['near_miss'] else ''})"
        truth = {k: oracle.verdict(T, k) for k in KINDS}
        if not spec["near_miss"] and not truth["twisted_ward"][0]:
            problems.append(f"{where}: generator produced a table that is not twisted Ward")
        for k in KINDS:
            got = res["identities"][k]
            if got is not None and tuple(got) != truth[k]:
                problems.append(f"{where}: {k} gives {got}, oracle {truth[k]}")
        for kinds, key in ((oracle.BRAIDING_IDENTITY, "braiding"), (oracle.BRAIDING_DIV_IDENTITY, "braiding_div")):
            for kind, ident in kinds.items():
                got = res[key][kind]
                if got is not None and got != truth[ident][0]:
                    problems.append(f"{where}: {key} {kind} is {got}, {ident} is {truth[ident][0]}")
        sim, equiv = oracle.cayley_blocks(T), oracle.squaring_blocks(T)
        for key, blocks in (("sim", sim), ("equiv", equiv)):
            if res[key] is not None and res[key] != blocks:
                problems.append(f"{where}: {key} kernel {res[key]}, oracle {blocks}")
            got = res[f"{key}_congruence"]
            if got is not None and got != oracle.is_congruence(T, blocks):
                problems.append(f"{where}: {key} congruence verdict {got} is wrong")
        report = res["report"]
        if report is None:
            continue
        if not truth["twisted_ward"][0]:
            if report != "not twisted Ward":
                problems.append(f"{where}: kernel report accepted a table that is not twisted Ward")
        elif report == "not twisted Ward" or (
            report.block_sizes_sim != tuple(map(len, sim))
            or report.block_sizes_equiv != tuple(map(len, equiv))
            or not report.product_law_holds
            or len(sim) * len(equiv) != n
        ):
            problems.append(f"{where}: kernel report {report} disagrees with the kernel law")
    return problems


# ---------------------------------------------------------------------------
# screen: every left quasigroup of order 4, and a sample of orders 4 and 5
# ---------------------------------------------------------------------------

SCREEN_ORDER = 4
SAMPLE_ORDERS = (4, 5)
SAMPLE_PER_ORDER = 10000


def make_screen(seed: int):
    rng = random.Random(f"screen-{seed}")
    perms = list(itertools.permutations(range(SCREEN_ORDER)))
    stack = list(itertools.product(perms, repeat=SCREEN_ORDER))
    sample = [
        tuple(_perm(rng, n) for _ in range(n))
        for n in SAMPLE_ORDERS
        for _ in range(SAMPLE_PER_ORDER)
    ]
    return {"stack": stack, "sample": sample}


def run_screen(tw, inputs, ops: Ops):
    table, check = tw.CayleyTable, tw.check_identity
    survivors = []
    for i, rows in enumerate(inputs["stack"]):
        t = table(rows)
        if ops.call(check, t, "twisted_ward"):
            survivors.append((i, t))
    canonical = [(i, ops.call(tw.canonical_form, t)) for i, t in survivors]
    is_braiding, to_braiding = tw.is_braiding, tw.to_braiding
    braidings = [
        {k: ops.call(lambda: is_braiding(to_braiding(t, k))) for k in BRAID_KINDS}
        for t in map(table, inputs["sample"])
    ]
    return {"canonical": canonical, "braidings": braidings}


def check_screen(inputs, out) -> list[str]:
    problems = []
    S = np.asarray(inputs["stack"], dtype=np.intp)
    truth = np.flatnonzero(oracle.holds_batched(S, "twisted_ward")).tolist()
    got = [i for i, _ in out["canonical"]]
    if got != truth:
        problems.append(f"survivors differ from the oracle: {len(got)} found, {len(truth)} expected")
    classes = {}
    for i, canon in out["canonical"]:
        want = oracle.canonical_rows(S[i])
        if canon is None or canon.rows != want:
            problems.append(f"canonical form of table {i} is {canon and canon.rows}, oracle {want}")
        classes.setdefault(want, S[i])
    n = SCREEN_ORDER
    if len(classes) != oracle.ELL[n - 1]:
        problems.append(f"{len(classes)} classes among the survivors, ell({n}) = {oracle.ELL[n - 1]}")
    orbit_sum = sum(factorial(n) // oracle.automorphism_count(T) for T in classes.values())
    if orbit_sum != len(truth):
        problems.append(f"sum of n!/|Aut| over the classes is {orbit_sum}, not {len(truth)}")
    for n in SAMPLE_ORDERS:
        picked = [j for j, rows in enumerate(inputs["sample"]) if len(rows) == n]
        stack = np.asarray([inputs["sample"][j] for j in picked], dtype=np.intp)
        for kind, ident in oracle.BRAIDING_IDENTITY.items():
            for j, want in zip(picked, oracle.holds_batched(stack, ident).tolist()):
                got = out["braidings"][j][kind]
                if got is not None and got != want:
                    problems.append(f"sample {j}: braiding {kind} is {got}, {ident} is {want}")
    return problems


WORKLOADS = {
    "enumerate": (make_enumerate, run_enumerate, check_enumerate),
    "catalog": (make_catalog, run_catalog, check_catalog),
    "verify": (make_verify, run_verify, check_verify),
    "screen": (make_screen, run_screen, check_screen),
}
