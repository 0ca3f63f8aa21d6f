#!/usr/bin/env python3
"""Per-call timings of the identity and braiding checkers and the braiding builders.

Times ``check_identity`` for all seven kinds and ``is_braiding`` on the
idempotent braiding at n = 4, 5, 7, 9 and 12, each on a table where the
check holds (a full n^3 scan), on a seeded random left quasigroup where it
fails early, in row 0, and on x*y = y with two entries of row n - 1
swapped, where it fails after row 0, in one of the last two rows.  Only the
public checkers are timed: the halves of the ``is_braiding`` dual oracle
change their contracts between checkouts.  At n = 4, 5 and 12 it times
``to_braiding`` and ``induced_bullet`` for each braiding kind, and the
validating ``CayleyTable`` build of their input.  In the catalog layer it times
``canonical_form`` on the catalog tables of orders 8 and 9,
``twq_spec_isomorphic`` and ``table_isomorphic`` over all ordered pairs of
catalog specs and of their tables of orders 8 and 9, with the number of
pairs whose psi differ in cycle type and of pairs whose tables differ in
their multisets of row profiles (the pairs each check rejects before any
search), ``recover_structure`` on three seeded relabelings of each catalog
table of order n <= 9 (189 tables), ``find_all_isomorphisms``,
``automorphism_group`` and ``conjugacy_classes`` of the result on C2^4 (the
xor table of order 16, 20,160 automorphisms) and ``_perm_arrays(9)`` with
its cache cleared; a row that makes several calls gives the seconds per
call.  It also times criterion 06 of the acceptance suite.

Two checkouts are timed side by side in one process, each imported under
its own package name, and the numbers go to BENCH_checkers.json at the repo
root under the labels ``parent`` and ``change``:

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/bench_checkers.py --parent /tmp/parent

Each per-call time is the least of 20 rounds; a round times a loop of at
least 0.05 s of each checkout, the two in alternating order, so machine
drift falls on both alike.  The checkers run on a table built once, so what a
table pays once (its validation, or division rows it caches) is not in
their rows.  Each builder call gets a freshly built input table, so its row
includes that table's build (the ``CayleyTable`` row, to subtract) and its
division rows.  Criterion 06 runs in a subprocess per checkout, alternating,
five times each.  The verdicts, the number of triples read before the
verdict and whether each built braiding solves the Yang-Baxter equation are
recorded too, and a digest of the catalog rows' outputs; the script stops
if they differ between the checkouts.
"""
import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
CHECKER_ORDERS = (4, 5, 7, 9, 12)
BUILDER_ORDERS = (4, 5, 12)
CRITERION_06 = "tests/test_acceptance.py::test_criterion_06_correspondences"


def affine(n, a, c):
    """x*y = c + a(y - x) mod n, twisted Ward for every unit a."""
    return tuple(tuple((c + a * (y - x)) % n for y in range(n)) for x in range(n))


def permutational(n):
    """x*y = y + 1 mod n: every identity but the Ward law holds."""
    return tuple(tuple((y + 1) % n for y in range(n)) for _ in range(n))


def fails_after_row_0(n):
    """x*y = y with entries n - 2 and n - 1 of row n - 1 swapped: every
    identity and the idempotent braiding fail in one of the last two rows."""
    rows = [list(range(n)) for _ in range(n)]
    rows[n - 1][n - 2], rows[n - 1][n - 1] = n - 1, n - 2
    return tuple(map(tuple, rows))


def random_left_quasigroup(n):
    rng = random.Random(f"bench-checkers-{n}")
    return tuple(tuple(rng.sample(range(n), n)) for _ in range(n))


def load(checkout, name):
    """Import the tward package of a checkout under the module name given."""
    init = checkout / "src" / "tward" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def alternating(labels, i):
    """The labels in round i: as given in even rounds, reversed in odd ones."""
    return labels[:: 1 - 2 * (i % 2)]


def fresh_runs(checkouts, argv, read, runs=3):
    """A command in a fresh interpreter per checkout, alternating; read maps
    the completed process and its wall time to the value kept."""
    out = {label: [] for label in checkouts}
    for i in range(runs):
        for label in alternating(list(checkouts), i):
            env = dict(os.environ, PYTHONPATH=str(checkouts[label] / "src"))
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=checkouts[label], env=env, check=True, capture_output=True, text=True)
            out[label].append(read(proc, time.perf_counter() - start))
    return out


def interleaved_seconds(calls):
    """Per-call seconds of each call (label -> callable), the least of 20
    rounds that time a loop of every call once, in alternating order."""
    timers = {label: timeit.Timer(call) for label, call in calls.items()}
    # autorange finds a loop of at least 0.2 s; a round runs a quarter of it
    numbers = {label: max(1, timer.autorange()[0] // 4) for label, timer in timers.items()}
    best = dict.fromkeys(calls, float("inf"))
    labels = list(calls)
    for i in range(20):
        for label in alternating(labels, i):
            best[label] = min(best[label], timers[label].timeit(numbers[label]) / numbers[label])
    return best


def triples_to_verdict(n, holds, witness):
    return n**3 if holds else (witness[0] * n + witness[1]) * n + witness[2] + 1


def cases(tw):
    """The rows timed for one checkout's package tw, each with its call."""
    holding = (  # the first of these on which a kind holds is its full-scan table
        ("affine a=1 c=1", lambda n: affine(n, 1, 1)),
        ("affine a=-1 c=1", lambda n: affine(n, -1, 1)),
        ("permutational y+1", permutational),
    )
    rows = []  # each call takes its inputs as defaults: it runs after the loops move on
    for n in CHECKER_ORDERS:
        failing = (
            ("fails", tw.CayleyTable(random_left_quasigroup(n)), "random"),
            ("fails late", tw.CayleyTable(fails_after_row_0(n)), "x*y = y, row n-1 swapped"),
        )
        for kind in tw.tables.IDENTITY_KINDS:
            name, t = next(
                (name, t)
                for name, build in holding
                for t in [tw.CayleyTable(build(n))]
                if tw.check_identity(t, kind)
            )
            for case, table, label in (("holds", t, name),) + failing:
                holds, wit = tw.check_identity(table, kind, witness=True)
                rows.append(dict(
                    function="check_identity", kind=kind, n=n, case=case, table=label, holds=holds,
                    triples_to_verdict=triples_to_verdict(n, holds, wit),
                    call=lambda table=table, kind=kind: tw.check_identity(table, kind),
                ))
        for case, table, label in (("holds", tw.CayleyTable(affine(n, 1, 1)), "affine a=1 c=1"),) + failing:
            b = tw.to_braiding(table, "idempotent")
            holds, wit = tw.is_braiding(b, witness=True)
            rows.append(dict(
                function="is_braiding", kind="idempotent braiding", n=n, case=case, table=label,
                holds=holds, witness=wit, triples_to_verdict=triples_to_verdict(n, holds, wit and wit[1]),
                call=lambda b=b: tw.is_braiding(b),
            ))
    for n in BUILDER_ORDERS:
        label, built = "affine a=1 c=1", affine(n, 1, 1)
        rows.append(dict(
            function="CayleyTable", kind="validating build", n=n, case="fresh table", table=label,
            holds=None, triples_to_verdict=None, call=lambda built=built: tw.CayleyTable(built),
        ))
        for build in (tw.to_braiding, tw.induced_bullet):
            for kind in tw.braidings.BRAID_KINDS:
                rows.append(dict(
                    function=build.__name__, kind=kind, n=n, case="fresh table", table=label,
                    holds=tw.is_braiding(build(tw.CayleyTable(built), kind)), triples_to_verdict=None,
                    call=lambda build=build, kind=kind, built=built: build(tw.CayleyTable(built), kind),
                ))
    return rows + catalog_cases(tw)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def perm_arrays_digest(perms, invs):
    """Digest of the set of rows of perms, and whether each row of perms is
    the inverse of the row of invs beside it (the row order may differ)."""
    rows = np.arange(len(perms))[:, None]
    inverse = bool((perms[rows, invs] == np.arange(perms.shape[1])).all())
    return digest((np.unique(perms, axis=0).tobytes(), inverse))


def relabeled_catalog_tables(tw):
    """Three seeded relabelings of each catalog table of order n <= 9."""
    rng = random.Random("bench-recover")
    tables = []
    for n in range(1, 10):
        for s in tw.twq_catalog_specs(n):
            t = tw.build_twq(s)
            for _ in range(3):
                pi = list(range(n))
                rng.shuffle(pi)
                tables.append(t.relabel(pi))
    return tables


def catalog_cases(tw):
    """Rows of the catalog layer: canonical forms, spec isomorphism, structure
    recovery from relabeled tables, table isomorphism, all automorphisms of
    C2^4, their group and its conjugacy classes, and the permutation arrays
    of the canonical-form filter."""
    perm_arrays = tw.tables._perm_arrays
    rows = []
    for n in (8, 9):
        tables = [tw.build_twq(s) for s in tw.twq_catalog_specs(n)]
        rows.append(dict(
            function="canonical_form", kind="catalog tables", n=n, case=f"{len(tables)} tables",
            table="build_twq", holds=None, triples_to_verdict=None, calls=len(tables),
            output=digest([tw.canonical_form(t).rows for t in tables]),
            call=lambda tables=tables: [tw.canonical_form(t) for t in tables],
        ))
    for n in (8, 9):
        specs = tw.twq_catalog_specs(n)
        cycle_types = [tw.tables.cycle_type(s.psi) for s in specs]

        def matrix(specs=specs):
            return [[tw.twq_spec_isomorphic(a, b) for b in specs] for a in specs]

        rows.append(dict(
            function="twq_spec_isomorphic", kind="catalog pairs", n=n, case=f"{len(specs) ** 2} pairs",
            table="catalog specs", holds=None, triples_to_verdict=None, calls=len(specs) ** 2,
            pairs_rejected_by_cycle_type=sum(a != b for a in cycle_types for b in cycle_types),
            output=digest(matrix()), call=matrix,
        ))
        tables = [tw.build_twq(s) for s in specs]
        profiles = [sorted(t._row_profiles) for t in tables]

        def table_matrix(tables=tables):
            return [[tw.table_isomorphic(a, b) for b in tables] for a in tables]

        rows.append(dict(
            function="table_isomorphic", kind="catalog pairs", n=n, case=f"{len(tables) ** 2} pairs",
            table="build_twq", holds=None, triples_to_verdict=None, calls=len(tables) ** 2,
            pairs_rejected_by_row_profiles=sum(a != b for a in profiles for b in profiles),
            output=digest(table_matrix()), call=table_matrix,
        ))
    relabeled = relabeled_catalog_tables(tw)

    def recovered():
        return [tw.recover_structure(t).to_text() for t in relabeled]

    rows.append(dict(
        function="recover_structure", kind="relabeled catalog", n=9, case=f"{len(relabeled)} tables",
        table="build_twq relabeled", holds=None, triples_to_verdict=None, calls=len(relabeled),
        output=digest(recovered()), call=recovered,
    ))
    xor = tw.CayleyTable(tuple(tuple(x ^ y for y in range(16)) for x in range(16)))

    def automorphisms():
        return list(tw.tables.find_all_isomorphisms(xor, xor))

    rows.append(dict(
        function="find_all_isomorphisms", kind="all automorphisms", n=16, case="C2^4",
        table="x xor y", holds=None, triples_to_verdict=None, calls=1,
        output=digest(automorphisms()), call=automorphisms,
    ))
    aut = tw.automorphism_group(xor)
    rows.append(dict(
        function="automorphism_group", kind="group of automorphisms", n=16, case="C2^4",
        table="x xor y", holds=None, triples_to_verdict=None, calls=1,
        output=digest((aut.degree, sorted(aut.elements))), call=lambda: tw.automorphism_group(xor),
    ))

    def classes():
        return [(c.representative, c.size) for c in tw.conjugacy_classes(aut)]

    rows.append(dict(
        function="conjugacy_classes", kind="automorphism group", n=16, case="C2^4",
        table="x xor y", holds=None, triples_to_verdict=None, calls=1,
        output=digest(classes()), call=classes,
    ))
    rows.append(dict(
        function="_perm_arrays", kind="cache cleared", n=9, case="fresh arrays", table="-",
        holds=None, triples_to_verdict=None, calls=1,
        output=perm_arrays_digest(*perm_arrays(9)),
        call=lambda: (perm_arrays.cache_clear(), perm_arrays(9)),
    ))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout timed under the label parent")
    ap.add_argument("--change", type=Path, default=REPO, help="checkout timed under the label change")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_checkers.json")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    packages = {label: load(path, f"tward_{label}") for label, path in checkouts.items()}

    rows = []
    for pair in zip(*(cases(tw) for tw in packages.values())):
        first = {k: v for k, v in pair[0].items() if k != "call"}
        for other in pair[1:]:
            if {k: v for k, v in other.items() if k != "call"} != first:
                raise SystemExit(f"the checkouts disagree: {first} against {other}")
        seconds = interleaved_seconds(dict(zip(packages, (r["call"] for r in pair))))
        seconds = {k: v / first.get("calls", 1) for k, v in seconds.items()}
        rows.append(first | {"seconds_per_call": {k: float(f"{v:.3g}") for k, v in seconds.items()}})
        print(f"{first['function']:28s} {first['kind']:20s} n={first['n']:<2d} {first['case']:11s}",
              "  ".join(f"{k} {v * 1e6:9.2f} us" for k, v in seconds.items()), flush=True)

    crit = fresh_runs(checkouts, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION_06],
                      lambda proc, wall: round(wall, 2), runs=5)
    print("criterion 06 s:", crit)

    paragraphs = __doc__.split("\n\n")
    data = dict(
        description=" ".join(paragraphs[i].strip().replace("\n", " ") for i in (0, 1, -1)),
        machine=dict(python=platform.python_version(), cpus=os.cpu_count(), platform=platform.platform()),
        criterion_06_wall_s=crit,
        rows=rows,
    )
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
