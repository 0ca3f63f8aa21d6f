#!/usr/bin/env python3
"""Per-call timings of the identity and braiding checkers.

Times ``check_identity`` for all seven kinds and the two halves of the
``is_braiding`` dual oracle (``_check_component_identities`` and
``_check_composed_maps``) at n = 4, 5 and 12, each on a table where the
check holds (a full n^3 scan) and on a seeded random left quasigroup where
it fails early.  It also times criterion 06 of the acceptance suite.

The numbers of one checkout are stored under a label in BENCH_checkers.json
at the repo root, next to those of other labels, so two commits can be put
side by side:

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/bench_checkers.py --checkout /tmp/parent --label parent
    python3 scripts/bench_checkers.py --label change

Each per-call time is the least of 5 repeats of a loop that runs at least
0.2 s on a table built once, so what a table pays once (its validation, or
division rows it caches) is not in these rows; the perfbench workloads
measure that.  The verdicts and the number of triples read before the
verdict are recorded too; they must agree between labels.
"""
import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
import timeit
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ORDERS = (4, 5, 12)
CRITERION_06 = "tests/test_acceptance.py::test_criterion_06_correspondences"


def affine(n, a, c):
    """x*y = c + a(y - x) mod n, twisted Ward for every unit a."""
    return tuple(tuple((c + a * (y - x)) % n for y in range(n)) for x in range(n))


def permutational(n):
    """x*y = y + 1 mod n: every identity but the Ward law holds."""
    return tuple(tuple((y + 1) % n for y in range(n)) for _ in range(n))


def random_left_quasigroup(n):
    rng = random.Random(f"bench-checkers-{n}")
    return tuple(tuple(rng.sample(range(n), n)) for _ in range(n))


def per_call_seconds(call):
    timer = timeit.Timer(call)
    number, _ = timer.autorange()  # a loop of at least 0.2 s
    return min(timer.repeat(5, number)) / number


def triples_to_verdict(n, holds, witness):
    return n**3 if holds else (witness[0] * n + witness[1]) * n + witness[2] + 1


def measure(tw):
    from tward.braidings import _check_component_identities, _check_composed_maps
    from tward.tables import IDENTITY_KINDS

    holding = (  # the first of these on which a kind holds is its full-scan table
        ("affine a=1 c=1", lambda n: affine(n, 1, 1)),
        ("affine a=-1 c=1", lambda n: affine(n, -1, 1)),
        ("permutational y+1", permutational),
    )
    rows = []
    for n in ORDERS:
        fails = tw.CayleyTable(random_left_quasigroup(n))
        for kind in IDENTITY_KINDS:
            name, t = next(
                (name, t)
                for name, build in holding
                for t in [tw.CayleyTable(build(n))]
                if tw.check_identity(t, kind)
            )
            for case, table, label in (("holds", t, name), ("fails", fails, "random")):
                holds, wit = tw.check_identity(table, kind, witness=True)
                rows.append(dict(
                    function="check_identity", kind=kind, n=n, case=case, table=label, holds=holds,
                    triples_to_verdict=triples_to_verdict(n, holds, wit),
                    seconds=per_call_seconds(lambda: tw.check_identity(table, kind)),
                ))
        for case, table, label in (("holds", tw.CayleyTable(affine(n, 1, 1)), "affine a=1 c=1"),
                                   ("fails", fails, "random")):
            b = tw.to_braiding(table, "idempotent")
            holds, wit = _check_component_identities(b, True)
            rows.append(dict(
                function="_check_component_identities", kind="idempotent braiding", n=n, case=case,
                table=label, holds=holds,
                triples_to_verdict=triples_to_verdict(n, holds, wit and wit[1]),
                seconds=per_call_seconds(lambda: _check_component_identities(b, False)),
            ))
            rows.append(dict(
                function="_check_composed_maps", kind="idempotent braiding", n=n, case=case,
                table=label, holds=_check_composed_maps(b), triples_to_verdict=None,
                seconds=per_call_seconds(lambda: _check_composed_maps(b)),
            ))
    return rows


def criterion_06_seconds(checkout):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION_06],
        cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", type=Path, default=REPO, help="checkout whose src/ is measured")
    ap.add_argument("--label", default="current", help="name of the column the numbers go to")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_checkers.json")
    args = ap.parse_args()
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    import tward

    if not Path(tward.__file__).resolve().is_relative_to(checkout):
        raise SystemExit(f"imported {tward.__file__}, not the checkout's tward")
    rows = measure(tward)
    crit = criterion_06_seconds(checkout)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    paragraphs = __doc__.split("\n\n")
    data["description"] = " ".join(paragraphs[i].replace("\n", " ") for i in (0, 1, -1))
    data.setdefault("machine", {}).update(
        python=platform.python_version(), cpus=os.cpu_count(), platform=platform.platform()
    )
    data.setdefault("criterion_06_wall_s", {})[args.label] = round(crit, 2)
    table = {(r["function"], r["kind"], r["n"], r["case"]): r for r in data.get("rows", [])}
    for r in rows:
        key = (r["function"], r["kind"], r["n"], r["case"])
        old = table.setdefault(key, {k: v for k, v in r.items() if k != "seconds"} | {"seconds_per_call": {}})
        for field in ("table", "holds", "triples_to_verdict"):
            if old[field] != r[field]:
                raise SystemExit(f"{key}: {field} is {r[field]!r} here, {old[field]!r} in {args.out}")
        old["seconds_per_call"][args.label] = float(f"{r['seconds']:.3g}")
    data["rows"] = list(table.values())
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{args.label}: criterion 06 {crit:.1f} s; {len(rows)} rows written to {args.out}")
    for r in rows:
        print(f"{r['function']:28s} {r['kind']:20s} n={r['n']:<2d} {r['case']:5s} {r['seconds'] * 1e6:10.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
