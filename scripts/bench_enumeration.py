#!/usr/bin/env python3
"""Work and seconds of the exhaustive search, per order and per root.

For every order n = 1..7 and every root (first row) of the search, runs
``search._search_root`` of two checkouts and records the nodes and leaves
visited, the tables accepted and the seconds taken.  For every order it also
times a whole ``enumerate_tw_left_quasigroups(n)`` in a fresh interpreter,
which pays the per-process caches as a CLI user does, and it times
criterion 01 of the acceptance suite (ell(1..7)).

Two checkouts are timed side by side in one process, each imported under
its own package name, and the numbers go to BENCH_enumeration.json at the
repo root under the labels ``parent`` and ``change``:

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/bench_enumeration.py --parent /tmp/parent

Each per-root time is the least of 5 rounds, the two checkouts in
alternating order, so machine drift falls on both alike; the whole
enumerations and criterion 01 run 3 times each, alternating.  The script
stops if the checkouts accept different tables below a root, or leave
different leaves.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_checkers import load

REPO = Path(__file__).resolve().parent.parent
ORDERS = range(1, 8)
ROUNDS = 5
CRITERION_01 = "tests/test_acceptance.py::test_criterion_01_enumeration_counts"
ENUMERATE = (
    "import sys, time, tward; t = time.perf_counter(); "
    "tward.enumerate_tw_left_quasigroups(int(sys.argv[1]), budget_seconds=None); "
    "print(time.perf_counter() - t)"
)


def alternating(labels, i):
    return labels[:: 1 - 2 * (i % 2)]


def root_rows(packages, n):
    """One row per root of order n: counts, and the least seconds of
    ROUNDS alternating runs of each checkout."""
    labels = list(packages)
    roots = packages[labels[0]].search._roots(n)
    rows = []
    for root in roots:
        best = dict.fromkeys(labels, float("inf"))
        found = {}
        for i in range(ROUNDS):
            for label in alternating(labels, i):
                start = time.perf_counter()
                tables, nodes, leaves = packages[label].search._search_root(n, root, None)
                best[label] = min(best[label], time.perf_counter() - start)
                found[label] = (sorted(tables), nodes, leaves)
        tables, _, leaves = found[labels[0]]
        for label in labels[1:]:
            if (found[label][0], found[label][2]) != (tables, leaves):
                raise SystemExit(f"the checkouts disagree at n = {n}, root {root}")
        rows.append(dict(
            n=n, root=list(root), leaves=leaves, accepted=len(tables),
            nodes={label: found[label][1] for label in labels},
            seconds={label: float(f"{best[label]:.3g}") for label in labels},
        ))
        print(f"n={n} root {','.join(map(str, root))}: leaves {leaves} accepted {len(tables)}",
              "  ".join(f"{label} {found[label][1]} nodes {best[label]:.4f} s" for label in labels),
              flush=True)
    return rows


def fresh_seconds(checkouts, argv, read, runs=3):
    """Seconds of a command in a fresh interpreter per checkout, alternating;
    read maps the completed process and its wall time to the seconds kept."""
    out = {label: [] for label in checkouts}
    for i in range(runs):
        for label in alternating(list(checkouts), i):
            env = dict(os.environ, PYTHONPATH=str(checkouts[label] / "src"))
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=checkouts[label], env=env, check=True, capture_output=True, text=True)
            out[label].append(round(read(proc, time.perf_counter() - start), 3))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout timed under the label parent")
    ap.add_argument("--change", type=Path, default=REPO, help="checkout timed under the label change")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_enumeration.json")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    packages = {label: load(path, f"tward_{label}") for label, path in checkouts.items()}

    roots = []
    orders = []
    for n in ORDERS:
        rows = root_rows(packages, n)
        roots += rows
        wall = fresh_seconds(checkouts, [sys.executable, "-c", ENUMERATE, str(n)],
                             lambda proc, _: float(proc.stdout))
        orders.append(dict(
            n=n,
            leaves=sum(r["leaves"] for r in rows),
            accepted=sum(r["accepted"] for r in rows),
            nodes={label: sum(r["nodes"][label] for r in rows) for label in checkouts},
            root_seconds={label: round(sum(r["seconds"][label] for r in rows), 3) for label in checkouts},
            enumerate_wall_s=wall,
        ))
        print(f"n={n} totals: {orders[-1]}", flush=True)

    crit = fresh_seconds(checkouts, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION_01],
                         lambda proc, wall: wall)
    print("criterion 01 s:", crit)

    paragraphs = __doc__.split("\n\n")
    data = dict(
        description=" ".join(paragraphs[i].strip().replace("\n", " ") for i in (0, 1, -1)),
        machine=dict(python=platform.python_version(), cpus=os.cpu_count(), platform=platform.platform()),
        criterion_01_wall_s=crit,
        orders=orders,
        roots=roots,
    )
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
