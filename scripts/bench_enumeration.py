#!/usr/bin/env python3
"""Work and seconds of the exhaustive search, per order and per root.

For every order n = 1..7 it runs ``enumerate_tw_left_quasigroups(n)`` of
two checkouts and records, for every root (first row), the nodes and leaves
visited, the tables accepted and the seconds taken, as the report's
per-root stats give them; a built root has no nodes and no leaves.  For
every order it also times a whole ``enumerate_tw_left_quasigroups(n)`` in a
fresh interpreter, which pays the per-process caches as a CLI user does,
and it times criterion 01 of the acceptance suite (ell(1..7)).  For n = 8
and 9 it records the setup of the search alone: the seconds and peak RSS of
a fresh interpreter that runs ``_roots(n)`` and then
``_search_root(n, root, 0.0)`` for every root, whose passed deadline stops
each root at its first node.  For n = 8 and 9 it runs one whole
``enumerate_tw_left_quasigroups(n, threads=2)`` per checkout in a fresh
interpreter and records its nodes, leaves, wall time and the root that took
the most seconds.

Two checkouts are timed side by side in one process, each imported under
its own package name, and the numbers go to BENCH_enumeration.json at the
repo root under the labels ``parent`` and ``change``:

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/bench_enumeration.py --parent /tmp/parent

Each per-root time is the least of 5 rounds, the two checkouts in
alternating order, so machine drift falls on both alike; the whole
enumerations below n = 8, the setups and criterion 01 run 3 times each,
alternating.  The script stops if the checkouts accept different tables
below a root or at n = 8 or 9; the nodes and leaves may differ, as a
pruning rule or a built root changes them.
"""
import argparse
import json
import os
import platform
import sys
from pathlib import Path

from bench_checkers import alternating, fresh_runs, load

REPO = Path(__file__).resolve().parent.parent
ORDERS = range(1, 8)
SETUP_ORDERS = (8, 9)
ROUNDS = 5
CRITERION_01 = "tests/test_acceptance.py::test_criterion_01_enumeration_counts"
ENUMERATE = (
    "import sys, time, tward; t = time.perf_counter(); "
    "tward.enumerate_tw_left_quasigroups(int(sys.argv[1]), budget_seconds=None); "
    "print(time.perf_counter() - t)"
)
SETUP = """
import contextlib, resource, sys, time
from tward import search
from tward.errors import BudgetExceededError
n = int(sys.argv[1])
t = time.perf_counter()
roots = search._roots(n)
t_roots = time.perf_counter()
for root in roots:
    with contextlib.suppress(BudgetExceededError):
        search._search_root(n, root, 0.0)
t_setup = time.perf_counter()
print(t_roots - t, t_setup - t_roots, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
WHOLE_ORDERS = (8, 9)
WHOLE = """
import json, sys, time, tward
t = time.perf_counter()
report = tward.enumerate_tw_left_quasigroups(int(sys.argv[1]), budget_seconds=None, threads=2)
wall = time.perf_counter() - t
top = max(report.roots, key=lambda r: r.seconds)
print(json.dumps(dict(
    tables=[rep.rows for rep in report.representatives], nodes=report.nodes, leaves=report.leaves,
    wall_s=round(wall, 2),
    largest_root=dict(root=top.root, nodes=top.nodes, leaves=top.leaves, seconds=round(top.seconds, 2)),
)))
"""


def root_rows(packages, n):
    """One row per root of order n: the counts of each checkout's report,
    and the least seconds of ROUNDS alternating runs of each checkout."""
    labels = list(packages)
    runs = {label: [] for label in labels}
    for i in range(ROUNDS):
        for label in alternating(labels, i):
            runs[label].append(packages[label].enumerate_tw_left_quasigroups(n, budget_seconds=None))
    first = {label: reports[0] for label, reports in runs.items()}

    def accepted(report):
        return [t.rows for t in report.representatives], [(r.root, r.accepted) for r in report.roots]

    if any(accepted(first[label]) != accepted(first[labels[0]]) for label in labels[1:]):
        raise SystemExit(f"the checkouts accept different tables at n = {n}")
    rows = []
    for j, stats in enumerate(first[labels[0]].roots):
        per_label = {label: first[label].roots[j] for label in labels}
        best = {label: min(report.roots[j].seconds for report in runs[label]) for label in labels}
        rows.append(dict(
            n=n, root=list(stats.root), accepted=stats.accepted,
            nodes={label: per_label[label].nodes for label in labels},
            leaves={label: per_label[label].leaves for label in labels},
            seconds={label: float(f"{best[label]:.3g}") for label in labels},
        ))
        print(f"n={n} root {','.join(map(str, stats.root))}: accepted {stats.accepted}",
              "  ".join(f"{label} {per_label[label].nodes} nodes {per_label[label].leaves} leaves "
                        f"{best[label]:.4f} s" for label in labels),
              flush=True)
    return rows


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
        wall = fresh_runs(checkouts, [sys.executable, "-c", ENUMERATE, str(n)],
                          lambda proc, _: round(float(proc.stdout), 3))
        orders.append(dict(
            n=n,
            accepted=sum(r["accepted"] for r in rows),
            nodes={label: sum(r["nodes"][label] for r in rows) for label in checkouts},
            leaves={label: sum(r["leaves"][label] for r in rows) for label in checkouts},
            root_seconds={label: round(sum(r["seconds"][label] for r in rows), 3) for label in checkouts},
            enumerate_wall_s=wall,
        ))
        print(f"n={n} totals: {orders[-1]}", flush=True)

    setups = []
    for n in SETUP_ORDERS:
        runs = fresh_runs(checkouts, [sys.executable, "-c", SETUP, str(n)],
                          lambda proc, _: [round(float(v), 3) for v in proc.stdout.split()])
        setups.append(dict(
            n=n,
            roots_s={label: [r[0] for r in runs[label]] for label in checkouts},
            setup_s={label: [r[1] for r in runs[label]] for label in checkouts},
            peak_rss_mb={label: [round(r[2], 1) for r in runs[label]] for label in checkouts},
        ))
        print(f"n={n} setup: {setups[-1]}", flush=True)

    wholes = []
    for n in WHOLE_ORDERS:
        whole = fresh_runs(checkouts, [sys.executable, "-c", WHOLE, str(n)],
                           lambda proc, _: json.loads(proc.stdout), runs=1)
        whole = {label: runs[0] for label, runs in whole.items()}
        tables = [w.pop("tables") for w in whole.values()]
        if any(t != tables[0] for t in tables[1:]):
            raise SystemExit(f"the checkouts accept different tables at n = {n}")
        wholes.append(dict(n=n, threads=2, accepted=len(tables[0]), **whole))
        print(f"n={n} threads=2: {whole}", flush=True)

    crit = fresh_runs(checkouts, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION_01],
                      lambda proc, wall: round(wall, 3))
    print("criterion 01 s:", crit)

    paragraphs = __doc__.split("\n\n")
    data = dict(
        description=" ".join(paragraphs[i].strip().replace("\n", " ") for i in (0, 1, -1)),
        machine=dict(python=platform.python_version(), cpus=os.cpu_count(), platform=platform.platform()),
        criterion_01_wall_s=crit,
        orders=orders,
        setup=setups,
        whole_orders=wholes,
        roots=roots,
    )
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
