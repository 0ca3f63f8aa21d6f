#!/usr/bin/env python3
"""Reproduce the classification counts table.

For each order n prints ell(n) (twisted Ward left quasigroups up to
isomorphism, by exhaustive search), q(n) (twisted Ward quasigroups, via the
group catalog) and p(n) (permutational classes, the partition number).
ell is left blank beyond the enumeration range or when the budget runs out.
"""
import argparse
import sys

from tward import counts_row
from tward.errors import BudgetExceededError
from tward.groups import MAX_GROUP_ORDER
from tward.search import DEFAULT_BUDGET


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--ell-max-n", type=int, default=7,
                    help="largest order for the exhaustive ell computation")
    ap.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                    help="time budget per enumerated order, seconds")
    args = ap.parse_args()
    if not 1 <= args.max_n <= MAX_GROUP_ORDER:
        ap.error(f"--max-n must be in 1..{MAX_GROUP_ORDER}, the orders of the group catalog")

    print(f"{'n':>3} {'ell':>6} {'q':>6} {'p':>6}")
    for n in range(1, args.max_n + 1):
        with_ell = n <= args.ell_max_n
        try:
            row = counts_row(n, with_ell=with_ell, budget_seconds=args.budget)
            ell = "" if row.ell is None else row.ell
        except BudgetExceededError:
            row = counts_row(n, with_ell=False)
            ell = "?"
        print(f"{row.n:>3} {ell:>6} {row.q:>6} {row.p:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
