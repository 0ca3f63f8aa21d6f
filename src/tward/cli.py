"""Command-line frontend.

Exit codes: 0 = property holds / success, 1 = property fails (witness
printed), 2 = input or usage error, 3 = time budget exceeded.  Every verdict
starts with a machine-parsable line 'RESULT: <verdict>'.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import braidings, construct, groups, perms, search, tables
from .errors import AlgebraError, BudgetExceededError

IDENTITY_NAMES = {
    kind.replace("twisted_ward", "tw").replace("_", "-"): kind for kind in tables.IDENTITY_KINDS
}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_table(path: str) -> tables.CayleyTable:
    return tables.CayleyTable.parse(Path(path).read_text())


def cmd_check(args) -> int:
    t = _read_table(args.file)
    kind = IDENTITY_NAMES[args.identity]
    holds, witness = tables.check_identity(t, kind, witness=True)
    if holds:
        print("RESULT: holds")
        return EXIT_OK
    print("RESULT: fails")
    print(f"witness triple (x, y, z) = {witness}")
    return EXIT_FAIL


def _flag_words(report) -> list[str]:
    """'name 0|1' per field of a dataclass of flags, without an 'is_' prefix."""
    return [f"{f.name.removeprefix('is_')} {int(getattr(report, f.name))}" for f in fields(report)]


def cmd_props(args) -> int:
    t = _read_table(args.file)
    flags = tables.classify_structure(t)
    print("RESULT: ok")
    print("\n".join(_flag_words(flags)))
    if t.is_left_quasigroup:
        mg = perms.multiplication_groups(t)
        for f in fields(mg):
            print(f"{f.name}_order {getattr(mg, f.name).order}")
        print(f"dis_plus_regular {int(perms.is_regular(mg.dis_plus))}")
    return EXIT_OK


def cmd_kernels(args) -> int:
    t = _read_table(args.file)
    report = tables.kernel_size_report(t)
    sim = tables.cayley_kernel(t)
    equiv = tables.squaring_kernel(t)
    print("RESULT: ok" if report.product_law_holds else "RESULT: product-law-fails")
    print(f"sim_block_sizes {' '.join(map(str, report.block_sizes_sim))}")
    print(f"equiv_block_sizes {' '.join(map(str, report.block_sizes_equiv))}")
    print(f"product_law_holds {int(report.product_law_holds)}")
    print(f"sim_is_congruence {int(tables.is_congruence(t, sim))}")
    print(f"equiv_is_congruence {int(tables.is_congruence(t, equiv))}")
    return EXIT_OK if report.product_law_holds else EXIT_FAIL


def cmd_construct(args) -> int:
    if args.builder == "twq":
        group = groups.as_group(_read_table(args.group))
        spec = construct.TwqSpec(group=group, psi=perms.parse_perm(args.psi), c=args.c)
        table = construct.build_twq(spec)
    elif args.builder == "affine":
        group = groups.as_group(_read_table(args.group))
        phi = tuple(int(v) for v in args.phi.split())
        result = construct.build_affine(group, phi, perms.parse_perm(args.psi), args.c)
        print(f"# twisted_ward {int(result.twisted_ward)}", file=sys.stderr)
        table = result.table
    elif args.builder == "perm":
        table = construct.build_permutational(args.n, perms.parse_perm(args.f))
    else:  # block
        fam = _parse_block_family(Path(args.family).read_text())
        table = construct.build_block(fam)
    print("RESULT: ok")
    sys.stdout.write(table.to_text())
    return EXIT_OK


def _parse_block_family(text: str) -> construct.BlockFamily:
    """Family file: first line 'x_size a_size', then exactly x_size permutation
    lines (bijections of the flattened product carrier); comments as in tables."""
    data = tables._data_lines(text)
    if not data:
        raise ValueError("empty block family file")
    try:
        x_size, a_size = map(int, data[0].split())
    except ValueError:
        raise ValueError(f"expected 'x_size a_size', got {data[0]!r}") from None
    if len(data) != 1 + x_size:
        raise ValueError(f"expected {x_size} bijection lines, got {len(data) - 1}")
    maps = tuple(perms.parse_perm(ln) for ln in data[1:])
    return construct.BlockFamily(x_size=x_size, a_size=a_size, maps=maps)


def cmd_recover(args) -> int:
    t = _read_table(args.file)
    spec = construct.recover_structure(t)
    print("RESULT: ok")
    sys.stdout.write(spec.to_text())
    return EXIT_OK


def cmd_iso(args) -> int:
    if args.via_spec:
        s1 = construct.recover_structure(_read_table(args.file1))
        s2 = construct.recover_structure(_read_table(args.file2))
        iso = construct.twq_spec_isomorphic(s1, s2)
    else:
        iso = tables.table_isomorphic(_read_table(args.file1), _read_table(args.file2))
    if iso:
        print("RESULT: isomorphic")
        return EXIT_OK
    print("RESULT: non-isomorphic")
    return EXIT_FAIL


def cmd_braiding(args) -> int:
    t = _read_table(args.file)
    b = braidings.to_braiding(t, args.kind)
    if args.verify:
        ok, witness = braidings.is_braiding(b, witness=True)
        if ok:
            print("RESULT: braiding")
        else:
            print("RESULT: not-a-braiding")
            print(f"witness {witness[0]} at (x, y, z) = {witness[1]}")
        print(" ".join(_flag_words(braidings.properties(b))))
        return EXIT_OK if ok else EXIT_FAIL
    print("RESULT: ok")
    sys.stdout.write(b.to_text())
    return EXIT_OK


def cmd_groups(args) -> int:
    cat = groups.enumerate_groups(args.n)
    print(f"RESULT: {len(cat)} groups of order {args.n}")
    for g in cat:
        sys.stdout.write(g.to_text())
        print()
    return EXIT_OK


def cmd_count(args) -> int:
    if args.what == "q":
        print(f"RESULT: {groups.q_count(args.n)}")
    elif args.what == "p":
        print(f"RESULT: {groups.partition_number(args.n)}")
    else:
        row = search.counts_row(args.n, budget_seconds=args.budget, threads=args.threads)
        ell = "?" if row.ell is None else row.ell
        print(f"RESULT: n={row.n} ell={ell} q={row.q} p={row.p}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    report = search.enumerate_tw_left_quasigroups(
        args.n, budget_seconds=args.budget, threads=args.threads
    )
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        width = len(str(report.total))
        for i, t in enumerate(report.representatives):
            name = f"twlq_n{args.n}_{i:0{width}d}.tbl"
            (outdir / name).write_text(t.to_text(comments=[f"class {i} of order {args.n}"]))
        summary = outdir / "summary.txt"
        summary.write_text(report.summary_line() + "\n")
    print(f"RESULT: {report.total}")
    print(f"n total perm quasi neither: {report.summary_line()}")
    if args.stats:
        print(f"nodes {report.nodes} leaves {report.leaves} accepted {report.total}")
        for root in report.roots:
            print(root.stats_line())
    return EXIT_OK


def cmd_dichotomy(args) -> int:
    report = search.dichotomy_report(args.p, budget_seconds=args.budget, threads=args.threads)
    if report.holds:
        print("RESULT: holds")
        print(
            f"permutational {report.permutational_count} "
            f"quasigroups {report.quasigroup_count}"
        )
        return EXIT_OK
    print("RESULT: fails")
    for w in report.witnesses:
        sys.stdout.write(w.to_text(comments=["dichotomy witness"]))
    return EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print the RESULT line first.
    Subparsers are made with the class of their parent, so they share it."""

    def error(self, message):
        print(f"RESULT: error ({message})")
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tward",
        description="Finite left quasigroups, twisted Ward structures and Yang-Baxter maps.",
    )
    parser.add_argument("--threads", type=int, default=1, help="worker count for enumerations")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="check a named identity on a table file")
    p.add_argument("file")
    p.add_argument("--identity", required=True, choices=sorted(IDENTITY_NAMES))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("props", help="structure flags and multiplication groups")
    p.add_argument("file")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("kernels", help="kernel block sizes and congruence verdicts")
    p.add_argument("file")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("construct", help="build a table from a presentation")
    psub = p.add_subparsers(dest="builder", required=True)
    b = psub.add_parser("twq")
    b.add_argument("group", help="group table file")
    b.add_argument("--psi", required=True, help="automorphism image list, e.g. '0 2 1'")
    b.add_argument("--c", type=int, default=0)
    b = psub.add_parser("affine")
    b.add_argument("group", help="abelian group table file")
    b.add_argument("--phi", required=True, help="endomorphism image list")
    b.add_argument("--psi", required=True, help="automorphism image list")
    b.add_argument("--c", type=int, default=0)
    b = psub.add_parser("perm")
    b.add_argument("n", type=int)
    b.add_argument("--f", required=True, help="permutation image list")
    b = psub.add_parser("block")
    b.add_argument("family", help="block family file: 'x_size a_size' then bijection lines")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("recover", help="recover (group, psi, c) from a twisted Ward quasigroup")
    p.add_argument("file")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("iso", help="isomorphism test between two table files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--via-spec", action="store_true", help="compare recovered presentations")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("braiding", help="build or verify the braiding of a left quasigroup")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=braidings.BRAID_KINDS)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_braiding)

    p = sub.add_parser("groups", help="all groups of order N up to isomorphism")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("count", help="counting functions q, p, or a full table row")
    p.add_argument("what", choices=["q", "p", "row"])
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=float, default=search.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="enumerate twisted Ward left quasigroups of order N")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=float, default=search.DEFAULT_BUDGET)
    p.add_argument("--out", help="directory for canonical table files")
    p.add_argument("--stats", action="store_true", help="print search node and leaf counts, in all and per root")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dichotomy", help="prime-order dichotomy report")
    p.add_argument("p", type=int)
    p.add_argument("--budget", type=float, default=search.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_dichotomy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"RESULT: budget-exceeded ({exc})")
        if getattr(args, "stats", False):
            print(f"nodes {exc.nodes} leaves {exc.leaves} completed {exc.completed}")
        return EXIT_BUDGET
    except (OSError, ValueError, AlgebraError) as exc:
        print(f"RESULT: error ({exc})")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
