import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tward import CayleyTable, build_twq, search
from tward.cli import IDENTITY_NAMES, main
from tward.groups import MAX_GROUP_ORDER
from tward.tables import IDENTITY_KINDS

from conftest import CYCLIC3, CYCLIC3_IDENTITY_2, TABLE4, fails_after_row_0, search_finds_table4


@pytest.fixture
def table4_file(tmp_path):
    path = tmp_path / "t4.tbl"
    path.write_text(TABLE4.to_text())
    return str(path)


@pytest.fixture
def cyclic3_file(tmp_path):
    path = tmp_path / "c3.tbl"
    path.write_text(CYCLIC3.to_text())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_holds(capsys, table4_file):
    code, out = run(capsys, "check", table4_file, "--identity", "tw")
    assert code == 0
    assert out.splitlines()[0] == "RESULT: holds"


def test_check_fails_with_witness(capsys, table4_file):
    code, out = run(capsys, "check", table4_file, "--identity", "rack")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "RESULT: fails"
    assert "witness" in lines[1]


def test_check_missing_file(capsys):
    code, out = run(capsys, "check", "no-such-file.tbl", "--identity", "tw")
    assert code == 2
    assert out.startswith("RESULT: error")


def test_props(capsys, table4_file):
    code, out = run(capsys, "props", table4_file)
    assert code == 0
    assert "left_quasigroup 1" in out
    assert "quasigroup 0" in out
    assert "dis_order 2" in out


PROPS_STDOUT = {
    "t4": [
        "left_quasigroup 1", "quasigroup 0", "permutational 0", "faithful 0",
        "lmlt_order 4", "dis_plus_order 2", "dis_minus_order 2", "dis_order 2",
        "dis_plus_regular 0",
    ],
    "c3": [
        "left_quasigroup 1", "quasigroup 1", "permutational 0", "faithful 1",
        "lmlt_order 3", "dis_plus_order 3", "dis_minus_order 3", "dis_order 3",
        "dis_plus_regular 1",
    ],
}


@pytest.mark.parametrize("name", sorted(PROPS_STDOUT))
def test_props_whole_stdout(capsys, table4_file, cyclic3_file, name):
    code, out = run(capsys, "props", {"t4": table4_file, "c3": cyclic3_file}[name])
    assert code == 0
    assert out == "\n".join(["RESULT: ok"] + PROPS_STDOUT[name]) + "\n"


# (table, kind) -> (exit code, stdout lines)
BRAIDING_VERIFY_STDOUT = {
    ("t4", "derived"): (1, [
        "RESULT: not-a-braiding",
        "witness YB1 at (x, y, z) = (0, 1, 0)",
        "derived 1 involutive 0 idempotent 0 left_nondegenerate 1 nondegenerate 1 latin 0",
    ]),
    ("t4", "involutive"): (1, [
        "RESULT: not-a-braiding",
        "witness YB2 at (x, y, z) = (0, 0, 1)",
        "derived 0 involutive 1 idempotent 0 left_nondegenerate 1 nondegenerate 0 latin 0",
    ]),
    ("t4", "idempotent"): (0, [
        "RESULT: braiding",
        "derived 0 involutive 0 idempotent 1 left_nondegenerate 1 nondegenerate 0 latin 0",
    ]),
    ("c3", "derived"): (1, [
        "RESULT: not-a-braiding",
        "witness YB1 at (x, y, z) = (1, 0, 0)",
        "derived 1 involutive 0 idempotent 0 left_nondegenerate 1 nondegenerate 1 latin 1",
    ]),
    ("c3", "involutive"): (1, [
        "RESULT: not-a-braiding",
        "witness YB2 at (x, y, z) = (0, 0, 1)",
        "derived 0 involutive 1 idempotent 0 left_nondegenerate 1 nondegenerate 0 latin 1",
    ]),
    ("c3", "idempotent"): (1, [
        "RESULT: not-a-braiding",
        "witness YB2 at (x, y, z) = (0, 0, 1)",
        "derived 0 involutive 0 idempotent 1 left_nondegenerate 1 nondegenerate 1 latin 1",
    ]),
}


@pytest.mark.parametrize("name, kind", sorted(BRAIDING_VERIFY_STDOUT))
def test_braiding_verify_whole_stdout(capsys, table4_file, cyclic3_file, name, kind):
    path = {"t4": table4_file, "c3": cyclic3_file}[name]
    code, out = run(capsys, "braiding", path, "--kind", kind, "--verify")
    want_code, want_lines = BRAIDING_VERIFY_STDOUT[name, kind]
    assert (code, out) == (want_code, "\n".join(want_lines) + "\n")


def _order9_near_miss(name):
    """Order-9 twisted Ward tables with two entries of one row k >= 1 swapped:
    x*y = y with row 8 swapped at 7, 8 (fails_after_row_0(9)), and
    x*y = 1 + x - y mod 9 with row 5 swapped at 0, 1.  Both pass row 0 of the
    twisted Ward check and of the idempotent braiding check, and fail later."""
    if name == "identity rows":
        return fails_after_row_0(9)
    rows = [[(1 + x - y) % 9 for y in range(9)] for x in range(9)]
    rows[5][0], rows[5][1] = rows[5][1], rows[5][0]
    return CayleyTable.from_rows(rows)


# stdout of `check --identity tw` and `braiding --kind idempotent --verify`
NEAR_MISS_9_STDOUT = {
    "identity rows": (
        ["RESULT: fails", "witness triple (x, y, z) = (8, 0, 7)"],
        ["RESULT: not-a-braiding", "witness YB1 at (x, y, z) = (8, 0, 7)",
         "derived 0 involutive 0 idempotent 1 left_nondegenerate 1 nondegenerate 0 latin 0"],
    ),
    "affine a=-1": (
        ["RESULT: fails", "witness triple (x, y, z) = (1, 5, 0)"],
        ["RESULT: not-a-braiding", "witness YB1 at (x, y, z) = (1, 5, 5)",
         "derived 0 involutive 0 idempotent 1 left_nondegenerate 1 nondegenerate 0 latin 0"],
    ),
}


@pytest.mark.parametrize("name", sorted(NEAR_MISS_9_STDOUT))
def test_near_miss_of_order_9_fails_after_row_0(capsys, tmp_path, name):
    path = tmp_path / "nm9.tbl"
    path.write_text(_order9_near_miss(name).to_text())
    check_lines, braiding_lines = NEAR_MISS_9_STDOUT[name]
    assert run(capsys, "check", str(path), "--identity", "tw") == (1, "\n".join(check_lines) + "\n")
    code, out = run(capsys, "braiding", str(path), "--kind", "idempotent", "--verify")
    assert (code, out) == (1, "\n".join(braiding_lines) + "\n")


def test_kernels(capsys, table4_file):
    code, out = run(capsys, "kernels", table4_file)
    assert code == 0
    assert "sim_block_sizes 2 2" in out
    assert "equiv_is_congruence 1" in out
    assert "sim_is_congruence 0" in out


def test_construct_and_recover(capsys, cyclic3_file, tmp_path):
    code, out = run(capsys, "construct", "twq", cyclic3_file, "--psi", "0 2 1")
    assert code == 0
    built = tmp_path / "built.tbl"
    built.write_text(out)
    code, out = run(capsys, "recover", str(built))
    assert code == 0
    assert out.splitlines()[0] == "RESULT: ok"
    assert "# psi" in out and "# c" in out


def test_construct_perm(capsys):
    code, out = run(capsys, "construct", "perm", "3", "--f", "2 0 1")
    assert code == 0
    # the RESULT line, then a table file that parses back
    assert out.splitlines() == ["RESULT: ok", "3"] + ["2 0 1"] * 3


def test_construct_perm_order_zero(capsys):
    code, out = run(capsys, "construct", "perm", "0", "--f", "")
    assert code == 2 and out.startswith("RESULT: error")


@pytest.mark.parametrize(
    "argv",
    [["check", "--identity", "tw"], ["kernels"], ["braiding", "--kind", "idempotent", "--verify"]],
    ids=["check", "kernels", "braiding"],
)
def test_table_that_is_not_a_left_quasigroup(capsys, tmp_path, argv):
    path = tmp_path / "not-lq.tbl"
    path.write_text(CayleyTable.from_rows([[0, 1, 2], [1, 2, 0], [0, 0, 1]]).to_text())
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "RESULT: error (table is not a left quasigroup)\n")


@pytest.mark.parametrize(
    "phi, psi, message",
    [
        ("0 3 2 4", "0 1 2 3", "phi image sequence out of range"),
        ("0 3 2 1", "0 2 1 3", "psi is not an automorphism"),  # a permutation of C4 only
    ],
)
def test_construct_affine_bad_maps(capsys, tmp_path, phi, psi, message):
    path = tmp_path / "c4.tbl"
    path.write_text(CayleyTable.from_rows([[(x + y) % 4 for y in range(4)] for x in range(4)]).to_text())
    code, out = run(capsys, "construct", "affine", str(path), "--phi", phi, "--psi", psi)
    assert (code, out) == (2, f"RESULT: error ({message})\n")


def test_construct_bad_psi(capsys, cyclic3_file):
    code, out = run(capsys, "construct", "twq", cyclic3_file, "--psi", "1 0 2")
    assert code == 2
    assert out.startswith("RESULT: error")


def test_iso(capsys, table4_file, cyclic3_file, tmp_path):
    relabeled = tmp_path / "relab.tbl"
    relabeled.write_text(TABLE4.relabel([2, 0, 3, 1]).to_text())
    code, out = run(capsys, "iso", table4_file, str(relabeled))
    assert code == 0 and out.startswith("RESULT: isomorphic")
    code, out = run(capsys, "iso", table4_file, cyclic3_file)
    assert code == 1 and out.startswith("RESULT: non-isomorphic")


def test_iso_via_spec(capsys, table4_file, tmp_path):
    """Through recovered presentations: a twisted Ward quasigroup and a
    relabeled copy are isomorphic, two catalog classes are not, and a table
    that is no quasigroup has no presentation."""
    first, second = (build_twq(spec) for spec in search.twq_catalog_specs(6)[1:3])
    third = build_twq(search.twq_catalog_specs(3)[0])
    paths = {}
    for name, t in (("a", first), ("a2", first.relabel([3, 5, 0, 4, 1, 2])), ("b", second), ("c", third)):
        paths[name] = tmp_path / f"{name}.tbl"
        paths[name].write_text(t.to_text())
    code, out = run(capsys, "iso", str(paths["a"]), str(paths["a2"]), "--via-spec")
    assert (code, out) == (0, "RESULT: isomorphic\n")
    for other in ("b", "c"):  # another class of order 6, and one of order 3
        code, out = run(capsys, "iso", str(paths["a"]), str(paths[other]), "--via-spec")
        assert (code, out) == (1, "RESULT: non-isomorphic\n")
    code, out = run(capsys, "iso", table4_file, table4_file, "--via-spec")
    assert code == 2 and out.startswith("RESULT: error")


def test_iso_tables_with_non_permutation_rows(capsys, tmp_path):
    """Swapping 0 and 1 maps the table with every row 0 1 1 to the one with
    every row 0 1 0."""
    first, second = tmp_path / "a.tbl", tmp_path / "b.tbl"
    first.write_text("3\n" + "0 1 1\n" * 3)
    second.write_text("3\n" + "0 1 0\n" * 3)
    code, out = run(capsys, "iso", str(first), str(second))
    assert code == 0 and out.startswith("RESULT: isomorphic")


@pytest.mark.parametrize(
    "argv",
    [
        ["twq", "--psi", "1 0 2"],  # inversion, an automorphism in these labels
        ["twq", "--psi", "0 2 1"],  # moves the identity
        ["affine", "--phi", "2 2 2", "--psi", "1 0 2"],
    ],
    ids=["twq-inversion", "twq-moves-identity", "affine"],
)
def test_construct_group_with_identity_not_0(capsys, tmp_path, argv):
    """A group file is read in its own labels, as its automorphisms are, so
    one whose identity is not 0 is refused rather than relabeled."""
    path = tmp_path / "g.tbl"
    path.write_text(CYCLIC3_IDENTITY_2.to_text())
    code, out = run(capsys, "construct", argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "RESULT: error (the identity is 2, not 0)\n")


def test_braiding_verify(capsys, table4_file):
    code, out = run(capsys, "braiding", table4_file, "--kind", "idempotent", "--verify")
    assert code == 0
    assert out.splitlines()[0] == "RESULT: braiding"
    assert "idempotent 1" in out and "nondegenerate 0" in out


def test_braiding_output_parses(capsys, table4_file):
    from tward import Braiding

    code, out = run(capsys, "braiding", table4_file, "--kind", "idempotent")
    assert code == 0
    assert Braiding.parse(out).n == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "twq", "{c3}", "--psi", "0 2 1"],
        ["construct", "affine", "{c3}", "--phi", "0 2 1", "--psi", "0 2 1"],
        ["braiding", "{t4}", "--kind", "derived"],
    ],
    ids=["twq", "affine", "braiding"],
)
def test_written_files_start_with_result(capsys, cyclic3_file, table4_file, argv):
    code, out = run(capsys, *(a.format(c3=cyclic3_file, t4=table4_file) for a in argv))
    assert code == 0 and out.splitlines()[0] == "RESULT: ok"


def test_braiding_rejected(capsys, cyclic3_file):
    code, out = run(capsys, "braiding", cyclic3_file, "--kind", "idempotent", "--verify")
    assert code == 1
    assert out.splitlines()[0] == "RESULT: not-a-braiding"


def test_groups_verb(capsys):
    code, out = run(capsys, "groups", "8")
    assert code == 0
    assert out.splitlines()[0] == "RESULT: 5 groups of order 8"
    code, out = run(capsys, "groups", str(MAX_GROUP_ORDER + 1))
    assert code == 2 and out.startswith("RESULT: error (group enumeration supports")


def test_python_m_tward():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "tward", "count", "p", "5"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "RESULT: 7\n", "")


def test_count_verbs(capsys):
    code, out = run(capsys, "count", "q", "8")
    assert (code, out.splitlines()[0]) == (0, "RESULT: 25")
    code, out = run(capsys, "count", "p", "11")
    assert (code, out.splitlines()[0]) == (0, "RESULT: 56")
    code, out = run(capsys, "count", "row", "4")
    assert (code, out.splitlines()[0]) == (0, "RESULT: n=4 ell=14 q=5 p=5")


def test_enumerate_verb(capsys, tmp_path):
    outdir = tmp_path / "reps"
    code, out = run(capsys, "enumerate", "4", "--out", str(outdir))
    assert code == 0
    assert out.splitlines()[0] == "RESULT: 14"
    files = sorted(outdir.glob("*.tbl"))
    assert len(files) == 14
    assert (outdir / "summary.txt").read_text().strip() == "4 14 5 5 4"


def test_enumerate_out_under_a_file(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out = run(capsys, "enumerate", "3", "--out", str(blocker / "reps"))
    assert code == 2
    assert out.splitlines()[0].startswith("RESULT: error")
    assert out.count("RESULT:") == 1


def test_dichotomy_verb(capsys):
    code, out = run(capsys, "dichotomy", "3")
    assert code == 0
    assert out.splitlines()[0] == "RESULT: holds"
    code, out = run(capsys, "dichotomy", "4")
    assert code == 2


def test_dichotomy_fails_prints_witness(capsys, monkeypatch):
    search_finds_table4(monkeypatch)
    code, out = run(capsys, "dichotomy", "5")
    assert code == 1
    assert out == "RESULT: fails\n" + TABLE4.to_text(comments=["dichotomy witness"])


def test_identity_names():
    assert sorted(IDENTITY_NAMES) == ["rack", "rack-div", "rump", "rump-div", "tw", "tw-div", "ward"]
    assert sorted(IDENTITY_NAMES.values()) == sorted(IDENTITY_KINDS)


def test_budget_exit_code(capsys):
    code, out = run(capsys, "enumerate", "7", "--budget", "0.01")
    assert code == 3
    assert out.startswith("RESULT: budget-exceeded")


def test_budget_exceeded_stats(capsys):
    code, out = run(capsys, "enumerate", "3", "--budget", "0", "--stats")
    lines = out.splitlines()
    assert code == 3 and lines[0].startswith("RESULT: budget-exceeded")
    assert lines[1] == "nodes 0 leaves 0 completed 0"


@pytest.mark.parametrize(
    "argv", [["check"], ["bogusverb"], ["--threads", "x", "enumerate", "3"]]
)
def test_usage_errors_print_result(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out.startswith("RESULT: error (")
    assert captured.out.count("\n") == 1
    assert captured.err.startswith("usage: tward")


def test_recover_order_zero(capsys, tmp_path):
    path = tmp_path / "zero.tbl"
    path.write_text("0\n")
    code, out = run(capsys, "recover", str(path))
    assert code == 2 and out.startswith("RESULT: error")


def test_construct_block_empty_family(capsys, tmp_path):
    path = tmp_path / "empty.fam"
    path.write_text("")
    code, out = run(capsys, "construct", "block", str(path))
    assert code == 2 and out.startswith("RESULT: error")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n1 0\n0 1\n", "expected 1 bijection lines, got 2"),
        ("1 2 3\n1 0\n", "expected 'x_size a_size', got '1 2 3'"),
        ("x 2\n1 0\n", "expected 'x_size a_size', got 'x 2'"),
    ],
)
def test_construct_block_malformed_family(capsys, tmp_path, text, message):
    path = tmp_path / "bad.fam"
    path.write_text(text)
    code, out = run(capsys, "construct", "block", str(path))
    assert code == 2 and out.splitlines() == [f"RESULT: error ({message})"]


@pytest.mark.parametrize("c", ["3", "-1"])
def test_construct_affine_constant_out_of_range(capsys, cyclic3_file, c):
    argv = ["construct", "affine", cyclic3_file, "--phi", "0 0 0", "--psi", "0 1 2", "--c", c]
    code, out = run(capsys, *argv)
    assert code == 2 and out.startswith("RESULT: error")


def test_check_extra_row(capsys, tmp_path):
    path = tmp_path / "extra.tbl"
    path.write_text(TABLE4.to_text() + "0 1 2 3\n")
    code, out = run(capsys, "check", str(path), "--identity", "tw")
    assert code == 2 and out.startswith("RESULT: error")


def test_enumerate_bad_budget_and_threads(capsys):
    for argv in (
        ["enumerate", "3", "--budget", "-1"],
        ["enumerate", "6", "--budget", "nan"],
        ["count", "row", "5", "--budget", "nan"],
        ["dichotomy", "7", "--budget", "nan"],
        ["--threads", "0", "enumerate", "3"],
    ):
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith("RESULT: error ("), argv
        assert out.count("\n") == 1, argv


def test_budget_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("TWARD_BUDGET_SECONDS", "abc")
    code, out = run(capsys, "enumerate", "3")
    assert code == 0 and out.splitlines()[0] == "RESULT: 5"


def test_enumerate_stats(capsys):
    code, out = run(capsys, "enumerate", "4", "--stats")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "RESULT: 14"
    assert lines[1] == "n total perm quasi neither: 4 14 5 5 4"
    stats = re.fullmatch(r"nodes (\d+) leaves 14 accepted 14", lines[2])
    assert stats and int(stats[1]) >= 14


def test_enumerate_stats_per_root(capsys):
    code, out = run(capsys, "enumerate", "4", "--stats")
    lines = out.splitlines()
    built = re.fullmatch(r"root 0,1,2,3 built accepted 4 seconds [\d.]+", lines[3])
    pattern = r"root ([\d,]+) nodes (\d+) leaves (\d+) accepted (\d+) seconds [\d.]+"
    searched = [re.fullmatch(pattern, line) for line in lines[4:]]
    assert code == 0 and built and len(searched) == 4 and all(searched)
    assert [m[1] for m in searched] == ["0,1,3,2", "0,2,3,1", "1,0,3,2", "1,2,3,0"]
    nodes, leaves, accepted = (sum(int(m[i]) for m in searched) for i in (2, 3, 4))
    assert lines[2] == f"nodes {nodes} leaves {leaves} accepted {accepted + 4}"


def test_count_row_passes_threads(capsys, monkeypatch):
    seen = {}

    def counts_row(n, budget_seconds, threads):
        seen.update(n=n, threads=threads)
        return search.CountsRow(n=n, ell=None, q=0, p=0)

    monkeypatch.setattr(search, "counts_row", counts_row)
    code, out = run(capsys, "--threads", "2", "count", "row", "5")
    assert code == 0 and out.startswith("RESULT: n=5")
    assert seen == {"n": 5, "threads": 2}


# random table and block-family files: ragged rows, out-of-range entries,
# order 0, non-integers and empty files
_TOKENS = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(["x", "1.5", "-", "#", "1e3"]))
_LINES = st.lists(_TOKENS, max_size=6).map(" ".join)
_TEXT = st.lists(_LINES, max_size=8).map("\n".join)


@st.composite
def _table_texts(draw):
    """An order line, then rows that are permutations, ragged or out of range."""
    n = draw(st.integers(0, 4))
    row = st.permutations(range(n)).map(list) | st.lists(
        st.integers(-1, n), min_size=max(n - 1, 0), max_size=n + 1
    )
    rows = draw(st.lists(row, min_size=max(n - 1, 0), max_size=n + 1))
    return "\n".join([str(n)] + [" ".join(map(str, r)) for r in rows])


@st.composite
def _family_texts(draw):
    x_size, a_size = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    m = x_size * a_size
    bijection = st.permutations(range(m)).map(list)
    line = bijection | st.lists(st.integers(-1, m), max_size=m + 1)
    maps = draw(st.lists(line, min_size=max(x_size - 1, 0), max_size=x_size + 1))
    return "\n".join([f"{x_size} {a_size}"] + [" ".join(map(str, f)) for f in maps])


def _main_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@given(
    st.one_of(_TEXT, _table_texts(), st.just("")),
    st.sampled_from(["check", "recover"]),
    st.sampled_from(sorted(IDENTITY_NAMES)),
)
@settings(max_examples=300, deadline=None)
def test_fuzz_table_verbs(tmp_path_factory, text, verb, identity):
    path = tmp_path_factory.mktemp("fuzz") / "t.tbl"
    path.write_text(text)
    argv = [verb, str(path)] + (["--identity", identity] if verb == "check" else [])
    code, out = _main_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert out.splitlines()[0].startswith("RESULT:")


@given(st.one_of(_TEXT, _family_texts(), st.just("")))
@settings(max_examples=300, deadline=None)
def test_fuzz_construct_block(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "f.fam"
    path.write_text(text)
    code, out = _main_quietly(["construct", "block", str(path)])
    assert code in (0, 1, 2, 3)
    assert out.splitlines()[0].startswith("RESULT:")
    if code == 0:
        # a built table is written as a table file, which must parse back
        assert CayleyTable.parse(out).is_left_quasigroup


def test_counts_table_rejects_orders_past_the_catalog():
    """scripts/counts_table.py refuses a --max-n outside the group catalog
    before it prints a row, with a usage error and no traceback."""
    root = Path(__file__).resolve().parent.parent
    for max_n in (0, MAX_GROUP_ORDER + 1):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "counts_table.py"), "--max-n", str(max_n)],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--max-n" in proc.stderr and "Traceback" not in proc.stderr
