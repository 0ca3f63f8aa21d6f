import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tward import CayleyTable, search
from tward.cli import IDENTITY_NAMES, main

from conftest import CYCLIC3, TABLE4


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


def test_iso_tables_with_non_permutation_rows(capsys, tmp_path):
    """Swapping 0 and 1 maps the table with every row 0 1 1 to the one with
    every row 0 1 0."""
    first, second = tmp_path / "a.tbl", tmp_path / "b.tbl"
    first.write_text("3\n" + "0 1 1\n" * 3)
    second.write_text("3\n" + "0 1 0\n" * 3)
    code, out = run(capsys, "iso", str(first), str(second))
    assert code == 0 and out.startswith("RESULT: isomorphic")


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


def test_check_extra_row(capsys, tmp_path):
    path = tmp_path / "extra.tbl"
    path.write_text(TABLE4.to_text() + "0 1 2 3\n")
    code, out = run(capsys, "check", str(path), "--identity", "tw")
    assert code == 2 and out.startswith("RESULT: error")


def test_enumerate_bad_budget_and_threads(capsys):
    code, out = run(capsys, "enumerate", "3", "--budget", "-1")
    assert code == 2 and out.startswith("RESULT: error")
    code, out = run(capsys, "--threads", "0", "enumerate", "3")
    assert code == 2 and out.startswith("RESULT: error")


def test_budget_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("TWARD_BUDGET_SECONDS", "abc")
    code, out = run(capsys, "enumerate", "3")
    assert code == 0 and out.splitlines()[0] == "RESULT: 5"


def test_enumerate_stats(capsys):
    code, out = run(capsys, "enumerate", "4", "--stats")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "RESULT: 14"
    assert lines[1] == "n total perm quasi neither: 4 14 5 5 4"
    stats = re.fullmatch(r"nodes (\d+) leaves 26 accepted 14", lines[2])
    assert stats and int(stats[1]) >= 26


def test_enumerate_stats_per_root(capsys):
    code, out = run(capsys, "enumerate", "4", "--stats")
    lines = out.splitlines()
    pattern = r"root ([\d,]+) nodes (\d+) leaves (\d+) accepted (\d+) seconds [\d.]+"
    per_root = [re.fullmatch(pattern, line) for line in lines[3:]]
    assert code == 0 and len(per_root) == 5 and all(per_root)
    assert [m[1] for m in per_root] == ["0,1,2,3", "0,1,3,2", "0,2,3,1", "1,0,3,2", "1,2,3,0"]
    totals = [sum(int(m[i]) for m in per_root) for i in (2, 3, 4)]
    assert lines[2] == "nodes {} leaves {} accepted {}".format(*totals)


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
