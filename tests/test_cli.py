import pytest

from tward.cli import main

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
    assert out.splitlines()[1:] == ["2 0 1"] * 3


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
