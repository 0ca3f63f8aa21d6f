"""Self-test of the benchmark's checks: each passes on the program's real
results and fails on one deliberately wrong result, so no check is unable
to fail.  Run with ``python3 -m pytest perfbench/tests``."""
import copy
import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tward  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402


def _run(make, run, seed=7, **override):
    inputs = make(seed)
    inputs.update(override)
    ops = wl.Ops()
    out = run(tward, inputs, ops)
    assert ops.failed == 0 and ops.attempted > 0
    return inputs, out


def test_enumerate_check_catches_a_wrong_count():
    inputs, reports = _run(wl.make_enumerate, wl.run_enumerate, orders=[1, 2, 3, 4, 5])
    assert wl.check_enumerate(inputs, reports) == []
    reports[4] = dataclasses.replace(reports[4], quasigroup_count=reports[4].quasigroup_count + 1)
    assert any("quasigroup counts" in p for p in wl.check_enumerate(inputs, reports))


def test_catalog_check_catches_a_swapped_entry():
    inputs, out = _run(wl.make_catalog, wl.run_catalog, q_orders=[1, 2, 3, 4], orders=[1, 2, 3, 4, 5])
    assert wl.check_catalog(inputs, out) == []
    t = out["reps"][5][1]
    rows = [list(r) for r in t.rows]
    rows[2][0], rows[2][1] = rows[2][1], rows[2][0]
    out["reps"][5] = out["reps"][5][:1] + (tward.CayleyTable.from_rows(rows),) + out["reps"][5][2:]
    assert any("not a twisted Ward quasigroup" in p for p in wl.check_catalog(inputs, out))


def test_verify_check_catches_a_shifted_witness():
    inputs = wl.make_verify(7)
    inputs["tables"] = inputs["tables"][:12]
    inputs, out = _run(lambda seed: inputs, wl.run_verify)
    assert wl.check_verify(inputs, out) == []
    bad = copy.deepcopy(out)
    i, kind = next((i, k) for i, r in enumerate(bad) for k, v in r["identities"].items() if not v[0])
    x, y, z = bad[i]["identities"][kind][1]
    n = len(inputs["tables"][i]["rows"])
    bad[i]["identities"][kind] = (False, (x, y, (z + 1) % n))
    assert any(kind in p and "oracle" in p for p in wl.check_verify(inputs, bad))


def test_screen_check_catches_a_missing_survivor_and_a_wrong_braiding():
    inputs = wl.make_screen(7)
    inputs["sample"] = inputs["sample"][:20] + inputs["sample"][-20:]
    inputs, out = _run(lambda seed: inputs, wl.run_screen)
    assert wl.check_screen(inputs, out) == []
    dropped = dict(out, canonical=out["canonical"][1:])
    assert any("survivors differ" in p for p in wl.check_screen(inputs, dropped))
    flipped = copy.deepcopy(out)
    flipped["braidings"][3]["involutive"] = not flipped["braidings"][3]["involutive"]
    assert any("braiding involutive" in p for p in wl.check_screen(inputs, flipped))


def test_oracle_witness_is_first_in_xyz_order():
    # x*y = y+1 mod 3: (x*y)*(x*z) = z+2 and y*z = z+1, so Ward fails at once
    T = oracle.as_array([[(y + 1) % 3 for y in range(3)] for _ in range(3)])
    assert oracle.verdict(T, "twisted_ward") == (True, None)
    assert oracle.verdict(T, "ward") == (False, (0, 0, 0))
