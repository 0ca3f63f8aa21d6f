"""The benchmark's tracer (perfbench/tracer.py) patches tward functions by
their module paths, so a renamed function or import breaks ``--trace`` runs;
installing it must keep working."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_traced(code):
    """Run code in a fresh interpreter after installing the tracer as
    ``tracer``; return its stdout."""
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    prelude = "import tward.cli\nfrom tracer import Tracer\ntracer = Tracer()\ntracer.install()\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs():
    run_traced("")


def test_isomorphism_calls_counted_once_per_outer_call():
    """The three isomorphism entry points share one span name and call each
    other; a call counts once, however the calls nest inside it."""
    code = """
from tward import tables
c3 = tables.CayleyTable(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
z3 = c3.relabel((0, 2, 1))
c4 = tables.CayleyTable(tuple(tuple((x + y) % 4 for y in range(4)) for x in range(4)))
v4 = tables.CayleyTable(tuple(tuple(x ^ y for y in range(4)) for x in range(4)))
pairs = [(c3, c3), (c3, z3), (c3, c4), (c4, v4), (v4, v4)]
for _ in range(5):
    for t, u in pairs:
        tables.table_isomorphic(t, u)
        tables.find_isomorphism(t, u)
        list(tables.find_all_isomorphisms(t, u))
print(tracer.metrics()["tables.find_isomorphism.calls"])
"""
    assert run_traced(code).split() == ["75"]
