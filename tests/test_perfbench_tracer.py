"""The benchmark's tracer (perfbench/tracer.py) patches tward functions by
their module paths, so a renamed function or import breaks ``--trace`` runs;
installing it must keep working."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    code = "import tward.cli\nfrom tracer import Tracer\nTracer().install()\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
