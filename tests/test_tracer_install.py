"""The benchmark's layer tracer still finds every attribute it wraps.

bench/tracer.py replaces library functions by name, so renaming a traced
attribute breaks only the traced benchmark run unless a test installs the
tracer.  Installing patches modules for the life of the process, so it runs
in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import Tracer, install
install(Tracer())
"""


def test_tracer_installs_on_fresh_import():
    script = INSTALL.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
