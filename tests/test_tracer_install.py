"""The benchmark's layer tracer still finds every attribute it wraps.

bench/tracer.py replaces library functions by name, so renaming a traced
attribute breaks only the traced benchmark run unless a test installs the
tracer.  A wrapped name that the library no longer calls fails nothing but
reads 0, so a traced build must also count its moment calls and systems.
A span's parent is the span on top of the tracer's stack when it opens, so
a traced verify nests only while every check runs on the calling thread.
Installing patches modules for the life of the process, so each test runs in
a fresh interpreter.
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

TRACED_BUILD = """
import os, sys, tempfile
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from momentforge import cli
with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(["build", "--m", "5", "--out", os.path.join(tmp, "m5.json")])
assert code == 0, code
assert tracer.counts["bumps.bump_moment_calls"] > 0, dict(tracer.counts)
assert any(span[0] == "flow.build_system" for span in tracer.spans)
"""

TRACED_VERIFY = """
import os, sys, tempfile
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import END, NAME, PARENT, START, Tracer, install
tracer = Tracer()
install(tracer)
from momentforge import cli
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "m5.json")
    assert cli.main(["build", "--m", "5", "--out", path]) == 0
    assert cli.main(["verify", path, "--cosine", "0.1"]) == 0
spans = tracer.spans
assert any(span[NAME] == "integrate.2d" for span in spans)
for span in spans:
    if span[PARENT] >= 0:
        parent = spans[span[PARENT]]
        assert parent[START] <= span[START] <= span[END] <= parent[END], (span, parent)
    if span[NAME] == "integrate.2d":
        assert spans[span[PARENT]][NAME] == "verify.tv", span
"""


def test_tracer_installs_on_fresh_import():
    script = INSTALL.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_build_counts_moment_calls_and_systems():
    script = TRACED_BUILD.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_verify_spans_nest():
    script = TRACED_VERIFY.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
