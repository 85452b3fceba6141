"""The benchmark's tracer (perfbench/tracing.py) wraps c2sift functions by
module attribute name, so a renamed or dropped hook makes ``install`` fail.
This runs it in a fresh process, since it patches modules in place."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_this_source(tmp_path):
    code = "import sys; from pathlib import Path; from tracing import Tracer, install; install(Tracer(Path(sys.argv[1])))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
