"""The benchmark's tracer (`perfbench/spans.py`) wraps library names from
outside the package; a deleted or renamed name must fail here, not only in
the slow traced benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_name_it_wraps():
    # a subprocess keeps the wrappers away from every other test, and
    # writes no bytecode into perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = "import flexconn, spans; spans.install(spans.Recorder(), flexconn)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
