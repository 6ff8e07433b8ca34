"""The benchmark harness still runs against the package: its fault-injection
selftest passes, and its tracer finds every method it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_selftest_catches_every_fault():
    proc = _run(["perfbench/selftest.py"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_installs_and_uninstalls():
    proc = _run(["-c", "import tracer; tracer.Tracer().install().uninstall()"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
