"""The benchmark harness still runs against the package: its fault-injection
selftest passes, its tracer finds every method it wraps, and every name its
metrics read is a callable of the package."""

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


def test_tracer_names_resolve_to_callables():
    # a renamed or deleted name would silently zero the metric it feeds
    script = (
        "import importlib, tracer\n"
        "names = set(tracer.TIMED) | set(tracer.EVAL_NAMES) | set(tracer.FRAMED)"
        " | set(tracer._AFTER)\n"
        "for name in sorted(names):\n"
        "    layer, *path = name.split('.')\n"
        "    obj = importlib.import_module('jetcalc.' + layer)\n"
        "    for attr in path:\n"
        "        obj = getattr(obj, attr, None)\n"
        "    assert callable(obj), name\n"
        "print(len(names))\n")
    proc = _run(["-c", script])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout) > 0
