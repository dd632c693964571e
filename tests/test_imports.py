"""The package's import footprint."""

import os
import subprocess
import sys

import bregman_consensus


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; importing scipy.sparse alone nearly
    # doubles the resident size of a bare import
    src = os.path.dirname(os.path.dirname(os.path.abspath(bregman_consensus.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, bregman_consensus; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
