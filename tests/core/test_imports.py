"""Every package imports on its own, whichever comes first.

The rest of the suite cannot see an import cycle: ``conftest.py``
imports ``repro.core.powertest`` before any test module loads, and
once one entry point has resolved the cycle every later import finds
finished modules.  So each import here runs in a fresh interpreter.
"""

import subprocess
import sys

import pytest


@pytest.mark.parametrize("module", [
    "repro.engine", "repro.r3", "repro.monitor", "repro.tpcd.loader",
    "repro.core",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
