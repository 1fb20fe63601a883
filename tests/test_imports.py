"""Each module imports on its own in a fresh interpreter, warnings as
errors, so an import cycle between modules fails here rather than at a
user's first import."""

import os
import pkgutil
import subprocess
import sys

import pytest

import nextsession

MODULES = sorted(m.name for m in pkgutil.iter_modules(nextsession.__path__))
SRC = os.path.dirname(os.path.dirname(nextsession.__file__))


def test_modules_are_discovered():
    assert {"cli", "evaluator", "model", "trainer"} <= set(MODULES), MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import nextsession.{module}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
