"""Each geodp module imports on its own: the package root imports nothing, so
an import cycle between two modules shows up here and not in a user's first
``from geodp import <module>``."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "geodp").glob("*.py") if p.stem != "__init__")


def _run(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_the_package_root_defines_and_loads_nothing():
    proc = _run("import sys, geodp; "
                "print([n for n in vars(geodp) if not n.startswith('__')], "
                "[m for m in sys.modules if m.startswith('geodp.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    proc = _run(f"import geodp.{module}")
    assert proc.returncode == 0, proc.stderr


def test_the_harness_leaves_hypotheses_to_its_own_experiment():
    """Only the hypotheses experiment reads geodp.hypotheses, so importing the
    harness, as every run does, does not import it."""
    proc = _run("import sys, geodp.harness; print('geodp.hypotheses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
