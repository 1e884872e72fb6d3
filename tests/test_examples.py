"""Smoke tests for the example scripts.

Every example must at least compile; the fastest one runs end to end.
(The training examples run in minutes and are exercised manually /
by the benchmark suite's equivalent paths.)  Every example, script and
benchmark must also import: its imports and definitions run, its main
does not.
"""

import pathlib
import py_compile
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
RUNNABLE = (EXAMPLES + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "benchmarks").glob("bench_*.py")))


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", RUNNABLE,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports(path):
    # Any run name but "__main__" skips the file's guarded main, so a
    # file that imports a removed name fails here, not when next run.
    runpy.run_path(str(path), run_name="__import_check__")


def test_custom_city_simulation_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "custom_city_simulation.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "point shift" in result.stdout
    assert "pipeline" in result.stdout
