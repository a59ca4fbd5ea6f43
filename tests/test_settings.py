"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails_on_a_generated_example(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_failing_generated_example_is_reported(tmp_path):
    # hypothesis explains a failing generated example through libcst, whose
    # import warns DeprecationWarning; the settings turn every other such
    # warning into an error, and this one ended the run in an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
        + ["--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
