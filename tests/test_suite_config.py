"""The suite's own pytest configuration, run on a throwaway test module."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_falsified_hypothesis_test_does_not_stop_the_run(tmp_path):
    """After a falsified test the hypothesis plugin writes a patch file; no warning
    that raises, which ``filterwarnings = ["error"]`` turns into an error, may abort
    the tests that follow."""
    module = tmp_path / "test_two.py"
    module.write_text(FALSIFIED_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(module)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
