"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_example_does_not_abort_the_run(tmp_path):
    # Hypothesis imports libcst to report a failing example, and libcst's
    # DeprecationWarning, raised as an error, used to end the session with
    # an INTERNALERROR (exit 3) before the next test ran
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-v", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout[-3000:]
    assert "test_two.py::test_fails FAILED" in done.stdout
    assert "test_two.py::test_passes PASSED" in done.stdout
