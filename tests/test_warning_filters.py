"""The suite's warning filters leave a failing property test reportable.

When a ``@given`` test fails, hypothesis's pytest plugin imports libcst to
write a patch, and libcst's import of mypy_extensions emits a
DeprecationWarning.  Under ``error::DeprecationWarning`` alone that
warning aborts the session with an INTERNALERROR, and every later test
goes unrun.  The run below uses the repository's own pytest settings.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_given_test_is_an_ordinary_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
