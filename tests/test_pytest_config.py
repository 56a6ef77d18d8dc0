"""The suite's own pytest configuration must report failures, not hide them.

``pyproject.toml`` turns every warning into an error.  A warning raised
inside a plugin's reporting hook then becomes a pytest INTERNALERROR
that swallows the failing test and its falsifying example, so the
configuration is exercised here on a deliberately failing property.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_always_below_five(n):
    assert n < 5
'''


def test_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         os.path.join(REPO, "pyproject.toml"), "-p", "no:cacheprovider",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
    assert "assert 5 < 5" in out, out
