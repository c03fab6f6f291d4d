"""A failing property test fails alone: the session runs on to the end.

Under ``filterwarnings = ["error"]`` a warning raised inside a pytest hook
ends the whole session with INTERNALERROR.  When a ``@given`` test fails,
Hypothesis's report hook may import ``libcst``, which warns that
``mypy_extensions.TypedDict`` is deprecated; the suite's warning filters
must let that one through.  The session below runs the repository's pytest
settings on a generated file in a temporary directory, so neither pytest
nor Hypothesis writes into the checkout.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SESSION = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_session.py").write_text(SESSION)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_session.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
