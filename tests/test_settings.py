"""The test suite's own settings: pyproject's warning filters and the root conftest."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3
"""


def test_a_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # the suite's settings turn warnings into errors; one that hypothesis's
    # plugin meets while it formats its report must not end the run
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml")]
        + ["--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


def test_the_suite_names_a_blas_thread_count():
    # the root conftest sets one before numpy loads, unless the caller named one
    assert os.environ.get("OPENBLAS_NUM_THREADS")
