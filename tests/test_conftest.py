"""The warning filter of `conftest.py` turns warnings into errors, yet a
failing Hypothesis test must still be reported as a failure."""
import subprocess
import sys
from pathlib import Path

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_under_the_filter(tmp_path):
    # Hypothesis writes a patch of the failing example, and libcst, which it
    # imports for that, warns; the run must go on and name the failure
    conftest = Path(__file__).with_name("conftest.py").read_text(encoding="utf-8")
    (tmp_path / "conftest.py").write_text(conftest, encoding="utf-8")
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
    assert "FAILED test_sample.py::test_fails" in run.stdout
