import subprocess
import sys
from pathlib import Path

_FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 0


def test_next_test_runs():
    pass
"""


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # under filterwarnings = ["error"], hypothesis's failure report once
    # raised a DeprecationWarning inside pytest's hook and aborted the run
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    probe = tmp_path / "test_probe.py"
    probe.write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-c", str(config),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
