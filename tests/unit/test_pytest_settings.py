"""The repo's pytest settings keep a failing property test readable:
the warnings-as-errors rule must not turn hypothesis's failure report
into an INTERNALERROR that hides the falsifying example."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n < 0
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", "test_fails.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
