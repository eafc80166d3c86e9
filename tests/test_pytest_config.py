"""The suite's own pytest configuration, checked in a child pytest session."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_PROBE = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, max_examples=5)
    @given(st.integers())
    def test_fails(x):
        assert x != x


    def test_after():
        pass
""")


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # Reporting a hypothesis failure imports modules that warn on import;
    # with warnings turned into errors, that once aborted the whole session
    # (exit 3) before any later test ran.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_probe.py::test_fails" in proc.stdout
    assert "PASSED test_probe.py::test_after" in proc.stdout
