"""Smoke tests: the fast examples run end-to-end as scripts."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 180) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_trace_analysis_example():
    out = run_example("trace_analysis.py")
    assert "Table 2.1" in out
    assert "sweep3d" in out
    assert "mean TDC" in out


def test_fault_tolerance_example():
    out = run_example("fault_tolerance.py")
    assert "deterministic" in out
    assert "120/120" in out  # DRB family delivers everything


#: The quickstart table, pinned exactly: its runs are seeded, so any
#: drift is a behaviour change.
QUICKSTART_TABLE = [
    "policy            mean latency          p99  accepted",
    "deterministic        157.14 us    438.64 us     1.00",
    "drb                   44.02 us    224.11 us     1.00",
    "pr-drb                45.53 us    216.47 us     1.00",
]


@pytest.mark.slow
def test_quickstart_example():
    out = run_example("quickstart.py")
    assert out.splitlines()[:4] == QUICKSTART_TABLE


def test_all_examples_have_docstrings_and_main():
    for path in EXAMPLES.glob("*.py"):
        text = path.read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3', '"""')), path
        assert '__name__ == "__main__"' in text, path
