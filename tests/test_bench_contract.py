"""The benchmark's own unit tests, run as part of this suite.

They check that the tracer of ``bench/`` still sees every polynomial product
at ``GradedPoly.__mul__``, that its counts repeat, and that it can read the
``.terms`` layouts of ``GradedPoly`` and ``DiffOp``.  A kernel change that
breaks one of these fails here, not only in the benchmark."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
