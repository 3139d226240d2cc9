"""The benchmark's own self-test, run as part of the test suite.

perfbench's traced run wraps package functions by the names callers look
them up under, so a package change that drops one of those names breaks the
benchmark; this catches it before the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    env = {**os.environ, "RXNSEQ_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-4000:]
