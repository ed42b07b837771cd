"""Traced benchmark runs (`perfbench/run.py --trace 1`) pass on this tree.

A traced run fails when a function that the workload must call (`EXPECTED`
in `perfbench/tracing.py`) is never reached: the worker exits 1. It also
fails when a hook cannot read its arguments (a renamed parameter, say): the
items raise, so the run is not correct, or exits 1 when the raising items
never reach a later expected call. Both are checked here, on the two
workloads whose routes change most often. The trace file goes under the
git-ignored `perfbench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["norms", "rates"])
def test_traced_benchmark_run_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
