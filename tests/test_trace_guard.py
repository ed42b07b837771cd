"""Benchmark runs (`perfbench/run.py`) pass on this tree.

A traced run (`--trace 1`) fails when a function that the workload must call
(`EXPECTED` in `perfbench/tracing.py`) is never reached: the worker exits 1.
It also fails when a hook cannot read its arguments (a renamed parameter,
say): the items raise, so the run is not correct, or exits 1 when the raising
items never reach a later expected call. Both are checked here, on the three
compute workloads. On identities this also fails a change that stops calling
one of the dense functions that `EXPECTED["identities"]` pins. The trace file
goes under the git-ignored `perfbench/out/`.

The untraced runs check printed output against the references: cli-readme
compares the sha256 of each README command's stdout, and identities its
residuals. A change in the last digit of a README number fails here, although
no other tier-1 test reads those digits.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, *flags):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]


@pytest.mark.parametrize("workload", ["norms", "identities", "rates"])
def test_traced_benchmark_run_is_correct(workload):
    _run(workload, "--trace", "1")


@pytest.mark.parametrize("workload", ["cli-readme", "identities"])
def test_benchmark_outputs_equal_the_references(workload):
    _run(workload)
