"""The benchmark's own correctness checks on one pass of each analytic
workload (``perfbench/worker.py --check``), so that a wrong output shows in
the test suite before a benchmark run reports it."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("workload", ["analytic_gaussian", "analytic_exponential"])
def test_worker_checks_pass(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "0",
         "--src", "src", "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["checks"]
    assert [c for c in result["checks"] if not c[1]] == []
    assert [op for op in result["ops"] if op[3] is not None] == []
