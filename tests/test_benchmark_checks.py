"""The benchmark's own correctness checks on one pass of each workload
(``perfbench/worker.py --check``), so that a wrong output shows in the test
suite before a benchmark run reports it."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("workload", ["analytic_gaussian", "analytic_exponential",
                                      "monte_carlo"])
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


def test_traced_pass_counts_the_continuous_layer(tmp_path):
    """One traced ``analytic_exponential`` pass: no operation fails, and the
    tracer sees the state builds and the log-CF calls inside them. Its point
    counter reads ``log_cf_w``'s fourth positional argument or its ``t=``
    keyword, so a call that passes neither would break the per-layer
    numbers."""
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "analytic_exponential",
         "--seed", "0", "--src", "src", "--trace", str(tmp_path / "t.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ops"] and [op for op in result["ops"] if op[3] is not None] == []
    layers = result["trace"]["layers"]
    assert layers["steady_state.build_steady_state"]["calls"] > 0
    assert layers["continuous.log_cf_w"]["calls"] > 0
    assert result["trace"]["counts"]["continuous.log_cf_w.points"] > 0
