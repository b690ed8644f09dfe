import importlib
import importlib.util
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import onebitnet


def test_star_import_and_all_resolve():
    namespace = {}
    exec("from onebitnet import *", namespace)
    missing = [name for name in onebitnet.__all__ if name not in namespace]
    assert not missing
    for name in onebitnet.__all__:
        assert getattr(onebitnet, name) is namespace[name]


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer wraps by name still exists."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(f"onebitnet.{module}")
        target = reduce(getattr, attr.split("."), owner)
        assert callable(target), f"onebitnet.{module}.{attr}"


def test_import_leaves_scipy_signal_unloaded():
    """The chirp-z sum runs on numpy.fft; importing scipy.signal would add
    its load time and memory to every process that imports the package."""
    code = "import sys, onebitnet; print('scipy.signal' in sys.modules)"
    src = str(Path(onebitnet.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
