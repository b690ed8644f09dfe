"""Benchmark of onebitnet: one workload, a closed loop of fresh-process passes.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Passes of the workload's operations run
back to back, each in a fresh process (one caller, one process at a time,
numpy's thread pools capped at the core count), until ``--seconds`` of
pass time is spent; every pass is whole. The first pass is checked against
the reference computations, and every later pass must reproduce its
outputs. With ``--trace 1`` the passes alternate untraced and traced, and
the per-layer metrics come from the traced ones.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("analytic_exponential", "analytic_gaussian", "monte_carlo")
# a run gathers set-up and detection timings from at least this many
# processes: its passes, then replays of the detection steps
MIN_PROCESSES = 5
# no new pass starts after this much wall time, so a run ends within 180 s
WALL_LIMIT_S = 110.0
WORKER_TIMEOUT_S = 150.0


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def call_worker(args, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--src", str(ROOT / "src"), *extra]
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = (ROOT / "src" / "onebitnet" / "__init__.py").resolve()
    if Path(result["onebitnet"]).resolve() != expected:
        raise SystemExit(f"worker imported {result['onebitnet']}, not {expected}")
    return result


def group_time(result: dict, group: str) -> float:
    return sum(sec for _, g, sec, err in result["ops"] if g == group and err is None)


def pass_time(result: dict) -> float:
    return group_time(result, "steady_state") + group_time(result, "detection")


def same_outputs(first: Path, other: Path) -> list[str]:
    """Names of outputs that differ between two passes (allowing 1e-12)."""
    with np.load(first) as a, np.load(other) as b:
        if sorted(a.files) != sorted(b.files):
            return ["<output names>"]
        return [k for k in a.files if a[k].shape != b[k].shape
                or not np.allclose(a[k], b[k], rtol=1e-12, atol=1e-12)]


def end_to_end(passes: list[dict], replays: list[dict]) -> dict:
    """Medians over the run: steady-state time and peak memory per pass;
    set-up and detection timings of every process (passes and replays)."""
    med = statistics.median
    procs = passes + replays
    return {
        "setup_s": (med(r["setup_s"] for r in procs), "s"),
        "steady_state_s": (med(group_time(r, "steady_state") for r in passes), "s"),
        "detection_s": (med(t for r in procs for t in r["detection_s"]), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in passes), "MB"),
    }


def per_layer(metrics: list[dict], traced: list[dict], untraced: list[dict]) -> dict:
    """Low medians (observed values, so counts stay whole) over the traced
    passes; ``name`` is ``<span>.calls``, ``<span>.s`` (total),
    ``<span>.self_s`` or a count's own name."""
    out = {}
    for m in metrics:
        name = m["name"]
        if name == "trace.overhead_s":
            value = (statistics.median(pass_time(r) for r in traced)
                     - statistics.median(pass_time(r) for r in untraced))
        else:
            values = []
            for r in traced:
                layers, counts = r["trace"]["layers"], r["trace"]["counts"]
                span, _, quantity = name.rpartition(".")
                values.append(counts[name] if name in counts
                              else layers[span][quantity] if span in layers else 0)
            value = statistics.median_low(values)
        out[name] = (value, m["unit"])
    return out


def per_use(passes: list[dict]) -> dict:
    """Medians of the per-use figures each pass reports."""
    return {k: statistics.median(v) if (v := [r["uses"][k] for r in passes
                                              if r["uses"][k] is not None]) else None
            for k in passes[0]["uses"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "onebitnet" / "__init__.py").is_file():
        print(f"no onebitnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    passes, traced, untraced = [], [], []
    measured = 0.0
    correct = True
    while not passes or (measured < args.seconds
                         and time.perf_counter() - start < WALL_LIMIT_S):
        for tracing in ((False, True) if args.trace else (False,)):
            i = len(passes)
            extra = ["--out", str(run_dir / f"pass{i}.npz")]
            if i == 0:
                extra += ["--check", "--pairs", str(run_dir / "pairs.pkl")]
            if tracing:
                extra += ["--trace", str(OUT / f"trace-{args.workload}-seed{args.seed}-pass{i}.json")]
            t0 = time.perf_counter()
            result = call_worker(args, *extra)
            measured += time.perf_counter() - t0 - result.get("check_s", 0.0)
            passes.append(result)
            (traced if tracing else untraced).append(result)
            if i and (diff := same_outputs(run_dir / "pass0.npz", run_dir / f"pass{i}.npz")):
                correct = False
                print(f"pass {i} differs from pass 0 in {diff[:5]}", file=sys.stderr)
    replays = [] if args.trace else [
        call_worker(args, "--replay", "--pairs", str(run_dir / "pairs.pkl"))
        for _ in range(MIN_PROCESSES - len(passes))]
    for f in run_dir.iterdir():
        f.unlink()
    run_dir.rmdir()

    for name, ok, value, limit in passes[0]["checks"]:
        if not ok:
            correct = False
            print(f"check failed: {name}: {value:.6g} > {limit:.6g}", file=sys.stderr)
    ops = [op for r in passes for op in r["ops"]]
    for name, group, sec, err in passes[0]["ops"]:
        if err is not None:
            print(f"operation failed: {name}: {err}", file=sys.stderr)
    metrics = per_layer(spec()["per_layer"], traced, untraced) if args.trace \
        else end_to_end(passes, replays)
    print(json.dumps({"workload": args.workload, "passes": len(passes),
                      "check_s": passes[0]["check_s"], "wall_s": time.perf_counter() - start,
                      "pass_s": [pass_time(r) for r in passes],
                      "setup_s": [r["setup_s"] for r in passes + replays],
                      **per_use(untraced)}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(err is not None for *_, err in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
