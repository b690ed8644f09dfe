"""One pass of a workload, or one replay of its detection steps, in a fresh process.

Started by ``run.py``; prints one JSON line with the set-up time, the time
and failure of every operation, the detection timings, the peak resident
memory and, with ``--check``, the results of the correctness checks. A
pass writes its outputs to ``--out`` (.npz), so that ``run.py`` can compare
passes, and its CDF pairs to ``--pairs`` (pickle). ``--replay`` sets up and
times the detection steps again on the pairs that ``--pairs`` names.

Set-up is timed from before ``import onebitnet`` to when the workload's
models and networks are built, so it covers importing numpy and scipy.
"""
import argparse
import json
import pickle
import resource
import sys
import time
from contextlib import nullcontext


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding onebitnet")
    ap.add_argument("--out", help="where to write the pass's outputs (.npz)")
    ap.add_argument("--pairs", help="the pass's CDF pairs (pickle), written or replayed")
    ap.add_argument("--trace", help="write the pass's spans to this JSON file")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--replay", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)

    import onebitnet
    import workloads as wl
    inputs = wl.build_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "onebitnet": onebitnet.__file__}

    def sample(pairs):
        return lambda: wl.detection_sample(args.workload, pairs, inputs, args.seed)

    if args.replay:
        pairs = {}
        if args.pairs:
            with open(args.pairs, "rb") as fh:  # written by this benchmark's pass 0
                pairs = pickle.load(fh)
        result["detection_s"] = wl.detection_times(sample(pairs)(), sample(pairs))
        print(json.dumps(result))
        return 0

    import numpy as np
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    p = wl.Pass(on_op=tracer.begin_op if tracer else None)
    with tracer.install() if tracer else nullcontext():
        if args.workload == "monte_carlo":
            wl.run_monte_carlo(p, inputs, args.seed)
        else:
            wl.run_analytic(p, args.workload, inputs, args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pairs = wl.replayable(p, args.workload, args.seed)
    first = sum(r.seconds for r in p.records if r.group == wl.DETECTION and r.error is None)
    result["detection_s"] = wl.detection_times(first, sample(pairs))
    if tracer:
        tracer.write(args.trace, workload=args.workload, seed=args.seed)
        result["trace"] = tracer.summary()
    if args.workload == "analytic_gaussian":
        wl.run_small_mu_hub(p, inputs)
    result["uses"] = wl.per_use(p.records, args.workload)
    result["ops"] = [[r.name, r.group, r.seconds, r.error] for r in p.records]
    if args.out:
        np.savez(args.out, **p.outputs)
    if args.pairs:
        with open(args.pairs, "wb") as fh:
            pickle.dump(pairs, fh)
    if args.check:
        import verify
        t_check = time.perf_counter()
        checks = verify.verify_pass(args.workload, args.seed, p, inputs)
        result["checks"] = [[c.name, c.ok, c.value, c.limit] for c in checks]
        result["check_s"] = time.perf_counter() - t_check
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
