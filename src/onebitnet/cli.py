"""Experiment driver.

Subcommands:

* ``cdf``      - analytical steady-state CDF tables, empirical CDFs, and a
                 KS summary per node/hypothesis/sweep point;
* ``roc``      - analytical and empirical ROC curves over the configured
                 parameter sweep;
* ``adapt``    - mean trajectories of the three schemes over a hypothesis
                 schedule plus a reaction-time table;
* ``validate`` - the invariant/oracle suite with one pass/fail line per
                 check and a machine-readable JSON report.

Exit codes: 0 success, 1 validation failure, 2 configuration error. Every
CSV starts with a comment line recording the config hash and seed, so equal
configs produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .detection import default_gamma_grid, empirical_roc, roc
from .simulate import (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED, SimConfig,
                       hypothesis_ensembles, ks_distance, reaction_time, run)
from .steady_state import steady_state_pair
from .validation import run_checks


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               comment: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _stamp(cfg: ExperimentConfig, seed=None) -> str:
    return f"config_sha256={cfg.config_hash()} seed={cfg.seed if seed is None else seed}"


def _tag(param: float, a: float) -> str:
    return f"par{param:g}_a{a:g}"


def _sweep(cfg: ExperimentConfig):
    """Walk the model and self-weight sweeps: run both single-hypothesis
    ensembles once per sweep point, then yield, per output node,
    ((param, a), k, (cdf0, cdf1), (node-k terminal states under h=0, h=1)).
    The analytic pair is the one_bit_x law: another scheme is refused first."""
    if cfg.scheme != ONE_BIT_X:
        raise ConfigError(f"'dynamics.scheme' = {cfg.scheme!r}: cdf and roc compare "
                          f"with the analytic law, which only {ONE_BIT_X} has")
    for param, model in zip(cfg.model_param_sweep, cfg.models):
        for a, network in zip(cfg.self_weight_sweep, cfg.networks):
            terminal = hypothesis_ensembles(network, model, cfg.mu, cfg.n_iters,
                                            cfg.trials, cfg.seed, cfg.scheme)
            for k in cfg.nodes:
                yield ((param, a), k,
                       steady_state_pair(model, network, k, cfg.mu,
                                         eps_prime=cfg.eps_prime),
                       (terminal[0][:, k], terminal[1][:, k]))


def cmd_cdf(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    ks_rows: list[tuple] = []
    for (param, a), k, (cdf0, cdf1), samples in _sweep(cfg):
        lo = min(cdf0.mean() - 6 * cdf0.std(), cdf1.mean() - 6 * cdf1.std())
        hi = max(cdf0.mean() + 6 * cdf0.std(), cdf1.mean() + 6 * cdf1.std())
        ys = np.linspace(lo, hi, 1001)
        _write_csv(out / f"cdf_node{k}_{_tag(param, a)}.csv",
                   ["y", "F_y_H0", "F_y_H1"],
                   [ys, cdf0(ys), cdf1(ys)], _stamp(cfg))
        for h, cdf in ((0, cdf0), (1, cdf1)):
            sample = np.sort(samples[h])
            femp = np.arange(1, len(sample) + 1) / len(sample)
            _write_csv(out / f"empirical_cdf_node{k}_{_tag(param, a)}_H{h}.csv",
                       ["y", "F_hat"], [sample, femp], _stamp(cfg))
            ks_rows.append((k, param, a, h, ks_distance(sample, cdf), len(sample)))
    rows = list(zip(*ks_rows))
    _write_csv(out / "ks_summary.csv",
               ["node", "model_param", "self_weight", "hypothesis", "ks", "trials"],
               [np.asarray(r) for r in rows], _stamp(cfg))
    print(f"wrote CDF artifacts for {len(ks_rows)} node/hypothesis combinations to {out}")
    return 0


def cmd_roc(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    for (param, a), k, (cdf0, cdf1), samples in _sweep(cfg):
        grid = default_gamma_grid(cdf0, cdf1, points=cfg.gamma_points,
                                  span_stds=cfg.gamma_span, eps=cfg.eps_prime)
        ana = roc(cdf0, cdf1, grid, node=k)
        emp = empirical_roc(samples[0], samples[1], grid, node=k)
        gammas = np.concatenate([ana.gammas, emp.gammas])
        pf = np.concatenate([ana.pf, emp.pf])
        pd_ = np.concatenate([ana.pd, emp.pd])
        source = np.array(["analytical"] * len(ana.gammas)
                          + ["empirical"] * len(emp.gammas))
        _write_csv(out / f"roc_node{k}_{_tag(param, a)}.csv",
                   ["gamma", "Pf", "Pd", "source"],
                   [gammas, pf, pd_, source], _stamp(cfg))
    print(f"wrote ROC artifacts to {out}")
    return 0


def cmd_adapt(cfg: ExperimentConfig) -> int:
    if len(cfg.schedule) < 2:
        raise ConfigError("'dynamics.schedule' must contain at least one switch "
                          "for the adapt command")
    out = Path(cfg.out_dir)
    model = cfg.model
    network = cfg.network
    switches = [s for s, _ in cfg.schedule[1:]]
    traj = {}
    for scheme in (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED):
        sim = SimConfig(network=network, model=model, mu=cfg.mu,
                        n_iters=cfg.n_iters, trials=cfg.trials, scheme=scheme,
                        schedule=cfg.schedule, seed=cfg.seed)
        ens = run(sim, trajectory_nodes=cfg.nodes)
        traj[scheme] = ens.trajectories
    rows = []
    for k in cfg.nodes:
        steps = np.arange(1, cfg.n_iters + 1)
        _write_csv(out / f"trajectories_node{k}.csv",
                   ["n", ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED],
                   [steps, traj[ONE_BIT_X][k], traj[QUANTIZED_STATE][k],
                    traj[UNQUANTIZED][k]], _stamp(cfg))
        bounds = switches[1:] + [cfg.n_iters + 1]
        for switch, nxt in zip(switches, bounds):
            for scheme in (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED):
                try:
                    rt = reaction_time(traj[scheme][k], switch, post_end=nxt - 1)
                except ValueError:
                    rt = -1  # unreached within the trace
                rows.append((k, scheme, switch, rt))
    cols = list(zip(*rows))
    _write_csv(out / "reaction_times.csv",
               ["node", "scheme", "switch_step", "reaction_steps"],
               [np.asarray(cols[0]), np.asarray(cols[1], dtype=object),
                np.asarray(cols[2]), np.asarray(cols[3])], _stamp(cfg))
    print(f"wrote adaptivity artifacts to {out}")
    return 0


def cmd_validate(quick: bool, out_dir: str, seed: int) -> int:
    results = run_checks(quick=quick, seed=seed)
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    report = {
        "quick": quick,
        "seed": seed,
        "checks": [{"name": r.name, "passed": r.passed,
                    "statistic": r.statistic, "tolerance": r.tolerance,
                    "noise": r.noise, "detail": r.detail} for r in results],
        "failures": n_fail,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "validate_report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; "
          f"report at {out / 'validate_report.json'}")
    return 1 if n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitnet",
        description="One-bit diffusion detection: distributions, ROC, adaptivity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("cdf", "steady-state CDF tables + KS summary"),
                            ("roc", "analytical and empirical ROC curves"),
                            ("adapt", "scheme comparison over a hypothesis schedule"),
                            ("validate", "run the invariant/oracle suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "validate"),
                       help="YAML experiment file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "validate":
            p.add_argument("--quick", action="store_true",
                           help="reduced trial counts and sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config, overrides)
        if args.command == "validate":
            seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)
            if seed < 0:
                raise ConfigError(f"'--seed' = {seed} outside the valid range")
            out_dir = args.out or (cfg.out_dir if cfg else "out")
            return cmd_validate(args.quick, out_dir, seed)
        assert cfg is not None
        return {"cdf": cmd_cdf, "roc": cmd_roc, "adapt": cmd_adapt}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
