"""Experiment configuration: YAML schema, validation, and object wiring."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import yaml

from .models import ExponentialModel, GaussianModel, ObservationModel
from .network import (NetworkSpec, build_uniform_matrix,
                      neighbor_sets_from_edges, reference_topology)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration file rejected; the message names the offending key."""


def _get(tree: dict, path: str, default=None, required=False):
    node: Any = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required key '{path}'")
            return default
        node = node[part]
    return node


def _number(value, path: str, kind=float):
    """``kind(value)``, or a ConfigError naming ``path``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"'{path}' must be {what}, got {value!r}") from exc


def _get_number(tree: dict, path: str, default=None, kind=float, required=False):
    return _number(_get(tree, path, default, required), path, kind)


def _require_range(value, path, lo, hi, lo_open=True, hi_open=True):
    ok_lo = value > lo if lo_open else value >= lo
    ok_hi = value < hi if hi_open else value <= hi
    if not (ok_lo and ok_hi):
        raise ConfigError(f"'{path}' = {value} outside the valid range")
    return value


def _require_keys(tree: dict, path: str, allowed: tuple[str, ...]) -> None:
    node = _get(tree, path)
    if node is not None and not isinstance(node, dict):
        raise ConfigError(f"'{path}' must be a mapping")
    for key in node or {}:
        if key not in allowed:
            raise ConfigError(f"'{path}.{key}' is not a setting "
                              f"(allowed: {', '.join(allowed)})")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see configs/reference.yaml)."""

    raw: dict = field(repr=False)
    network: NetworkSpec = field(repr=False)
    model: ObservationModel
    model_kind: str
    model_param: float
    mu: float
    n_iters: int
    trials: int
    seed: int
    schedule: tuple[tuple[int, int], ...]
    scheme: str
    eps_prime: float
    eps_scale: float
    gamma_points: int
    gamma_span: float
    out_dir: str
    nodes: tuple[int, ...]
    self_weight_sweep: tuple[float, ...]
    model_param_sweep: tuple[float, ...]

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def network_for(self, self_weight: float) -> NetworkSpec:
        return _build_network(self.raw, self_weight)

    def model_for(self, param: float) -> ObservationModel:
        return make_model(self.model_kind, param)


def make_model(kind: str, param: float) -> ObservationModel:
    if kind == "gaussian":
        return GaussianModel(param)
    if kind == "exponential":
        return ExponentialModel(param)
    raise ConfigError(f"'model.kind' must be gaussian or exponential, got {kind!r}")


def _build_network(tree: dict, self_weight=None) -> NetworkSpec:
    topo = _get(tree, "network.topology", "reference")
    if topo == "reference":
        neighbors = reference_topology()
    elif topo == "explicit":
        edges = _get(tree, "network.edges", required=True)
        n_nodes = _get_number(tree, "network.n_nodes", kind=int, required=True)
        neighbors = neighbor_sets_from_edges(n_nodes, edges)
    else:
        raise ConfigError(f"'network.topology' must be reference or explicit, got {topo!r}")
    a = self_weight if self_weight is not None else _get(
        tree, "network.self_weight", required=True)
    try:
        return build_uniform_matrix(neighbors, a)
    except ValueError as exc:
        raise ConfigError(f"'network.self_weight': {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a YAML experiment file.

    ``overrides`` may replace ``seed`` and ``out_dir`` (the CLI flags).
    YAML syntax errors surface with their line/column markers.
    """
    with open(path) as fh:
        try:
            tree = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"YAML parse error in {path}: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    version = _get(tree, "version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"'version' must be {SCHEMA_VERSION}, got {version}")
    overrides = overrides or {}

    kind = _get(tree, "model.kind", required=True)
    if kind == "gaussian":
        param = _get_number(tree, "model.rho", required=True)
        _require_range(param, "model.rho", 0.0, float("inf"))
    elif kind == "exponential":
        param = _get_number(tree, "model.lambda_e", required=True)
        _require_range(param, "model.lambda_e", 1.0, float("inf"))
    else:
        raise ConfigError(f"'model.kind' must be gaussian or exponential, got {kind!r}")

    mu = _get_number(tree, "dynamics.mu", required=True)
    _require_range(mu, "dynamics.mu", 0.0, 1.0)
    n_iters = _get_number(tree, "dynamics.n_iters", 100, int)
    trials = _get_number(tree, "dynamics.trials", 10_000, int)
    if n_iters < 1:
        raise ConfigError(f"'dynamics.n_iters' must be >= 1, got {n_iters}")
    if trials < 1:
        raise ConfigError(f"'dynamics.trials' must be >= 1, got {trials}")
    seed = _number(overrides.get("seed", _get(tree, "dynamics.seed", 0)),
                   "dynamics.seed", int)
    _require_range(seed, "dynamics.seed", 0, float("inf"), lo_open=False)
    schedule_raw = _get(tree, "dynamics.schedule", [[1, "H0"]])
    schedule = []
    if not schedule_raw:
        raise ConfigError("'dynamics.schedule' must contain at least one segment")
    for seg in schedule_raw:
        try:
            start, hyp = seg
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'dynamics.schedule' segment {seg!r} is not a pair") from exc
        h = {"H0": 0, "H1": 1, 0: 0, 1: 1}.get(hyp)
        if h is None:
            raise ConfigError(f"'dynamics.schedule' hypothesis {hyp!r} must be H0 or H1")
        schedule.append((_number(start, "dynamics.schedule", int), h))
    if schedule[0][0] != 1:
        raise ConfigError("'dynamics.schedule' must start at step 1")
    scheme = _get(tree, "dynamics.scheme", "one_bit_x")
    if scheme not in ("one_bit_x", "quantized_state", "unquantized"):
        raise ConfigError(f"'dynamics.scheme' unknown: {scheme!r}")

    _require_keys(tree, "analysis", ("eps_prime", "eps_z_scale", "gamma_grid"))
    _require_keys(tree, "analysis.gamma_grid", ("points", "std_span"))
    eps_prime = _get_number(tree, "analysis.eps_prime", 2e-5)
    eps_scale = _get_number(tree, "analysis.eps_z_scale", 0.1)
    _require_range(eps_prime, "analysis.eps_prime", 0.0, 1.0)
    _require_range(eps_scale, "analysis.eps_z_scale", 0.0, 1.0)
    gamma_points = _get_number(tree, "analysis.gamma_grid.points", 241, int)
    gamma_span = _get_number(tree, "analysis.gamma_grid.std_span", 6.0)
    _require_range(gamma_points, "analysis.gamma_grid.points", 2, float("inf"),
                   lo_open=False)
    _require_range(gamma_span, "analysis.gamma_grid.std_span", 0.0, float("inf"))

    out_dir = str(overrides.get("out_dir", _get(tree, "output.directory", "out")))
    network = _build_network(tree)
    nodes = tuple(_number(k, "output.nodes", int)
                  for k in _get(tree, "output.nodes", [3, 9]))
    for k in nodes:
        if not 0 <= k < network.size:
            raise ConfigError(f"'output.nodes' references node {k} outside the network")
    sweep_a = tuple(_number(v, "sweeps.self_weight")
                    for v in _get(tree, "sweeps.self_weight",
                                  [_get(tree, "network.self_weight", required=True)]))
    sweep_par = tuple(_number(v, "sweeps.model_param")
                      for v in _get(tree, "sweeps.model_param", [param]))

    return ExperimentConfig(
        raw=tree, network=network, model=make_model(kind, param),
        model_kind=kind, model_param=param, mu=mu, n_iters=n_iters,
        trials=trials, seed=seed, schedule=tuple(schedule), scheme=scheme,
        eps_prime=eps_prime, eps_scale=eps_scale, gamma_points=gamma_points,
        gamma_span=gamma_span, out_dir=out_dir, nodes=nodes,
        self_weight_sweep=sweep_a, model_param_sweep=sweep_par)
