"""Experiment configuration: YAML schema, validation, and object wiring."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import yaml

from .continuous import DEFAULT_EPS_PRIME
from .detection import DEFAULT_GRID_POINTS, DEFAULT_SPAN_STDS
from .models import ExponentialModel, GaussianModel, ObservationModel
from .network import (NetworkSpec, build_uniform_matrix,
                      neighbor_sets_from_edges, reference_topology, whole_number)
from .simulate import SCHEMES

SCHEMA_VERSION = 1
# model.kind -> (its model class, the name of its parameter under model.)
_MODELS = {"gaussian": (GaussianModel, "rho"),
           "exponential": (ExponentialModel, "lambda_e")}


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
    """``kind(value)``, or a ConfigError naming ``path``: a bool is not a
    number, and an integer key rejects a fraction instead of truncating it
    (``whole_number``)."""
    what = "an integer" if kind is int else "a number"
    try:
        out = whole_number(value) if kind is int else float(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be {what}, got {value!r}")
    return out


def _get_list(tree: dict, path: str, default=None, required=False) -> list:
    value = _get(tree, path, default, required)
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list, got {value!r}")
    return value


def _pair(entry, path: str):
    try:
        first, second = entry
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{path}' entry {entry!r} is not a pair") from exc
    return first, second


def _get_number(tree: dict, path: str, default=None, kind=float, required=False):
    return _number(_get(tree, path, default, required), path, kind)


def _require_range(value, path, lo, hi, lo_open=True):
    if not ((value > lo if lo_open else value >= lo) and value < hi):
        raise ConfigError(f"'{path}' = {value} outside the valid range")


def _require_keys(tree: dict, path: str, allowed: tuple[str, ...]) -> None:
    """Reject keys of the mapping at ``path`` ("" for the top level) that
    are not in ``allowed``."""
    node = _get(tree, path) if path else tree
    if node is not None and not isinstance(node, dict):
        raise ConfigError(f"'{path}' must be a mapping")
    for key in node or {}:
        if key not in allowed:
            name = f"{path}.{key}" if path else key
            raise ConfigError(f"'{name}' is not a setting "
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


def _model_class(kind):
    """The model class and parameter name of ``model.kind``."""
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"'model.kind' must be {' or '.join(_MODELS)}, got {kind!r}")
    return _MODELS[kind]


def make_model(kind: str, param: float) -> ObservationModel:
    return _model_class(kind)[0](param)


def _build_network(tree: dict, self_weight=None,
                   key: str = "network.self_weight") -> NetworkSpec:
    """The network with ``self_weight`` (default: the ``network.self_weight``
    setting); a rejected self-weight is reported under ``key``."""
    topo = _get(tree, "network.topology", "reference")
    if topo == "reference":
        neighbors = reference_topology()
    elif topo == "explicit":
        edges_key = "network.edges"
        edges = [[_number(v, edges_key, int) for v in _pair(e, edges_key)]
                 for e in _get_list(tree, edges_key, required=True)]
        n_nodes = _get_number(tree, "network.n_nodes", kind=int, required=True)
        try:
            neighbors = neighbor_sets_from_edges(n_nodes, edges)
        except ValueError as exc:
            raise ConfigError(f"'{edges_key}': {exc}") from exc
    else:
        raise ConfigError(f"'network.topology' must be reference or explicit, got {topo!r}")
    a = self_weight if self_weight is not None else _get_number(
        tree, "network.self_weight", required=True)
    try:
        return build_uniform_matrix(neighbors, a)
    except ValueError as exc:
        raise ConfigError(f"'{key}': {exc}") from exc


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
    _require_keys(tree, "", ("version", "network", "model", "dynamics", "analysis",
                              "sweeps", "output"))
    _require_keys(tree, "network", ("topology", "self_weight", "n_nodes", "edges"))
    _require_keys(tree, "dynamics", ("mu", "n_iters", "trials", "seed", "schedule",
                                     "scheme"))
    _require_keys(tree, "sweeps", ("self_weight", "model_param"))
    _require_keys(tree, "output", ("directory", "nodes"))

    kind = _get(tree, "model.kind", required=True)
    model_class, param_name = _model_class(kind)
    _require_keys(tree, "model", ("kind", param_name))
    param_key = f"model.{param_name}"
    param = _get_number(tree, param_key, required=True)
    sweep_par = tuple(_number(v, "sweeps.model_param")
                      for v in _get_list(tree, "sweeps.model_param", [param]))
    # the model's own range rule, for the parameter and every sweep point
    for key, value in ((param_key, param), *(("sweeps.model_param", v) for v in sweep_par)):
        try:
            model_class(value)
        except ValueError as exc:
            raise ConfigError(f"'{key}': {exc}") from exc

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
    schedule_raw = _get_list(tree, "dynamics.schedule", [[1, "H0"]])
    schedule = []
    if not schedule_raw:
        raise ConfigError("'dynamics.schedule' must contain at least one segment")
    for seg in schedule_raw:
        start, hyp = _pair(seg, "dynamics.schedule")
        h = {"H0": 0, "H1": 1}.get(hyp) if isinstance(hyp, str) else whole_number(hyp)
        if h not in (0, 1):
            raise ConfigError(f"'dynamics.schedule' hypothesis {hyp!r} must be H0 or H1")
        schedule.append((_number(start, "dynamics.schedule", int), h))
    if schedule[0][0] != 1:
        raise ConfigError("'dynamics.schedule' must start at step 1")
    if any(b[0] <= a[0] for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("'dynamics.schedule' start steps must strictly increase")
    scheme = _get(tree, "dynamics.scheme", "one_bit_x")
    if scheme not in SCHEMES:
        raise ConfigError(f"'dynamics.scheme' unknown: {scheme!r}")

    _require_keys(tree, "analysis", ("eps_prime", "gamma_grid"))
    _require_keys(tree, "analysis.gamma_grid", ("points", "std_span"))
    eps_prime = _get_number(tree, "analysis.eps_prime", DEFAULT_EPS_PRIME)
    _require_range(eps_prime, "analysis.eps_prime", 0.0, 1.0)
    gamma_points = _get_number(tree, "analysis.gamma_grid.points", DEFAULT_GRID_POINTS, int)
    gamma_span = _get_number(tree, "analysis.gamma_grid.std_span", DEFAULT_SPAN_STDS)
    _require_range(gamma_points, "analysis.gamma_grid.points", 2, float("inf"),
                   lo_open=False)
    _require_range(gamma_span, "analysis.gamma_grid.std_span", 0.0, float("inf"))

    out_dir = str(overrides.get("out_dir", _get(tree, "output.directory", "out")))
    network = _build_network(tree)
    nodes = tuple(_number(k, "output.nodes", int)
                  for k in _get_list(tree, "output.nodes", [3, 9]))
    for k in nodes:
        if not 0 <= k < network.size:
            raise ConfigError(f"'output.nodes' references node {k} outside the network")
    sweep_a = tuple(_number(v, "sweeps.self_weight")
                    for v in _get_list(tree, "sweeps.self_weight",
                                       [_get(tree, "network.self_weight", required=True)]))
    for a in sweep_a:  # every sweep point's network, before any artifact
        _build_network(tree, a, "sweeps.self_weight")
    for key, values in (("output.nodes", nodes), ("sweeps.self_weight", sweep_a),
                        ("sweeps.model_param", sweep_par)):
        if not values:
            raise ConfigError(f"'{key}' must list at least one value")

    return ExperimentConfig(
        raw=tree, network=network, model=model_class(param),
        model_kind=kind, model_param=param, mu=mu, n_iters=n_iters,
        trials=trials, seed=seed, schedule=tuple(schedule), scheme=scheme,
        eps_prime=eps_prime, gamma_points=gamma_points,
        gamma_span=gamma_span, out_dir=out_dir, nodes=nodes,
        self_weight_sweep=sweep_a, model_param_sweep=sweep_par)
