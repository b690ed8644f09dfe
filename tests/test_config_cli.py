import json
from pathlib import Path

import numpy as np
import pytest

from onebitnet.cli import main
from onebitnet.config import ConfigError, load_config
from onebitnet.simulate import SCHEMES

BASE = """
version: 1
network:
  topology: reference
  self_weight: 0.25
model:
  kind: gaussian
  rho: 1.0
dynamics:
  mu: 0.1
  n_iters: 40
  trials: 200
  seed: 5
output:
  directory: {out}
  nodes: [3, 9]
"""

# one non-numeric value per kind of numeric key: model parameter, dynamics,
# analysis, sweep entry, node
NON_NUMERIC = (
    (BASE.replace("rho: 1.0", "rho: high"), "model.rho"),
    (BASE.replace("trials: 200", "trials: lots"), "dynamics.trials"),
    (BASE.replace("mu: 0.1", "mu: [0.1]"), "dynamics.mu"),
    (BASE + "analysis:\n  gamma_grid:\n    points: many\n",
     "analysis.gamma_grid.points"),
    (BASE + "analysis:\n  eps_prime: tiny\n", "analysis.eps_prime"),
    (BASE + "sweeps:\n  self_weight: [0.25, half]\n", "sweeps.self_weight"),
    (BASE.replace("nodes: [3, 9]", "nodes: [3, nine]"), "output.nodes"),
    # a fraction for an integer key, and a scalar where a list belongs
    (BASE.replace("nodes: [3, 9]", "nodes: [3.7]"), "output.nodes"),
    (BASE.replace("nodes: [3, 9]", "nodes: 3"), "output.nodes"),
    (BASE + "sweeps:\n  self_weight: 0.25\n", "sweeps.self_weight"),
    (BASE.replace("topology: reference",
                  "topology: explicit\n  n_nodes: 10\n  edges: 5"), "network.edges"),
    (BASE.replace("  seed: 5\n", "  seed: 5\n  schedule: 5\n"), "dynamics.schedule"),
    # a bool is not a number, though YAML's true == 1
    (BASE.replace("n_iters: 40", "n_iters: true"), "dynamics.n_iters"),
    (BASE.replace("seed: 5", "seed: false"), "dynamics.seed"),
    (BASE.replace("nodes: [3, 9]", "nodes: [true, 9]"), "output.nodes"),
    (BASE.replace("rho: 1.0", "rho: true"), "model.rho"),
    (BASE.replace("self_weight: 0.25", "self_weight: true"), "network.self_weight"),
    (BASE.replace("mu: 0.1", "mu: true"), "dynamics.mu"),
)

# no output node, with a switch so that adapt would run its schemes
NO_NODES = BASE.replace("nodes: [3, 9]", "nodes: []").replace(
    "  seed: 5\n", "  seed: 5\n  schedule: [[1, H0], [16, H1]]\n")

# values that parse but that the model or simulator would reject mid-sweep
OUT_OF_RANGE = (
    (BASE + "sweeps:\n  model_param: [-1.0]\n", "sweeps.model_param"),
    (BASE.replace("  seed: 5\n", "  seed: 5\n  schedule: [[1, H0], [1, H1]]\n"),
     "dynamics.schedule"),
    (BASE + "sweeps:\n  self_weight: [0.25, 1.5]\n", "sweeps.self_weight"),
    (BASE.replace("topology: reference",
                  "topology: explicit\n  n_nodes: 3\n  edges: [[0, 3]]"), "network.edges"),
    (BASE.replace("topology: reference", "topology: explicit\n  n_nodes: 10\n"
                  "  edges: [[0, 1]]").replace("nodes: [3, 9]", "nodes: [0]")
     .replace("self_weight: 0.25", "self_weight: 1.5"), "network.self_weight"),
    (BASE.replace("  seed: 5\n", "  seed: 5\n  scheme: two_bit_x\n"),
     "dynamics.scheme"),
    # empty lists: nothing to compute or write
    (BASE + "sweeps:\n  model_param: []\n", "sweeps.model_param"),
    (NO_NODES, "output.nodes"),
    (BASE + "sweeps:\n  self_weight: []\n", "sweeps.self_weight"),
    # a hypothesis is H0, H1, 0 or 1: not YAML's true == 1, nor a list
    (BASE.replace("  seed: 5\n", "  seed: 5\n  schedule: [[1, H0], [16, true]]\n"),
     "dynamics.schedule"),
    (BASE.replace("  seed: 5\n", "  seed: 5\n  schedule: [[1, false], [16, H1]]\n"),
     "dynamics.schedule"),
    (BASE.replace("  seed: 5\n", "  seed: 5\n  schedule: [[1, H0], [16, [1]]]\n"),
     "dynamics.schedule"),
)

# one misspelt or stray key per section: top level, network, model (a typo,
# and the other kind's parameter), dynamics, sweeps, output
MISSPELT = (
    (BASE + "sweep:\n  self_weight: [0.5]\n", "sweep"),
    (BASE.replace("  self_weight: 0.25\n", "  self_weight: 0.25\n  selfweight: 0.5\n"),
     "network.selfweight"),
    (BASE.replace("kind: gaussian", "kind: exponential").replace("rho: 1.0", "lamda_e: 8.0"),
     "model.lamda_e"),
    (BASE.replace("rho: 1.0", "rho: 1.0\n  lambda_e: 8.0"), "model.lambda_e"),
    (BASE.replace("n_iters: 40", "n_iter: 7"), "dynamics.n_iter"),
    (BASE + "sweeps:\n  self_weights: [0.5]\n", "sweeps.self_weights"),
    (BASE.replace("nodes: [3, 9]", "node: [0]"), "output.node"),
)


def write_config(tmp_path, text=None, **extra):
    cfg = tmp_path / "exp.yaml"
    body = (text or BASE).format(out=tmp_path / "out")
    for block in extra.values():
        body += block
    cfg.write_text(body)
    return cfg


class TestConfigParsing:
    def test_roundtrip_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.model_kind == "gaussian"
        assert cfg.mu == 0.1
        assert cfg.trials == 200
        assert cfg.seed == 5
        assert cfg.nodes == (3, 9)
        assert cfg.schedule == ((1, 0),)
        assert cfg.self_weight_sweep == (0.25,)

    def test_shipped_reference_config(self):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "reference.yaml")
        assert (cfg.model_kind, cfg.model_param, cfg.mu) == ("gaussian", 1.0, 0.1)
        assert cfg.self_weight_sweep == (0.25,)
        assert cfg.nodes == (3, 9)

    def test_shipped_adapt_config(self):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "adapt.yaml")
        assert (cfg.model_kind, cfg.model_param, cfg.mu) == ("gaussian", 2.0, 0.1)
        assert cfg.self_weight_sweep == (0.75,)
        assert (cfg.n_iters, cfg.trials) == (3000, 100)
        assert cfg.schedule == ((1, 0), (1001, 1), (2001, 0))
        assert cfg.nodes == (3,)

    def test_shipped_exponential_config(self):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "exponential.yaml")
        assert (cfg.model_kind, cfg.model_param, cfg.mu) == ("exponential", 5.0, 0.1)
        assert cfg.self_weight_sweep == (0.5,)
        assert cfg.nodes == (3, 9)

    def test_exponential_model(self, tmp_path):
        text = BASE.replace("kind: gaussian", "kind: exponential").replace(
            "rho: 1.0", "lambda_e: 5.0")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.model_kind == "exponential"
        assert cfg.model.p_d == pytest.approx(5.0 ** -0.25)

    def test_explicit_topology(self, tmp_path):
        text = BASE.replace(
            "topology: reference",
            "topology: explicit\n  n_nodes: 3\n  edges: [[0,1],[1,2]]")
        text = text.replace("nodes: [3, 9]", "nodes: [0, 2]")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.network.size == 3

    def test_schedule_parsing(self, tmp_path):
        extra = "  schedule: [[1, H0], [21, H1]]\n"
        text = BASE.replace("  seed: 5\n", "  seed: 5\n" + extra)
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.schedule == ((1, 0), (21, 1))
        text = BASE.replace("  seed: 5\n", "  seed: 5\n  schedule: [[1, 0], [21.0, 1]]\n")
        assert load_config(write_config(tmp_path, text)).schedule == ((1, 0), (21, 1))

    def test_missing_key_named(self, tmp_path):
        text = BASE.replace("  rho: 1.0\n", "")
        with pytest.raises(ConfigError, match="model.rho"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("kind, param, value", [
        (kind, param, value)
        for kind, param, low in (("gaussian", "rho", "0.0"), ("exponential", "lambda_e", "1.0"))
        for value in (low, ".nan", ".inf")])
    def test_model_range_named(self, tmp_path, kind, param, value):
        # the model's own range rule, under the key that set the parameter
        text = BASE.replace("kind: gaussian", f"kind: {kind}").replace("rho: 1.0",
                                                                      f"{param}: 8.0")
        with pytest.raises(ConfigError, match=rf"^'model\.{param}': {param} must"):
            load_config(write_config(tmp_path, text.replace("8.0", value)))
        sweep = f"sweeps:\n  model_param: [8.0, {value}]\n"
        with pytest.raises(ConfigError, match=rf"^'sweeps\.model_param': {param} must"):
            load_config(write_config(tmp_path, text + sweep))
        text = text.replace(f"kind: {kind}", "kind: poisson")
        with pytest.raises(ConfigError, match=r"'model\.kind' must be gaussian or exponential"):
            load_config(write_config(tmp_path, text))

    def test_bad_range_named(self, tmp_path):
        text = BASE.replace("mu: 0.1", "mu: 1.5")
        with pytest.raises(ConfigError, match="dynamics.mu"):
            load_config(write_config(tmp_path, text))
        for analysis, key in (("value_rule: median", "analysis.value_rule"),
                              ("eps_dprime: 1.0e-3", "analysis.eps_dprime"),
                              ("eps_z_scale: 0.1", "analysis.eps_z_scale"),
                              ("order: first", "analysis.order"),
                              ("eta_threshold: 0.5", "analysis.eta_threshold"),
                              ("eps_primer: 1.0e-4", "analysis.eps_primer"),
                              ("gamma_grid:\n    span: 4", "analysis.gamma_grid.span")):
            text = BASE + f"analysis:\n  {analysis}\n"
            with pytest.raises(ConfigError, match=f"'{key}' is not a setting"):
                load_config(write_config(tmp_path, text))
        for analysis, key in ((" [eps_prime, 1.0e-4]", "'analysis' must be a mapping"),
                              ("\n  gamma_grid:\n    points: -5", "gamma_grid.points"),
                              ("\n  gamma_grid:\n    points: 1", "gamma_grid.points"),
                              ("\n  gamma_grid:\n    std_span: 0", "gamma_grid.std_span")):
            text = BASE + f"analysis:{analysis}\n"
            with pytest.raises(ConfigError, match=key):
                load_config(write_config(tmp_path, text))
        text = BASE.replace("seed: 5", "seed: -1")
        with pytest.raises(ConfigError, match="dynamics.seed"):
            load_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="dynamics.seed"):
            load_config(write_config(tmp_path), overrides={"seed": -3})
        for text, key in NON_NUMERIC:
            with pytest.raises(ConfigError, match=f"'{key}' must be"):
                load_config(write_config(tmp_path, text))
        for text, key in OUT_OF_RANGE:
            with pytest.raises(ConfigError, match=f"'{key}'"):
                load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("text,key", MISSPELT, ids=[key for _, key in MISSPELT])
    def test_misspelt_key_named(self, tmp_path, text, key):
        # a key the loader does not read is an error, not a silent default
        with pytest.raises(ConfigError, match=f"'{key}' is not a setting"):
            load_config(write_config(tmp_path, text))
        assert main(["roc", "--config", str(write_config(tmp_path, text))]) == 2
        assert not (tmp_path / "out").exists()

    def test_every_scheme_accepted(self, tmp_path):
        for scheme in SCHEMES:
            text = BASE.replace("  seed: 5\n", f"  seed: 5\n  scheme: {scheme}\n")
            assert load_config(write_config(tmp_path, text)).scheme == scheme

    def test_unknown_node_rejected(self, tmp_path):
        text = BASE.replace("nodes: [3, 9]", "nodes: [3, 99]")
        with pytest.raises(ConfigError, match="node 99"):
            load_config(write_config(tmp_path, text))

    def test_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path),
                          overrides={"seed": 42, "out_dir": "elsewhere"})
        assert cfg.seed == 42
        assert cfg.out_dir == "elsewhere"

    def test_hash_stable(self, tmp_path):
        c1 = load_config(write_config(tmp_path))
        c2 = load_config(write_config(tmp_path))
        assert c1.config_hash() == c2.config_hash()


class TestCliCommands:
    def test_cdf_command_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["cdf", "--config", str(path)]) == 0
        files = {f.name for f in out.iterdir()}
        assert "cdf_node3_par1_a0.25.csv" in files
        assert "empirical_cdf_node9_par1_a0.25_H1.csv" in files
        assert "ks_summary.csv" in files
        header = (out / "cdf_node3_par1_a0.25.csv").read_text().splitlines()
        assert header[0].startswith("# config_sha256=")
        assert header[1] == "y,F_y_H0,F_y_H1"

    def test_cdf_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["cdf", "--config", str(path)])
        first = (out / "cdf_node3_par1_a0.25.csv").read_bytes()
        main(["cdf", "--config", str(path)])
        assert (out / "cdf_node3_par1_a0.25.csv").read_bytes() == first

    def test_roc_command(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["roc", "--config", str(path)]) == 0
        text = (out / "roc_node3_par1_a0.25.csv").read_text().splitlines()
        assert text[1] == "gamma,Pf,Pd,source"
        assert any(line.endswith("analytical") for line in text[2:])
        assert any(line.endswith("empirical") for line in text[2:])

    def test_adapt_command(self, tmp_path):
        extra = "  schedule: [[1, H0], [16, H1], [31, H0]]\n"
        text = BASE.replace("  seed: 5\n", "  seed: 5\n" + extra)
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["adapt", "--config", str(path)]) == 0
        assert (out / "trajectories_node3.csv").exists()
        assert (out / "reaction_times.csv").exists()

    def test_adapt_requires_switch(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["adapt", "--config", str(path)]) == 2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("version: 1\nmodel: {kind: gaussian}\n")
        assert main(["cdf", "--config", str(bad)]) == 2
        good = write_config(tmp_path)
        assert main(["roc", "--config", str(good), "--seed", "-3"]) == 2
        assert main(["validate", "--seed", "-3"]) == 2
        for text, _ in NON_NUMERIC:
            assert main(["roc", "--config", str(write_config(tmp_path, text))]) == 2
        for i, (text, _) in enumerate(OUT_OF_RANGE):
            command = ("roc", "adapt", "cdf")[i % 3]
            assert main([command, "--config", str(write_config(tmp_path, text))]) == 2
        assert main(["adapt", "--config", str(write_config(tmp_path, NO_NODES))]) == 2
        # every error is raised at load time, before any artifact is written
        assert not (tmp_path / "out").exists()

    def test_nan_self_weight_exit_code(self, tmp_path):
        # a nan self-weight fails every comparison; unchecked, adapt would
        # write all-nan trajectories and cdf die mid-run with exit 1
        switch = "  seed: 5\n  schedule: [[1, H0], [16, H1]]\n"
        for text, key in (
                (BASE.replace("self_weight: 0.25", "self_weight: .nan"),
                 "network.self_weight"),
                (BASE + "sweeps:\n  self_weight: [0.25, .nan]\n", "sweeps.self_weight")):
            path = write_config(tmp_path, text.replace("  seed: 5\n", switch))
            with pytest.raises(ConfigError, match=f"'{key}'"):
                load_config(path)
            for command in ("cdf", "roc", "adapt"):
                assert main([command, "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["cdf", "--config", str(path)])
        first = (out / "empirical_cdf_node3_par1_a0.25_H0.csv").read_bytes()
        main(["cdf", "--config", str(path), "--seed", "99"])
        assert (out / "empirical_cdf_node3_par1_a0.25_H0.csv").read_bytes() != first


class TestValidateCommand:
    def test_quick_run_report(self, tmp_path):
        out = tmp_path / "vout"
        code = main(["validate", "--quick", "--out", str(out), "--seed", "0"])
        report = json.loads((out / "validate_report.json").read_text())
        assert report["quick"] is True
        assert {"name", "passed", "statistic", "tolerance"} <= set(
            report["checks"][0])
        assert code == (1 if report["failures"] else 0)
        assert report["failures"] == 0
        # every KS check reports its 95% noise floor; the others report none
        for check in report["checks"]:
            ks = check["name"].startswith(("steady_state/ks_", "limit/"))
            assert (check["noise"] is not None) == ks, check["name"]
