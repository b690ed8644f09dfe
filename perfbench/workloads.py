"""The benchmark's workloads: their inputs and one pass of their operations.

A pass runs every operation of a workload once, back to back, in one
process. Each operation is timed on its own and belongs to one of two
end-to-end groups:

* ``steady_state`` - producing the steady-state distributions: an analytic
  CDF pair (``steady_state_pair``) or a simulated ensemble under one
  hypothesis (``run``);
* ``detection`` - what is computed from or alongside them: the threshold
  grid, the ROC and the 1,001-point CDF table of a pair, or a switching
  trajectory run with its reaction times.

Operations in the ``extra`` group (``small_mu_hub_pair``) count as
attempted and failed but enter no timing.

A pass's detection steps can be short (0.05 s on analytic_exponential),
so ``detection_times`` times them again, on deep copies of their inputs,
until 2 s is spent; ``run.py`` also replays them in fresh processes when a
run has few passes. Repeats are not operations: they count as neither
attempted nor failed. Steady-state steps are never repeated in a process,
since a cache of continuous tables would make a second build cheaper than
the first.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

import onebitnet as ob

STEADY_STATE = "steady_state"
DETECTION = "detection"
EXTRA = "extra"

CDF_TABLE_POINTS = 1001  # the grid that ``onebitnet cdf`` writes


@dataclass(frozen=True)
class PairSpec:
    """One analytic CDF pair: model, self-weight, step size and node."""

    model: tuple  # ("gaussian", rho) or ("exponential", lambda_e)
    a: float
    mu: float
    node: int

    @property
    def tag(self) -> str:
        kind, par = self.model
        return f"{kind}{par:g}_a{self.a:g}_mu{self.mu:g}_node{self.node}"


@dataclass(frozen=True)
class EnsembleSpec:
    """One terminal-state ensemble of ``one_bit_x`` under hypothesis h."""

    model: tuple
    h: int
    a: float = 0.25
    mu: float = 0.1
    n_iters: int = 100
    trials: int = 10_000

    @property
    def tag(self) -> str:
        kind, par = self.model
        return f"ensemble_{kind}{par:g}_h{self.h}"


TRAJECTORY_MODEL = ("gaussian", 2.0)
TRAJECTORY_A = 0.75
TRAJECTORY_MU = 0.1
TRAJECTORY_STEPS = 3000
TRAJECTORY_TRIALS = 100
TRAJECTORY_NODE = 3
SCHEDULE = ((1, 0), (1001, 1), (2001, 0))
SCHEMES = ("one_bit_x", "quantized_state", "unquantized")

EXPONENTIAL_PAIRS = tuple(PairSpec(("exponential", 5.0), 0.5, 0.1, k)
                          for k in (3, 9))
# Node 9 at mu = 0.01 is left out: its analytic CDF is off the state by
# KS 0.032 under both hypotheses (see perfbench/README.md).
GAUSSIAN_PAIRS = tuple(PairSpec(("gaussian", rho), a, 0.1, k)
                       for rho in (0.1, 0.5, 1.0)
                       for a in (0.1, 0.25, 0.5)
                       for k in (3, 9)) + (PairSpec(("gaussian", 1.0), 0.5, 0.01, 3),)
SMALL_MU_HUB = PairSpec(("gaussian", 1.0), 0.5, 0.001, 3)
ENSEMBLES = tuple(EnsembleSpec(m, h) for m in (("gaussian", 1.0), ("exponential", 5.0))
                  for h in (0, 1))

REPEAT_MIN_S = 2.0
REPEAT_MAX = 25


def make_model(spec: tuple) -> ob.ObservationModel:
    kind, par = spec
    return ob.GaussianModel(par) if kind == "gaussian" else ob.ExponentialModel(par)


def pairs_of(workload: str, seed: int) -> tuple[PairSpec, ...]:
    """The workload's pairs in the order the seed gives them."""
    pairs = EXPONENTIAL_PAIRS if workload == "analytic_exponential" else GAUSSIAN_PAIRS
    order = np.random.default_rng([seed, 0]).permutation(len(pairs))
    return tuple(pairs[i] for i in order)


@dataclass
class Inputs:
    """Models and networks built in set-up, keyed by their description."""

    models: dict = field(default_factory=dict)
    networks: dict = field(default_factory=dict)

    def add(self, model_spec: tuple, a: float) -> None:
        if model_spec not in self.models:
            self.models[model_spec] = make_model(model_spec)
        if a not in self.networks:
            self.networks[a] = ob.build_uniform_matrix(ob.reference_topology(), a)


def build_inputs(workload: str, seed: int) -> Inputs:
    inputs = Inputs()
    if workload == "monte_carlo":
        for spec in ENSEMBLES:
            inputs.add(spec.model, spec.a)
        inputs.add(TRAJECTORY_MODEL, TRAJECTORY_A)
    else:
        for spec in pairs_of(workload, seed):
            inputs.add(spec.model, spec.a)
        if workload == "analytic_gaussian":
            inputs.add(SMALL_MU_HUB.model, SMALL_MU_HUB.a)
    return inputs


@dataclass
class OpRecord:
    name: str
    group: str
    seconds: float
    error: str | None = None


class Pass:
    """Runs operations back to back, recording time and failure of each."""

    def __init__(self, on_op=None):
        self.records: list[OpRecord] = []
        self.outputs: dict[str, np.ndarray] = {}
        self.objects: dict[str, object] = {}  # results kept for the checks
        self._on_op = on_op or (lambda name: None)

    def steps(self, steps):
        """Run (name, group, fn) steps in order; fn gets the previous result.

        After a step raises, it and every later step of the sequence count
        as failed, so each sequence is attempted whole.
        """
        value = None
        for i, (name, group, fn) in enumerate(steps):
            self._on_op(name)
            t0 = time.perf_counter()
            try:
                value = fn(value)
            except Exception as exc:  # an operation's failure is a result
                error = f"{type(exc).__name__}: {exc}"
                self.records.append(OpRecord(name, group, time.perf_counter() - t0, error))
                self.records += [OpRecord(n, g, 0.0, f"skipped after {name}")
                                 for n, g, _ in steps[i + 1:]]
                return None
            self.records.append(OpRecord(name, group, time.perf_counter() - t0))
        return value


def _pair_steps(p: Pass, spec: PairSpec, inputs: Inputs, full: bool = True):
    model = inputs.models[spec.model]
    net = inputs.networks[spec.a]
    tag = spec.tag

    def pair(_):
        cdfs = ob.steady_state_pair(model, net, spec.node, spec.mu)
        p.objects[tag] = cdfs
        return cdfs

    def gamma_grid(cdfs):
        return cdfs, ob.default_gamma_grid(*cdfs)

    def roc(prev):
        cdfs, grid = prev
        curve = ob.roc(*cdfs, grid, node=spec.node)
        p.outputs[f"{tag}/gammas"] = curve.gammas
        p.outputs[f"{tag}/pf"] = curve.pf
        p.outputs[f"{tag}/pd"] = curve.pd
        return cdfs

    def table(cdfs):
        ys, p.outputs[f"{tag}/cdf0"], p.outputs[f"{tag}/cdf1"], moments = cdf_table(*cdfs)
        p.outputs[f"{tag}/ys"] = ys
        p.outputs[f"{tag}/moments"] = np.array(moments)
        return cdfs

    steps = [(f"{tag}/pair", STEADY_STATE, pair)]
    if full:
        steps += [(f"{tag}/default_gamma_grid", DETECTION, gamma_grid),
                  (f"{tag}/roc", DETECTION, roc),
                  (f"{tag}/cdf_table", DETECTION, table)]
    return steps


def cdf_table(cdf0, cdf1):
    """Both CDFs on the 1,001-point grid that ``onebitnet cdf`` writes:
    mean +- 6 std of either hypothesis. Returns the grid, both columns and
    the moments (mean0, mean1, std0, std1)."""
    m0, m1, s0, s1 = cdf0.mean(), cdf1.mean(), cdf0.std(), cdf1.std()
    ys = np.linspace(min(m0 - 6 * s0, m1 - 6 * s1), max(m0 + 6 * s0, m1 + 6 * s1),
                     CDF_TABLE_POINTS)
    return ys, cdf0(ys), cdf1(ys), (m0, m1, s0, s1)


def run_analytic(p: Pass, workload: str, inputs: Inputs, seed: int) -> None:
    for spec in pairs_of(workload, seed):
        p.steps(_pair_steps(p, spec, inputs))


def run_small_mu_hub(p: Pass, inputs: Inputs) -> None:
    steps = _pair_steps(p, SMALL_MU_HUB, inputs, full=False)
    p.steps([("small_mu_hub_pair", EXTRA, steps[0][2])])


def ensemble_config(spec: EnsembleSpec, inputs: Inputs, seed: int, trials=None):
    return ob.SimConfig(network=inputs.networks[spec.a],
                        model=inputs.models[spec.model], mu=spec.mu,
                        n_iters=spec.n_iters, trials=trials or spec.trials,
                        scheme="one_bit_x", schedule=((1, spec.h),), seed=seed)


def trajectory_config(scheme: str, inputs: Inputs, seed: int):
    return ob.SimConfig(network=inputs.networks[TRAJECTORY_A],
                        model=inputs.models[TRAJECTORY_MODEL], mu=TRAJECTORY_MU,
                        n_iters=TRAJECTORY_STEPS, trials=TRAJECTORY_TRIALS,
                        scheme=scheme, schedule=SCHEDULE, seed=seed)


def trajectory(scheme: str, inputs: Inputs, seed: int):
    """Node-3 mean trajectory of one scheme and its two reaction times."""
    ens = ob.run(trajectory_config(scheme, inputs, seed),
                 trajectory_nodes=(TRAJECTORY_NODE,))
    traj = ens.trajectories[TRAJECTORY_NODE]
    switches = [s for s, _ in SCHEDULE[1:]]
    return traj, np.array([ob.reaction_time(traj, switches[0], post_end=switches[1] - 1),
                           ob.reaction_time(traj, switches[1])])


def run_monte_carlo(p: Pass, inputs: Inputs, seed: int) -> None:
    for spec in ENSEMBLES:
        def ensemble(_, spec=spec):
            p.outputs[spec.tag] = ob.run(ensemble_config(spec, inputs, seed)).terminal_states
        p.steps([(spec.tag, STEADY_STATE, ensemble)])
    for scheme in SCHEMES:
        def traj(_, scheme=scheme):
            p.outputs[f"trajectory_{scheme}"], p.outputs[f"reaction_{scheme}"] = \
                trajectory(scheme, inputs, seed)
        p.steps([(f"trajectory_{scheme}", DETECTION, traj)])


def replayable(p: Pass, workload: str, seed: int) -> dict:
    """What the detection steps need again: the pairs (by tag) whose steps
    all succeeded, or, on monte_carlo, nothing."""
    if workload == "monte_carlo":
        return {}
    return {s.tag: p.objects[s.tag] for s in pairs_of(workload, seed)
            if f"{s.tag}/cdf0" in p.outputs}


def detection_sample(workload: str, pairs: dict, inputs: Inputs, seed: int) -> float:
    """Time the detection steps once more: on deep copies of the pairs, or
    the trajectory runs of monte_carlo."""
    if workload == "monte_carlo":
        t0 = time.perf_counter()
        for scheme in SCHEMES:
            trajectory(scheme, inputs, seed)
        return time.perf_counter() - t0
    total = 0.0
    for spec in pairs_of(workload, seed):
        if spec.tag in pairs:
            cdfs = copy.deepcopy(pairs[spec.tag])
            t0 = time.perf_counter()
            ob.roc(*cdfs, ob.default_gamma_grid(*cdfs), node=spec.node)
            cdf_table(*cdfs)
            total += time.perf_counter() - t0
    return total


def detection_times(first: float, sample) -> list[float]:
    """``first``, then ``sample()`` until REPEAT_MIN_S is spent (at most
    REPEAT_MAX timings in all)."""
    times = [first]
    while sum(times) < REPEAT_MIN_S and len(times) < REPEAT_MAX:
        times.append(sample())
    return times


def per_use(records: list[OpRecord], workload: str) -> dict:
    """The pass's figures per use: analytic pairs, ROCs and CDF tables, or
    ensemble and trajectory throughput in trial-steps per second."""
    def seconds(*parts):
        return sum(r.seconds for r in records
                   if r.error is None and any(s in r.name for s in parts))

    def rate(work, t):
        return work / t if t else None

    if workload == "monte_carlo":
        ensemble_work = sum(e.trials * e.n_iters for e in ENSEMBLES)
        trajectory_work = len(SCHEMES) * TRAJECTORY_STEPS * TRAJECTORY_TRIALS
        return {"ensemble_trial_steps_per_s": rate(ensemble_work, seconds("ensemble_")),
                "trajectory_trial_steps_per_s": rate(trajectory_work, seconds("trajectory_"))}
    tables = sum(r.name.endswith("/cdf_table") and r.error is None for r in records)
    return {"cdf_pairs_s": seconds("/pair"),
            "roc_s": seconds("/default_gamma_grid", "/roc"),
            "cdf_eval_points_per_s": rate(2 * CDF_TABLE_POINTS * tables, seconds("/cdf_table"))}
