"""Checks of one pass's outputs against the reference computations.

Runs in the pass's process after its timed operations, because an analytic
CDF has to be evaluated at the reference draws. Reference draws come from
``reference.sample_state`` with generators keyed by (seed, pair or
ensemble index), so a seed fixes them.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

import checks
import reference as ref
import workloads as wl

N_DRAWS = 100_000
KS_STRIDE = 10  # an analytic CDF is evaluated at every 10th sorted draw
CHUNK_TRIALS = 500  # trials re-run with another chunking
CHUNK_SIZE = 64
_EVAL_BLOCK = 4_000_000  # points x atoms per evaluation block


def eval_cdf(cdf, xs):
    """cdf(xs) in blocks, so a mixture with many atoms stays small."""
    atoms = cdf.pmf.size if getattr(cdf, "pmf", None) is not None else 1
    step = max(256, _EVAL_BLOCK // atoms)
    return np.concatenate([cdf(xs[i:i + step]) for i in range(0, xs.size, step)])


def _weights(a, network):
    A = ref.uniform_weights(a)
    same = np.array_equal(A, network.A)
    return A, checks.Check(f"network_a{a:g}/uniform_weights", same, 0.0 if same else 1.0, 0.0)


def verify_pair(spec, cdfs, outputs, rng, network):
    """Every check of one analytic CDF pair; ``outputs`` holds what the
    pass's steps stored under the pair's tag (a pair built alone has no
    table or ROC there, so its table is made here)."""
    tag = spec.tag
    A, net_check = _weights(spec.a, network)
    out = [net_check]
    if f"{tag}/cdf0" in outputs:
        tables = outputs[f"{tag}/cdf0"], outputs[f"{tag}/cdf1"]
        moments = outputs[f"{tag}/moments"]
    else:
        _, *tables, moments = wl.cdf_table(*cdfs)
    draws = []
    idx = checks.bracket_indices(N_DRAWS, KS_STRIDE)
    for h in (0, 1):
        x = np.sort(ref.sample_state(spec.model, A, spec.node, h, spec.mu, N_DRAWS, rng))
        draws.append(x)
        m, v = ref.steady_moments(spec.model, A, spec.node, h, spec.mu)
        out += checks.check_cdf(f"{tag}/h{h}", tables[h], eval_cdf(cdfs[h], x[idx]),
                                idx, N_DRAWS, moments[h], moments[2 + h], m, sqrt(v))
    if f"{tag}/pf" in outputs:
        out += checks.check_roc(f"{tag}/roc", outputs[f"{tag}/gammas"],
                                outputs[f"{tag}/pf"], outputs[f"{tag}/pd"], *draws)
    return out


def verify_analytic(workload, seed, p, inputs):
    specs = wl.EXPONENTIAL_PAIRS if workload == "analytic_exponential" else \
        wl.GAUSSIAN_PAIRS + (wl.SMALL_MU_HUB,)
    out = []
    for i, spec in enumerate(specs):
        if spec.tag in p.objects:  # a failed pair has nothing to check
            rng = np.random.default_rng([seed, 1, i])
            out += verify_pair(spec, p.objects[spec.tag], p.outputs, rng,
                               inputs.networks[spec.a])
    return out


def verify_monte_carlo(seed, p, inputs):
    import onebitnet as ob
    out = []
    for i, spec in enumerate(wl.ENSEMBLES):
        if spec.tag not in p.outputs:
            continue
        terminal = p.outputs[spec.tag]
        A, net_check = _weights(spec.a, inputs.networks[spec.a])
        out.append(net_check)
        rng = np.random.default_rng([seed, 2, i])
        for k in (3, 9):
            draws = ref.sample_state(spec.model, A, k, spec.h, spec.mu, N_DRAWS, rng)
            m, v = ref.steady_moments(spec.model, A, k, spec.h, spec.mu)
            out += checks.check_sample(f"{spec.tag}/node{k}", terminal[:, k], draws, m, v)
        rerun = ob.run(wl.ensemble_config(spec, inputs, seed, trials=CHUNK_TRIALS),
                       chunk_trials=CHUNK_SIZE)
        out += checks.check_same(f"{spec.tag}/chunking", rerun.terminal_states,
                                 terminal[:CHUNK_TRIALS])
    if all(f"trajectory_{s}" in p.outputs for s in wl.SCHEMES):
        out += verify_trajectories(p.outputs, inputs)
    return out


def verify_trajectories(outputs, inputs):
    A, net_check = _weights(wl.TRAJECTORY_A, inputs.networks[wl.TRAJECTORY_A])
    switches = [s for s, _ in wl.SCHEDULE[1:]]
    ends = switches + [wl.TRAJECTORY_STEPS + 1]
    levels, level_sd = {}, {}
    for (_, h), end in zip(wl.SCHEDULE, ends):
        m, v = ref.steady_moments(wl.TRAJECTORY_MODEL, A, wl.TRAJECTORY_NODE, h,
                                  wl.TRAJECTORY_MU)
        levels[end - 1], level_sd[end - 1] = m, sqrt(v / wl.TRAJECTORY_TRIALS)
    return [net_check] + checks.check_trajectories(
        {s: outputs[f"trajectory_{s}"] for s in wl.SCHEMES},
        {s: outputs[f"reaction_{s}"] for s in wl.SCHEMES},
        switches, wl.TRAJECTORY_STEPS, levels, level_sd)


def verify_pass(workload, seed, p, inputs):
    if workload == "monte_carlo":
        return verify_monte_carlo(seed, p, inputs)
    return verify_analytic(workload, seed, p, inputs)
