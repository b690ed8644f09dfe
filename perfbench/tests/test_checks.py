"""Every correctness check passes on the program's answer and fails on a
wrong one."""
import numpy as np
import pytest

import onebitnet as ob

import checks
import reference as ref
import verify
import workloads as wl

SPEC = wl.PairSpec(("gaussian", 1.0), 0.5, 0.1, 9)
N = verify.N_DRAWS


@pytest.fixture(scope="module")
def pair():
    inputs = wl.Inputs()
    inputs.add(SPEC.model, SPEC.a)
    p = wl.Pass()
    p.steps(wl._pair_steps(p, SPEC, inputs))
    return p


@pytest.fixture(scope="module")
def draws():
    A = ref.uniform_weights(SPEC.a)
    rng = np.random.default_rng(3)
    return [np.sort(ref.sample_state(SPEC.model, A, SPEC.node, h, SPEC.mu, N, rng))
            for h in (0, 1)]


def cdf_checks(cdf, x, shift):
    idx = checks.bracket_indices(N, verify.KS_STRIDE)
    m, v = ref.steady_moments(SPEC.model, ref.uniform_weights(SPEC.a), SPEC.node, 1, SPEC.mu)
    ys = np.linspace(m - 6 * np.sqrt(v), m + 6 * np.sqrt(v), 1001)
    return {c.name.rpartition("/")[2]: c.ok for c in checks.check_cdf(
        "cdf", cdf(ys - shift), cdf(x[idx] - shift), idx, N,
        cdf.mean() + shift, cdf.std(), m, np.sqrt(v))}


def test_ks_upper_bounds_the_exact_distance(draws):
    from scipy.stats import norm
    x = draws[0]
    m, v = ref.steady_moments(SPEC.model, ref.uniform_weights(SPEC.a), SPEC.node, 0, SPEC.mu)
    f = norm.cdf(x, loc=m + 0.01, scale=np.sqrt(v))  # any continuous CDF
    i = np.arange(1, N + 1)
    exact = max(np.max(i / N - f), np.max(f - (i - 1) / N))
    idx = checks.bracket_indices(N, verify.KS_STRIDE)
    bound = checks.ks_upper(f[idx], idx, N)
    assert exact <= bound <= exact + 4 * verify.KS_STRIDE / N


def test_cdf_check_fails_when_shifted_by_half_a_std(pair, draws):
    cdf = pair.objects[SPEC.tag][1]
    assert all(cdf_checks(cdf, draws[1], 0.0).values())
    shifted = cdf_checks(cdf, draws[1], 0.5 * cdf.std())
    assert not shifted["ks_reference"] and not shifted["mean"]


def test_roc_check_fails_with_rates_swapped(pair, draws):
    out = pair.outputs
    g, pf, pd = out[f"{SPEC.tag}/gammas"], out[f"{SPEC.tag}/pf"], out[f"{SPEC.tag}/pd"]
    assert all(c.ok for c in checks.check_roc("roc", g, pf, pd, *draws))
    assert not any(c.ok for c in checks.check_roc("roc", g, pd, pf, *draws))


@pytest.fixture(scope="module")
def trajectories():
    inputs = wl.build_inputs("monte_carlo", 0)
    outputs = {}
    for scheme in wl.SCHEMES:
        outputs[f"trajectory_{scheme}"], outputs[f"reaction_{scheme}"] = \
            wl.trajectory(scheme, inputs, 0)
    return outputs, inputs


def test_trajectory_check_fails_with_schemes_swapped(trajectories):
    outputs, inputs = trajectories
    assert all(c.ok for c in verify.verify_trajectories(outputs, inputs))
    swapped = dict(outputs)
    for key in ("trajectory", "reaction"):
        swapped[f"{key}_one_bit_x"] = outputs[f"{key}_quantized_state"]
        swapped[f"{key}_quantized_state"] = outputs[f"{key}_one_bit_x"]
    result = {c.name: c.ok for c in verify.verify_trajectories(swapped, inputs)}
    assert not result["reaction/switch1001/one_bit_x_minus_quantized_state"]
    assert not result["reaction/switch2001/one_bit_x_minus_quantized_state"]


def test_chunk_check_fails_when_one_chunk_is_reseeded():
    inputs = wl.build_inputs("monte_carlo", 0)
    spec = wl.ENSEMBLES[0]
    trials = verify.CHUNK_TRIALS
    whole = ob.run(wl.ensemble_config(spec, inputs, 4, trials=trials)).terminal_states
    rerun = ob.run(wl.ensemble_config(spec, inputs, 4, trials=trials),
                   chunk_trials=verify.CHUNK_SIZE).terminal_states
    assert checks.check_same("chunks", rerun, whole)[0].ok
    other = ob.run(wl.ensemble_config(spec, inputs, 5, trials=2 * verify.CHUNK_SIZE)).terminal_states
    tampered = whole.copy()
    tampered[verify.CHUNK_SIZE:2 * verify.CHUNK_SIZE] = other[verify.CHUNK_SIZE:]
    assert not checks.check_same("chunks", rerun, tampered)[0].ok
