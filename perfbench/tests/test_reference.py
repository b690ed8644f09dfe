"""The reference computations against the closed forms and against run()."""
from math import sqrt

import numpy as np
import pytest

import onebitnet as ob

import checks
import reference as ref
from workloads import make_model

CONFIGS = [(("gaussian", 1.0), 0.5, 3), (("gaussian", 0.1), 0.25, 9),
           (("exponential", 5.0), 0.25, 3), (("exponential", 5.0), 0.5, 9)]


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75])
def test_uniform_weights_match_the_program(a):
    net = ob.build_uniform_matrix(ob.reference_topology(), a)
    assert np.array_equal(ref.uniform_weights(a), net.A)


@pytest.mark.parametrize("model", [("gaussian", 0.1), ("gaussian", 2.0), ("exponential", 5.0)])
def test_marginals_match_the_program(model):
    m = make_model(model)
    for h, p in ((0, m.p_f), (1, m.p_d)):
        mx = ref.marginal(model, h)
        assert mx.mean == pytest.approx(m.mean(h), rel=1e-12)
        assert mx.var == pytest.approx(m.variance(h), rel=1e-12)
        assert mx.p_one == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("model,a,k", CONFIGS)
@pytest.mark.parametrize("h", [0, 1])
def test_sampler_has_the_closed_form_moments(model, a, k, h):
    A = ref.uniform_weights(a)
    x = ref.sample_state(model, A, k, h, 0.1, 100_000, np.random.default_rng([7, k, h]))
    m, v = ref.steady_moments(model, A, k, h, 0.1)
    result = checks.check_sample("sampler", x, x, m, v)
    assert all(c.ok for c in result), [c.line() for c in result]
    # the closed forms themselves: the program's limit moments agree
    net = ob.build_uniform_matrix(ob.reference_topology(), a)
    m_prog, s_prog = ob.limit_moments(make_model(model), net, k, h, 0.1)
    assert m == pytest.approx(m_prog, rel=1e-12, abs=1e-15)
    assert sqrt(v) == pytest.approx(s_prog, rel=1e-12)


@pytest.mark.parametrize("model,a,k", CONFIGS[::2])
def test_sampler_matches_run_by_two_sample_ks(model, a, k):
    A = ref.uniform_weights(a)
    x = ref.sample_state(model, A, k, 1, 0.1, 100_000, np.random.default_rng(11))
    net = ob.build_uniform_matrix(ob.reference_topology(), a)
    ens = ob.run(ob.SimConfig(network=net, model=make_model(model), mu=0.1, n_iters=100,
                              trials=20_000, schedule=((1, 1),), seed=5))
    y = ens.terminal_states[:, k]
    assert checks.ks_two_sample(x, y) <= checks.ks_limit(x.size, y.size)
