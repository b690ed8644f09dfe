import numpy as np
import pytest
from scipy.stats import norm, skew

from onebitnet import ExponentialModel, GaussianModel
from onebitnet.models import normal_cdf
from onebitnet.simulate import SimConfig, run
from onebitnet.validation import (_result, edgeworth_cdf,
                                  limit_skewness, state_third_cumulant)
from tests.conftest import make_network


class TestStateThirdCumulant:
    @pytest.mark.parametrize("h", [0, 1])
    def test_gaussian_own_term_vanishes(self, gauss1, h):
        cum = state_third_cumulant(gauss1, make_network(0.99), 3, h, 0.01)
        assert cum.own == 0.0
        assert cum.message != 0.0

    @pytest.mark.parametrize("h", [0, 1])
    @pytest.mark.parametrize("k", [3, 9])
    def test_exponential_own_term(self, expo5, h, k):
        net = make_network(0.5)
        mu = 0.1
        a_k = net.self_weight(k)
        eta = (1.0 - mu) * a_k
        s_h = np.sqrt(expo5.variance(h))
        cum = state_third_cumulant(expo5, net, k, h, mu)
        np.testing.assert_allclose(
            cum.own, 2.0 * s_h ** 3 * (mu * a_k) ** 3 / (1.0 - eta ** 3),
            rtol=1e-12)

    @pytest.mark.parametrize("h", [0, 1])
    def test_skew_matches_monte_carlo(self, expo5, h):
        net = make_network(0.5)
        trials = 20_000
        ens = run(SimConfig(network=net, model=expo5, mu=0.1, n_iters=100,
                            trials=trials, schedule=((1, h),), seed=0))
        gamma = limit_skewness(expo5, net, 9, h, 0.1)
        sample = skew(ens.terminal_states[:, 9])
        assert abs(sample - gamma) <= 3.0 * np.sqrt(6.0 / trials)


class TestEdgeworthCdf:
    def test_zero_skew_is_normal(self):
        z = np.linspace(-5, 5, 101)
        np.testing.assert_array_equal(edgeworth_cdf(0.0)(z), normal_cdf(z))

    def test_sup_gap_at_origin(self):
        # the correction term peaks in size at z = 0
        gamma = 0.3
        z = np.linspace(-6, 6, 12001)
        gap = np.max(np.abs(edgeworth_cdf(gamma)(z) - norm.cdf(z)))
        np.testing.assert_allclose(gap, gamma * norm.pdf(0.0) / 6.0, rtol=1e-6)
        assert np.all((edgeworth_cdf(5.0)(z) >= 0) & (edgeworth_cdf(5.0)(z) <= 1))


class TestCheckResult:
    def test_ks_noise_floor(self):
        res = _result("ks", 0.01, 0.02, "trials=10000", ks_draws=10 ** 4)
        assert res.noise == pytest.approx(0.01358, abs=1e-15)
        assert "noise=0.01358 trials=10000" in res.line()

    def test_no_noise_without_draws(self):
        res = _result("exact", 0.0, 1e-12)
        assert res.noise is None and "noise" not in res.line()
