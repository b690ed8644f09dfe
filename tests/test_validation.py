import numpy as np
import pytest
from scipy.stats import norm, skew

from onebitnet import ExponentialModel, GaussianModel
from onebitnet.models import normal_cdf
from onebitnet.simulate import SimConfig, run
from onebitnet.steady_state import state_cumulants
from onebitnet.validation import _result, edgeworth_cdf, limit_skewness
from tests.conftest import make_network


def message_kappa3(model, net, k, h, mu):
    """sum_l c_kl^3 p(1-p)(1-2p)(e_1-e_0)^3 / (1-eta^3) from the matrix row."""
    c = np.delete(net.A[k], k)
    eta = (1.0 - mu) * net.A[k, k]
    e0, e1 = model.message_values()
    p = model.p_d if h == 1 else model.p_f
    return (np.sum(c ** 3) * p * (1 - p) * (1 - 2 * p) * (e1 - e0) ** 3
            / (1.0 - eta ** 3))


class TestStateThirdCumulant:
    @pytest.mark.parametrize("h", [0, 1])
    def test_gaussian_own_term_vanishes(self, gauss1, h):
        # kappa_3 of a Gaussian statistic is 0: only the messages skew
        net = make_network(0.99)
        _, _, kappa3 = state_cumulants(gauss1, net, 3, h, 0.01)
        expected = message_kappa3(gauss1, net, 3, h, 0.01)
        # rho = 1: p_f = 1 - p_d = Phi(-sqrt(1/2)), e_1 - e_0 = 2, c = 0.002
        p = norm.cdf(np.sqrt(0.5) * (1 if h == 1 else -1))
        np.testing.assert_allclose(
            expected, 5 * 0.002 ** 3 * p * (1 - p) * (1 - 2 * p) * 8
            / (1 - 0.9801 ** 3), rtol=1e-12)
        assert expected != 0.0
        np.testing.assert_allclose(kappa3, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("h", [0, 1])
    @pytest.mark.parametrize("k", [3, 9])
    def test_exponential_own_term(self, expo5, h, k):
        # kappa_3 of an exponential with scale s_h is 2 s_h^3
        net = make_network(0.5)
        mu = 0.1
        a_k = net.self_weight(k)
        eta = (1.0 - mu) * a_k
        s_h = np.sqrt(expo5.variance(h))
        _, _, kappa3 = state_cumulants(expo5, net, k, h, mu)
        np.testing.assert_allclose(
            kappa3, 2.0 * s_h ** 3 * (mu * a_k) ** 3 / (1.0 - eta ** 3)
            + message_kappa3(expo5, net, k, h, mu), rtol=1e-12)

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


def test_figure_cdf_lines_report_table_error():
    # criterion 05's detail line carries each CDF's table_error, the bound
    # on the mixture table's distance to the direct mixture sum
    from onebitnet.steady_state import build_steady_state
    from onebitnet.validation import check_figure_cdfs
    results = check_figure_cdfs(quick=True, seed=0)
    ks = [r for r in results if r.name.startswith("steady_state/ks_")]
    paper = [r for r in results if r.name.startswith("steady_state/paper_sup_")]
    assert len(ks) == len(paper) == 4 and len(results) == 8
    # the paper's approximation is held to criterion 05's full-run bound
    assert all(r.tolerance == 0.02 and r.noise is None for r in paper)
    net = make_network(0.25)
    for res in ks:
        h, k = int(res.name.split("_h")[1][0]), int(res.name.rsplit("node", 1)[1])
        bound = build_steady_state(GaussianModel(1.0), net, k, h, 0.1).table_error
        assert f"table_error={bound:.2g}" in res.line()
        assert 0 < bound < 2e-5


@pytest.mark.parametrize("shift", [0, 1, -1])
def test_truncation_line_reads_omega_k(monkeypatch, shift):
    # criterion 03's truncation line holds production omega_k to its rule:
    # one digit more or fewer than the rule's omega fails it
    from onebitnet import discrete, validation

    def shifted(*args):
        return max(1, discrete.omega_k(*args) + shift)

    monkeypatch.setattr(validation, "omega_k", shifted)
    line = validation.check_table_oracle(quick=True)[2]
    assert line.name == "discrete/truncation_bound_violation"
    assert line.tolerance == 1e-12
    assert line.passed == (shift == 0)
    if shift:
        assert line.statistic > 0.5
