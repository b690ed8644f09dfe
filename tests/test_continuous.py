import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, norm

from onebitnet import (ExponentialModel, GaussianModel, cdf_u,
                       cdf_u_gaussian_closed, moments, phi_w_coefficients,
                       select_delta, tabulate_cdf_u)
from onebitnet.continuous import DeltaSelectionError, default_m_bar
from onebitnet.network import NodeParams
from onebitnet.simulate import ks_distance


def node_for(a, mu=0.1, k=0, n_nodes=2):
    c_row = np.zeros(n_nodes)
    c_row[(k + 1) % n_nodes] = 1.0 - a
    return NodeParams(k=k, a_k=a, mu=mu, eta=(1 - mu) * a, c_row=c_row)


def simulate_u(model, node, h, n_samples, seed):
    """Direct Monte Carlo of the geometric statistic sum, truncated where
    the memory factor has decayed below 1e-12."""
    n_terms = int(np.ceil(np.log(1e-12) / np.log(node.eta)))
    rng = np.random.default_rng(seed)
    total = np.zeros(n_samples)
    for i in range(n_terms):
        total += node.eta ** i * model.sample(h, rng, n_samples)
    return node.a_k * node.mu * total


class TestMoments:
    def test_gaussian_example(self, gauss1):
        node = node_for(0.5)
        mom = moments(gauss1, node, 1)
        np.testing.assert_allclose(mom.mean, 0.05 / 0.55, atol=1e-12)
        np.testing.assert_allclose(mom.variance, 0.0025 * 2 / (1 - 0.45 ** 2),
                                   atol=1e-12)
        np.testing.assert_allclose(mom.mean, 0.090909, atol=1e-6)
        np.testing.assert_allclose(mom.variance, 0.0062696, atol=1e-7)

    def test_zero_mean_statistic(self):
        class Centered(GaussianModel):
            def mean(self, h):
                return 0.0
        mom = moments(Centered(1.0), node_for(0.5), 1)
        assert mom.mean == 0.0

    def test_dispersion_shrinks_with_eta(self, expo5):
        disps = [moments(expo5, node_for(a), 1).dispersion
                 for a in (0.1, 0.3, 0.6, 0.9)]
        assert all(d2 < d1 for d1, d2 in zip(disps, disps[1:]))
        # second factor never exceeds one
        base = np.sqrt(expo5.variance(1)) / abs(expo5.mean(1))
        assert all(d <= base + 1e-12 for d in disps)

    def test_eta_one_rejected(self, gauss1):
        node = NodeParams(k=0, a_k=1.0, mu=0.5, eta=1.0, c_row=np.zeros(2))
        with pytest.raises(ValueError, match="gaussian-limit"):
            moments(gauss1, node, 0)

    def test_mc_agreement(self, expo5):
        node = node_for(0.5)
        mom = moments(expo5, node, 1)
        u = simulate_u(expo5, node, 1, 10 ** 6, seed=4)
        assert abs(u.mean() - mom.mean) < 4 * np.sqrt(mom.variance / len(u))
        assert abs(u.var() / mom.variance - 1) < 0.01


class TestPhiWCoefficients:
    def test_first_coefficient_gaussian(self, gauss1):
        node = node_for(0.5)
        coeffs = phi_w_coefficients(gauss1, node, 1, 3)
        np.testing.assert_allclose(coeffs[0], 1j / 0.55, atol=1e-12)
        np.testing.assert_allclose(coeffs[0], 1.8182j, atol=1e-4)

    def test_small_eta_reduces_to_model_coefficients(self, expo5):
        node = node_for(1e-9, mu=1 - 1e-9)  # eta ~ 1e-18
        coeffs = phi_w_coefficients(expo5, node, 1, 5)
        np.testing.assert_allclose(coeffs, expo5.phi_coeffs(5, 1), rtol=1e-12)

    @pytest.mark.parametrize("h", [0, 1])
    def test_functional_equation_partial_sums(self, expo5, h):
        # Phi_w(t) - Phi_w(eta t) = Phi_x(t) on |t| <= tau/2 with 60 terms
        node = node_for(0.5)
        coeffs = phi_w_coefficients(expo5, node, h, 60)
        tau = expo5.radius(h)
        t = np.linspace(-tau / 2, tau / 2, 21)
        m = np.arange(1, 61)
        phw = (t[:, None] ** m[None, :] * coeffs[None, :]).sum(axis=1)
        phw_eta = ((node.eta * t)[:, None] ** m[None, :] * coeffs[None, :]).sum(axis=1)
        np.testing.assert_allclose(phw - phw_eta, expo5.log_cf(t, h), atol=1e-8)

    def test_functional_equation_gaussian(self, gauss1):
        node = node_for(0.25)
        coeffs = phi_w_coefficients(gauss1, node, 1, 60)
        t = np.linspace(-3, 3, 13)
        m = np.arange(1, 61)
        phw = (t[:, None] ** m[None, :] * coeffs[None, :]).sum(axis=1)
        phw_eta = ((node.eta * t)[:, None] ** m[None, :] * coeffs[None, :]).sum(axis=1)
        np.testing.assert_allclose(phw - phw_eta, gauss1.log_cf(t, 1), atol=1e-8)

    def test_m_bar_rule(self):
        assert default_m_bar(0.45, 2e-5) == int(np.ceil(np.log(2e-5) / np.log(0.45)))
        assert default_m_bar(1e-6, 2e-5) == 1


class TestSelectDelta:
    def test_reference_point_frozen(self, expo5):
        # lower-bounded support: window edge pinned at the support infimum
        node = node_for(0.5)
        mom = moments(expo5, node, 0)
        d1 = 2 * np.pi / (np.log(5.0) / 0.55)          # u = 0 support-side bound
        d2 = 2 * np.pi * 0.05 / (np.sqrt(2 * mom.variance / 2e-5) + mom.mean)
        got = select_delta(expo5, node, 0, 0.0, 2e-5)
        np.testing.assert_allclose(got, min(d1, d2), rtol=1e-12)

    def test_below_support_only_upper_bound_binds(self, expo5):
        node = node_for(0.5)
        u_min = node.a_k * node.mu * (-np.log(5.0)) / (1 - node.eta)
        mom = moments(expo5, node, 0)
        got = select_delta(expo5, node, 0, u_min - 1.0, 2e-5)
        d2 = 2 * np.pi * 0.05 / (np.sqrt(2 * mom.variance / 2e-5)
                                 + mom.mean - (u_min - 1.0))
        np.testing.assert_allclose(got, d2, rtol=1e-12)

    def test_deep_upper_tail_raises(self, expo5):
        node = node_for(0.5)
        mom = moments(expo5, node, 0)
        deep = mom.mean + 2 * np.sqrt(2 * mom.variance / 2e-5)
        with pytest.raises(DeltaSelectionError, match="widen eps_prime"):
            select_delta(expo5, node, 0, deep, 2e-5)

    def test_gaussian_two_sided(self, gauss1):
        node = node_for(0.25)
        mom = moments(gauss1, node, 1)
        got = select_delta(gauss1, node, 1, mom.mean, 2e-5)
        spread = np.sqrt(2 * mom.variance / 2e-5)
        np.testing.assert_allclose(got, 2 * np.pi * 0.025 / spread, rtol=1e-12)


def gil_pelaez_quad(u, model, node, h):
    """High-precision inversion by adaptive quadrature (infinite-radius
    models only); independent oracle for the series path."""
    mean_w = model.mean(h) / (1 - node.eta)
    scale = node.mu * node.a_k
    x = u / scale

    def integrand(t):
        m = np.arange(1, 3)
        coeffs = model.phi_coeffs(2, h) / (1 - node.eta ** m)
        val = np.exp(np.sum(coeffs * t ** m) - 1j * t * x)
        return val.imag / t

    val, err = quad(integrand, 0, np.inf, limit=400)
    return 0.5 - val / np.pi


class TestCdfU:
    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5])
    def test_gaussian_series_matches_closed_form(self, gauss1, a):
        node = node_for(a)
        for h in (0, 1):
            mom = moments(gauss1, node, h)
            sd = np.sqrt(mom.variance)
            grid = np.linspace(mom.mean - 5 * sd, mom.mean + 5 * sd, 101)
            series = np.array([cdf_u(u, gauss1, node, h) for u in grid])
            closed = cdf_u_gaussian_closed(grid, gauss1, node, h)
            np.testing.assert_allclose(series, closed, atol=1e-4)

    def test_gaussian_quadrature_oracle(self, gauss1):
        node = node_for(0.25)
        mom = moments(gauss1, node, 1)
        sd = np.sqrt(mom.variance)
        for u in (mom.mean - 2 * sd, mom.mean, mom.mean + 1.3 * sd):
            ref = gil_pelaez_quad(u, gauss1, node, 1)
            np.testing.assert_allclose(cdf_u(u, gauss1, node, 1), ref, atol=1e-6)
            np.testing.assert_allclose(float(cdf_u_gaussian_closed(u, gauss1, node, 1)),
                                       ref, atol=1e-6)

    def test_closed_form_quantile_identity(self, gauss1):
        node = node_for(0.5)
        mom = moments(gauss1, node, 1)
        u = mom.mean + 1.96 * np.sqrt(mom.variance)
        np.testing.assert_allclose(float(cdf_u_gaussian_closed(u, gauss1, node, 1)),
                                   0.975, atol=1e-3)
        np.testing.assert_allclose(float(cdf_u_gaussian_closed(mom.mean, gauss1,
                                                               node, 1)), 0.5,
                                   atol=1e-12)

    def test_closed_form_rejects_other_models(self, expo5):
        with pytest.raises(TypeError):
            cdf_u_gaussian_closed(0.0, expo5, node_for(0.5), 0)

    def test_far_tails(self, expo5, gauss1):
        node = node_for(0.5)
        mom = moments(expo5, node, 1)
        sd = np.sqrt(mom.variance)
        assert cdf_u(mom.mean - 10 * sd, expo5, node, 1) <= 2e-5
        assert cdf_u(mom.mean + 500 * sd, expo5, node, 1) == 1.0
        assert cdf_u(moments(gauss1, node, 1).mean - 500 * np.sqrt(
            moments(gauss1, node, 1).variance), gauss1, node, 1) == 0.0

    @pytest.mark.parametrize("h,a", [(0, 0.5), (1, 0.25), (1, 0.5)])
    def test_exponential_vs_monte_carlo(self, expo5, h, a):
        node = node_for(a)
        mom = moments(expo5, node, h)
        sd = np.sqrt(mom.variance)
        table = tabulate_cdf_u(expo5, node, h, n_points=801)
        u = simulate_u(expo5, node, h, 10 ** 6, seed=9)
        # KS noise floor at 1e6 samples is ~0.0014
        assert ks_distance(u, table) <= 0.005
        # pointwise spot check at the mean
        emp = np.mean(u <= mom.mean)
        assert abs(cdf_u(mom.mean, expo5, node, h) - emp) < 0.004

    def test_monotone_and_bounded(self, expo5):
        node = node_for(0.25)
        mom = moments(expo5, node, 1)
        sd = np.sqrt(mom.variance)
        grid = np.linspace(mom.mean - 6 * sd, mom.mean + 6 * sd, 201)
        vals = np.array([cdf_u(u, expo5, node, 1) for u in grid])
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) >= -5 * 2e-5)


class TestDistributionalFixedPoint:
    def test_scaled_copy_plus_fresh_draw(self, expo5):
        # w equals (in distribution) eta * w + fresh statistic
        node = node_for(0.5)
        scale = node.a_k * node.mu
        u = simulate_u(expo5, node, 1, 10 ** 5, seed=12)
        w = u / scale
        rng = np.random.default_rng(13)
        w2 = node.eta * w + expo5.sample(1, rng, len(w))
        stat = ks_2samp(w, w2)
        assert stat.pvalue >= 0.01

    def test_non_gaussianity_of_exponential_component(self, expo5):
        # moment-matched normal is measurably wrong at moderate eta
        node = node_for(0.5)
        mom = moments(expo5, node, 1)
        sd = np.sqrt(mom.variance)
        grid = np.linspace(mom.mean - 4 * sd, mom.mean + 4 * sd, 101)
        table = tabulate_cdf_u(expo5, node, 1, n_points=801)
        gap = np.max(np.abs(table(grid) - norm.cdf(grid, mom.mean, sd)))
        assert gap > 0.01


class TestTabulation:
    def test_monotone_clamped_and_moments(self, expo5):
        node = node_for(0.25)
        table = tabulate_cdf_u(expo5, node, 1, n_points=1201)
        vals = table(table.grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] <= 2e-5 and vals[-1] >= 1 - 2e-5
        mom = moments(expo5, node, 1)
        mid = 0.5 * (table.grid[:-1] + table.grid[1:])
        w = np.diff(table.values)
        w = w / w.sum()
        num_mean = float(mid @ w)
        num_var = float(((mid - num_mean) ** 2) @ w)
        assert abs(num_mean - mom.mean) / abs(mom.mean) < 0.01
        assert abs(num_var / mom.variance - 1) < 0.01

    def test_out_of_range_queries(self, gauss1):
        node = node_for(0.25)
        table = tabulate_cdf_u(gauss1, node, 0, n_points=201)
        lo, hi = table.support
        assert table(lo - 1.0) == 0.0
        assert table(hi + 1.0) == 1.0
