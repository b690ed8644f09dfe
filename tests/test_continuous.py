import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, norm

from onebitnet import (ExponentialModel, GaussianModel, build_uniform_matrix,
                       cdf_u, cdf_u_gaussian_closed, cdf_u_grid, moments,
                       phi_w_coefficients, reference_topology, tabulate_cdf_u)
from onebitnet.continuous import InversionError, _chirp_z, default_m_bar
from onebitnet.network import NodeParams
from onebitnet.simulate import ks_distance


def node_for(a, mu=0.1, k=0, n_nodes=2):
    c_row = np.zeros(n_nodes)
    c_row[(k + 1) % n_nodes] = 1.0 - a
    return NodeParams(k=k, a_k=a, mu=mu, c_row=c_row)


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


def grid_step(model, node, h, u):
    """The step delta cdf_u_grid chooses for the one-point grid at u."""
    return cdf_u_grid(u, u, 1, model, node, h, 2e-5).delta


class TestSelectDelta:
    # the aliasing window cdf_u_grid places: the upper edge is Chebyshev's,
    # the lower edge the support infimum (or the mirrored Chebyshev edge)
    def test_reference_point_frozen(self, expo5):
        # lower-bounded support: window edge pinned at the support infimum
        node = node_for(0.5)
        mom = moments(expo5, node, 0)
        d1 = 2 * np.pi / (np.log(5.0) / 0.55)          # u = 0 support-side bound
        d2 = 2 * np.pi * 0.05 / (np.sqrt(2 * mom.variance / 2e-5) + mom.mean)
        np.testing.assert_allclose(grid_step(expo5, node, 0, 0.0), min(d1, d2),
                                   rtol=1e-12)

    def test_below_support_is_zero_without_step(self, expo5):
        node = node_for(0.5)
        u_min = node.a_k * node.mu * (-np.log(5.0)) / (1 - node.eta)
        inv = cdf_u_grid(u_min - 1.0, u_min - 1.0, 1, expo5, node, 0, 2e-5)
        assert inv.values.tolist() == [0.0] and np.isnan(inv.delta)
        assert (inv.terms, inv.tail) == (0, 0.0)

    def test_deep_upper_tail_is_one_without_step(self, expo5):
        node = node_for(0.5)
        mom = moments(expo5, node, 0)
        deep = mom.mean + 2 * np.sqrt(2 * mom.variance / 2e-5)
        inv = cdf_u_grid(deep, deep, 1, expo5, node, 0, 2e-5)
        assert inv.values.tolist() == [1.0] and np.isnan(inv.delta)
        assert (inv.terms, inv.tail) == (0, 0.0)

    def test_gaussian_two_sided(self, gauss1):
        node = node_for(0.25)
        mom = moments(gauss1, node, 1)
        spread = np.sqrt(2 * mom.variance / 2e-5)
        np.testing.assert_allclose(grid_step(gauss1, node, 1, mom.mean),
                                   2 * np.pi * 0.025 / spread, rtol=1e-12)

    def test_rejects_nonpositive_budget(self, expo5):
        for eps_prime in (0.0, -1e-5, np.nan):
            with pytest.raises(ValueError, match="eps_prime must be positive"):
                cdf_u_grid(0.0, 0.1, 3, expo5, node_for(0.5), 1, eps_prime)

    @pytest.mark.parametrize("model_name", ["gauss", "expo"])
    def test_grid_step_is_the_smaller_end_step(self, gauss1, expo5, model_name):
        # the window shrinks toward both ends, so a grid's one step is the
        # smaller of its two extreme points' own steps, bit for bit
        model = gauss1 if model_name == "gauss" else expo5
        node = node_for(0.5)
        for h in (0, 1):
            mom = moments(model, node, h)
            sd = np.sqrt(mom.variance)
            for lo, hi in ((-1, 3), (-0.5, 40), (-1, 0.5)):
                lo, hi = mom.mean + lo * sd, mom.mean + hi * sd
                assert cdf_u_grid(lo, hi, 2, model, node, h, 2e-5).delta == min(
                    grid_step(model, node, h, lo), grid_step(model, node, h, hi))


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
            lo, hi = mom.mean - 5 * sd, mom.mean + 5 * sd
            # the grid engine tabulate_cdf_u runs for non-Gaussian models
            series = cdf_u_grid(lo, hi, 101, gauss1, node, h).values
            closed = cdf_u_gaussian_closed(np.linspace(lo, hi, 101), gauss1, node, h)
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


class TestGridEngine:
    @pytest.mark.parametrize("n,m", [(200, 30), (30, 200), (50, 2)])
    def test_chirp_z_matches_direct_sum(self, n, m):
        rng = np.random.default_rng(n + m)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta = 0.013
        direct = (x[None, :] * np.exp(-1j * theta * np.outer(np.arange(m),
                                                             np.arange(n)))).sum(axis=1)
        np.testing.assert_allclose(_chirp_z(x, theta, m), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("h", [0, 1])
    def test_table_matches_pointwise_series(self, expo5, a, h):
        # one delta and one chirp-z sum per table against a per-point delta
        # and per-point sum, on every 15th point of the table's own grid
        node = build_uniform_matrix(reference_topology(), a).node_params(3, 0.1)
        table = tabulate_cdf_u(expo5, node, h)
        pointwise = np.array([cdf_u(u, expo5, node, h) for u in table.grid[::15]])
        assert np.max(np.abs(table.values[::15] - pointwise)) <= 2e-5
        assert table.terms > 0 and table.tail < 2e-5 / 20
        assert table.delta <= grid_step(expo5, node, h, table.grid[1])

    def test_non_finite_term_raises_on_table_path(self):
        class Overflowing(ExponentialModel):
            # a spectrum that overflows at large t, as a power series
            # evaluated past its radius would
            def log_cf(self, t, h):
                return super().log_cf(t, h) + np.where(
                    np.asarray(t) > 20 * self.radius(h), 800.0, 0.0)

        node = node_for(0.5)
        with pytest.raises(InversionError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            tabulate_cdf_u(Overflowing(5.0), node, 1)

    def test_diagnostics_recorded(self, expo5, gauss1):
        node = node_for(0.5)
        table = tabulate_cdf_u(expo5, node, 1, n_points=401)
        inv = cdf_u_grid(table.grid[0], table.grid[-1], 401, expo5, node, 1)
        assert (table.delta, table.terms, table.tail) == (inv.delta, inv.terms,
                                                          inv.tail)
        drops = -np.diff(inv.values)
        assert table.ripple == max(0.0, drops.max())
        closed = tabulate_cdf_u(gauss1, node, 1, n_points=401)
        assert closed.terms == 0 and closed.tail == 0.0 and np.isnan(closed.delta)
        assert closed.ripple == 0.0
