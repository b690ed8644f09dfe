import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, norm

from onebitnet import (ContinuousCdfTable, ExponentialModel, GaussianModel,
                       build_steady_state, build_uniform_matrix,
                       cdf_u_gaussian_closed, moments, reference_topology)
from onebitnet import continuous
from onebitnet.continuous import (InversionError, _lattice_cdf, _u_log_cf, cdf_u,
                                  geometric_log_cf, log_cf_w, tabulate_cdf_u)
from onebitnet.network import NodeParams
from onebitnet.simulate import ks_distance
from onebitnet.steady_state import _bit_cumulants, _bit_log_cf


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
    """Phi_w = log_cf_w, the log-CF of the geometric sum w."""

    def test_first_coefficient_gaussian(self, gauss1):
        # Phi_w(t) = j t E x / (1 - eta) - t^2 V x / (2 (1 - eta^2)) exactly
        node = node_for(0.5)
        t = np.linspace(-3, 3, 13)
        expected = 1j * t / 0.55 - t * t * 2.0 / (2 * (1 - 0.45 ** 2))
        np.testing.assert_allclose(log_cf_w(gauss1, node, 1, t), expected,
                                   rtol=1e-14, atol=1e-14)

    def test_small_eta_reduces_to_model_coefficients(self, expo5):
        node = node_for(1e-9, mu=1 - 1e-9)  # eta ~ 1e-18
        for h in (0, 1):
            t = np.linspace(-3, 3, 25) * expo5.radius(h)
            np.testing.assert_allclose(log_cf_w(expo5, node, h, t), expo5.log_cf(t, h),
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("h", [0, 1])
    def test_functional_equation_partial_sums(self, expo5, h):
        # Phi_w(t) - Phi_w(eta t) = Phi_x(t) on both sides of the radius
        node = node_for(0.5)
        tau = expo5.radius(h)
        t = np.linspace(-10 * tau, 10 * tau, 81)
        np.testing.assert_allclose(
            log_cf_w(expo5, node, h, t) - log_cf_w(expo5, node, h, node.eta * t),
            expo5.log_cf(t, h), atol=1e-8)

    def test_functional_equation_gaussian(self, gauss1):
        node = node_for(0.25)
        t = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(
            log_cf_w(gauss1, node, 1, t) - log_cf_w(gauss1, node, 1, node.eta * t),
            gauss1.log_cf(t, 1), atol=1e-12)

    @pytest.mark.parametrize("h", [0, 1])
    def test_log_cf_w_series_is_radius_scaled(self, expo5, h):
        # at eta = 0.9801 the old power series needed 540 terms and its
        # coefficients (4^n/n under h=1) overflowed; the explicit terms and
        # four-cumulant tail stay finite and keep the functional equation
        tau = expo5.radius(h)
        t = np.linspace(0.0, 3 * tau, 31)
        node = node_for(0.99, mu=0.01)
        got = log_cf_w(expo5, node, h, t)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got - log_cf_w(expo5, node, h, node.eta * t),
                                   expo5.log_cf(t, h), atol=1e-10)


def brute_geometric_sum(log_cf, kappa_1, eta, t):
    """sum_i log_cf(eta^i t) term by term until |eta^i t| < 1e-12 |t|, then
    the first cumulant's share j kappa_1 s / (1 - eta) of the rest."""
    s = np.array(t, dtype=complex)
    acc = np.zeros_like(s)
    top = np.max(np.abs(s))
    while np.max(np.abs(s)) >= 1e-12 * top:
        acc += log_cf(s)
        s = s * eta
    return acc + 1j * kappa_1 * s / (1 - eta)


ETAS = [0.09, 0.45, 0.9801, 0.992]


def oracle_arguments(tau):
    """Real t of both signs up to 10 tau (finely through the explicit
    terms' cutoff) and complex t inside and past the radius, 2j tau among
    them: a power series summed there, or at -3 tau, is far off."""
    real = np.concatenate((np.linspace(-10, 10, 401), np.geomspace(1e-3, 1, 200)))
    ring = np.outer(np.geomspace(0.01, 3, 40), np.exp(1j * np.linspace(0, 2 * np.pi, 24)))
    return tau * np.concatenate((real, -real, ring.ravel(), np.linspace(0, 10, 41) + 0.5j,
                                 [2j]))


class TestGeometricLogCf:
    """One routine sums log_cf(eta^i t) over i for the node's own statistic
    (log_cf_w) and for its neighbours' bits (``build_steady_state``'s
    digits); both agree
    with the term-by-term sum within 1e-8 at real and complex t."""

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("model_name", ["gauss", "expo"])
    def test_log_cf_w_matches_brute_force(self, gauss1, expo5, model_name, eta):
        model = gauss1 if model_name == "gauss" else expo5
        node = node_for(min(1.0, eta / 0.9), mu=1 - eta / min(1.0, eta / 0.9))
        assert node.eta == pytest.approx(eta, rel=1e-12)
        for h in (0, 1):
            tau = model.radius(h) if np.isfinite(model.radius(h)) else 1.0
            t = oracle_arguments(tau)
            ref = brute_geometric_sum(lambda s: model.log_cf(s, h),
                                      model.cumulants(h)[0], node.eta, t)
            np.testing.assert_allclose(log_cf_w(model, node, h, t), ref, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("p", [0.76, 0.13])
    def test_bit_sum_matches_brute_force(self, p, eta):
        def exact(x):
            return np.log(1 - p + p * np.exp(1j * x))
        kappa = _bit_cumulants(p)
        t = oracle_arguments(np.pi)
        ref = brute_geometric_sum(exact, p, eta, t)
        real = t.imag == 0
        got = geometric_log_cf(lambda x: _bit_log_cf(p, x), kappa, np.pi, eta, t[real].real)
        np.testing.assert_allclose(got, ref[real], rtol=0, atol=1e-8)
        # complex arguments take the complex log, inside and past the radius
        np.testing.assert_allclose(geometric_log_cf(exact, kappa, np.pi, eta, t), ref,
                                   rtol=0, atol=1e-8)

    def test_each_argument_stops_on_its_own(self, expo5):
        # an argument's explicit terms do not depend on the others in the call
        node = node_for(0.99, mu=0.01)
        t = expo5.radius(1) * np.array([0.02, 3.0, -0.5 + 0.1j, 10.0, 0.0])
        alone = [log_cf_w(expo5, node, 1, x)[0] for x in t]
        np.testing.assert_allclose(log_cf_w(expo5, node, 1, t), alone, rtol=0, atol=1e-14)

    def test_gaussian_is_the_tail_alone(self, gauss1):
        # an infinite radius takes no explicit term: the tail is exact
        calls = []

        def log_cf(s):
            calls.append(s)
            return gauss1.log_cf(s, 0)
        t = np.linspace(-50, 50, 11)
        got = geometric_log_cf(log_cf, gauss1.cumulants(0), np.inf, 0.992, t)
        assert not calls
        np.testing.assert_allclose(got, -1j * t / 0.008 - t * t / (1 - 0.992 ** 2),
                                   rtol=1e-13)


def count_lattice_calls(monkeypatch):
    """Record the arguments of every ``_lattice_cdf`` call."""
    calls = []
    real = continuous._lattice_cdf

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(continuous, "_lattice_cdf", spy)
    return calls


class TestSelectDelta:
    # the lattice series' frequency step follows from the table's knots
    def test_reference_point_frozen(self, expo5):
        # lower-bounded support: the range starts 2 std/1500 below the
        # support infimum and ends 12 std above the mean; 1,501 knots take
        # a 1,536-knot period, so delta = 2 pi / (1536 step)
        node = node_for(0.5)
        mom = moments(expo5, node, 0)
        sd = np.sqrt(mom.variance)
        lower = 0.05 * (-np.log(5.0)) / 0.55
        step = (mom.mean + 12 * sd - (lower - 2 * sd / 1500)) / 1500
        table = tabulate_cdf_u(expo5, node, 0)
        assert table.grid[0] == pytest.approx(lower - 2 * sd / 1500, rel=1e-12)
        np.testing.assert_allclose(table.delta, 2 * np.pi / (1536 * step), rtol=1e-12)

    def test_below_support_is_zero_without_step(self, expo5, monkeypatch):
        # below the table's range cdf_u reads 0 from the table alone: the
        # one series it runs is the table's own, on its range, with no
        # lattice shifted to the point
        node = node_for(0.5)
        u_min = node.a_k * node.mu * (-np.log(5.0)) / (1 - node.eta)
        table = tabulate_cdf_u(expo5, node, 0)
        calls = count_lattice_calls(monkeypatch)
        assert cdf_u(u_min - 1.0, expo5, node, 0) == 0.0
        assert [(c[1], c[3]) for c in calls] == [(table.grid[0], table.grid.size)]

    def test_deep_upper_tail_is_one_without_step(self, expo5, monkeypatch):
        node = node_for(0.5)
        mom = moments(expo5, node, 0)
        deep = mom.mean + 2 * np.sqrt(2 * mom.variance / 2e-5)
        table = tabulate_cdf_u(expo5, node, 0)
        calls = count_lattice_calls(monkeypatch)
        assert cdf_u(deep, expo5, node, 0) == 1.0
        assert [(c[1], c[3]) for c in calls] == [(table.grid[0], table.grid.size)]

    @pytest.mark.parametrize("u", [float("nan"), np.float64("nan")])
    def test_nan_reads_nan(self, expo5, u):
        # as the table itself reads it, not as a point below the support
        node = node_for(0.5)
        assert np.isnan(tabulate_cdf_u(expo5, node, 0)(u))
        got = cdf_u(u, expo5, node, 0)
        assert type(got) is float and math.isnan(got)

    def test_rejects_nonpositive_budget(self, expo5):
        for eps_prime in (0.0, -1e-5, np.nan):
            with pytest.raises(ValueError, match="eps_prime must be positive"):
                cdf_u(0.1, expo5, node_for(0.5), 1, eps_prime)
            with pytest.raises(ValueError, match="eps_prime must be positive"):
                tabulate_cdf_u(expo5, node_for(0.5), 1, eps_prime=eps_prime)

    @pytest.mark.parametrize("eps_prime", [np.inf, np.nan, 0.0, 1.0])
    def test_budget_outside_unit_interval_raises(self, expo5, eps_prime):
        # eps_prime = inf once gave a one-block table whose tail bound read 1.70
        net = build_uniform_matrix(reference_topology(), 0.5)
        with pytest.raises(ValueError, match="eps_prime must be positive and below 1"):
            tabulate_cdf_u(expo5, node_for(0.5), 1, eps_prime=eps_prime)
        with pytest.raises(ValueError, match="eps_prime must be positive and below 1"):
            build_steady_state(expo5, net, 3, 1, 0.1, eps_prime=eps_prime)


def gil_pelaez_quad(u, model, node, h):
    """High-precision inversion by adaptive quadrature (infinite-radius
    models only); independent oracle for the series path."""
    mean_w = model.mean(h) / (1 - node.eta)
    scale = node.mu * node.a_k
    x = u / scale

    def integrand(t):
        kappa = model.cumulants(h)[:2]
        log_cf = sum(k * (1j * t) ** r / (math.factorial(r) * (1 - node.eta ** r))
                     for r, k in enumerate(kappa, start=1))
        return np.exp(log_cf - 1j * t * x).imag / t

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
            # the lattice series tabulate_cdf_u runs for every model
            series = _lattice_cdf(_u_log_cf(gauss1, node, h), lo, (hi - lo) / 100, 101,
                                  2e-5)[0]
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
        table = tabulate_cdf_u(expo5, node, h)
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
        table = tabulate_cdf_u(expo5, node, 1)
        gap = np.max(np.abs(table(grid) - norm.cdf(grid, mom.mean, sd)))
        assert gap > 0.01


def hypoexponential_cdf(x, rates):
    """P(sum_i e_i / rates_i <= x) for unit exponentials e_i and distinct
    rates: 1 - sum_i C_i exp(-rates_i x), C_i = prod_{j != i} r_j/(r_j - r_i)."""
    r = np.asarray(rates, dtype=float)
    gap = r[None, :] - r[:, None]
    np.fill_diagonal(gap, 1.0)
    ratio = r[None, :] / gap
    np.fill_diagonal(ratio, 1.0)
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return 1.0 - np.exp(-np.outer(x, r)) @ ratio.prod(axis=1)


class TestTabulation:
    @pytest.mark.parametrize("lam", [5.0, 8.0])
    @pytest.mark.parametrize("a,mu", [(0.05, 0.1), (0.1, 0.1), (0.02, 0.5)])
    @pytest.mark.parametrize("h", [0, 1])
    def test_exponential_matches_hypoexponential(self, lam, a, mu, h):
        # an oracle with no Fourier method: u <= t iff
        # sum_i a mu s_h eta^i e_i <= t + a mu log(lambda_e) / (1 - eta), and
        # the first six digits' sum is hypoexponential; the omitted digits
        # add at most 5e-8 in state units at these small eta
        model, node = ExponentialModel(lam), node_for(a, mu=mu)
        table = tabulate_cdf_u(model, node, h)
        scale = a * mu * np.sqrt(model.variance(h))
        rates = 1.0 / (scale * node.eta ** np.arange(6))
        exact = hypoexponential_cdf(table.grid + a * mu * np.log(lam) / (1 - node.eta),
                                    rates)
        assert np.max(np.abs(table.values - exact)) <= 1e-5

    def test_monotone_clamped_and_moments(self, expo5):
        node = node_for(0.25)
        table = tabulate_cdf_u(expo5, node, 1)
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
        table = tabulate_cdf_u(gauss1, node, 0)
        lo, hi = table.support
        assert table(lo - 1.0) == 0.0
        assert table(hi + 1.0) == 1.0

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 2.0], [np.nan] * 3,
                                      [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_grid_must_increase_strictly(self, grid):
        # np.diff of a NaN grid is NaN, which "diff <= 0" lets through
        with pytest.raises(ValueError, match="strictly increasing"):
            ContinuousCdfTable(grid=grid, values=[0.0, 0.5, 1.0], mean=1.0, variance=1.0,
                               delta=1.0, terms=1, tail=0.0, ripple=0.0)


class TestGridEngine:
    def test_fft_length_matches_candidates_built_per_call(self):
        def per_call(n):
            return min(f << (-(-n // f) - 1).bit_length()
                       for f in (3 ** j * 5 ** k for j in range(12) for k in range(8)))

        for n in [*range(1, 5000), 2 ** 18, 2 ** 18 + 1, 10 ** 6 + 7, 3 ** 12, 5 ** 9,
                  2 ** 30 - 1, 2 ** 30]:
            assert continuous._fft_length(n) == per_call(n)

    def test_fft_length_for_every_n_up_to_2_20(self):
        # per_call above for every n at once: f 2^bit_length(ceil(n/f) - 1),
        # the bit length read off frexp's exponent (exact below 2^53)
        n = np.arange(1, 2 ** 20 + 1)
        best = np.full(n.size, np.iinfo(np.int64).max)
        for f in (3 ** j * 5 ** k for j in range(12) for k in range(8)):
            bits = np.frexp((-(-n // f) - 1).astype(float))[1]
            np.minimum(best, f << bits.astype(np.int64), out=best)
        assert [continuous._fft_length(k) for k in n.tolist()] == best.tolist()

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("h", [0, 1])
    def test_table_matches_pointwise_series(self, expo5, a, h):
        # cdf_u shifts the table's lattice so that its point is a knot: at
        # every 15th knot it reads the table, and half a step on it lies
        # between the two knots' values
        node = build_uniform_matrix(reference_topology(), a).node_params(3, 0.1)
        table = tabulate_cdf_u(expo5, node, h)
        step = table.grid[1] - table.grid[0]
        knots = table.grid[:-1:15]
        pointwise = np.array([cdf_u(u, expo5, node, h) for u in knots])
        assert np.max(np.abs(table.values[:-1:15] - pointwise)) <= 2e-5
        half = np.array([cdf_u(u + step / 2, expo5, node, h) for u in knots])
        assert np.all(half >= table.values[:-1:15] - 2e-5)
        assert np.all(half <= table.values[1::15] + 2e-5)
        assert table.terms > 0 and table.tail < 2e-5 / 20

    def test_non_finite_term_raises_on_table_path(self):
        class Overflowing(ExponentialModel):
            # a spectrum that overflows at large |t|, as a power series
            # evaluated past its radius would
            def log_cf(self, t, h):
                return super().log_cf(t, h) + np.where(
                    np.abs(np.asarray(t)) > 20 * self.radius(h), 800.0, 0.0)

        node = node_for(0.5)
        with pytest.raises(InversionError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            tabulate_cdf_u(Overflowing(5.0), node, 1)

    def test_diagnostics_recorded(self, expo5, gauss1):
        node = node_for(0.5)
        table = tabulate_cdf_u(expo5, node, 1)
        step = (table.grid[-1] - table.grid[0]) / 1500
        values, delta, terms, tail = _lattice_cdf(_u_log_cf(expo5, node, 1), table.grid[0],
                                                  step, 1501, 2e-5)
        assert (table.delta, table.terms, table.tail) == (delta, terms, tail)
        # 1,501 knots take a 1,536-knot period; delta steps u's own CF
        np.testing.assert_allclose(delta, 2 * np.pi / (1536 * step), rtol=1e-12)
        assert terms % 128 == 0 and 0 < tail < 2e-5 / 20
        drops = -np.diff(values)
        assert table.ripple == max(0.0, drops.max())
        # the Gaussian model's u takes the same series, normal to rounding
        normal = tabulate_cdf_u(gauss1, node, 1)
        step = (normal.grid[-1] - normal.grid[0]) / 1500
        np.testing.assert_allclose(normal.delta, 2 * np.pi / (1536 * step), rtol=1e-12)
        assert normal.terms % 128 == 0 and 0 < normal.tail < 2e-5 / 20
        np.testing.assert_allclose(normal.values, cdf_u_gaussian_closed(normal.grid, gauss1,
                                                                        node, 1),
                                   rtol=0, atol=1e-14)
        assert normal.ripple <= 1e-15

    def test_stop_rule_is_the_block_bound(self, gauss1):
        # u's Gaussian CF has |phi(t)| = exp(-var t^2 / 2), so every block's
        # (2/pi) sum |phi(omega_k)| / k is known in closed form. eps_prime
        # puts eps_prime/20 at 1.25 times block 6's bound: the series stops
        # there, and a rule scaled by 1.5 or more would run on
        node = node_for(0.5)
        mom = moments(gauss1, node, 1)
        step = np.sqrt(mom.variance)  # 1,501 knots: a 1,536-step period
        k = np.arange(1, 128 * 12 + 1)
        omega = 2 * np.pi / (1536 * step)
        bounds = (2 / np.pi) * (np.exp(-mom.variance * (omega * k) ** 2 / 2) / k
                                ).reshape(-1, 128).sum(axis=1)
        eps_prime = 20 * 1.25 * bounds[6]
        assert np.all(bounds[:6] >= 1.5 * 1.25 * bounds[6])
        _, _, terms, tail = _lattice_cdf(_u_log_cf(gauss1, node, 1),
                                         mom.mean - 750 * step, step, 1501, eps_prime)
        assert terms == 7 * 128
        np.testing.assert_allclose(tail, bounds[6], rtol=1e-12)
