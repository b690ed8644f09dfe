import warnings

import numpy as np
import pytest
from scipy.stats import norm

from onebitnet import (EmpiricalCdf, ExponentialModel, GaussianModel, RocCurve,
                       SimConfig, build_steady_state, default_gamma_grid, empirical_roc,
                       pf_pd, roc, run, steady_state_pair, threshold_for_pf)
from tests.conftest import make_network


@pytest.fixture(scope="module")
def cdf_pair_g1():
    net = make_network(0.25)
    return steady_state_pair(GaussianModel(1.0), net, 3, 0.1)


class TestPfPd:
    def test_extreme_thresholds(self, cdf_pair_g1):
        cdf0, cdf1 = cdf_pair_g1
        pf, pd = pf_pd(cdf0, cdf1, -1e9)
        assert pf == pytest.approx(1.0) and pd == pytest.approx(1.0)
        pf, pd = pf_pd(cdf0, cdf1, 1e9)
        assert pf == pytest.approx(0.0) and pd == pytest.approx(0.0)

    def test_matches_monte_carlo(self):
        # analytical operating point vs 1e4-trial empirical rates
        model = GaussianModel(0.5)
        net = make_network(0.25)
        cdf0, cdf1 = steady_state_pair(model, net, 3, 0.1)
        pf_a, pd_a = pf_pd(cdf0, cdf1, 0.0)
        rates = {}
        for h in (0, 1):
            cfg = SimConfig(network=net, model=model, mu=0.1, n_iters=100,
                            trials=10 ** 4, schedule=((1, h),), seed=0)
            rates[h] = float(np.mean(run(cfg).terminal_states[:, 3] > 0.0))
        for ana, emp in ((pf_a, rates[0]), (pd_a, rates[1])):
            se = np.sqrt(max(emp * (1 - emp), 1e-6) / 10 ** 4)
            assert abs(ana - emp) < 3 * se + 0.01


class TestThresholdForPf:
    def test_continuous_cdf_hits_target(self):
        cdf0 = lambda g: norm.cdf(np.asarray(g))
        gammas = np.linspace(-5, 5, 2001)
        gamma_star, achieved = threshold_for_pf(cdf0, 0.1, gammas)
        assert achieved <= 0.1
        np.testing.assert_allclose(gamma_star, norm.ppf(0.9), atol=0.01)

    def test_jumpy_cdf_undershoots(self, cdf_pair_g1):
        # mixture CDFs plateau; the achieved rate may undershoot the target
        net = make_network(0.1)
        cdf0, cdf1 = steady_state_pair(GaussianModel(1.0), net, 9, 0.1)
        gammas = default_gamma_grid(cdf0, cdf1)
        target = 0.1
        gamma_star, achieved = threshold_for_pf(cdf0, target, gammas)
        assert achieved <= target
        # crossing the big jump near the lower message level undershoots
        assert achieved < target

    def test_unsorted_grid_gives_the_smallest_threshold(self, cdf_pair_g1):
        # on the a = 0.25 hub P_f(0) = 0.053 and P_f(5) ~ 0: both meet 0.1,
        # and 0 is the smaller threshold in either order
        cdf0 = cdf_pair_g1[0]
        assert 1.0 - cdf0(0.0) == pytest.approx(0.0531, abs=1e-4)
        for grid in ([5.0, 0.0], [0.0, 5.0], [5.0, -3.0, 0.0, 2.0]):
            assert threshold_for_pf(cdf0, 0.1, grid) == (0.0, 1.0 - cdf0(0.0))
        gammas = default_gamma_grid(*cdf_pair_g1)
        want = threshold_for_pf(cdf0, 0.1, gammas)
        shuffled = np.random.default_rng(5).permutation(gammas)
        assert threshold_for_pf(cdf0, 0.1, shuffled) == want
        assert threshold_for_pf(cdf0, 0.1, gammas[::-1]) == want

    def test_unreachable_target_raises(self):
        cdf0 = lambda g: np.zeros_like(np.asarray(g, dtype=float))
        with pytest.raises(ValueError, match="unreachable"):
            threshold_for_pf(cdf0, 0.1, np.linspace(0, 1, 5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_grid_raises(self):
        cdf0 = lambda g: norm.cdf(np.asarray(g))
        with pytest.raises(ValueError, match="at least one threshold"):
            threshold_for_pf(cdf0, 0.1, [])

    @pytest.mark.parametrize("target", [1.0, 1.5, 0.0, np.nan])
    def test_target_outside_unit_interval_raises(self, target):
        # a target of 1 or more would pass any grid
        cdf0 = lambda g: norm.cdf(np.asarray(g))
        with pytest.raises(ValueError, match=r"target_pf must be in \(0,1\)"):
            threshold_for_pf(cdf0, target, np.linspace(-5, 5, 11))

    def test_empirical_quantile_cross_check(self):
        model = GaussianModel(1.0)
        net = make_network(0.1)
        cdf0, cdf1 = steady_state_pair(model, net, 9, 0.1)
        gammas = default_gamma_grid(cdf0, cdf1, points=1001)
        gamma_star, achieved = threshold_for_pf(cdf0, 0.1, gammas)
        cfg = SimConfig(network=net, model=model, mu=0.1, n_iters=100,
                        trials=10 ** 4, schedule=((1, 0),), seed=0)
        emp_pf = float(np.mean(run(cfg).terminal_states[:, 9] > gamma_star))
        assert abs(emp_pf - achieved) < 0.015


class TestRoc:
    def test_identical_distributions_diagonal(self):
        cdf = lambda g: norm.cdf(np.asarray(g))
        gammas = np.linspace(-6, 6, 301)
        curve = roc(cdf, cdf, gammas)
        np.testing.assert_allclose(curve.pd, curve.pf, atol=1e-14)

    def test_endpoints_present(self, cdf_pair_g1):
        cdf0, cdf1 = cdf_pair_g1
        gammas = default_gamma_grid(cdf0, cdf1)
        curve = roc(cdf0, cdf1, gammas, node=3)
        assert curve.pf[0] >= 1 - 1e-4 and curve.pd[0] >= 1 - 1e-4
        assert curve.pf[-1] <= 1e-4 and curve.pd[-1] <= 1e-4

    def test_monotone_in_gamma(self, cdf_pair_g1):
        cdf0, cdf1 = cdf_pair_g1
        curve = roc(cdf0, cdf1, default_gamma_grid(cdf0, cdf1))
        assert np.all(np.diff(curve.pf) <= 1e-12)
        assert np.all(np.diff(curve.pd) <= 1e-12)

    def test_sharper_statistics_dominate(self):
        # larger divergence parameter lifts the whole curve
        net = make_network(0.25)
        pf_grid = np.linspace(0.02, 0.98, 33)
        pds = {}
        for rho in (0.1, 0.5):
            cdf0, cdf1 = steady_state_pair(GaussianModel(rho), net, 3, 0.1)
            curve = roc(cdf0, cdf1, default_gamma_grid(cdf0, cdf1), node=3)
            pds[rho] = curve.pd_at_pf(pf_grid)
        assert np.all(pds[0.5] >= pds[0.1] - 0.01)

    def test_hub_dominates_leaf(self):
        net = make_network(0.25)
        model = GaussianModel(0.5)
        pf_grid = np.linspace(0.02, 0.98, 33)
        pds = {}
        for k in (3, 9):
            cdf0, cdf1 = steady_state_pair(model, net, k, 0.1)
            curve = roc(cdf0, cdf1, default_gamma_grid(cdf0, cdf1), node=k)
            pds[k] = curve.pd_at_pf(pf_grid)
        assert np.all(pds[3] >= pds[9] - 0.01)

    def test_small_mu_hub_matches_dense_sum(self):
        # lambda_e = 8, a = 0.1, mu = 0.001 hub: the digits span millions of
        # u-table steps, so two digit levels of Binomial(5, p) move into the
        # head under h0 (36 atoms) and one under h1 (6 atoms; u's step is
        # eight times wider there). The ROC and the CDF are the dense sum
        # over every (threshold, atom) pair up to rounding
        cdf0, cdf1 = steady_state_pair(ExponentialModel(8.0), make_network(0.1),
                                       3, 0.001)
        assert (cdf0.pmf.size, cdf1.pmf.size) == (36, 6)
        gammas = default_gamma_grid(cdf0, cdf1)
        curve = roc(cdf0, cdf1, gammas)
        for cdf, rate in ((cdf0, curve.pf), (cdf1, curve.pd)):
            dense = cdf.cont(gammas[:, None] - cdf.pmf.points) @ cdf.pmf.probs
            np.testing.assert_allclose(rate, 1.0 - dense, rtol=0, atol=1e-13)
            knots = (cdf.pmf.points[:, None] + cdf.cont.grid[::50]).ravel()
            dense = cdf.cont(knots[:, None] - cdf.pmf.points) @ cdf.pmf.probs
            np.testing.assert_allclose(cdf(knots), dense, rtol=0, atol=1e-13)

    def test_empirical_roc_structure(self):
        rng = np.random.default_rng(0)
        s0 = rng.normal(0, 1, 5000)
        s1 = rng.normal(1, 1, 5000)
        gammas = np.linspace(-4, 5, 201)
        curve = empirical_roc(s0, s1, gammas)
        assert curve.source == "empirical"
        assert np.all(np.diff(curve.pf) <= 1e-12)
        ref = 1 - norm.cdf(gammas, 1, 1)
        assert np.max(np.abs(curve.pd - ref)) < 0.03

    def test_empirical_roc_is_one_minus_empirical_cdf(self):
        # tied samples, thresholds on and between the ties
        rng = np.random.default_rng(3)
        s0 = rng.integers(-3, 4, 501) * 0.1
        s1 = rng.integers(-1, 6, 333) * 0.1
        gammas = np.linspace(-0.5, 0.7, 25)
        curve = empirical_roc(s0, s1, gammas)
        np.testing.assert_array_equal(curve.pf, 1.0 - EmpiricalCdf(s0)(gammas))
        np.testing.assert_array_equal(curve.pd, 1.0 - EmpiricalCdf(s1)(gammas))

    @pytest.mark.parametrize("s0, s1", [([], [1.0]), ([0.0], [])], ids=["h0", "h1"])
    def test_empirical_roc_rejects_an_empty_ensemble(self, s0, s1):
        # its own error, without a division by zero or RocCurve's range check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="samples under both hypotheses"):
                empirical_roc(s0, s1, [0.0])

    @pytest.mark.parametrize("s0, s1, match", [
        ([0.0, np.nan], [1.0, 2.0], "sample without NaN"),
        ([0.0, 1.0], [np.nan, 2.0], "sample without NaN"),
        (np.zeros((3, 2)), [1.0, 2.0], r"1-D sample, got shape \(3, 2\)"),
    ], ids=["nan_h0", "nan_h1", "2d_h0"])
    def test_empirical_roc_rejects_a_bad_ensemble(self, s0, s1, match):
        # a NaN would count as above every threshold, so P_f would never reach 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"empirical CDF needs a {match}"):
                empirical_roc(s0, s1, [-5.0, 0.5, 1.5, 1e300])

    @pytest.mark.parametrize("gammas, pf, pd, match", [
        ([0.0, 2.0, 1.0], [0.9, 0.5, 0.1], [0.9, 0.5, 0.1], "strictly increasing"),
        ([0.0, 1.0, 1.0], [0.9, 0.5, 0.1], [0.9, 0.5, 0.1], "strictly increasing"),
        ([0.0, np.nan, 2.0], [0.9, 0.5, 0.1], [0.9, 0.5, 0.1], "strictly increasing"),
        ([0.0, 1.0], [0.5, -2e-12], [0.9, 0.5], r"pf outside \[0,1\]"),
        ([0.0, 1.0], [0.9, 0.5], [1 + 2e-12, 0.5], r"pd outside \[0,1\]"),
        ([0.0, 1.0], [np.inf, 0.5], [0.9, 0.5], r"pf outside \[0,1\]"),
        ([0.0, 1.0], [0.9, 0.5], [0.9, -np.inf], r"pd outside \[0,1\]"),
        ([0.0, 1.0, 2.0], [0.5, np.nan, 0.1], [0.9, 0.8, 0.7], r"pf outside \[0,1\]"),
        ([0.0, 1.0, 2.0], [0.5, 0.3, 0.1], [0.9, 0.8, np.nan], r"pd outside \[0,1\]"),
        ([0.0, 1.0], [0.2, 0.5], [0.9, 0.5], "pf must be nonincreasing"),
        ([0.0, 1.0], [0.9, 0.5], [0.5, 0.9], "pd must be nonincreasing"),
        ([0.0, 1.0], [0.9, 0.5, 0.1], [0.9, 0.5], "matching 1-D"),
        ([[0.0, 1.0]], [[0.9, 0.5]], [[0.9, 0.5]], "matching 1-D"),
    ], ids=["unsorted", "repeated", "nan_gamma", "pf_below", "pd_above", "pf_inf",
            "pd_minus_inf", "pf_nan", "pd_nan", "pf_increasing", "pd_increasing",
            "mismatched", "two_d"])
    def test_validation_rejects_bad_curves(self, gammas, pf, pd, match):
        # NaN fails every check, as the reductions are written
        with pytest.raises(ValueError, match=match):
            RocCurve(gammas=np.array(gammas), pf=np.array(pf), pd=np.array(pd))

    def test_validation_accepts_edge_curves(self):
        # infinite thresholds, rates within 1e-12 of [0, 1] (clipped) and
        # the empty curve all build
        curve = RocCurve(gammas=np.array([-np.inf, 0.0, np.inf]),
                         pf=np.array([1 + 1e-12, 0.5, -1e-12]),
                         pd=np.array([1.0, 0.7, 0.0]))
        assert curve.pf.tolist() == [1.0, 0.5, 0.0]
        empty = RocCurve(gammas=np.array([]), pf=np.array([]), pd=np.array([]))
        assert empty.pf.size == 0

    def test_empty_curve_has_no_pd_at_pf(self):
        empty = RocCurve(gammas=np.array([]), pf=np.array([]), pd=np.array([]))
        with pytest.raises(ValueError, match="the ROC curve is empty"):
            empty.pd_at_pf(0.3)


def loop_gamma_grid(cdf0, cdf1, points=241, span_stds=6.0, eps=2e-5):
    """``default_gamma_grid`` with each tail extension a loop of one-point
    queries."""
    pieces = []
    for cdf in (cdf0, cdf1):
        m, s = cdf.mean(), cdf.std()
        lo, hi = m - span_stds * s, m + span_stds * s
        for _ in range(40):
            if float(cdf(lo)) <= eps:
                break
            lo -= s
        for _ in range(40):
            if float(cdf(hi)) >= 1.0 - eps:
                break
            hi += s
        pieces.append(np.linspace(lo, hi, points))
        offs = np.array([-4.0, -2.0, 0.0, 2.0, 4.0]) * max(
            np.sqrt(cdf.cont.variance), 1e-12)
        pieces.append((cdf.pmf.points[:, None] + cdf.cont.mean + offs[None, :]).ravel())
    return np.unique(np.concatenate(pieces))


class TestGammaGrid:
    @pytest.mark.parametrize("case", ["gauss_one_atom", "expo_right_tail", "head_36_atoms"])
    def test_one_query_equals_the_loop(self, cdf_pair_g1, expo5, case):
        if case == "gauss_one_atom":
            pair = cdf_pair_g1
        elif case == "expo_right_tail":
            pair = steady_state_pair(expo5, make_network(0.9), 3, 0.5)
            # mean + 6 std leaves more than eps above it: the loop extends
            assert all(float(c(c.mean() + 6 * c.std())) < 1 - 2e-5 for c in pair)
        else:
            pair = steady_state_pair(ExponentialModel(8.0), make_network(0.1), 3, 0.001)
            assert pair[0].pmf.size == 36
        np.testing.assert_array_equal(default_gamma_grid(*pair), loop_gamma_grid(*pair))
        # a rule no candidate meets takes the 41st on both sides
        np.testing.assert_array_equal(default_gamma_grid(*pair, eps=-1.0),
                                      loop_gamma_grid(*pair, eps=-1.0))
