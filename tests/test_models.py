import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from onebitnet import (ExponentialModel, GaussianModel, build_uniform_matrix,
                       cumulant_check, make_step)
from onebitnet.models import CUMULANT_ORDER, normal_cdf
from onebitnet.steady_state import _bit_cumulants

LOG5 = np.log(5.0)


def test_normal_cdf_matches_scipy():
    x = np.linspace(-40, 40, 8001)
    ref = norm.cdf(x)
    got = normal_cdf(x)
    np.testing.assert_allclose(got, ref, rtol=0, atol=2.3e-16)
    # relative accuracy in the lower tail, down to the smallest normal double;
    # below it (x < -37.5) scipy's erfc underflows to 0 before math.erfc does
    left = (x < -3) & (ref >= np.finfo(float).tiny)
    np.testing.assert_allclose(got[left], ref[left], rtol=1e-12, atol=0)
    assert normal_cdf(0.0) == 0.5
    # exactly Phi(x) = erfc(-x / sqrt 2) / 2 per element, special values included
    x = np.concatenate((x, [0.0, -0.0, np.inf, -np.inf, np.nan]))
    exact = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()]
    assert normal_cdf(x).tobytes() == np.array(exact).tobytes()
    # shapes: 0-d in, 0-d out; 2-D in, 2-D out
    assert normal_cdf(np.float64(1.5)).shape == ()
    assert normal_cdf(1.5) == 0.5 * math.erfc(-1.5 / math.sqrt(2.0))
    grid = x[:12].reshape(3, 4)
    assert normal_cdf(grid).shape == (3, 4)
    np.testing.assert_array_equal(normal_cdf(grid), normal_cdf(grid.ravel()).reshape(3, 4))
    for model in (GaussianModel(1.0), GaussianModel(0.1)):
        assert type(model.p_d) is float and type(model.p_f) is float


class TestGaussianModel:
    def test_moment_readoffs(self, gauss1):
        assert gauss1.mean(1) == 1.0
        assert gauss1.mean(0) == -1.0
        assert gauss1.variance(0) == gauss1.variance(1) == 2.0

    def test_marginal_probabilities_rho1(self, gauss1):
        # p_d = Phi(sqrt(rho/2)) and the symmetric identity p_d = 1 - p_f
        assert abs(gauss1.p_d - 0.76) < 0.005
        np.testing.assert_allclose(gauss1.p_d, 1.0 - gauss1.p_f, atol=1e-15)
        np.testing.assert_allclose(gauss1.p_d, norm.cdf(np.sqrt(0.5)), atol=1e-12)

    def test_marginal_probability_rho2(self):
        model = GaussianModel(2.0)
        np.testing.assert_allclose(model.p_d, norm.cdf(1.0), atol=1e-12)
        rng = np.random.default_rng(0)
        x = model.sample(1, rng, 10 ** 6)
        se = np.sqrt(model.p_d * (1 - model.p_d) / len(x))
        assert abs(np.mean(x >= 0) - model.p_d) < 4 * se

    def test_log_cf_is_quadratic(self, gauss1):
        t = np.linspace(-3, 3, 7)
        expected = 1j * t * 1.0 - t * t * 1.0
        np.testing.assert_allclose(gauss1.log_cf(t, 1), expected, atol=1e-15)
        # kappa_3 = ... = kappa_12 = 0: the cumulant tail is the whole log-CF
        assert gauss1.cumulants(0) == (-1.0, 2.0) + (0.0,) * 10
        assert gauss1.radius(0) == np.inf

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            GaussianModel(0.0)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_nonfinite_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            GaussianModel(rho)


class TestSampling:
    """sample() is the affine map of standard() that numpy's own samplers
    round, bit for bit."""

    @pytest.mark.parametrize("size", [None, 7, (30, 10)], ids=["none", "int", "tuple"])
    @pytest.mark.parametrize("h", [0, 1])
    @pytest.mark.parametrize("model", [GaussianModel(1.0), GaussianModel(0.37),
                                       ExponentialModel(5.0), ExponentialModel(1.3)],
                             ids=repr)
    def test_sample_is_shift_plus_scale_standard(self, model, h, size):
        scale, shift = model.affine(h)
        got = model.sample(h, np.random.default_rng(3), size)
        z = model.standard(np.random.default_rng(3),
                           np.empty(() if size is None else size))
        rng = np.random.default_rng(3)
        if isinstance(model, GaussianModel):
            assert (scale, shift) == (math.sqrt(2.0 * model.rho), model.mean(h))
            numpy_draws = rng.normal(model.mean(h), math.sqrt(2.0 * model.rho), size)
        else:
            s_h = model.lambda_e - 1.0 if h == 1 else 1.0 - 1.0 / model.lambda_e
            assert (scale, shift) == (s_h, -math.log(model.lambda_e))
            numpy_draws = rng.exponential(s_h, size) - math.log(model.lambda_e)
        assert type(got) is (float if size is None else np.ndarray)
        assert np.shape(got) == np.shape(numpy_draws)
        for want in (shift + scale * z, numpy_draws):
            np.testing.assert_array_equal(np.asarray(got, float).view(np.uint64),
                                          np.asarray(want, float).view(np.uint64))

    @pytest.mark.parametrize("model", [GaussianModel(1.0), ExponentialModel(5.0)],
                             ids=repr)
    def test_standard_fills_and_returns_out(self, model):
        out = np.full((4, 3), np.nan)
        assert model.standard(np.random.default_rng(5), out) is out
        ref = np.random.default_rng(5)
        want = (ref.standard_normal((4, 3)) if isinstance(model, GaussianModel)
                else ref.standard_exponential((4, 3)))
        np.testing.assert_array_equal(out, want)


class TestExponentialModel:
    def test_moments_lambda5(self, expo5):
        np.testing.assert_allclose(expo5.mean(0), 0.8 - LOG5, atol=1e-14)
        np.testing.assert_allclose(expo5.mean(1), 4.0 - LOG5, atol=1e-14)
        np.testing.assert_allclose(expo5.mean(0), -0.80944, atol=5e-6)
        np.testing.assert_allclose(expo5.mean(1), 2.39056, atol=5e-6)
        assert expo5.variance(0) == pytest.approx(0.64, abs=1e-14)
        # variance consistent with the H1 density / log-CF: (lambda_e - 1)^2
        assert expo5.variance(1) == pytest.approx(16.0, abs=1e-12)

    def test_marginal_probabilities(self, expo5):
        np.testing.assert_allclose(expo5.p_f, 5.0 ** -1.25, atol=1e-15)
        np.testing.assert_allclose(expo5.p_d, 5.0 ** -0.25, atol=1e-15)
        assert abs((1 - expo5.p_f) - 0.87) < 0.005
        assert abs(expo5.p_d - 0.67) < 0.005

    def test_probabilities_match_density_integrals(self, expo5):
        # independent oracle: integrate the shifted-exponential densities
        from scipy.integrate import quad
        for h, scale, expected in ((0, 0.8, expo5.p_f), (1, 4.0, expo5.p_d)):
            def density(x):
                return np.exp(-(x + LOG5) / scale) / scale
            val, err = quad(density, 0, np.inf)
            np.testing.assert_allclose(val, expected, atol=1e-10)

    def test_radii_and_support(self, expo5):
        assert expo5.radius(0) == pytest.approx(1.25)
        assert expo5.radius(1) == pytest.approx(0.25)
        assert expo5.support_lower(0) == pytest.approx(-LOG5)

    def test_coefficients(self, expo5):
        # kappa_r = (r-1)! s^r past the mean, s = 0.8 under h=0 and 4 under h=1
        np.testing.assert_allclose(expo5.cumulants(0)[:4],
                                   (0.8 - LOG5, 0.64, 1.024, 2.4576), rtol=1e-14)
        np.testing.assert_allclose(expo5.cumulants(1)[:4],
                                   (4.0 - LOG5, 16.0, 128.0, 1536.0), rtol=1e-14)
        # twelve in all, kappa_12 = 11! s^12
        for h, s in ((0, 0.8), (1, 4.0)):
            kappa = expo5.cumulants(h)
            assert len(kappa) == CUMULANT_ORDER == 12
            np.testing.assert_allclose(kappa[1:], [math.factorial(r - 1) * s ** r
                                                   for r in range(2, 13)], rtol=1e-14)

    def test_coefficient_root_test(self, expo5):
        # the radius 1/limsup |phi_n|^(1/n) is the distance to log_cf's one
        # singularity, t = -j radius: there log_cf(t) = -tau (1-e) log 5 - log e
        # at t = -j tau (1-e), while the whole circle just inside is finite
        for h in (0, 1):
            tau = expo5.radius(h)
            for e in (1e-3, 1e-6):
                np.testing.assert_allclose(expo5.log_cf(-1j * tau * (1 - e), h),
                                           -tau * (1 - e) * LOG5 - np.log(e), atol=1e-8)
            circle = tau * (1 - 1e-6) * np.exp(1j * np.linspace(0, 2 * np.pi, 1001))
            vals = expo5.log_cf(circle, h)
            assert np.all(np.isfinite(vals)) and np.abs(vals).max() < 15

    def test_sampling_moments(self, expo5):
        rng = np.random.default_rng(1)
        for h in (0, 1):
            x = expo5.sample(h, rng, 10 ** 6)
            se_mean = np.sqrt(expo5.variance(h) / len(x))
            assert abs(x.mean() - expo5.mean(h)) < 4 * se_mean
            assert abs(x.var() / expo5.variance(h) - 1) < 0.01
            assert x.min() >= -LOG5

    def test_bit_rates(self, expo5):
        rng = np.random.default_rng(2)
        for h, p in ((0, expo5.p_f), (1, expo5.p_d)):
            x = expo5.sample(h, rng, 10 ** 6)
            se = np.sqrt(p * (1 - p) / len(x))
            assert abs(np.mean(x >= 0) - p) < 4 * se

    def test_llr_shift_property(self, expo5):
        # log-CF under H1 equals the H0 log-CF shifted by -j
        t = np.linspace(-0.2, 0.2, 9)
        np.testing.assert_allclose(expo5.log_cf(t, 1),
                                   expo5.log_cf(t - 1j, 0), atol=1e-12)

    def test_real_arguments_take_real_arithmetic(self, expo5):
        # -log1p((s t)^2)/2 + j (arctan(s t) - t log 5) is the complex log's value
        t = np.concatenate((-np.geomspace(1e-6, 1e4, 60), [0.0], np.geomspace(1e-6, 1e4, 60)))
        for h in (0, 1):
            np.testing.assert_allclose(expo5.log_cf(t, h), expo5.log_cf(t + 0j, h),
                                       rtol=1e-15, atol=1e-15)
            assert expo5.log_cf([0.5, 2.0], h).shape == (2,)
            assert expo5.log_cf(0.5, h) == pytest.approx(expo5.log_cf(0.5 + 0j, h), rel=1e-15)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ExponentialModel(1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_nonfinite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda_e must exceed 1 and be finite"):
            ExponentialModel(lam)


class TestImmutability:
    @pytest.mark.parametrize("model,name", [
        (GaussianModel(1.0), "rho"),
        (ExponentialModel(5.0), "lambda_e"),
        (ExponentialModel(5.0), "_log_lam"),
        (GaussianModel(1.0), "extra"),
    ])
    def test_assignment_and_deletion_raise(self, model, name):
        before = repr(model)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(model, name, 2.0)
        if hasattr(model, name):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(model, name)
        assert repr(model) == before

    @pytest.mark.parametrize("model", [GaussianModel(0.5), ExponentialModel(3.0)])
    def test_copies_and_pickles(self, model):
        t = np.linspace(0.0, 0.2, 5)
        for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert type(twin) is type(model) and repr(twin) == repr(model)
            assert vars(twin) == vars(model)
            np.testing.assert_array_equal(twin.log_cf(t, 1), model.log_cf(t, 1))
            with pytest.raises(AttributeError, match="immutable"):
                twin.rho = 1.0


def sent_levels(model, xs):
    """Levels node 0 sends to node 1 through the production update kernel.

    Two nodes with self-weight 1/2 start at rest and node 1 observes 0, so
    node 1's next state is exactly half of node 0's one-bit message.
    """
    step = make_step(build_uniform_matrix([{0, 1}, {0, 1}], 0.5), model, 0.1)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    x = np.column_stack([xs, np.zeros_like(xs)])
    return step(np.zeros_like(x), x[None])[0, :, 1] / 0.5


class TestQuantizer:
    def test_gaussian_positive(self, gauss1):
        assert sent_levels(gauss1, 0.3)[0] == 1.0

    def test_gaussian_negative(self, gauss1):
        assert sent_levels(gauss1, -0.3)[0] == -1.0

    def test_exponential_negative(self, expo5):
        np.testing.assert_allclose(sent_levels(expo5, -1.0)[0], 0.8 - LOG5,
                                   atol=1e-14)

    def test_bit_value_consistency(self, gauss1, expo5):
        for model in (gauss1, expo5):
            e0, e1 = model.message_values()
            xs = np.array([-2.0, -0.1, 0.0, 0.4, 3.0])
            vals = sent_levels(model, xs)
            bits = np.where(xs >= 0.0, 1, -1)
            np.testing.assert_array_equal(vals == e1, bits == 1)
            # normalized symbol definition
            b = (2 * vals - (e1 + e0)) / (e1 - e0)
            np.testing.assert_allclose(b, bits, atol=1e-12)

    def test_vectorized_matches_scalar(self, expo5):
        # the kernel on a (trials, S) batch equals the kernel on each (S,) row
        step = make_step(build_uniform_matrix([{0, 1}, {0, 1}], 0.5), expo5, 0.1)
        xs = np.linspace(-2, 2, 11)
        for x, v in zip(xs, sent_levels(expo5, xs)):
            assert v == step(np.zeros(2), np.array([[[x, 0.0]]]))[0, 0, 1] / 0.5

    def test_empirical_rates(self, gauss1):
        rng = np.random.default_rng(3)
        for h, p in ((0, gauss1.p_f), (1, gauss1.p_d)):
            x = gauss1.sample(h, rng, 10 ** 6)
            bits = x >= 0.0
            se = np.sqrt(p * (1 - p) / len(x))
            assert abs(bits.mean() - p) < 4 * se


class TestCumulantCheck:
    def test_gaussian_first_coefficient(self, gauss1):
        res = cumulant_check(gauss1, 1, n_max=1)
        assert res[0] < 1e-10

    def test_all_models_small_residuals(self, gauss1, expo5):
        # all twelve: a wrong kappa_r past r = 4 moves the state's tables by
        # about 1e-10, which no table test sees
        for model in (gauss1, expo5, GaussianModel(0.1), ExponentialModel(1.2)):
            for h in (0, 1):
                res = cumulant_check(model, h, n_max=12)
                assert np.all(res < 1e-6)

    def test_first_two_are_cumulants(self, gauss1, expo5):
        for model in (gauss1, expo5):
            for h in (0, 1):
                kappa_1, kappa_2 = model.cumulants(h)[:2]
                np.testing.assert_allclose(kappa_1, model.mean(h), atol=1e-13)
                np.testing.assert_allclose(kappa_2, model.variance(h), atol=1e-13)

    @pytest.mark.parametrize("p", [0.13, 0.5, 0.76])
    def test_bit_cumulants(self, p):
        # a Bernoulli(p) bit's log-CF log(q + p e^{jz}), radius at least pi
        bit = SimpleNamespace(radius=lambda h: np.pi, cumulants=lambda h: _bit_cumulants(p),
                              log_cf=lambda z, h: np.log(1 - p + p * np.exp(1j * z)))
        assert len(_bit_cumulants(p)) == 12
        assert np.all(cumulant_check(bit, 0, n_max=12) < 1e-6)

    def test_n_max_limit(self, gauss1):
        assert cumulant_check(gauss1, 0, n_max=12).shape == (12,)
        for n_max in (0, 13):
            with pytest.raises(ValueError, match="n_max must be between 1 and 12"):
                cumulant_check(gauss1, 0, n_max=n_max)
