import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from scipy.stats import norm

from onebitnet import (ExponentialModel, GaussianModel, RocCurve,
                       build_steady_state, build_uniform_matrix,
                       default_gamma_grid, from_matrix, limit_moments,
                       mixture_cdf, moments, roc, select_mode,
                       steady_state_pair, tabulate_cdf_u)
from onebitnet import steady_state
from onebitnet.continuous import ContinuousCdfTable, normal_table
from onebitnet.discrete import DiscretePmf, point_mass
from onebitnet.models import normal_cdf
from onebitnet.steady_state import (MODE_GAUSSIAN_LIMIT, MODE_MIXTURE,
                                    SteadyStateCdf, _continuous_table,
                                    _TABLE_CACHE_SIZE, mixture_table)
from tests.conftest import make_network


class TestLimitMoments:
    def test_reference_value(self, gauss1):
        # mu = 0.01, a = 0.99: eta = 0.9801; message mean is 2 p_d - 1
        net = make_network(0.99)
        m, s = limit_moments(gauss1, net, 3, 1, 0.01)
        p_d = norm.cdf(np.sqrt(0.5))
        expected = (0.01 * 0.99 * 1.0 + 0.01 * (2 * p_d - 1)) / (1 - 0.9801)
        np.testing.assert_allclose(m, expected, atol=1e-12)
        np.testing.assert_allclose(m, 0.75903, atol=1e-4)
        assert s > 0

    def test_full_self_reliance_reduces_to_continuous(self, gauss1):
        net = build_uniform_matrix([frozenset({0}), frozenset({0, 1})],
                                   [1.0, 0.5])
        m, s = limit_moments(gauss1, net, 0, 1, 0.1)
        node = net.node_params(0, 0.1)
        mom = moments(gauss1, node, 1)
        np.testing.assert_allclose(m, mom.mean, atol=1e-14)
        np.testing.assert_allclose(s ** 2, mom.variance, atol=1e-14)

    @pytest.mark.parametrize("h", [0, 1])
    def test_variance_closed_form(self, gauss1, h):
        # s^2 = [mu^2 a^2 V x + sum_l c_l^2 V xt] / (1 - eta^2) with V x = 2 rho
        # = 2, V xt = (e_1 - e_0)^2 p (1 - p) = 4 p (1 - p) and five links of
        # weight 0.002 at node 3
        net = make_network(0.99)
        _, s = limit_moments(gauss1, net, 3, h, 0.01)
        p = norm.cdf(np.sqrt(0.5) * (1 if h == 1 else -1))
        expected = ((0.01 * 0.99) ** 2 * 2 + 5 * 0.002 ** 2 * 4 * p * (1 - p)) \
            / (1 - 0.9801 ** 2)
        np.testing.assert_allclose(s ** 2, expected, rtol=1e-13)


class TestGaussianLimitCdf:
    @pytest.mark.parametrize("model_name", ["gauss", "expo"])
    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.parametrize("h", [0, 1])
    def test_point_mass_over_normal_table(self, gauss1, expo5, model_name, k, h):
        # mu = 0.01, a = 0.99: eta = 0.9801, the limit mode. Linear
        # interpolation on the 1,501-point table is off the exact normal by
        # at most (24/1500)^2/8 * phi(1) = 7.7e-6; beyond +/- 12 s by 1.8e-33.
        model = gauss1 if model_name == "gauss" else expo5
        net = make_network(0.99)
        pair = steady_state_pair(model, net, k, 0.01)
        cdf = pair[h]
        assert cdf.mode == MODE_GAUSSIAN_LIMIT
        assert cdf.pmf.points.tolist() == [0.0] and cdf.pmf.probs.tolist() == [1.0]
        m, s = limit_moments(model, net, k, h, 0.01)
        assert (cdf.mean(), cdf.std()) == (m, s)
        ys = np.linspace(m - 13 * s, m + 13 * s, 100_001)
        assert np.max(np.abs(cdf(ys) - normal_cdf((ys - m) / s))) <= 1e-5
        assert abs(cdf(m) - 0.5) <= 1e-15
        curve = roc(*pair, default_gamma_grid(*pair), node=k)
        assert isinstance(curve, RocCurve)
        assert min(curve.pf[0], curve.pd[0]) >= 1 - 1e-4
        assert max(curve.pf[-1], curve.pd[-1]) <= 1e-4

    def test_rejects_degenerate_scale(self):
        # normal_table, which the limit mode tabulates with
        for variance in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="variance must be positive"):
                normal_table(0.0, variance)


class TestSelectMode:
    def test_limit_regime(self, net_a25):
        net = make_network(0.99)
        assert select_mode(net.node_params(3, 0.01)) == MODE_GAUSSIAN_LIMIT

    def test_moderate_regime(self):
        net = make_network(0.5)
        assert select_mode(net.node_params(3, 0.1)) == MODE_MIXTURE

    def test_tiny_step_size_alone_is_not_enough(self):
        net = make_network(0.5)
        assert select_mode(net.node_params(3, 0.001)) == MODE_MIXTURE


class TestMixtureCdf:
    def test_point_mass_identity(self, gauss1):
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1, n_points=401)
        ys = np.linspace(*table.support, 101)
        np.testing.assert_allclose(mixture_cdf(ys, point_mass(0.0), table),
                                   table(ys), atol=1e-14)

    def test_limits(self, gauss1):
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1, n_points=401)
        pmf = DiscretePmf(points=np.array([-0.3, 0.7]),
                          probs=np.array([0.4, 0.6]))
        assert mixture_cdf(np.array([1e6]), pmf, table)[0] == pytest.approx(1.0)
        assert mixture_cdf(np.array([-1e6]), pmf, table)[0] == pytest.approx(0.0)

    def test_table_matches_dense_sum(self, gauss1):
        # the reference is the dense sum over every (point, atom) pair. At the
        # table's lattice points the table is that sum up to rounding, except
        # within one step outside the continuous grid (the edge term); between
        # them it is within table_error. The first table is 0 and 1 well inside
        # its grid; the second keeps mass 0.05 at each grid end, so a
        # misplaced edge term shows.
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1, n_points=401)
        edgy = dataclasses.replace(table, values=np.linspace(0.05, 0.95, 401))
        lo, hi = table.support
        rng = np.random.default_rng(0)
        wide = DiscretePmf(  # spread over 80 table widths
            points=np.sort(rng.uniform(-40, 40, 300)) * (hi - lo),
            probs=rng.dirichlet(np.ones(300)))
        single = DiscretePmf(points=np.array([0.37]), probs=np.array([1.0]))
        for cont, pmf in itertools.product((table, edgy), (wide, single)):
            edge = max(cont.values[0], 1.0 - cont.values[-1])
            assert (edge < 1e-30) == (cont is table)
            below = np.flatnonzero(cont.values < 2.0 ** -64)
            ones = np.flatnonzero(cont.values == 1.0)
            live = cont.grid[[below[-1] if below.size else 0,
                              ones[0] if ones.size else -1]]
            cdf = SteadyStateCdf(node=3, h=1, mode=MODE_MIXTURE, pmf=pmf,
                                 cont=cont)
            lattice = mixture_table(pmf, cont)
            knots = lattice.grid[::3]
            dense = cont(knots[:, None] - pmf.points) @ pmf.probs
            np.testing.assert_allclose(lattice.values[::3], dense, rtol=0,
                                       atol=1e-13 + edge)
            edges = np.concatenate([pmf.points + lo, pmf.points + hi,
                                    pmf.points + live[0], pmf.points + live[1]])
            ys = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                 np.nextafter(edges, np.inf),
                                 np.linspace(pmf.points[0] + lo,
                                             pmf.points[-1] + hi, 501),
                                 [np.nan, np.inf, -np.inf]])
            ys = rng.permutation(np.concatenate([ys, ys[::7]]))  # unsorted, repeated
            dense = cont(ys[:, None] - pmf.points) @ pmf.probs
            np.testing.assert_allclose(mixture_cdf(ys, pmf, cont), dense,
                                       rtol=0, atol=cdf.table_error)
            # 2-D queries through SteadyStateCdf keep their shape
            n = ys.size // 6 * 6
            out = cdf(ys[:n].reshape(6, -1))
            assert out.shape == (6, n // 6)
            np.testing.assert_allclose(out.ravel(), dense[:n], rtol=0,
                                       atol=cdf.table_error)

    def test_table_error(self, gauss1):
        # B = max|second difference of (0, v, 1)| / 4 + max(v_0, 1 - v_last):
        # the normal table's curvature term is (24/1500)^2 phi(1)/4 ~ 1.5e-5;
        # a uniform law's table has no interior curvature, only its two kinks
        cdf = build_steady_state(gauss1, make_network(0.25), 3, 1, 0.1)
        assert 1.4e-5 < cdf.table_error < 1.6e-5
        uniform = ContinuousCdfTable(grid=np.linspace(0.0, 1.0, 11),
                                     values=np.linspace(0.0, 1.0, 11), mean=0.5,
                                     variance=1 / 12, delta=np.nan, terms=0,
                                     tail=0.0, ripple=0.0)
        cdf = SteadyStateCdf(node=3, h=1, mode=MODE_MIXTURE, cont=uniform,
                             pmf=DiscretePmf(points=np.array([0.0, 0.05]),
                                             probs=np.array([0.5, 0.5])))
        assert cdf.table_error == pytest.approx(0.1 / 4, abs=1e-15)
        ys = np.linspace(-0.2, 1.2, 14_001)
        dense = uniform(ys[:, None] - cdf.pmf.points) @ cdf.pmf.probs
        worst = np.max(np.abs(cdf(ys) - dense))
        assert 0.0 < worst <= cdf.table_error

    def test_rejects_nonuniform_grid(self, gauss1):
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1, n_points=401)
        bent = dataclasses.replace(table, grid=table.grid ** 3)
        with pytest.raises(ValueError, match="uniform grid"):
            mixture_table(point_mass(0.0), bent)


class TestMixtureTable:
    def test_flat_and_split_between_clusters(self, gauss1):
        # node 9, a = 0.1: the atoms sit in clusters near -0.9 and +0.9, far
        # more than a table width (24 std(u) ~ 0.34) apart; the table starts
        # a new stretch there and is flat at the mass below the gap
        cdf = build_steady_state(gauss1, make_network(0.1), 9, 1, 0.1)
        table, z = cdf.table, cdf.pmf.points
        step = np.diff(cdf.cont.grid).mean()
        jumps = np.flatnonzero(np.diff(table.grid) > 1.5 * step)
        width = cdf.cont.grid[-1] - cdf.cont.grid[0]
        gap = np.flatnonzero(np.diff(z) > width)
        assert jumps.size == gap.size == 1
        below = cdf.pmf.probs[:gap[0] + 1].sum()
        left, right = table.grid[jumps[0]], table.grid[jumps[0] + 1]
        assert z[gap[0]] + cdf.cont.grid[-1] < left < right < z[gap[0] + 1] + cdf.cont.grid[0]
        ys = np.linspace(left, right, 101)
        np.testing.assert_allclose(cdf(ys), below, rtol=0, atol=1e-15)
        # a single stretch would span the whole atom range in table steps
        assert table.grid.size < (z[-1] - z[0]) / step

    @pytest.mark.parametrize("extra_steps", [-0.5, 0.5, 2.0, 2.9, 3.1, 4.0, 1000.0])
    def test_gap_near_a_table_width(self, gauss1, extra_steps):
        # two atoms a table width plus a few steps apart, on either side of
        # the split: the stretches must not overlap, and the table stays
        # within table_error of the dense sum
        cont = tabulate_cdf_u(gauss1, make_network(0.25).node_params(3, 0.1), 1,
                              n_points=401)
        width = cont.grid[-1] - cont.grid[0]
        step = width / 400
        pmf = DiscretePmf(points=np.array([0.1, 0.1 + width + extra_steps * step]),
                          probs=np.array([0.3, 0.7]))
        cdf = SteadyStateCdf(node=3, h=1, mode=MODE_MIXTURE, pmf=pmf, cont=cont)
        ys = np.linspace(cont.grid[0], pmf.points[-1] + cont.grid[-1] + step, 5001)
        dense = cont(ys[:, None] - pmf.points) @ pmf.probs
        np.testing.assert_allclose(cdf(ys), dense, rtol=0, atol=cdf.table_error)

    @pytest.mark.parametrize("built", [False, True])
    def test_copies_and_pickles(self, gauss1, built):
        cdf = build_steady_state(gauss1, make_network(0.25), 9, 0, 0.1)
        ys = np.linspace(cdf.mean() - 6 * cdf.std(), cdf.mean() + 6 * cdf.std(), 301)
        expected = mixture_cdf(ys, cdf.pmf, cdf.cont)
        if built:
            cdf(0.0)
        assert ("table" in vars(cdf)) == built
        for twin in (copy.deepcopy(cdf), pickle.loads(pickle.dumps(cdf))):
            assert ("table" in vars(twin)) == built
            np.testing.assert_array_equal(twin(ys), expected)
            assert twin.table_error == cdf.table_error
        np.testing.assert_array_equal(cdf(ys), expected)

    @pytest.mark.parametrize("model_name", ["gauss", "expo"])
    def test_tables_are_read_only(self, gauss1, expo5, model_name):
        model = gauss1 if model_name == "gauss" else expo5
        cdf = build_steady_state(model, make_network(0.5), 3, 1, 0.1)
        cdf(0.0)
        for table in (cdf.cont, cdf.table):
            for arr in (table.grid, table.values):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.5
                with pytest.raises(ValueError, match="read-only"):
                    arr *= 2.0
        ys = cdf.cont.grid[::50]
        for twin in (copy.deepcopy(cdf), pickle.loads(pickle.dumps(cdf))):
            np.testing.assert_array_equal(twin.cont.values, cdf.cont.values)
            np.testing.assert_array_equal(twin(ys), cdf(ys))

    def test_limit_point_mass_reproduces_normal_table(self, gauss1):
        net = make_network(0.99)
        cdf = build_steady_state(gauss1, net, 3, 1, 0.01)
        assert cdf.mode == MODE_GAUSSIAN_LIMIT
        np.testing.assert_allclose(cdf(cdf.cont.grid), cdf.cont.values,
                                   rtol=0, atol=1e-13)

    def test_lattice_stays_small_at_small_mu_hub(self, gauss1):
        # mu = 0.001, a = 0.1, hub: about 16,000 atoms spread over some
        # 870,000 table steps; the split stretches hold about 290,000 points
        cdf = build_steady_state(gauss1, make_network(0.1), 3, 0, 0.001)
        size = cdf.table.grid.size
        assert size < cdf.pmf.size * cdf.cont.grid.size
        step = np.diff(cdf.cont.grid).mean()
        assert size < (cdf.pmf.points[-1] - cdf.pmf.points[0]) / step / 2


class TestSteadyStateCdf:
    @pytest.mark.parametrize("model_name,a,k,h", [
        ("gauss", 0.25, 3, 0), ("gauss", 0.5, 9, 1),
        ("expo", 0.1, 3, 1), ("expo", 0.5, 9, 0),
    ])
    def test_monotone_bounded(self, gauss1, expo5, model_name, a, k, h):
        model = gauss1 if model_name == "gauss" else expo5
        net = make_network(a)
        cdf = build_steady_state(model, net, k, h, 0.1)
        ys = np.linspace(cdf.mean() - 6 * cdf.std(), cdf.mean() + 6 * cdf.std(), 501)
        vals = cdf(ys)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((0 <= vals) & (vals <= 1))

    def test_mean_additivity(self, gauss1, expo5):
        # the mean is read off the evaluated CDF alone (Stieltjes sum of
        # y dF), not from cdf.mean(), which is this closed form by design
        for model in (gauss1, expo5):
            for a in (0.1, 0.5):
                net = make_network(a)
                node = net.node_params(3, 0.1)
                for h in (0, 1):
                    cdf = build_steady_state(model, net, 3, h, 0.1)
                    lo = cdf.cont.grid[0] + cdf.pmf.points[0]
                    hi = cdf.cont.grid[-1] + cdf.pmf.points[-1]
                    while cdf(lo) >= 1e-6:
                        lo -= hi - lo
                    assert cdf(hi) > 1 - 1e-6
                    ys = np.linspace(lo, hi, 20001)
                    integrated = 0.5 * (ys[:-1] + ys[1:]) @ np.diff(cdf(ys))
                    expected = moments(model, node, h).mean + cdf.pmf.mean()
                    assert abs(integrated - expected) / max(abs(expected), 1e-9) < 0.01

    def test_plateaus_when_dispersion_small(self, gauss1):
        # node 9, small self-weight: cluster gaps dwarf the continuous spread
        net = make_network(0.1)
        cdf = build_steady_state(gauss1, net, 9, 1, 0.1)
        mid = 0.0  # between the two clusters at ~ +/- 0.99
        sd_u = np.sqrt(moments(gauss1, net.node_params(9, 0.1), 1).variance)
        probe = mid + np.linspace(-10 * sd_u, 10 * sd_u, 11)
        vals = cdf(probe)
        assert np.max(vals) - np.min(vals) < 1e-9  # flat stretch
        assert 0.1 < vals[0] < 0.9                 # and strictly interior

    def test_approaches_continuous_as_a_grows(self, gauss1):
        # total variation between F_y and the shifted continuous CDF shrinks
        gaps = []
        for a in (0.1, 0.25, 0.5, 0.9):
            net = make_network(a)
            node = net.node_params(3, 0.1)
            cdf = build_steady_state(gauss1, net, 3, 0, 0.1)
            table = cdf.cont
            shift = cdf.pmf.mean()
            ys = np.linspace(cdf.mean() - 5 * cdf.std(),
                             cdf.mean() + 5 * cdf.std(), 801)
            gaps.append(np.max(np.abs(cdf(ys) - table(ys - shift))))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_handover_moment_consistency(self, gauss1):
        # mixture pipeline moments match the limit formulas at eta = 0.9
        mu = 0.05
        a = 0.9 / (1 - mu)
        net = make_network(a)
        cdf = build_steady_state(gauss1, net, 3, 1, mu)
        assert cdf.mode == MODE_MIXTURE
        m, s = limit_moments(gauss1, net, 3, 1, mu)
        assert abs(cdf.mean() - m) / abs(m) < 0.02
        assert abs(cdf.std() - s) / s < 0.02
        # the weakly connected node leans harder on the discrete component,
        # whose per-class collapse sheds variance at this eta; the deficit
        # is bounded and the production mode switch sits above it
        cdf9 = build_steady_state(gauss1, net, 9, 1, mu)
        assert cdf9.mode == MODE_MIXTURE
        m9, s9 = limit_moments(gauss1, net, 9, 1, mu)
        assert abs(cdf9.mean() - m9) / abs(m9) < 0.02
        assert abs(cdf9.std() - s9) / s9 < 0.05

    def test_gaussian_limit_mode_autoselected(self, gauss1):
        net = make_network(0.99)
        cdf = build_steady_state(gauss1, net, 3, 1, 0.01)
        assert cdf.mode == MODE_GAUSSIAN_LIMIT
        m, s = limit_moments(gauss1, net, 3, 1, 0.01)
        np.testing.assert_allclose(cdf(m), 0.5, atol=1e-12)
        np.testing.assert_allclose(cdf(m + 1.96 * s), 0.975, atol=1e-3)

    def test_pair_helper(self, expo5):
        net = make_network(0.25)
        cdf0, cdf1 = steady_state_pair(expo5, net, 9, 0.1)
        assert cdf0.h == 0 and cdf1.h == 1
        # detection shifts the distribution upward
        assert cdf1.mean() > cdf0.mean()


def same_table(a, b):
    """Every field of two continuous tables equal, arrays bit for bit."""
    return (a.grid.tobytes() == b.grid.tobytes()
            and a.values.tobytes() == b.values.tobytes()
            and (a.mean, a.variance, a.terms, a.tail, a.ripple)
            == (b.mean, b.variance, b.terms, b.tail, b.ripple)
            and np.array_equal(a.delta, b.delta, equal_nan=True))


class TestContinuousTableCache:
    """``build_steady_state`` tabulates F_u once per (model, a_k, mu, h,
    eps_prime) and shares the table between nodes."""

    @pytest.mark.parametrize("model_name", ["gauss", "expo"])
    def test_nodes_with_equal_self_weight_share_one_table(self, gauss1, expo5,
                                                          model_name):
        model = gauss1 if model_name == "gauss" else expo5
        net = make_network(0.5)
        for h in (0, 1):
            hub = build_steady_state(model, net, 3, h, 0.1)
            leaf = build_steady_state(model, net, 9, h, 0.1)
            assert hub.mode == leaf.mode == MODE_MIXTURE
            assert hub.cont is leaf.cont
            assert hub.pmf.size != leaf.pmf.size
        assert (build_steady_state(model, net, 3, 0, 0.1).cont
                is not build_steady_state(model, net, 3, 1, 0.1).cont)

    def test_a_shared_table_equals_a_fresh_one(self, expo5):
        net = make_network(0.5)
        shared = build_steady_state(expo5, net, 9, 1, 0.1).cont
        assert build_steady_state(expo5, net, 3, 1, 0.1).cont is shared
        for k in (3, 9):
            fresh = tabulate_cdf_u(expo5, net.node_params(k, 0.1), 1)
            assert fresh is not shared
            assert same_table(fresh, shared)

    @pytest.mark.parametrize("change", ["h", "mu", "eps_prime", "model", "a_k"])
    def test_any_other_key_gets_its_own_table(self, expo5, change):
        net = make_network(0.5)
        base = build_steady_state(expo5, net, 3, 1, 0.1).cont
        model, k, h, mu, kwargs = expo5, 3, 1, 0.1, {}
        if change == "h":
            h = 0
        elif change == "mu":
            mu = 0.2
        elif change == "eps_prime":
            kwargs = {"eps_prime": 1e-5}
        elif change == "model":
            model = ExponentialModel(5.0)  # equal parameters, another object
        else:
            # node 0 keeps a_k = 0.5, node 1 has a_k = 0.6
            net, k = from_matrix([[0.5, 0.5], [0.4, 0.6]]), 1
        other = build_steady_state(model, net, k, h, mu, **kwargs).cont
        assert other is not base
        fresh = tabulate_cdf_u(model, net.node_params(k, mu), h, **kwargs)
        assert same_table(other, fresh)
        if change == "a_k":
            # equal a_k and mu in another network: the same table
            assert build_steady_state(expo5, net, 0, 1, 0.1).cont is base

    def test_one_build_per_key_through_the_module_name(self, monkeypatch):
        # a fresh model object, so no earlier test's table is reused; the
        # cache calls tabulate_cdf_u by its module name at call time
        calls = []
        real = steady_state.tabulate_cdf_u

        def record(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(steady_state, "tabulate_cdf_u", record)
        model, net = ExponentialModel(5.0), make_network(0.5)
        for k in (3, 9):
            steady_state_pair(model, net, k, 0.1)
        assert calls == [0, 1]

    def test_direct_tabulation_is_never_cached(self, expo5):
        node = make_network(0.5).node_params(3, 0.1)
        first, second = tabulate_cdf_u(expo5, node, 1), tabulate_cdf_u(expo5, node, 1)
        assert first is not second and same_table(first, second)

    def test_cache_stays_within_its_bound(self, gauss1):
        net = make_network(0.5)
        for i in range(_TABLE_CACHE_SIZE + 5):
            build_steady_state(GaussianModel(1.0 + i / 64), net, 9, 1, 0.1)
        info = _continuous_table.cache_info()
        assert info.maxsize == _TABLE_CACHE_SIZE
        assert info.currsize == _TABLE_CACHE_SIZE
