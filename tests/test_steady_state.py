import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from onebitnet import (ExponentialModel, GaussianModel, RocCurve,
                       build_steady_state, build_uniform_matrix,
                       cdf_u_gaussian_closed, default_gamma_grid,
                       discrete_component, from_matrix,
                       limit_moments, mixture_cdf, moments, roc,
                       state_cumulants, steady_state_pair, tabulate_cdf_u)
from onebitnet import continuous, steady_state
from onebitnet.continuous import ContinuousCdfTable, DEFAULT_EPS_PRIME
from onebitnet.discrete import DiscretePmf, point_mass
from onebitnet.models import normal_cdf
from onebitnet.simulate import hypothesis_ensembles, ks_distance
from onebitnet.steady_state import SteadyStateCdf, _MAX_LATTICE
from onebitnet.validation import edgeworth_cdf, limit_skewness
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
        # mu = 0.01, a = 0.99: eta = 0.9801, the Theorem-2 regime. The head
        # is a point mass at 0, the moments are the closed forms, and the
        # table is the limit normal up to its first-order Edgeworth term:
        # off the plain normal by about |gamma| phi(0)/6, and off the
        # Edgeworth law by at most a tenth of that (plus 1e-5)
        model = gauss1 if model_name == "gauss" else expo5
        net = make_network(0.99)
        pair = steady_state_pair(model, net, k, 0.01)
        cdf = pair[h]
        assert cdf.pmf.points.tolist() == [0.0] and cdf.pmf.probs.tolist() == [1.0]
        m, s = limit_moments(model, net, k, h, 0.01)
        assert (cdf.mean(), cdf.std()) == (m, s)
        ys = np.linspace(m - 13 * s, m + 13 * s, 100_001)
        gamma = limit_skewness(model, net, k, h, 0.01)
        gap = abs(gamma) / np.sqrt(2 * np.pi) / 6
        plain = np.max(np.abs(cdf(ys) - normal_cdf((ys - m) / s)))
        edgeworth = np.max(np.abs(cdf(ys) - edgeworth_cdf(gamma)((ys - m) / s)))
        assert gap / 2 < plain < 2 * gap
        assert edgeworth <= gap / 10 + 1e-5
        curve = roc(*pair, default_gamma_grid(*pair), node=k)
        assert isinstance(curve, RocCurve)
        assert min(curve.pf[0], curve.pd[0]) >= 1 - 1e-4
        assert max(curve.pf[-1], curve.pd[-1]) <= 1e-4


class TestMixtureCdf:
    def test_point_mass_identity(self, gauss1):
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1)
        ys = np.linspace(*table.support, 101)
        np.testing.assert_allclose(mixture_cdf(ys, point_mass(0.0), table),
                                   table(ys), atol=1e-14)

    def test_queries_go_through_the_module_name(self, gauss1, monkeypatch):
        # SteadyStateCdf looks mixture_cdf up at call time, so a wrapper put
        # on the module name (as the benchmark's tracer does) sees every query
        cdf = build_steady_state(gauss1, make_network(0.25), 9, 1, 0.1)
        seen = []

        def record(y, pmf, cont):
            seen.append(np.size(y))
            return mixture_cdf(y, pmf, cont)

        monkeypatch.setattr(steady_state, "mixture_cdf", record)
        assert cdf(0.0) == mixture_cdf(0.0, cdf.pmf, cdf.cont)[0]
        cdf(np.zeros((2, 3)))
        assert seen == [1, 6]

    @pytest.mark.parametrize("head", ["one_atom", "one_atom_below_1", "three_atoms",
                                      "36_atoms"])
    def test_bit_identical_to_the_sum_over_atoms(self, gauss1, head):
        # a one-atom head of mass 1 returns the table's query itself
        if head == "36_atoms":
            cdf = build_steady_state(ExponentialModel(8.0), make_network(0.1), 3, 0, 0.001)
            pmf, table = cdf.pmf, cdf.cont
            assert pmf.size == 36
        else:
            cdf = build_steady_state(gauss1, make_network(0.25), 3, 1, 0.1)
            table, pmf = cdf.cont, {
                "one_atom": cdf.pmf,
                "one_atom_below_1": DiscretePmf(np.array([0.2]), np.array([1.0 - 1e-13])),
                "three_atoms": DiscretePmf(np.array([-0.3, 0.1, 0.7]),
                                           np.array([0.25, 0.5, 0.25]))}[head]
            assert head != "one_atom" or (pmf.size == 1 and pmf.probs[0] == 1.0)
        lo, hi = table.support
        ys = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 2001), [lo, hi, -0.0, 0.0]])
        terms = [nu * table(ys - z) for z, nu in zip(pmf.points.tolist(),
                                                      pmf.probs.tolist())]
        want = terms[0]
        for term in terms[1:]:
            want += term
        want = np.minimum(want, 1.0)
        np.testing.assert_array_equal(mixture_cdf(ys, pmf, table).view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.parametrize("head", ["one_atom", "one_atom_at_0.7", "three_atoms"])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_query_keeps_type_shape_and_nan(self, gauss1, head, rank):
        # a float at a scalar (Python, numpy or 0-d), else a float array of
        # the query's shape, lists and integers included; NaN reads NaN
        cdf = build_steady_state(gauss1, make_network(0.25), 3, 1, 0.1)
        pmf = {"one_atom": cdf.pmf, "one_atom_at_0.7": point_mass(0.7),
               "three_atoms": DiscretePmf(np.array([-0.3, 0.1, 0.7]),
                                          np.array([0.25, 0.5, 0.25]))}[head]
        cdf = SteadyStateCdf(node=3, h=1, pmf=pmf, cont=cdf.cont)
        ys = np.array([[-0.5, 0.0, np.nan], [0.3, 1.0, 2.0]])
        want = mixture_cdf(ys.ravel(), pmf, cdf.cont)
        if rank == 0:
            for y, w in ((0.3, want[3]), (np.float64(0.3), want[3]),
                         (np.array(0.3), want[3]), (1, want[4]),
                         (float("nan"), want[2])):
                got = cdf(y)
                assert type(got) is float
                assert got == w or (np.isnan(got) and np.isnan(w))
            return
        y = ys[0] if rank == 1 else ys
        for query in (y, y.tolist()):
            got = cdf(query)
            assert type(got) is np.ndarray and got.dtype == float
            assert got.shape == y.shape
            np.testing.assert_array_equal(got.ravel(), want[:y.size])
        np.testing.assert_array_equal(cdf(np.array([1, 2])), want[[4, 5]])

    def test_limits(self, gauss1):
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1)
        pmf = DiscretePmf(points=np.array([-0.3, 0.7]),
                          probs=np.array([0.4, 0.6]))
        assert mixture_cdf(np.array([1e6]), pmf, table)[0] == pytest.approx(1.0)
        assert mixture_cdf(np.array([-1e6]), pmf, table)[0] == pytest.approx(0.0)

    def test_table_matches_dense_sum(self, gauss1):
        # the reference is the dense sum over every (point, atom) pair, which
        # the query sums atom by atom: equal up to rounding everywhere, at the
        # shifted grid ends and one ulp either side of them too. The first
        # table is 0 and 1 well inside its grid; the second keeps mass 0.05
        # at each grid end, so a misplaced end shows.
        node = make_network(0.25).node_params(3, 0.1)
        table = tabulate_cdf_u(gauss1, node, 1)
        edgy = dataclasses.replace(table, values=np.linspace(0.05, 0.95, table.grid.size))
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
            cdf = SteadyStateCdf(node=3, h=1, pmf=pmf, cont=cont)
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
                                       rtol=0, atol=1e-13)
            # 2-D queries through SteadyStateCdf keep their shape
            n = ys.size // 6 * 6
            out = cdf(ys[:n].reshape(6, -1))
            assert out.shape == (6, n // 6)
            np.testing.assert_allclose(out.ravel(), dense[:n], rtol=0, atol=1e-13)

    def test_table_error(self, gauss1):
        # B = max|second difference of (0, v, 1)| / 4 + max(v_0, 1 - v_last):
        # the Gaussian model's table of u, normal on 1,501 knots over +/- 12
        # std, has the curvature term (24/1500)^2 phi(1)/4 ~ 1.5e-5, and the
        # state's table on u's step adds the messages' digits to u, which
        # averages u's second differences, so it cannot raise them; a
        # uniform law's table has no interior curvature, only its two kinks
        cdf = build_steady_state(gauss1, make_network(0.25), 3, 1, 0.1)
        assert 0.0 < cdf.table_error < 1.6e-5
        # B bounds the table's linear interpolation against the law it
        # tabulates, and a head's query inherits it: two atoms over u's
        # table against the exact normal mixture
        node = make_network(0.25).node_params(3, 0.1)
        cont = tabulate_cdf_u(gauss1, node, 1)
        sd = np.sqrt(cont.variance)
        cdf = SteadyStateCdf(node=3, h=1, cont=cont,
                             pmf=DiscretePmf(points=np.array([-0.3, 0.7]) * sd,
                                             probs=np.array([0.4, 0.6])))
        ys = cont.mean + sd * np.linspace(-14.0, 14.0, 28_001)
        exact = cdf_u_gaussian_closed(ys[:, None] - cdf.pmf.points, gauss1, node,
                                      1) @ cdf.pmf.probs
        worst = np.max(np.abs(cdf(ys) - exact))
        assert cdf.table_error / 4 < worst <= cdf.table_error
        uniform = ContinuousCdfTable(grid=np.linspace(0.0, 1.0, 11),
                                     values=np.linspace(0.0, 1.0, 11), mean=0.5,
                                     variance=1 / 12, delta=np.nan, terms=0,
                                     tail=0.0, ripple=0.0)
        cdf = SteadyStateCdf(node=3, h=1, cont=uniform,
                             pmf=DiscretePmf(points=np.array([0.0, 0.05]),
                                             probs=np.array([0.5, 0.5])))
        assert cdf.table_error == pytest.approx(0.1 / 4, abs=1e-15)


class TestMixtureTable:
    def test_flat_between_clusters(self, gauss1):
        # the paper's PMF at node 9, a = 0.1: the atoms sit in clusters near
        # -0.9 and +0.9, far more than a table width (24 std(u) ~ 0.34)
        # apart; between the clusters the CDF is flat at the mass below the gap
        net = make_network(0.1)
        cdf = SteadyStateCdf(node=9, h=1, pmf=discrete_component(gauss1, net, 9, 1, 0.1),
                             cont=tabulate_cdf_u(gauss1, net.node_params(9, 0.1), 1))
        z = cdf.pmf.points
        width = cdf.cont.grid[-1] - cdf.cont.grid[0]
        gap = np.flatnonzero(np.diff(z) > width)
        assert gap.size == 1
        below = cdf.pmf.probs[:gap[0] + 1].sum()
        left, right = z[gap[0]] + cdf.cont.grid[-1], z[gap[0] + 1] + cdf.cont.grid[0]
        assert left < right
        ys = np.linspace(left, right, 101)
        np.testing.assert_allclose(cdf(ys), below, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("extra_steps", [-0.5, 0.5, 2.0, 2.9, 3.1, 4.0, 1000.0])
    def test_gap_near_a_table_width(self, gauss1, extra_steps):
        # two atoms a table width plus a few steps apart, their shifted
        # tables just overlapping or just apart: the query is the dense sum
        # up to rounding
        cont = tabulate_cdf_u(gauss1, make_network(0.25).node_params(3, 0.1), 1)
        width = cont.grid[-1] - cont.grid[0]
        step = width / (cont.grid.size - 1)
        pmf = DiscretePmf(points=np.array([0.1, 0.1 + width + extra_steps * step]),
                          probs=np.array([0.3, 0.7]))
        cdf = SteadyStateCdf(node=3, h=1, pmf=pmf, cont=cont)
        ys = np.linspace(cont.grid[0], pmf.points[-1] + cont.grid[-1] + step, 5001)
        dense = cont(ys[:, None] - pmf.points) @ pmf.probs
        np.testing.assert_allclose(cdf(ys), dense, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("queried", [False, True])
    def test_copies_and_pickles(self, gauss1, queried):
        # a copy answers as the original, and a pickle carries the folded
        # table's two arrays once each, whether or not the CDF was queried
        # first: a query leaves nothing behind for a copy to carry
        cdf = build_steady_state(gauss1, make_network(0.25), 9, 0, 0.1)
        ys = np.linspace(cdf.mean() - 6 * cdf.std(), cdf.mean() + 6 * cdf.std(), 301)
        expected = mixture_cdf(ys, cdf.pmf, cdf.cont)
        state = dict(vars(cdf))
        if queried:
            cdf(ys)
        assert vars(cdf).keys() == state.keys()
        blob = pickle.dumps(cdf)
        assert len(blob) < 1.1 * (cdf.cont.grid.nbytes + cdf.cont.values.nbytes)
        for twin in (copy.deepcopy(cdf), pickle.loads(blob)):
            np.testing.assert_array_equal(twin(ys), expected)
            assert twin.table_error == cdf.table_error
        np.testing.assert_array_equal(cdf(ys), expected)

    @pytest.mark.parametrize("model_name", ["gauss", "expo"])
    def test_tables_are_read_only(self, gauss1, expo5, model_name):
        model = gauss1 if model_name == "gauss" else expo5
        cdf = build_steady_state(model, make_network(0.5), 3, 1, 0.1)
        for arr in (cdf.cont.grid, cdf.cont.values):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0
        ys = cdf.cont.grid[::50]
        for twin in (copy.deepcopy(cdf), pickle.loads(pickle.dumps(cdf))):
            np.testing.assert_array_equal(twin.cont.values, cdf.cont.values)
            np.testing.assert_array_equal(twin(ys), cdf(ys))
            for arr in (twin.cont.grid, twin.cont.values, twin.pmf.points,
                        twin.pmf.probs):
                assert not arr.flags.writeable
        # the tables are views of writable arrays, which queries read:
        # np.interp copies a read-only table on every call
        for table in (cdf.cont, twin.cont):
            assert table.grid.base.flags.writeable and table.values.base.flags.writeable

    def test_limit_point_mass_reproduces_normal_table(self, gauss1):
        # eta -> 1: the head is a point mass at 0, so the CDF reads its
        # (nearly normal) table exactly
        net = make_network(0.99)
        cdf = build_steady_state(gauss1, net, 3, 1, 0.01)
        assert cdf.pmf.points.tolist() == [0.0]
        np.testing.assert_array_equal(cdf(cdf.cont.grid), cdf.cont.values)

    def test_lattice_stays_small_at_small_mu_hub(self, gauss1):
        # mu = 0.001, a = 0.1, hub: the five neighbours' digits span some
        # 885,000 steps of u's table, so digit level 0 (Binomial(5, p), six
        # atoms) moves into the head, the rest folds into at most
        # _MAX_LATTICE points
        cdf = build_steady_state(gauss1, make_network(0.1), 3, 0, 0.001)
        assert cdf.pmf.size == 6
        assert cdf.cont.grid.size <= _MAX_LATTICE


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
        # y dF), not from cdf.mean(), which is kappa_1 by design
        for model in (gauss1, expo5):
            for a in (0.1, 0.5):
                net = make_network(a)
                for h in (0, 1):
                    cdf = build_steady_state(model, net, 3, h, 0.1)
                    lo = cdf.cont.grid[0] + cdf.pmf.points[0]
                    hi = cdf.cont.grid[-1] + cdf.pmf.points[-1]
                    while cdf(lo) >= 1e-6:
                        lo -= hi - lo
                    assert cdf(hi) > 1 - 1e-6
                    ys = np.linspace(lo, hi, 20001)
                    integrated = 0.5 * (ys[:-1] + ys[1:]) @ np.diff(cdf(ys))
                    expected = state_cumulants(model, net, 3, h, 0.1)[0]
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
            table = tabulate_cdf_u(gauss1, node, 0)
            shift = cdf.mean() - table.mean
            ys = np.linspace(cdf.mean() - 5 * cdf.std(),
                             cdf.mean() + 5 * cdf.std(), 801)
            gaps.append(np.max(np.abs(cdf(ys) - table(ys - shift))))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_handover_moment_consistency(self, gauss1):
        # at eta = 0.9 the moments are the closed forms of the limit, for
        # the hub and for the leaf, which leans harder on the messages
        mu = 0.05
        a = 0.9 / (1 - mu)
        net = make_network(a)
        for k in (3, 9):
            cdf = build_steady_state(gauss1, net, k, 1, mu)
            m, s = limit_moments(gauss1, net, k, 1, mu)
            assert cdf.mean() == pytest.approx(m, rel=1e-12)
            assert cdf.std() == pytest.approx(s, rel=1e-12)

    def test_pair_helper(self, expo5):
        net = make_network(0.25)
        cdf0, cdf1 = steady_state_pair(expo5, net, 9, 0.1)
        assert cdf0.h == 0 and cdf1.h == 1
        # detection shifts the distribution upward
        assert cdf1.mean() > cdf0.mean()


def run_ks(model, net, k, mu, n_iters, trials):
    """KS distance of both hypotheses' CDFs to run()'s terminal states at
    node k, and the bound 1.95/sqrt(trials) (alpha = 0.001)."""
    terminal = hypothesis_ensembles(net, model, mu, n_iters, trials, seed=3)
    pair = steady_state_pair(model, net, k, mu)
    return [ks_distance(terminal[h][:, k], pair[h]) for h in (0, 1)], 1.95 / np.sqrt(trials)


# three nodes; node 0 hears nodes 1 and 2 with unequal weights (groups of one)
UNEQUAL = [[0.4, 0.35, 0.25], [0.3, 0.5, 0.2], [0.1, 0.3, 0.6]]


class TestExactLaw:
    """The whole state's law: one lattice series of u's log-CF times the
    messages' closed-form characteristic function, with a head PMF for
    digit levels too coarse for the table's lattice."""

    @pytest.mark.parametrize("case", ["leaf_mu0.01", "hub_mu0.001",
                                      "expo_a0.99_mu0.01", "unequal_weights"])
    def test_matches_run(self, gauss1, expo5, case):
        # 2*10^4 trials put the bound at 0.0138; the paper's star table read
        # KS 0.032 at the mu = 0.01 leaf and raised at the mu = 0.001 hub.
        # eta = 0.98 needs 600 steps to forget the start (0.98^600 ~ 5e-6)
        model, net, k, mu, n_iters, trials = {
            "leaf_mu0.01": (gauss1, make_network(0.5), 9, 0.01, 100, 20_000),
            "hub_mu0.001": (gauss1, make_network(0.5), 3, 0.001, 100, 20_000),
            "expo_a0.99_mu0.01": (expo5, make_network(0.99), 9, 0.01, 600, 3_000),
            "unequal_weights": (expo5, from_matrix(UNEQUAL), 0, 0.1, 100, 20_000),
        }[case]
        ks, bound = run_ks(model, net, k, mu, n_iters, trials)
        assert max(ks) <= bound, (ks, bound)

    def test_benchmark_pairs_need_no_head(self, gauss1, expo5):
        # every pair the benchmark builds folds all its digits into one
        # table of at most _MAX_LATTICE points; at lambda_e = 8, a = 0.1,
        # mu = 0.001 the hub's digits would span 8*10^6 steps, and two
        # levels of Binomial(5, p) (36 atoms) move into the head
        pairs = [(GaussianModel(rho), a, 0.1, k) for rho in (0.1, 0.5, 1.0)
                 for a in (0.1, 0.25, 0.5) for k in (3, 9)]
        pairs += [(gauss1, 0.5, 0.01, 3), (gauss1, 0.5, 0.001, 3),
                  (expo5, 0.5, 0.1, 3), (expo5, 0.5, 0.1, 9)]
        for model, a, mu, k in pairs:
            for cdf in steady_state_pair(model, make_network(a), k, mu):
                assert cdf.pmf.points.tolist() == [0.0]
                assert cdf.cont.grid.size <= _MAX_LATTICE
        cdf = build_steady_state(ExponentialModel(8.0), make_network(0.1), 3, 0, 0.001)
        assert cdf.pmf.size == 36 and cdf.cont.grid.size <= _MAX_LATTICE

    def test_equal_models_give_identical_tables(self, expo5):
        # nothing is keyed on the model object: another model with the same
        # parameter builds the same state table, bit for bit
        net = make_network(0.5)
        for k in (3, 9):
            twin = build_steady_state(ExponentialModel(5.0), net, k, 1, 0.1).cont
            cont = build_steady_state(expo5, net, k, 1, 0.1).cont
            assert twin.grid.tobytes() == cont.grid.tobytes()
            assert twin.values.tobytes() == cont.values.tobytes()
            assert ((twin.mean, twin.variance, twin.delta, twin.terms, twin.tail, twin.ripple)
                    == (cont.mean, cont.variance, cont.delta, cont.terms, cont.tail,
                        cont.ripple))

    @pytest.mark.parametrize("levels", [1, 2])
    def test_head_split_keeps_the_law(self, gauss1, monkeypatch, levels):
        # a lattice bound equal to the state table's size with `levels`
        # digit levels moved forces exactly that head, on a table of exactly
        # that many knots; one knot less moves one more level. That size is
        # u's 1,501 knots, one more, and the remaining digits' span
        # n.w eta^levels / (1 - eta) in u's steps. The law stays the same
        # within the two tables' interpolation errors
        net = make_network(0.5)
        node = net.node_params(3, 0.1)
        whole = build_steady_state(gauss1, net, 3, 1, 0.1)
        u = tabulate_cdf_u(gauss1, node, 1)
        step = (u.grid[-1] - u.grid[0]) / (u.grid.size - 1)
        e0, e1 = gauss1.message_values()
        c, n = np.unique(node.c_row[node.c_row > 0], return_counts=True)
        span = float(n @ (c * (e1 - e0))) / (1 - node.eta)

        def size(moved):
            return u.grid.size + 1 + math.ceil(span * node.eta ** moved / step)

        assert size(0) == whole.cont.grid.size
        cap = size(levels)
        monkeypatch.setattr(steady_state, "_MAX_LATTICE", cap)
        split = build_steady_state(gauss1, net, 3, 1, 0.1)
        assert split.pmf.size == 6 ** levels
        assert split.cont.grid.size == cap < whole.cont.grid.size
        monkeypatch.setattr(steady_state, "_MAX_LATTICE", cap - 1)
        assert build_steady_state(gauss1, net, 3, 1, 0.1).pmf.size == 6 ** (levels + 1)
        assert split.mean() == pytest.approx(whole.mean(), rel=1e-12)
        assert split.std() == pytest.approx(whole.std(), rel=1e-12)
        ys = np.linspace(whole.mean() - 7 * whole.std(), whole.mean() + 7 * whole.std(), 4001)
        gap = np.max(np.abs(split(ys) - whole(ys)))
        assert gap <= split.table_error + whole.table_error

    @pytest.mark.parametrize("model_name,a,k", [("gauss", 0.5, 3), ("expo", 0.1, 9),
                                                ("expo", 0.5, 3)])
    def test_folded_table_records_its_series(self, gauss1, expo5, model_name, a, k):
        # delta steps the state CF's argument over the FFT's period, terms
        # counts the series' terms, whole blocks of 128, and tail bounds the
        # last block
        model = gauss1 if model_name == "gauss" else expo5
        for cdf in steady_state_pair(model, make_network(a), k, 0.1):
            grid = cdf.cont.grid
            step = (grid[-1] - grid[0]) / (grid.size - 1)
            period = continuous._fft_length(grid.size) * step
            assert cdf.cont.delta == pytest.approx(2 * np.pi / period, rel=1e-12)
            assert 0 < cdf.cont.terms < grid.size and cdf.cont.terms % 128 == 0
            assert 0 < cdf.cont.tail < DEFAULT_EPS_PRIME / 20

    @pytest.mark.parametrize("k", [3, 9])
    def test_a_head_too_large_names_the_pair(self, gauss1, k):
        # at a = 0.9, mu = 1e-5 the digits span so many of u's steps that 27
        # levels must leave the table, and their exact head passes 10^6
        # atoms; no caller sets a merge tolerance, so none is advised
        for h in (0, 1):
            with pytest.raises(ValueError, match=(
                    rf"^node {k}, h = {h}, mu = 1e-05: the 27 digit levels .*"
                    r"_MAX_LATTICE = 262144 knots")) as info:
                build_steady_state(gauss1, make_network(0.9), k, h, 1e-5)
            assert "merge tolerance" not in str(info.value)

    def test_explicit_digit_cutoff(self, gauss1, expo5, monkeypatch):
        # taking explicit terms down to a tenth of continuous._TAIL_ARG, both
        # in u's log-CF and in the digits' CF, moves no table by more than 1e-9
        cases = [(gauss1, make_network(0.5), 9, 0.01), (gauss1, make_network(0.1), 3, 0.1),
                 (expo5, make_network(0.99), 3, 0.01), (expo5, from_matrix(UNEQUAL), 0, 0.1),
                 (expo5, make_network(0.995), 3, 0.003)]
        coarse = [steady_state_pair(m, net, k, mu) for m, net, k, mu in cases]
        monkeypatch.setattr(continuous, "_TAIL_ARG", continuous._TAIL_ARG / 10)
        for (m, net, k, mu), pair in zip(cases, coarse):
            for a, b in zip(pair, steady_state_pair(m, net, k, mu)):
                np.testing.assert_array_equal(a.cont.grid, b.cont.grid)
                assert np.max(np.abs(a.cont.values - b.cont.values)) <= 1e-9

    @pytest.mark.parametrize("a,mu", [(0.99, 0.01), (0.995, 0.003)])
    def test_exponential_builds_near_unit_eta(self, a, mu):
        # the u-table's series needs 540 and 1,347 terms here; it overflowed
        # before its coefficients were radius-scaled. The law sits within a
        # tenth of the skew's gap of the Edgeworth law
        model, net = ExponentialModel(5.0), make_network(a)
        for h in (0, 1):
            cdf = build_steady_state(model, net, 3, h, mu)
            m, s = limit_moments(model, net, 3, h, mu)
            gamma = limit_skewness(model, net, 3, h, mu)
            zs = np.linspace(-8, 8, 3201)
            edgeworth = np.max(np.abs(cdf(m + s * zs) - edgeworth_cdf(gamma)(zs)))
            assert edgeworth <= abs(gamma) / np.sqrt(2 * np.pi) / 60 + 1e-5

    @pytest.mark.parametrize("rho,a,mu", [pytest.param(1.0, 0.25, 0.1, id="1.0-0.25"),
                                          pytest.param(0.5, 0.1, 0.1, id="0.5-0.1"),
                                          pytest.param(0.5, 0.25, 0.003, id="0.5-0.25-0.003")])
    @pytest.mark.parametrize("h", [0, 1])
    def test_gaussian_leaf_matches_every_digit_pattern(self, rho, a, mu, h):
        # an oracle with no Fourier method: node 9's one neighbour sends
        # c (e_0 + d b_i) eta^i; all 2^14 patterns of its first 14 bits,
        # the rest at their mean, mix normal CDFs of u. The rest's variance
        # is at most c^2 d^2 eta^28 / (4 (1 - eta^2)), under 1e-17 here, so
        # replacing it by its mean moves F by far less than the 1e-8 bound
        model, net = GaussianModel(rho), make_network(a)
        node = net.node_params(9, mu)
        (c,) = node.c_row[node.c_row > 0]
        e0, e1 = model.message_values()
        p, eta, n_bits = (model.p_d if h == 1 else model.p_f), node.eta, 14
        bits = (np.arange(2 ** n_bits)[:, None] >> np.arange(n_bits)) & 1
        z = c * (e0 / (1 - eta) + (e1 - e0) * (bits @ eta ** np.arange(n_bits)
                                                + p * eta ** n_bits / (1 - eta)))
        prob = np.prod(np.where(bits == 1, p, 1 - p), axis=1)
        order = np.argsort(z)
        z, prob = z[order], prob[order]
        below = np.concatenate(([0.0], np.cumsum(prob)))
        mom = moments(model, node, h)
        sd = np.sqrt(mom.variance)
        cdf = build_steady_state(model, net, 9, h, mu)
        assert cdf.pmf.points.tolist() == [0.0]
        knots = cdf.cont.grid
        exact = np.empty_like(knots)
        for i in range(0, knots.size, 64):
            # patterns more than 9 sd below a knot add their whole weight
            x = knots[i:i + 64] - mom.mean
            lo, hi = np.searchsorted(z, [x[0] - 9 * sd, x[-1] + 9 * sd])
            exact[i:i + 64] = below[lo] + ndtr((x[:, None] - z[lo:hi]) / sd) @ prob[lo:hi]
        assert np.max(np.abs(cdf(knots) - exact)) <= 1e-8

    @pytest.mark.parametrize("lam", [5.0, 8.0])
    def test_range_widens_until_the_ends_are_within_budget(self, lam):
        # at eps_prime = 1e-7 the exponential leaf's first range (u's mean
        # +/- 12 std, cut at the support, then the digits' span) leaves more
        # than 2 eps_prime at an end; the range widens by 4 std of u a side
        # and the widened lattice's ends read within 2 eps_prime of 0 and 1
        model, net, eps_prime = ExponentialModel(lam), make_network(0.1), 1e-7
        node = net.node_params(9, 0.1)
        sd = np.sqrt(moments(model, node, 1).variance)
        first = build_steady_state(model, net, 9, 1, 0.1).cont.grid
        cdf = build_steady_state(model, net, 9, 1, 0.1, eps_prime=eps_prime)
        assert cdf.cont.grid[0] == pytest.approx(first[0] - 4 * sd, rel=1e-12)
        assert cdf.cont.values[0] <= 2 * eps_prime
        assert cdf.cont.values[-1] >= 1 - 2 * eps_prime


class TestHypothesisArgument:
    """Every analytic law takes h = 0 or 1 only: any other value would
    read as h = 0 and True as h = 1."""

    def test_only_0_and_1_are_hypotheses(self, gauss1, expo5):
        net = make_network(0.5)
        node = net.node_params(3, 0.1)
        for h in (2, -1, True, 0.5):
            for call in (lambda: moments(gauss1, node, h),
                         lambda: state_cumulants(gauss1, net, 3, h, 0.1),
                         lambda: limit_moments(gauss1, net, 3, h, 0.1),
                         lambda: build_steady_state(gauss1, net, 3, h, 0.1),
                         lambda: tabulate_cdf_u(gauss1, node, h),
                         lambda: continuous.cdf_u(0.0, gauss1, node, h),
                         lambda: cdf_u_gaussian_closed(0.0, gauss1, node, h)):
                with pytest.raises(ValueError, match="hypotheses must be 0 or 1"):
                    call()
        # a numpy integer is a whole number: the law at h = 1, bit for bit
        one = np.int64(1)
        assert moments(expo5, node, one) == moments(expo5, node, 1)
        assert state_cumulants(expo5, net, 3, one, 0.1) == state_cumulants(
            expo5, net, 3, 1, 0.1)
        got, want = (build_steady_state(expo5, net, 3, h, 0.1).cont for h in (one, 1))
        assert got.grid.tobytes() == want.grid.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
