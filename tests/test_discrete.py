import copy
import itertools
import pickle

import numpy as np
import pytest

from onebitnet import (BernoulliApproxSpec, DiscretePmf, ExponentialModel,
                       GaussianModel, build_uniform_matrix, convolve,
                       discrete_component, merge_close, moments,
                       neighbor_component_pmf, omega_k, table_first_order,
                       table_second_order)
from onebitnet import discrete
from onebitnet.discrete import point_mass
from onebitnet.network import NodeParams
from onebitnet.validation import aggregate_patterns, enumerate_truncated_pmf
from tests.conftest import make_network


def node_for(a, mu=0.1):
    c_row = np.array([0.0, 1.0 - a])
    return NodeParams(k=0, a_k=a, mu=mu, c_row=c_row)


class TestDiscretePmf:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            DiscretePmf(points=np.array([0.0, 1.0]), probs=np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="ascending"):
            DiscretePmf(points=np.array([1.0, 0.0]), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            DiscretePmf(points=np.array([0.0, 1.0]), probs=np.array([1.1, -0.1]))

    def test_keeps_the_callers_arrays_writable(self):
        # the PMF freezes copies of its inputs, never the caller's arrays
        p, q = np.array([0.0, 1.0]), np.array([0.25, 0.75])
        pmf = DiscretePmf(points=p, probs=q)
        p[0], q[:] = 2.0, 0.5
        assert pmf.points.tolist() == [0.0, 1.0] and pmf.probs.tolist() == [0.25, 0.75]
        for twin in (pmf, copy.deepcopy(pmf), pickle.loads(pickle.dumps(pmf))):
            for arr in (twin.points, twin.probs):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 3.0
            assert twin.points.tolist() == [0.0, 1.0]

    def test_moments_and_cdf(self):
        pmf = DiscretePmf(points=np.array([-1.0, 1.0]), probs=np.array([0.25, 0.75]))
        assert pmf.mean() == 0.5
        assert pmf.variance() == pytest.approx(0.75)
        np.testing.assert_allclose(pmf.cdf([-2.0, -1.0, 0.0, 1.0, 2.0]),
                                   [0.0, 0.25, 0.25, 1.0, 1.0])

    def test_merge_tol_bounds_displacement_not_gaps(self, gauss1):
        # merge_tol says that merging moved no value by merge_tol or more and
        # kept the mean; the means of neighbouring clusters may sit closer
        # than it. The hub's PMF at a = 0.25, h = 1 has a gap of 3.0e-4 at
        # merge_tol 1.49e-3
        hub = discrete_component(gauss1, make_network(0.25), 3, 1, 0.1)
        assert np.diff(hub.points).min() < hub.merge_tol / 4
        rng = np.random.default_rng(0)
        pts = np.sort(rng.uniform(0, 1, 2000))
        probs = rng.dirichlet(np.ones(2000))
        merged = merge_close(DiscretePmf(points=pts, probs=probs), 0.01)
        assert np.diff(merged.points).min() < merged.merge_tol
        # each value's cluster is the one holding the middle of its mass
        cluster = np.searchsorted(np.cumsum(merged.probs), np.cumsum(probs) - probs / 2)
        assert np.all(np.abs(pts - merged.points[cluster]) < merged.merge_tol)
        assert merged.mean() == pytest.approx(pts @ probs, abs=1e-15)


class TestOmega:
    def test_reference_value(self, gauss1):
        # eta = 0.45; eps = 0.1 * std of the continuous component
        node = node_for(0.5)
        eps = 0.1 * np.sqrt(moments(gauss1, node, 1).variance)
        np.testing.assert_allclose(eps, 0.0079182, atol=1e-6)
        assert omega_k(gauss1, node, 1, eps) == 8

    def test_tiny_eta_needs_single_digit(self, gauss1):
        node = node_for(1e-6, mu=0.99)
        assert omega_k(gauss1, node, 1, 0.5) == 1

    def test_monotone_in_eta(self, gauss1):
        eps = 0.01
        etas = np.linspace(0.05, 0.9, 18)
        omegas = [omega_k(gauss1, NodeParams(k=0, a_k=e / 0.9, mu=0.1,
                                             c_row=np.array([0.0, 1.0])),
                          1, eps) for e in etas]
        assert all(o2 >= o1 for o1, o2 in zip(omegas, omegas[1:]))

    def test_guarantees_state_error_bound(self, expo5):
        # (E1-E0) eta^omega / (1-eta) <= eps for the returned omega
        node = node_for(0.5)
        e0, e1 = expo5.message_values()
        for eps in (0.5, 0.05, 0.005):
            om = omega_k(expo5, node, 1, eps)
            assert (e1 - e0) * node.eta ** om / (1 - node.eta) <= eps + 1e-12


class TestFirstOrderTable:
    def test_frozen_example(self):
        spec = BernoulliApproxSpec(p=0.9, eta=0.45, omega=3)
        pmf = table_first_order(spec)
        np.testing.assert_allclose(pmf.points, [-0.1, 0.505, 0.77725, 1.0],
                                   atol=1e-15)
        np.testing.assert_allclose(pmf.probs, [0.1, 0.09, 0.081, 0.729],
                                   atol=1e-15)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_near_certain_detection_degenerates(self):
        spec = BernoulliApproxSpec(p=1 - 1e-12, eta=0.45, omega=5)
        pmf = table_first_order(spec)
        assert pmf.probs[-1] == pytest.approx(1.0, abs=1e-10)
        assert pmf.points[-1] == 1.0

    def test_omega_one(self):
        spec = BernoulliApproxSpec(p=0.8, eta=0.3, omega=1)
        pmf = table_first_order(spec)
        np.testing.assert_allclose(pmf.points, [1 - 2 * (1 - 0.3), 1.0])
        np.testing.assert_allclose(pmf.probs, [0.2, 0.8])


class TestSecondOrderTable:
    def test_omega3_row_count_and_total(self):
        spec = BernoulliApproxSpec(p=0.9, eta=0.45, omega=3)
        pmf = table_second_order(spec, merge=False)
        assert pmf.size == 1 + 3 + 3  # pairs + singles + all-plus
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_sorted_even_when_tabulated_order_breaks(self):
        # above the golden-ratio conjugate the raw rows interleave
        spec = BernoulliApproxSpec(p=0.9, eta=0.7, omega=5)
        pmf = table_second_order(spec, merge=False)
        assert np.all(np.diff(pmf.points) > 0)

    def test_degenerate_p(self):
        spec = BernoulliApproxSpec(p=1 - 1e-12, eta=0.45, omega=4)
        pmf = table_second_order(spec)
        assert pmf.probs[-1] == pytest.approx(1.0, abs=1e-10)

    def test_mass_deficit_diagnostic(self):
        # the aggregation redistributes (not drops) the >=3-minus mass
        p, omega = 0.9, 8
        deficit = 1 - p ** omega - omega * p ** (omega - 1) * (1 - p) \
            - omega * (omega - 1) / 2 * p ** (omega - 2) * (1 - p) ** 2
        np.testing.assert_allclose(deficit, 0.03809179, atol=1e-8)
        spec = BernoulliApproxSpec(p=p, eta=0.45, omega=omega)
        assert table_second_order(spec).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_class_mean_preserves_truncated_mean(self):
        # conditional-mean values reproduce E[zhat] exactly
        for p, eta, omega in ((0.67, 0.45, 7), (0.76, 0.225, 5), (0.9, 0.09, 4)):
            spec = BernoulliApproxSpec(p=p, eta=eta, omega=omega)
            pmf = table_second_order(spec, value_rule="class_mean", merge=False)
            exact = (2 * p - 1) * (1 - eta ** omega) + eta ** omega
            np.testing.assert_allclose(pmf.mean(), exact, atol=1e-12)
            # the printed pattern values overshoot whenever >=3-minus mass exists
            literal = table_second_order(spec, value_rule="pattern", merge=False)
            assert literal.mean() >= exact - 1e-12


class TestEnumerationOracle:
    @pytest.mark.parametrize("p", [0.67, 0.9])
    @pytest.mark.parametrize("eta", [0.225, 0.45])
    def test_tables_match_enumeration(self, p, eta):
        for omega in range(1, 9):
            spec = BernoulliApproxSpec(p=p, eta=eta, omega=omega)
            ref_v, ref_p = aggregate_patterns(p, eta, omega, "first")
            got = table_first_order(spec)
            np.testing.assert_allclose(got.points, ref_v, atol=1e-14)
            np.testing.assert_allclose(got.probs, ref_p, atol=1e-14)
            ref_v, ref_p = aggregate_patterns(p, eta, omega, "second")
            got = table_second_order(spec, merge=False)
            np.testing.assert_allclose(got.points, ref_v, atol=1e-14)
            np.testing.assert_allclose(got.probs, ref_p, atol=1e-14)

    def test_uniform_sanity_anchor(self):
        # p = 1/2, eta = 1/2: the truncated variable is uniform on (-1, 1)
        omega = 10
        vals, probs = enumerate_truncated_pmf(0.5, 0.5, omega)
        cdf = np.cumsum(probs)
        uniform = (vals + 1) / 2
        assert np.max(np.abs(cdf - uniform)) <= 2.0 ** -omega + 1e-12

    def test_first_order_is_coarsening_of_second(self):
        p, eta, omega = 0.8, 0.45, 6
        v1, p1 = aggregate_patterns(p, eta, omega, "first")
        v2, p2 = aggregate_patterns(p, eta, omega, "second")
        tv = 0.0
        support = np.union1d(v1, v2)
        for s in support:
            m1 = p1[np.isclose(v1, s, atol=1e-14)].sum()
            m2 = p2[np.isclose(v2, s, atol=1e-14)].sum()
            tv += abs(m1 - m2)
        tv /= 2
        bound = 1 - p ** omega - omega * p ** (omega - 1) * (1 - p)
        assert tv <= bound + 1e-12


class TestH0Symmetry:
    def test_flip_construction(self, gauss1):
        """The h=0 component equals the sign-flipped h=1-style construction
        run with success probability 1 - p_f."""
        net = make_network(0.25)
        node = net.node_params(9, 0.1)
        pmf0 = discrete_component(gauss1, net, 9, 0, mu=0.1)
        eps = 0.1 * np.sqrt(moments(gauss1, node, 0).variance)
        omega = omega_k(gauss1, node, 0, eps)
        spec = BernoulliApproxSpec(p=1 - gauss1.p_f, eta=node.eta, omega=omega)
        table = table_second_order(spec, value_rule="class_mean")
        flipped = table.map_affine(slope=-1.0, shift=0.0)
        manual = neighbor_component_pmf(flipped, gauss1, node, 7, 0)
        np.testing.assert_allclose(pmf0.points, manual.points, atol=1e-12)
        np.testing.assert_allclose(pmf0.probs, manual.probs, atol=1e-14)


class TestAffineMap:
    def test_endpoints(self, gauss1):
        node = node_for(0.25)
        pmf = DiscretePmf(points=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))
        mapped = neighbor_component_pmf(pmf, gauss1, node, 1, 1)
        c = node.c_row[1]
        np.testing.assert_allclose(mapped.points[0], c * gauss1.mean(0) / (1 - node.eta))
        np.testing.assert_allclose(mapped.points[-1], c * gauss1.mean(1) / (1 - node.eta))

    def test_interior_point(self, gauss1):
        # z = 0.505 with link weight 0.15 and eta = 0.45 (hub-row slice)
        node = NodeParams(k=0, a_k=0.5, mu=0.1, c_row=np.array([0.0, 0.15]))
        pmf = DiscretePmf(points=np.array([0.505]), probs=np.array([1.0]))
        mapped = neighbor_component_pmf(pmf, gauss1, node, 1, 1)
        np.testing.assert_allclose(mapped.points[0], 0.15 * 0.505 / 0.55, atol=1e-12)
        np.testing.assert_allclose(mapped.points[0], 0.13773, atol=1e-5)

    def test_requires_actual_neighbor(self, gauss1):
        node = node_for(0.25)
        pmf = point_mass(1.0)
        with pytest.raises(ValueError, match="neighbor"):
            neighbor_component_pmf(pmf, gauss1, node, 0, 1)


def exhaustive_sum(pmfs):
    """Every index combination's value, summed left to right as
    ``convolve`` adds, and its probability."""
    combos = list(itertools.product(*(range(p.size) for p in pmfs)))
    vals = np.array([sum(p.points[i] for p, i in zip(pmfs, c)) for c in combos])
    probs = np.array([np.prod([p.probs[i] for p, i in zip(pmfs, c)]) for c in combos])
    return vals, probs


def assert_matches_exhaustive_sum(got, pmfs, tol):
    # each input's merge and each step's moves every combination's value by
    # less than tol: 2 n - 1 merges in all for n inputs
    vals, probs = exhaustive_sum(pmfs)
    assert got.merge_tol == max(tol, 0.0)
    assert got.mean() == pytest.approx(vals @ probs, rel=1e-13, abs=1e-13)
    if tol <= 0:
        np.testing.assert_array_equal(got.points, np.unique(vals))
        mass = np.bincount(np.searchsorted(got.points, vals), probs)
        np.testing.assert_allclose(got.probs, mass, rtol=0, atol=1e-16)
        return
    drift = (2 * len(pmfs) - 1) * tol
    order = np.argsort(vals, kind="stable")
    vals, below = vals[order], np.cumsum(probs[order])

    def exact(x, side):
        idx = np.searchsorted(vals, x, side=side)
        return np.concatenate(([0.0], below))[idx]

    xs = np.concatenate([vals - drift, vals + drift, got.points])
    assert np.all(got.cdf(xs) >= exact(xs - drift, "right") - 1e-12)
    assert np.all(got.cdf(xs) <= exact(xs + drift, "left") + 1e-12)
    # the last merge's clusters: centers two apart are more than tol apart
    assert np.all(got.points[2:] - got.points[:-2] > tol)


class TestConvolve:
    def test_point_mass_identity(self):
        pmf = DiscretePmf(points=np.array([-0.5, 0.5]), probs=np.array([0.3, 0.7]))
        out = convolve([pmf, point_mass(0.0)], merge_tol=0.0)
        np.testing.assert_allclose(out.points, pmf.points)
        np.testing.assert_allclose(out.probs, pmf.probs)

    def test_bernoulli_sum(self):
        coin = DiscretePmf(points=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5]))
        out = convolve([coin, coin], merge_tol=0.0)
        np.testing.assert_allclose(out.points, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(out.probs, [0.25, 0.5, 0.25])

    def test_support_cap(self):
        # no merging, so no merge tolerance to advise
        rng = np.random.default_rng(0)
        pts = np.sort(rng.normal(size=2000))
        pmf = DiscretePmf(points=pts, probs=np.full(2000, 1 / 2000))
        with pytest.raises(ValueError, match=r"exceed 1000000 points$"):
            convolve([pmf, pmf], merge_tol=0.0)

    def test_support_cap_with_merging(self):
        # points tol apart survive the coarsening: 2,000^2 candidates
        pmf = DiscretePmf(points=np.arange(2000.0), probs=np.full(2000, 1 / 2000))
        with pytest.raises(ValueError, match="support would exceed.*merge tolerance"):
            convolve([pmf, pmf], merge_tol=0.5)

    def test_tie_heavy_dyadic_matches_reference(self):
        three = DiscretePmf(points=np.array([-1.0, 0.0, 1.0]),
                            probs=np.array([0.25, 0.5, 0.25]))
        quarter = DiscretePmf(points=np.array([0.0, 0.25, 0.75]),
                              probs=np.array([0.125, 0.375, 0.5]))
        for pmfs in ([three] * 6, [quarter, three] * 3):
            for tol in (0.0, 0.125, 0.25, 0.5, 1.0, 1.5):
                assert_matches_exhaustive_sum(convolve(pmfs, tol), pmfs, tol)
        # ties alone: the six-fold sum of {-1, 0, 1} keeps its 13 values
        got = convolve([three] * 6, 0.5)
        np.testing.assert_array_equal(got.points, np.arange(-6.0, 7.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_supports_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        pmfs = [random_pmf(rng, np.unique(rng.normal(size=rng.integers(6, 13))))
                for _ in range(3)]
        for tol in (0.0, 1e-3, 0.02, 0.3):
            assert_matches_exhaustive_sum(convolve(pmfs, tol), pmfs, tol)

    @pytest.mark.parametrize("h", (0, 1))
    def test_hub_components_keep_mean_and_spread(self, gauss1, h, monkeypatch):
        # the mu = 0.01 hub: up to 124,520 candidate points in one step. The
        # 2 n - 1 merges keep the mean, lower the variance by at most tol^2/4
        # each and keep every point within the inputs' hull
        seen = []

        def record(pmfs, merge_tol):
            seen.append((list(pmfs), merge_tol))
            return convolve(*seen[-1])

        monkeypatch.setattr(discrete, "convolve", record)
        got = discrete_component(gauss1, make_network(0.5), 3, h, mu=0.01)
        (pmfs, tol), = seen
        assert tol > 0 and len(pmfs) == 5 and got.merge_tol == tol
        assert got.mean() == pytest.approx(sum(p.mean() for p in pmfs), rel=1e-13)
        spread = sum(p.variance() for p in pmfs) - got.variance()
        assert -1e-15 <= spread <= 9 * tol ** 2 / 4
        assert got.points[0] >= sum(p.points[0] for p in pmfs) - 1e-15
        assert got.points[-1] <= sum(p.points[-1] for p in pmfs) + 1e-15
        assert np.all(got.points[2:] - got.points[:-2] > tol)

    def test_merge_keeps_mean_and_bounds_displacement(self):
        rng = np.random.default_rng(1)
        pts = np.sort(rng.uniform(0, 1, 50))
        pts += np.arange(50) * 1e-9  # ensure strictly increasing
        probs = rng.dirichlet(np.ones(50))
        pmf = DiscretePmf(points=pts, probs=probs)
        merged = merge_close(pmf, 0.05)
        np.testing.assert_allclose(merged.mean(), pmf.mean(), atol=1e-14)
        # every original value sits within tol of some representative
        dist = np.min(np.abs(pts[:, None] - merged.points[None, :]), axis=1)
        assert np.all(dist < 0.05)
        # and the support is genuinely reduced to ~span/tol points
        assert merged.size <= int(1 / 0.05) + 1

    def test_merge_does_not_chain_dense_supports(self):
        # densely spaced points must quantize to ~span/tol points, not one
        pts = np.linspace(0, 1, 1001)
        pmf = DiscretePmf(points=pts, probs=np.full(1001, 1 / 1001))
        merged = merge_close(pmf, 0.1)
        assert 9 <= merged.size <= 12
        np.testing.assert_allclose(merged.mean(), pmf.mean(), atol=1e-12)


def assert_cluster_rule(pmf, tol, merged):
    """``merged`` is ``pmf`` clustered at tol. Each point belongs to the
    cluster holding the middle of its mass (every probability positive);
    a cluster's anchor is its first point. Every member lies in
    [anchor, anchor + tol), consecutive anchors are at least tol apart,
    and each cluster keeps its mass and mean."""
    pts, pr = pmf.points, pmf.probs
    label = np.searchsorted(np.cumsum(merged.probs), np.cumsum(pr) - pr / 2)
    assert merged.merge_tol == tol
    np.testing.assert_array_equal(np.unique(label), np.arange(merged.size))
    first = np.flatnonzero(np.diff(label, prepend=-1))
    offset = pts - pts[first][label]
    assert np.all(offset >= 0) and np.all(offset < tol)
    assert np.all(pts[first[1:]] - pts[first[:-1]] >= tol)
    mass = np.bincount(label, pr)
    np.testing.assert_allclose(merged.probs, mass, rtol=0, atol=1e-15)
    np.testing.assert_allclose(merged.points, np.bincount(label, pts * pr) / mass,
                               rtol=1e-14, atol=1e-15)
    assert merged.mean() == pytest.approx(pmf.mean(), rel=1e-13, abs=1e-15)


def assert_cluster_bounds(pmf, tol, merged):
    """What the cluster rule implies without knowing which cluster each
    point joined: every value of positive mass is within tol of a center,
    centers two apart are more than tol apart, the mean is kept and the
    variance drops by at most tol^2/4."""
    assert merged.merge_tol == tol
    live = pmf.points[pmf.probs > 0]
    near = np.clip(np.searchsorted(merged.points, live), 1, merged.size - 1)
    dist = np.minimum(np.abs(live - merged.points[near - 1]),
                      np.abs(live - merged.points[near]))
    assert np.all(dist < tol)
    assert np.all(merged.points[2:] - merged.points[:-2] > tol)
    assert merged.mean() == pytest.approx(pmf.mean(), rel=1e-13, abs=1e-15)
    assert -1e-15 <= pmf.variance() - merged.variance() <= tol ** 2 / 4


def random_pmf(rng, pts):
    return DiscretePmf(points=pts, probs=rng.dirichlet(np.ones(pts.size)))


class TestMergeClose:
    @pytest.mark.parametrize("seed", range(4))
    def test_gaps_near_tol(self, seed):
        rng = np.random.default_rng(seed)
        for tol in (1e-3, 0.1, 0.37, 2.5):
            gaps = tol * rng.choice([0.2, 0.5, 1 - 1e-15, 1.0, 1 + 1e-15, 1.5], 400)
            pts = np.unique(rng.normal() + np.cumsum(gaps))
            pmf = random_pmf(rng, pts)
            flipped = pmf.map_affine(-1.0, 0.0)
            # the same support handed over as reversed views
            rev_pts, rev_pr = pmf.points[::-1].copy()[::-1], pmf.probs[::-1].copy()[::-1]
            assert rev_pts.strides[0] < 0
            for case in (pmf, flipped, DiscretePmf(points=rev_pts, probs=rev_pr)):
                assert_cluster_rule(case, tol, merge_close(case, tol))

    def test_dyadic_differences_equal_tol(self):
        # pts[j] - anchor == tol exactly: the point must open a new cluster
        rng = np.random.default_rng(7)
        pts = np.arange(-64, 65) * 0.0625
        for tol in (0.25, 0.125, 2.0):
            pmf = random_pmf(rng, pts)
            got = merge_close(pmf, tol)
            assert_cluster_rule(pmf, tol, got)
            assert got.size == pts.size // round(tol / 0.0625) + 1

    def test_large_offsets(self):
        # near +/-1e6, anchor + tol rounds unlike pts[j] - anchor; the rule
        # reads the difference, on supports one ulp either side of the sum
        rng = np.random.default_rng(11)
        early = late = 0
        for _ in range(600):
            anchor = rng.choice([-1e6, 1e6]) * rng.uniform(0.1, 2.0)
            tol = rng.choice([rng.uniform(0.01, 1.0), 1e6 * rng.uniform(0.1, 2.0)])
            near = anchor + tol
            pts = np.unique(np.append(near + np.arange(-3, 4) * np.spacing(near), anchor))
            if pts[0] != anchor:
                continue
            first = np.argmax(np.append(pts - anchor >= tol, True))
            guess = int(np.searchsorted(pts, anchor + tol))
            early += guess < first
            late += guess > first
            pmf = random_pmf(rng, pts)
            assert_cluster_rule(pmf, tol, merge_close(pmf, tol))
        assert early > 0 and late > 0

    def test_zero_probability_clusters_drop_out(self):
        # 0.0 carries no mass yet anchors its cluster, so 0.12 opens the next
        pmf = DiscretePmf(points=np.array([0.0, 0.05, 0.12, 1.0, 1.02, 2.0, 3.0]),
                          probs=np.array([0.0, 0.25, 0.25, 0.0, 0.0, 0.5, 0.0]))
        got = merge_close(pmf, 0.1)
        np.testing.assert_array_equal(got.points, [0.05, 0.12, 2.0])
        np.testing.assert_array_equal(got.probs, [0.25, 0.25, 0.5])
        assert got.merge_tol == 0.1

    def test_trivial_inputs_returned_unchanged(self):
        single = point_mass(3.0)
        pmf = DiscretePmf(points=np.array([0.0, 0.01]), probs=np.array([0.5, 0.5]))
        assert merge_close(single, 0.1) is single
        assert merge_close(pmf, 0.0) is pmf
        assert merge_close(pmf, -1.0) is pmf

    @pytest.mark.parametrize("h", (0, 1))
    def test_hub_pipeline_keeps_the_cluster_bounds(self, gauss1, h, monkeypatch):
        # the mu = 0.01 hub merges up to 123,963 candidate points per call
        calls = []

        def record(pmf, tol):
            calls.append((pmf, tol, merge_close(pmf, tol)))
            return calls[-1][2]

        monkeypatch.setattr(discrete, "merge_close", record)
        discrete_component(gauss1, make_network(0.5), 3, h, mu=0.01)
        merged = [c for c in calls if c[0].size > 1]
        assert len(merged) == 10 and max(c[0].size for c in merged) > 10 ** 5
        for pmf, tol, got in merged:
            assert_cluster_bounds(pmf, tol, got)


class TestDiscreteComponent:
    def test_self_only_node_is_point_mass(self, gauss1):
        neighbors = [frozenset({0}), frozenset({1, 2}), frozenset({1, 2})]
        net = build_uniform_matrix(neighbors, [1.0, 0.5, 0.5])
        pmf = discrete_component(gauss1, net, 0, 1, mu=0.1)
        assert pmf.size == 1 and pmf.points[0] == 0.0

    def test_single_neighbor_dominant_point(self, gauss1):
        # weakly connected node with small self-weight: the PMF splits into
        # two clusters near +/- (1-a)/(1-eta) with masses p_d and 1 - p_d
        net = make_network(0.1)
        pmf = discrete_component(gauss1, net, 9, 1, mu=0.1)
        top = pmf.points[np.argmax(pmf.probs)]
        np.testing.assert_allclose(top, 0.9 / 0.91 * gauss1.mean(1), atol=5e-3)
        np.testing.assert_allclose(pmf.cdf(0.0), 1 - gauss1.p_d, atol=1e-12)
        np.testing.assert_allclose(1 - pmf.cdf(0.5 * top), gauss1.p_d, atol=1e-12)

    def test_single_neighbor_against_direct_simulation(self, gauss1):
        net = make_network(0.1)
        node = net.node_params(9, 0.1)
        pmf = discrete_component(gauss1, net, 9, 1, mu=0.1)
        rng = np.random.default_rng(33)
        n_terms = int(np.ceil(np.log(1e-12) / np.log(node.eta)))
        total = np.zeros(10 ** 6)
        e0, e1 = gauss1.message_values()
        for i in range(n_terms):
            msg = np.where(rng.random(10 ** 6) < gauss1.p_d, e1, e0)
            total += node.eta ** i * msg
        z = (1 - 0.1) * total  # c = 1 - a for the single neighbor
        # 4 standard errors plus the one-sided truncation allowance
        eps = 0.1 * np.sqrt(moments(gauss1, node, 1).variance)
        assert abs(pmf.mean() - z.mean()) < 4 * z.std() / 1000 + eps
        # CDF agreement at midpoints between well-separated support clusters;
        # the intrinsic resolution is the mass of patterns with three or
        # more unlikely digits (~0.045 here at omega = 4, q ~ 0.24)
        gaps = np.diff(pmf.points)
        mids = ((pmf.points[:-1] + pmf.points[1:]) / 2)[gaps > 4 * pmf.merge_tol]
        emp = np.searchsorted(np.sort(z), mids, side="right") / len(z)
        assert np.max(np.abs(pmf.cdf(mids) - emp)) < 0.05

    def test_h0_mean_oracle(self, expo5):
        # mean must track (1-a)/(1-eta) * E[message under h=0]
        net = make_network(0.25)
        node = net.node_params(9, 0.1)
        pmf = discrete_component(expo5, net, 9, 0, mu=0.1)
        e0, e1 = expo5.message_values()
        exact = (1 - 0.25) / (1 - node.eta) * (expo5.p_f * e1 + (1 - expo5.p_f) * e0)
        eps = 0.1 * np.sqrt(moments(expo5, node, 0).variance)
        # truncation shifts the mean by at most eps; aggregation is mean-exact
        assert abs(pmf.mean() - exact) <= eps + 1e-9

    def test_hub_mean_linearity(self, gauss1):
        net = make_network(0.25)
        node = net.node_params(3, 0.1)
        pmf = discrete_component(gauss1, net, 3, 1, mu=0.1)
        comps = []
        eps = 0.1 * np.sqrt(moments(gauss1, node, 1).variance)
        omega = omega_k(gauss1, node, 1, eps)
        spec = BernoulliApproxSpec(p=gauss1.p_d, eta=node.eta, omega=omega)
        table = table_second_order(spec, value_rule="class_mean")
        expected = 0.0
        for ell in sorted(set(net.neighbors[3]) - {3}):
            expected += neighbor_component_pmf(table, gauss1, node, ell, 1).mean()
        np.testing.assert_allclose(pmf.mean(), expected, atol=1e-9)

    def test_probability_conservation(self, gauss1, expo5):
        for model in (gauss1, expo5):
            for a in (0.1, 0.5):
                net = make_network(a)
                for k, h in ((3, 0), (3, 1), (9, 0), (9, 1)):
                    pmf = discrete_component(model, net, k, h, mu=0.1)
                    assert abs(pmf.probs.sum() - 1.0) < 1e-10
