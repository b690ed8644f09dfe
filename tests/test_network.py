import copy
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from onebitnet import (GaussianModel, NetworkSpec, SimConfig, build_steady_state,
                       build_uniform_matrix, from_matrix, limit_moments,
                       neighbor_sets_from_edges, offdiag_square_sum,
                       reference_topology, state_cumulants, steady_state_pair)
from onebitnet.continuous import ContinuousCdfTable
from onebitnet.discrete import DiscretePmf, discrete_component
from onebitnet.network import NetworkError, whole_number


def random_network(rng):
    S = int(rng.integers(2, 12))
    ring = [(i, (i + 1) % S) for i in range(S)]
    extra = [(i, j) for i in range(S) for j in range(i + 1, S) if rng.random() < 0.3]
    return build_uniform_matrix(neighbor_sets_from_edges(S, ring + extra),
                                rng.uniform(0.05, 1.0, S))


class TestUniformMatrix:
    def test_single_neighbor_row(self):
        net = build_uniform_matrix(reference_topology(), 0.25)
        row = net.A[9]
        assert row[9] == 0.25
        assert row[7] == 0.75
        assert np.count_nonzero(row) == 2

    def test_five_neighbor_row(self):
        net = build_uniform_matrix(reference_topology(), 0.25)
        row = net.A[3]
        np.testing.assert_allclose(row[row > 0].sum(), 1.0, atol=1e-15)
        off = np.delete(row, 3)
        assert row[3] == 0.25
        np.testing.assert_allclose(off[off > 0], 0.15, rtol=0, atol=1e-15)
        assert np.count_nonzero(off) == 5

    def test_full_self_reliance_is_identity_row(self):
        net = build_uniform_matrix(reference_topology(), 1.0)
        np.testing.assert_array_equal(net.A, np.eye(10))

    def test_isolated_node_requires_unit_weight(self):
        neighbors = [frozenset({0}), frozenset({1, 2}), frozenset({1, 2})]
        with pytest.raises(NetworkError, match="isolated"):
            build_uniform_matrix(neighbors, 0.5)
        net = build_uniform_matrix(neighbors, [1.0, 0.5, 0.5])
        assert net.A[0, 0] == 1.0

    def test_self_weight_range_enforced(self):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(NetworkError):
                build_uniform_matrix(reference_topology(), bad)

    def test_nan_self_weight_rejected(self):
        # nan fails every comparison: the range test must accept, not reject
        nan = float("nan")
        for bad in (nan, [0.5] * 9 + [nan]):
            with pytest.raises(NetworkError, match="self-weights must lie in"):
                build_uniform_matrix(reference_topology(), bad)

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.9])
    def test_invariants(self, a):
        net = build_uniform_matrix(reference_topology(), a)
        np.testing.assert_allclose(net.A.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(net.A >= 0)
        # below a = 1 every listed neighbor gets a positive weight, and the
        # neighborhoods A gives back are the sets it was built from
        assert net.neighbors == reference_topology()

    def test_random_networks_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            net = random_network(rng)
            np.testing.assert_allclose(net.A.sum(axis=1), 1.0, atol=1e-12)

    def test_self_weight_count_must_match_nodes(self):
        with pytest.raises(NetworkError, match=r"length 3, not 10 \(the nodes\)"):
            build_uniform_matrix(reference_topology(), [0.5] * 3)

    def test_neighbor_outside_the_nodes_rejected(self):
        # -1 would index node S - 1, and 2 is past the last node
        for bad in ({0, -1}, {0, 2}):
            with pytest.raises(NetworkError, match=r"node 0 lists a neighbor outside 0\.\.1"):
                build_uniform_matrix([bad, {0, 1}], 0.5)


class TestReferenceTopology:
    def test_benchmark_degrees(self):
        topo = reference_topology()
        assert len(topo) == 10
        assert len(topo[3]) == 6  # five neighbors plus self
        assert len(topo[9]) == 2  # one neighbor plus self

    def test_connected(self):
        net = build_uniform_matrix(reference_topology(), 0.5)
        assert net.is_connected()


class TestNeighborsFromMatrix:
    def test_zero_entry_is_not_a_link(self):
        # at a = 1 every off-diagonal weight is 0: no node has a neighbor
        net = build_uniform_matrix(reference_topology(), 1.0)
        assert net.neighbors == tuple(frozenset({k}) for k in range(10))
        assert net.degree(3) == 1 and net.degree(9) == 1
        assert not net.is_connected()

    def test_neighbors_are_the_positive_entries(self):
        # a directed matrix with a zero diagonal entry: node k is always in
        # its own neighborhood, and links follow the rows
        net = from_matrix([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        assert net.neighbors == (frozenset({0, 1}), frozenset({1, 2}), frozenset({2}))
        assert [net.degree(k) for k in range(3)] == [2, 2, 1]
        assert net.is_connected()
        # node 1 weighs node 0, but node 0 weighs only itself: 1 is not reached
        assert not from_matrix([[1.0, 0.0], [1.0, 0.0]]).is_connected()

    def test_link_weights_are_the_positive_entries(self):
        net = from_matrix([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        np.testing.assert_array_equal(net.node_params(0, 0.1).link_weights, [0.5])
        np.testing.assert_array_equal(net.node_params(1, 0.1).link_weights, [0.25, 0.25])


class TestCopies:
    def test_copies_keep_the_matrix_read_only(self):
        net = build_uniform_matrix(reference_topology(), 0.25)
        for other in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert not other.A.flags.writeable
            np.testing.assert_array_equal(other.A, net.A)
            with pytest.raises(ValueError, match="read-only"):
                other.A[0, 0] = 1.0

    def test_one_helper_restores_every_frozen_class(self):
        assert NetworkSpec.__setstate__ is DiscretePmf.__setstate__
        assert NetworkSpec.__setstate__ is ContinuousCdfTable.__setstate__


class TestEdgeList:
    def test_edge_that_is_not_a_pair_rejected(self):
        for bad in ((0, 1, 2), (0,), 3):
            with pytest.raises(NetworkError, match=re.escape(f"edge {bad!r} is not a pair")):
                neighbor_sets_from_edges(3, [(0, 1), bad])

    def test_integral_ids_accepted(self):
        edges = [(0, 1), (np.int64(1), np.int32(2)), (2.0, np.float64(3.0))]
        sets = neighbor_sets_from_edges(4, edges)
        assert sets == neighbor_sets_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert all(type(k) is int for s in sets for k in s)

    @pytest.mark.parametrize("bad", [1.5, np.float64(0.5), np.float32(2.25),
                                     float("nan"), float("inf"), -float("inf")])
    def test_fractional_or_nonfinite_ids_rejected(self, bad):
        with pytest.raises(NetworkError, match=r"edge \(0, .*not an integer"):
            neighbor_sets_from_edges(3, [(0, 1), (0, bad)])
        with pytest.raises(NetworkError, match="not an integer"):
            neighbor_sets_from_edges(3, [(bad, 2)])


class TestOffdiagSquareSum:
    def test_uniform_row_attains_local_lower_bound(self):
        net = build_uniform_matrix(reference_topology(), 0.25)
        got = offdiag_square_sum(net, 3)
        np.testing.assert_allclose(got, 5 * 0.15 ** 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, (1 - 0.25) ** 2 / (net.degree(3) - 1),
                                   rtol=0, atol=1e-15)

    def test_pure_self_reliance_gives_zero(self):
        net = build_uniform_matrix(reference_topology(), 1.0)
        assert offdiag_square_sum(net, 4) == 0.0

    @pytest.mark.parametrize("k", [3, 9])
    def test_matches_exact_sum_near_unit_self_weight(self, k):
        # at a = 0.99, row . row - a^2 cancels to ~1e-12; the direct sum
        # stays within an ulp of the exact rational sum of the float weights
        net = build_uniform_matrix(reference_topology(), 0.99)
        exact = sum(Fraction(float(c)) ** 2 for c in np.delete(net.A[k], k))
        got = offdiag_square_sum(net, k)
        assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact

    def test_global_bounds_over_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            net = random_network(rng)
            S = net.size
            for k in range(S):
                a_k = net.self_weight(k)
                ssq = offdiag_square_sum(net, k)
                lo = (1 - a_k) ** 2 / (S - 1) if S > 1 else 0.0
                assert lo - 1e-12 <= ssq <= (1 - a_k) + 1e-12


class TestMatrixValidation:
    def test_non_stochastic_rejected(self):
        A = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(NetworkError, match="sum to 1"):
            from_matrix(A)

    def test_explicit_renormalization(self):
        A = np.array([[0.5, 0.4], [0.5, 0.5]])
        net = from_matrix(A, renormalize=True)
        np.testing.assert_allclose(net.A.sum(axis=1), 1.0, atol=1e-15)

    def test_negative_weight_rejected(self):
        A = np.array([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(NetworkError, match="nonnegative"):
            from_matrix(A)

    def test_nonfinite_weight_rejected(self):
        # nan fails both A < 0 and |row sum - 1| > tol
        nan, inf = float("nan"), float("inf")
        for A in ([[nan, 1.0], [0.5, 0.5]], [[0.5, 0.5], [nan, nan]],
                  [[inf, 1.0], [0.5, 0.5]]):
            with pytest.raises(NetworkError, match="finite"):
                from_matrix(A)
            with pytest.raises(NetworkError, match="finite"):
                NetworkSpec(np.array(A))
        for A in ([[nan, 1.0], [0.5, 0.5]], [[inf, 1.0], [0.5, 0.5]]):
            with pytest.raises(NetworkError, match="finite"):
                from_matrix(A, renormalize=True)

    @pytest.mark.parametrize("A", [np.full(3, 1 / 3), np.full((2, 3), 1 / 3),
                                   np.ones((1, 1, 1)), np.zeros((0, 0))])
    def test_matrix_must_be_square_and_nonempty(self, A):
        with pytest.raises(NetworkError, match="must be square and nonempty"):
            NetworkSpec(A)
        with pytest.raises(NetworkError, match="must be square and nonempty"):
            from_matrix(A, renormalize=True)

    @pytest.mark.parametrize("k", [-1, 10])
    def test_node_id_out_of_range_rejected(self, k):
        net = build_uniform_matrix(reference_topology(), 0.5)
        model = GaussianModel(1.0)
        calls = (lambda: net.self_weight(k),
                 lambda: net.degree(k),
                 lambda: offdiag_square_sum(net, k),
                 lambda: net.node_params(k, 0.1),
                 lambda: limit_moments(model, net, k, 1, 0.1),
                 lambda: state_cumulants(model, net, k, 1, 0.1),
                 lambda: discrete_component(model, net, k, 1, 0.1),
                 lambda: build_steady_state(model, net, k, 1, 0.1),
                 lambda: steady_state_pair(model, net, k, 0.1))
        for call in calls:
            with pytest.raises(NetworkError, match=rf"node {k} is outside 0\.\.9"):
                call()

    @pytest.mark.parametrize("k", [2.5, np.nan, np.inf, "x"])
    def test_self_weight_rejects_non_integer_id(self, k):
        net = build_uniform_matrix(reference_topology(), 0.5)
        with pytest.raises(NetworkError, match="is not an integer"):
            net.self_weight(k)

    @pytest.mark.parametrize("k", [2.5, np.nan, np.inf, "x"])
    def test_degree_rejects_non_integer_id(self, k):
        net = build_uniform_matrix(reference_topology(), 0.5)
        with pytest.raises(NetworkError, match="is not an integer"):
            net.degree(k)

    @pytest.mark.parametrize("k", [2.5, np.nan, np.inf, "x"])
    def test_node_params_rejects_non_integer_id(self, k):
        net = build_uniform_matrix(reference_topology(), 0.5)
        with pytest.raises(NetworkError, match="is not an integer"):
            net.node_params(k, 0.1)

    @pytest.mark.parametrize("k", [2.5, np.nan, np.inf, "x"])
    def test_offdiag_square_sum_rejects_non_integer_id(self, k):
        net = build_uniform_matrix(reference_topology(), 0.5)
        with pytest.raises(NetworkError, match="is not an integer"):
            offdiag_square_sum(net, k)

    def test_bools_are_not_whole_numbers(self):
        # True == 1, but a bool is no node id, step count, trial count or seed
        assert [whole_number(v) for v in (True, False, np.True_)] == [None] * 3
        net = build_uniform_matrix(reference_topology(), 0.5)
        with pytest.raises(NetworkError, match="node id True is not an integer"):
            net.self_weight(True)
        for name in ("n_iters", "trials", "seed"):
            counts = {"n_iters": 10, "trials": 10, "seed": 0, name: name != "seed"}
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                SimConfig(network=net, model=GaussianModel(1.0), mu=0.1, **counts)

    def test_integral_ids_read_as_int(self):
        net = build_uniform_matrix(reference_topology(), 0.5)
        for k in (3.0, np.int64(3), np.float64(3.0), Fraction(3)):
            assert (net.self_weight(k), net.degree(k),
                    offdiag_square_sum(net, k)) == (0.5, 6, 5 * 0.1 ** 2)
            node = net.node_params(k, 0.1)
            assert type(node.k) is int and node.k == 3

    def test_accessors_at_valid_ids(self):
        # the edge ids 0 and S - 1 and the hub pass the node-id check unchanged
        net = build_uniform_matrix(reference_topology(), 0.5)
        got = [(net.self_weight(k), net.degree(k), offdiag_square_sum(net, k))
               for k in (0, 3, 9)]
        assert got == [(0.5, 3, 2 * 0.25 ** 2), (0.5, 6, 5 * 0.1 ** 2),
                       (0.5, 2, 0.25)]

    def test_node_params(self):
        net = build_uniform_matrix(reference_topology(), 0.5)
        node = net.node_params(3, 0.1)
        assert node.eta == (1 - 0.1) * 0.5
        assert node.c_row[3] == 0.0
        np.testing.assert_array_equal(np.delete(node.c_row, 3),
                                      np.delete(net.A[3], 3))
