"""Agent graph and right-stochastic combination matrix.

A network is its S x S matrix A of nonnegative combination weights whose
rows sum to one: A[k, l] is the weight node k gives node l. The graph is
A's positive entries, so node k's neighborhood, k itself plus every l with
A[k, l] > 0, derives from A. ``build_uniform_matrix`` makes A from neighbor
sets, as the reference topology or an edge list gives them.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

ROW_SUM_TOL = 1e-12


def _freeze_copy(self, state):
    """``__setstate__`` restoring the read-only flag pickle and deepcopy drop."""
    self.__dict__.update(state)
    self.__post_init__()


class NetworkError(ValueError):
    """Invalid topology or combination matrix."""


def neighbor_sets_from_edges(n_nodes: int, edges) -> tuple[frozenset[int], ...]:
    """Build per-node neighbor sets (self-loops included) from an edge list."""
    if n_nodes < 1:
        raise NetworkError("need at least one node")
    sets = [{k} for k in range(n_nodes)]
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError) as exc:
            raise NetworkError(f"edge {edge!r} is not a pair of node ids") from exc
        i, j = _node_id(u, edge), _node_id(v, edge)
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise NetworkError(f"edge ({i},{j}) references a node outside 0..{n_nodes - 1}")
        if i == j:
            continue
        sets[i].add(j)
        sets[j].add(i)
    return tuple(frozenset(s) for s in sets)


def whole_number(value) -> int | None:
    """``int(value)``, or None for a bool and where ``int`` fails or would
    truncate: a fractional, nan or infinite number is rejected, not rounded."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if isinstance(value, Number) and out != value else out


def _node_id(value, edge) -> int:
    """``whole_number(value)``, or a NetworkError naming ``edge``."""
    out = whole_number(value)
    if out is None:
        raise NetworkError(f"edge {edge!r}: node id {value!r} is not an integer")
    return out


def reference_topology() -> tuple[frozenset[int], ...]:
    """Bundled 10-node benchmark topology.

    Node 3 is the highly connected node (five neighbors besides itself) and
    node 9 is the weakly connected node (a single neighbor); the graph is
    connected. Any other topology can be supplied through an explicit edge
    list instead.
    """
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (3, 7),
             (4, 5), (4, 6), (5, 6), (6, 7), (6, 8), (7, 8), (7, 9)]
    return neighbor_sets_from_edges(10, edges)


@dataclass(frozen=True)
class NodeParams:
    """Per-node quantities entering the steady-state analysis.

    eta = (1 - mu) * a_k is the geometric memory factor of the node, in
    (0, 1) by the checks below; c_row holds the off-diagonal combination
    weights (c_row[k] == 0).
    """

    k: int
    a_k: float
    mu: float
    c_row: np.ndarray

    def __post_init__(self):
        if not 0 < self.mu < 1:
            raise NetworkError(f"step size mu must be in (0,1), got {self.mu}")
        if not 0 < self.a_k <= 1:
            raise NetworkError(f"self-weight must be in (0,1], got {self.a_k}")
        object.__setattr__(self, "c_row", np.asarray(self.c_row, dtype=float))

    @property
    def eta(self) -> float:
        return (1.0 - self.mu) * self.a_k

    @property
    def link_weights(self) -> np.ndarray:
        """c_kl of node k's neighbors l != k: ``c_row``'s positive entries."""
        return self.c_row[self.c_row > 0]


def _weights(A) -> np.ndarray:
    """A float copy of A, checked square, nonempty, finite and nonnegative."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise NetworkError(f"combination matrix must be square and nonempty, "
                           f"got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NetworkError("combination weights must be finite")
    if np.any(A < 0):
        raise NetworkError("combination weights must be nonnegative")
    return A


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """A network as its combination matrix: ``A[k, l]`` is the weight node k
    applies to information from node l, and node k's neighborhood
    ``neighbors[k]`` is k plus every l with A[k, l] > 0. ``A`` is read-only,
    in copies and pickles too, so instances are safe to share across workers.
    """

    A: np.ndarray

    def __post_init__(self):
        A = _weights(self.A)
        bad = np.flatnonzero(np.abs(A.sum(axis=1) - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise NetworkError(
                f"rows {bad.tolist()} do not sum to 1 within {ROW_SUM_TOL}"
                " (renormalize explicitly if intended)")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    __setstate__ = _freeze_copy

    @property
    def size(self) -> int:
        return self.A.shape[0]

    @property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(np.flatnonzero(row > 0).tolist()) | {k}
                     for k, row in enumerate(self.A))

    def _check_node(self, k) -> int:
        """``k`` as an int: numpy and tuple indexing would read node S - 1
        for k = -1, and reject k = 2.5 without naming it."""
        out = whole_number(k)
        if out is None:
            raise NetworkError(f"node id {k!r} is not an integer")
        if not 0 <= out < self.size:
            raise NetworkError(f"node {k} is outside 0..{self.size - 1}")
        return out

    def self_weight(self, k: int) -> float:
        k = self._check_node(k)
        return float(self.A[k, k])

    def degree(self, k: int) -> int:
        """Neighborhood size including the node itself."""
        return len(self.neighbors[self._check_node(k)])

    def node_params(self, k: int, mu: float) -> NodeParams:
        k = self._check_node(k)
        c_row = self.A[k].copy()
        c_row[k] = 0.0
        return NodeParams(k=k, a_k=self.self_weight(k), mu=mu, c_row=c_row)

    def is_connected(self) -> bool:
        """Whether every node is reached from node 0 along positive weights."""
        reached = np.arange(self.size) == 0
        for _ in range(self.size):
            reached |= np.any(self.A[reached] > 0, axis=0)
        return bool(reached.all())


def build_uniform_matrix(neighbors, a) -> NetworkSpec:
    """Combination matrix with self-weight a_k and equal neighbor weights.

    Row k carries a_k on the diagonal and (1 - a_k)/(|N_k| - 1) on each of
    its |N_k| - 1 neighbor entries, N_k being ``neighbors[k]`` with k added.
    ``a`` may be a scalar or one value per node. An isolated node (no
    neighbor besides itself) is only valid with a_k = 1, otherwise its
    weight mass has nowhere to go.
    """
    neighbors = tuple(frozenset(s) for s in neighbors)
    S = len(neighbors)
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim and a_arr.shape != (S,):
        raise NetworkError(f"self-weights a have length {len(a_arr)}, not {S} (the nodes)")
    a_vec = np.broadcast_to(a_arr, (S,))
    if not np.all((a_vec > 0) & (a_vec <= 1)):
        raise NetworkError("self-weights must lie in (0, 1]")
    A = np.zeros((S, S))
    for k, nset in enumerate(neighbors):
        others = sorted(nset - {k})
        if not set(others) <= set(range(S)):
            raise NetworkError(f"node {k} lists a neighbor outside 0..{S - 1}")
        if not others and a_vec[k] != 1.0:
            raise NetworkError(
                f"node {k} is isolated; uniform weights require a_k = 1, got {a_vec[k]}")
        A[k, k] = a_vec[k]
        if others:
            A[k, others] = (1.0 - a_vec[k]) / len(others)
    return NetworkSpec(A)


def from_matrix(A, renormalize: bool = False) -> NetworkSpec:
    """``NetworkSpec(A)``, or with ``renormalize=True`` that of A with each
    row divided by its sum."""
    if renormalize:
        A = _weights(A)
        sums = A.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise NetworkError("cannot renormalize a zero row")
        A = A / sums
    return NetworkSpec(A)


def offdiag_square_sum(spec: NetworkSpec, k: int) -> float:
    """Sum of squared off-diagonal weights of row k.

    For any valid row this lies in [(1-a_k)^2/(S-1), 1-a_k]; equal neighbor
    weights attain the analogous lower bound with S replaced by |N_k|.
    """
    k = spec._check_node(k)
    row = np.delete(spec.A[k], k)
    return float(row @ row)
